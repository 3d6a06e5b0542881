//! The repo benchmark described by `BENCHMARK.json` (see `README.md`).
//!
//! This library holds everything both binaries share and touches the
//! product crates only through their stable entry points (`zoo::build`,
//! `init_weights`, `DetectorBuilder`, `Detector::detect`,
//! `TileSelector::select`, `TiledDetector::run_tiles`, `Server::start` /
//! `shutdown`, the scene generators and the PPM writer). Every call into
//! a kernel-level API lives in `src/bin/trace.rs`, so a later PR that
//! changes such a signature cannot break the gated end-to-end runner.

pub mod args;
pub mod check;
pub mod http;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;
