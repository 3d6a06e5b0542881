//! # dronet
//!
//! A full Rust reproduction of *DroNet: Efficient Convolutional Neural
//! Network Detector for Real-Time UAV Applications* (Kyrkou et al., DATE
//! 2018): a from-scratch CNN engine, the paper's model zoo, a synthetic
//! aerial-data substrate, training, detection, platform performance
//! models, and an experiment harness that regenerates every table and
//! figure of the paper's evaluation.
//!
//! This facade crate re-exports the workspace members under stable module
//! names; see each module's docs for the details, `DESIGN.md` for the
//! system inventory and `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! # Quickstart
//!
//! ```
//! use dronet::core::{zoo, ModelId};
//! use dronet::detect::DetectorBuilder;
//! use dronet::data::scene::{SceneConfig, SceneGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build the paper's DroNet at a reduced input size and run a frame.
//! let net = zoo::build(ModelId::DroNet, 128)?;
//! let mut detector = DetectorBuilder::new(net).build()?;
//! let scene = SceneGenerator::new(SceneConfig::default(), 7).generate();
//! let image = scene.image.resize(128, 128).to_tensor();
//! let detections = detector.detect(&image)?;
//! println!("{} detections from an untrained net", detections.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The paper's model zoo (`dronet-core`).
pub use dronet_core as core;
/// Synthetic aerial scenes, datasets and the flight simulator
/// (`dronet-data`).
pub use dronet_data as data;
/// Detection pipeline: decode, NMS, detector, altitude gating, tracking
/// (`dronet-detect`).
pub use dronet_detect as detect;
/// Experiment harness: sweeps, figures, claims (`dronet-eval`).
pub use dronet_eval as eval;
/// Embedded platform performance models (`dronet-eval`'s `platform`).
pub use dronet_eval::platform;
/// Detection metrics and the weighted Score (`dronet-metrics`).
pub use dronet_metrics as metrics;
/// The CNN engine (`dronet-nn`).
pub use dronet_nn as nn;
/// Telemetry: counters, gauges, latency histograms, JSON/Prometheus exporters
/// (`dronet-obs`).
pub use dronet_obs as obs;
/// HTTP detection server with dynamic micro-batching and admission
/// control (`dronet-serve`).
pub use dronet_serve as serve;
/// Tensor kernels (`dronet-tensor`).
pub use dronet_tensor as tensor;
/// Selective tile processing for large aerial frames (`dronet-tile`).
pub use dronet_tile as tile;
/// YOLO loss, SGD and the training loop (`dronet-train`).
pub use dronet_train as train;
