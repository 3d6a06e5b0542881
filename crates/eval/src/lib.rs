//! # dronet-eval
//!
//! The experiment harness: everything needed to regenerate the DroNet
//! paper's evaluation section (tables, figures, and headline claims) from
//! this workspace's own components.
//!
//! * [`platform`] — analytic roofline models of the paper's embedded
//!   platforms (i5-2520M, Odroid-XU4, Raspberry Pi 3, Titan Xp), standing
//!   in for hardware we do not have,
//! * [`response`] — the detection-accuracy response model: per-model
//!   accuracy anchors (calibrated once against the paper's reported
//!   deltas, see `DESIGN.md` §4.2) combined with resolution response
//!   curves, standing in for full-scale training on the paper's
//!   proprietary dataset,
//! * [`sweep`] — the Section IV-A design-space sweep: models × input
//!   sizes × platforms, combining real FLOP counts, platform projections
//!   and the response model,
//! * [`figures`] — regenerates Fig. 1/2 (architecture tables), Fig. 3
//!   (normalised metrics), Fig. 4 (weighted score) and the Fig. 5 / §IV-B
//!   deployment table,
//! * [`claims`] — extracts the paper's quantitative claims from the sweep
//!   and checks each one (who wins, by what factor),
//! * [`realeval`] — *measured* (not modelled) evaluation: runs a trained
//!   detector over synthetic scenes and computes IoU/sensitivity/precision
//!   with real matching, used by the end-to-end examples and tests,
//! * [`experiments`] — the top-level runner producing the contents of
//!   `EXPERIMENTS.md`.
//!
//! # Example
//!
//! ```
//! use dronet_eval::sweep::{cpu_sweep, SweepConfig};
//!
//! let results = cpu_sweep(&SweepConfig::quick());
//! // DroNet at some size must outscore TinyYoloVoc at every size
//! // under the paper's weights (the paper's Fig. 4 conclusion).
//! let best = |name: &str| {
//!     results.iter().filter(|r| r.model.name() == name)
//!         .map(|r| r.score).fold(f64::MIN, f64::max)
//! };
//! assert!(best("DroNet") > best("TinyYoloVoc"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod experiments;
pub mod figures;
pub mod platform;
pub mod realeval;
pub mod response;
pub mod sweep;
