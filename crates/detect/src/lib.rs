//! # dronet-detect
//!
//! The deployed detection pipeline of the DroNet paper (Fig. 5): taking a
//! trained region-head network from camera frame to vehicle boxes.
//!
//! * [`decode`] — region-layer output → candidate boxes (anchor decoding,
//!   confidence thresholding),
//! * [`nms`] — greedy per-class non-maximum suppression,
//! * [`Detector`] — the user-facing API wrapping a network with thresholds
//!   and timing ([`DetectorBuilder`] configures it),
//! * [`altitude`] — the paper's §III-D application-level optimisation:
//!   discarding detections whose size is infeasible for the UAV's altitude,
//! * [`pipeline`] — the per-frame results of the paper's on-board
//!   deployment loop, which [`Supervisor`] runs,
//! * [`track`] — a lightweight IoU tracker for the road-traffic-monitoring
//!   use case the paper motivates (vehicle counting),
//! * [`source`] — the [`FrameSource`] camera abstraction the supervisor
//!   consumes frames through,
//! * [`fault`] — a deterministic, seeded fault-injection harness (stalls,
//!   corrupt/NaN frames, transient errors, latency spikes, panics),
//! * [`supervisor`] — the self-healing runner: per-stage deadlines, panic
//!   isolation with stage restarts, bounded retry with backoff, and a
//!   `Healthy → Degraded → Halted` health-state machine,
//! * [`degrade`] — graceful degradation along the paper's 352–608
//!   resolution ladder under sustained overload.
//!
//! # Example
//!
//! ```
//! use dronet_detect::{Detector, DetectorBuilder};
//! use dronet_tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), dronet_detect::DetectError> {
//! let net = dronet_core::zoo::build(dronet_core::ModelId::DroNet, 96)?;
//! let mut detector = DetectorBuilder::new(net)
//!     .confidence_threshold(0.5)
//!     .nms_threshold(0.45)
//!     .build()?;
//! let detections = detector.detect(&Tensor::zeros(Shape::nchw(1, 3, 96, 96)))?;
//! assert!(detections.len() <= 96 * 96); // untrained net, arbitrary output
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detector;
mod error;

pub mod altitude;
pub mod canary;
pub mod decode;
pub mod degrade;
pub mod fault;
pub mod nms;
pub mod pipeline;
pub mod source;
pub mod supervisor;
pub mod track;

pub use canary::{canary_frame, check_canary, detections_bit_equal, CanaryVerdict};
pub use decode::Detection;
pub use degrade::{DegradeConfig, DegradeController, ShiftMetrics};
pub use detector::{DetectStage, Detector, DetectorBuilder};
pub use error::{panic_payload_message, DetectError};
pub use fault::{FaultConfig, FaultKind, FaultPlan, FaultyDetector, FaultyFrameSource};
pub use pipeline::FrameResult;
pub use source::{conform_frame, resize_frame, FrameSource, IterSource};
pub use supervisor::{
    FaultEvent, Health, StageFactory, Supervisor, SupervisorConfig, SupervisorReport,
};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, DetectError>;
