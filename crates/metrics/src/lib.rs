//! # dronet-metrics
//!
//! Shared detection geometry and the evaluation metrics of the DroNet paper
//! (Section IV):
//!
//! * [`BBox`] — normalised centre-format bounding boxes with IoU,
//! * [`matching`] — greedy IoU matching of detections to ground truth,
//!   yielding true/false positives and false negatives,
//! * [`DetectionStats`] — Sensitivity (eq. 1), Precision (eq. 2), mean IoU,
//! * [`Fps`] — the frame-rate figure the Score metric weighs,
//! * [`score`] — the weighted composite Score metric (eq. 3) with its
//!   simplex-constrained weight vector and the cross-model normalisation
//!   scheme of Fig. 3,
//! * [`report`] — plain-text/CSV table rendering used by the experiment
//!   harness.
//!
//! # Example
//!
//! ```
//! use dronet_metrics::{BBox, ScoreWeights};
//!
//! let a = BBox::new(0.5, 0.5, 0.2, 0.2);
//! let b = BBox::new(0.5, 0.5, 0.2, 0.2);
//! assert!((a.iou(&b) - 1.0).abs() < 1e-6);
//!
//! // The paper's weights: FPS 0.4, IoU/Sensitivity/Precision 0.2 each.
//! let w = ScoreWeights::paper();
//! assert!((w.fps - 0.4).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bbox;
mod error;
mod fps;
mod stats;

pub mod matching;
pub mod report;
pub mod score;

pub use bbox::BBox;
pub use error::MetricsError;
pub use fps::Fps;
pub use matching::{match_detections, MatchResult};
pub use score::{normalize_metrics, MetricVector, ScoreWeights};
pub use stats::DetectionStats;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, MetricsError>;
