//! # dronet-train
//!
//! The training stage of the DroNet pipeline: the YOLO detection loss the
//! paper trains with ("All models were trained using the loss function
//! defined in \[9\]"), stochastic gradient descent with momentum and weight
//! decay (Darknet's optimizer), learning-rate schedules, and a batch
//! training loop with checkpointing.
//!
//! * [`YoloLoss`] — region-layer detection loss: coordinate regression,
//!   objectness with no-object suppression, and class cross-entropy, with
//!   analytic gradients matching the region layer's gradient contract,
//! * [`Sgd`] — SGD + momentum + weight decay over a [`dronet_nn::Network`],
//! * [`LrSchedule`] — constant, burn-in polynomial, and step schedules,
//! * [`Trainer`] — epoch loop over a [`dronet_data::dataset::VehicleDataset`]
//!   with per-epoch loss reporting and optional weight checkpoints,
//! * [`CheckpointStore`] — durable, CRC-guarded, rotating training
//!   checkpoints (weights + optimizer + schedule position) with torn-write
//!   recovery, enabling bit-identical crash/resume via
//!   [`Trainer::train_resumable`],
//! * [`DivergenceSentry`] — NaN/spike detection with
//!   rollback-to-last-good-checkpoint and LR backoff under a bounded retry
//!   budget,
//! * [`crash`] — deterministic crash/fault injection used by the chaos
//!   tests to prove the recovery paths.
//!
//! # Example
//!
//! ```no_run
//! use dronet_data::dataset::VehicleDataset;
//! use dronet_data::scene::SceneConfig;
//! use dronet_train::{Trainer, TrainConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = VehicleDataset::generate(SceneConfig::default(), 32, 0.75, 1);
//! let mut net = dronet_nn::cfg::parse(include_str!("../../core/cfgs/dronet.cfg"))?;
//! net.set_input_size(128, 128)?;
//! let report = Trainer::new(TrainConfig::default()).train(&mut net, &dataset)?;
//! println!("final loss {}", report.epoch_losses.last().unwrap());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod loss;
mod optimizer;
mod schedule;
mod sentry;
mod trainer;

pub mod crash;
pub mod gradcheck;

pub use checkpoint::{
    crc32, Checkpoint, CheckpointError, CheckpointStore, OptimizerState, Recovery, CHECKPOINT_EXT,
};
pub use loss::{LossBreakdown, YoloLoss, YoloLossConfig};
pub use optimizer::{Sgd, SgdState};
pub use schedule::LrSchedule;
pub use sentry::{DivergenceSentry, SentryConfig, TripReason};
pub use trainer::{TrainConfig, TrainError, TrainEvent, TrainReport, Trainer, TRAIN_EVENT_TAIL};
