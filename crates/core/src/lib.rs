//! # dronet-core
//!
//! The paper's primary contribution: the **DroNet** single-shot vehicle
//! detector and the design-space of baseline architectures it was selected
//! from (Figs. 1–2 of *DroNet: Efficient Convolutional Neural Network
//! Detector for Real-Time UAV Applications*, DATE 2018).
//!
//! * [`ModelId`] / [`zoo`] — the four explored architectures
//!   (**TinyYoloVoc**, **TinyYoloNet**, **SmallYoloV3**, **DroNet**) as
//!   Darknet-style cfg files plus programmatic builders, parameterisable
//!   by input resolution (the paper sweeps 352–608).
//!
//! # Example
//!
//! ```
//! use dronet_core::{ModelId, zoo};
//!
//! # fn main() -> Result<(), dronet_nn::NnError> {
//! let net = zoo::build(ModelId::DroNet, 512)?;
//! let (c, h, w) = net.input_chw();
//! assert_eq!((c, h, w), (3, 512, 512));
//! // DroNet keeps 9 convolutions and 5 max pools at every input size.
//! let summary = dronet_nn::summary::NetworkSummary::of("DroNet", &net);
//! assert_eq!(summary.conv_count(), 9);
//! assert_eq!(summary.maxpool_count(), 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod zoo;

pub use zoo::ModelId;
