//! # dronet-nn
//!
//! A from-scratch convolutional neural network engine implementing the
//! subset of the Darknet framework that the DroNet paper's detectors need:
//!
//! * [`Conv2d`] — 2-D convolution with optional batch normalisation and
//!   leaky-ReLU activation, with full forward **and** backward passes,
//! * [`MaxPool2d`] — max pooling with Darknet's padding semantics
//!   (including the stride-1 "same" pool Tiny-YOLO uses),
//! * [`RegionLayer`] — the YOLOv2-style detection head: per-anchor logistic
//!   x/y/objectness and per-cell class softmax,
//! * [`Network`] — a sequential container with inference, training
//!   (forward/backward), per-layer cost accounting ([`cost::LayerCost`])
//!   and human-readable summaries with the whole-network totals
//!   ([`summary::NetworkSummary`]),
//! * [`mod@cfg`] — a Darknet-style `.cfg` model description parser and emitter,
//! * [`weights`] — Darknet-style binary weight serialisation.
//!
//! The engine is deliberately graph-free: layers own their parameters,
//! gradients and forward caches, exactly as Darknet's C structs do. This
//! keeps the mapping to the paper's substrate direct and auditable.
//!
//! # Example
//!
//! ```
//! use dronet_nn::{Activation, Conv2d, Layer, MaxPool2d, Network};
//! use dronet_tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), dronet_nn::NnError> {
//! let mut net = Network::new(3, 32, 32);
//! net.push(Layer::conv(Conv2d::new(3, 8, 3, 1, 1, Activation::Leaky, true)?));
//! net.push(Layer::max_pool(MaxPool2d::new(2, 2)?));
//! let out = net.forward(&dronet_tensor::Tensor::zeros(Shape::nchw(1, 3, 32, 32)))?;
//! assert_eq!(out.shape().dims(), &[1, 8, 16, 16]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod batchnorm;
mod conv;
mod error;
mod layer;
mod maxpool;
mod network;
mod pool;
mod region;

pub mod cfg;
pub mod cost;
pub mod profile;
pub mod summary;
pub mod weights;

pub use activation::Activation;
pub use batchnorm::BatchNorm;
pub use conv::Conv2d;
pub use error::NnError;
pub use layer::{Layer, LayerKind};
pub use maxpool::MaxPool2d;
pub use network::Network;
pub use pool::ActivationPool;
pub use region::{RegionConfig, RegionLayer};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, NnError>;
