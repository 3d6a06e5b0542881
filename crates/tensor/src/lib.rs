//! # dronet-tensor
//!
//! Dense `f32` tensor substrate for the DroNet reproduction.
//!
//! This crate provides the numerical kernels that the CNN engine
//! (`dronet-nn`) is built on:
//!
//! * [`Tensor`] — an owned, contiguous, row-major N-dimensional array of
//!   `f32` with NCHW-oriented helpers,
//! * [`Shape`] — dimension/stride algebra,
//! * [`packed`] — the one register-tiled GEMM microkernel, and the
//!   implicit-GEMM convolution (weights packed once, taps read straight
//!   from the activation, batch-norm/bias/activation fused into the store)
//!   that every convolution forward runs on, training's included, and its
//!   numeric contract: two rounding families ([`Rounding`]), the one this
//!   CPU runs reported by [`rounding`],
//! * [`gemm`] — the BLAS-style `sgemm` entry points over that kernel,
//! * [`im2col`] — image-to-column lowering (and its adjoint
//!   [`im2col::col2im`]) that the training backward pass uses to express
//!   convolution gradients as GEMMs,
//! * [`ops`] — element-wise and reduction kernels (activations, softmax,
//!   batch statistics),
//! * [`init`] — reproducible random initialisers (uniform, normal, Kaiming).
//!
//! The design mirrors what the Darknet framework (the paper's substrate)
//! provides in C: no autograd graph, just fast explicit kernels that the
//! layer implementations compose.
//!
//! # Example
//!
//! ```
//! use dronet_tensor::{Tensor, Shape};
//!
//! # fn main() -> Result<(), dronet_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::new(&[2, 2]))?;
//! let b = Tensor::ones(Shape::new(&[2, 2]));
//! let c = dronet_tensor::gemm::matmul(&a, &b)?;
//! assert_eq!(c.as_slice(), &[3.0, 3.0, 7.0, 7.0]);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)] // two exceptions, stated and budgeted in `dispatch` and `parallel::pool`
#![warn(missing_docs)]

mod dispatch;
mod error;
mod shape;
mod tensor;

pub mod gemm;
pub mod im2col;
pub mod init;
pub mod ops;
pub mod packed;
pub mod parallel;

pub use error::TensorError;
pub use packed::{rounding, Rounding};
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
