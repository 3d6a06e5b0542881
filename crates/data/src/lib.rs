//! # dronet-data
//!
//! Synthetic aerial imagery substrate for the DroNet reproduction.
//!
//! The paper trains on a proprietary set of 350 aerial images (~5000
//! vehicles) assembled from satellite crops, web images and UAV footage.
//! That data is not available, so this crate procedurally generates
//! top-view traffic scenes with the statistical properties the paper's
//! detector exploits (see `DESIGN.md` §4 for the substitution argument):
//!
//! * [`Image`] — a small RGB image type with the drawing primitives the
//!   renderer needs, plus PPM I/O ([`ppm`]) for inspection,
//! * [`scene`] — the procedural scene generator: roads, lane markings,
//!   grass, buildings, and structured vehicle sprites (body, cabin,
//!   windshield, shadow) under randomised illumination, scale, orientation
//!   and occlusion,
//! * [`Annotation`] — ground-truth boxes following the paper's rule of
//!   annotating vehicles that are at least 50% visible,
//! * [`dataset`] — seeded train/test dataset generation,
//! * [`augment`] — training-time augmentation (flips, photometric jitter,
//!   translation),
//! * [`flight`] — a UAV flight simulator producing a frame stream over a
//!   persistent world with altitude-dependent ground sampling, standing in
//!   for the paper's DJI Matrice 100 camera feed (Fig. 5).
//!
//! # Example
//!
//! ```
//! use dronet_data::scene::{SceneConfig, SceneGenerator};
//!
//! let mut gen = SceneGenerator::new(SceneConfig::default(), 42);
//! let scene = gen.generate();
//! assert_eq!(scene.image.width(), SceneConfig::default().width);
//! // Every annotation is a mostly-visible vehicle.
//! for ann in &scene.annotations {
//!     assert!(ann.bbox.visible_fraction() >= 0.5);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annotation;
mod image;

pub mod augment;
pub mod dataset;
pub mod flight;
pub mod ppm;
pub mod scene;

pub use annotation::Annotation;
pub use image::{Color, Image};
