//! # dronet-tile
//!
//! Selective tile processing for large aerial frames, after Plastiras et
//! al., *"Efficient ConvNet-based Object Detection for UAVs by Selective
//! Tile Processing"* (the DroNet sequel paper).
//!
//! DroNet's fixed 352–608 input ladder throws away most of a
//! high-resolution aerial frame: downscaling a 4K scene to 352² makes
//! distant vehicles sub-pixel and undetectable. This crate keeps the
//! detector at its native input size and moves the resolution question to
//! *which parts of the frame to look at*:
//!
//! * [`TileGrid`] — deterministic partitioning of any frame size into
//!   overlapping detector-native tiles,
//! * [`TileSelector`] — a cheap per-tile prior (block variance on the
//!   first frame, frame differencing afterwards — no CNN involved)
//!   combined with attention feedback from
//!   [`dronet_detect::track::Tracker`]: tiles holding confirmed tracks
//!   stay hot, and cold tiles are revisited round-robin at a configurable
//!   period so new entrants cannot hide forever,
//! * [`TileMerger`] — re-projection of per-tile detections into frame
//!   coordinates, boundary stitching of boxes split across tile seams,
//!   containment suppression of clipped duplicates in overlap bands, and
//!   cross-tile NMS reusing [`dronet_detect::nms`],
//! * [`TiledDetector`] — the driver: selected tiles run through
//!   [`dronet_detect::Detector::detect_batch_frames`] as one micro-batch
//!   that is read in place — the first convolution packs each tile
//!   straight from the frame, so no tile is ever copied — with the same
//!   frame-id tracing spans as the serve path
//!   (`tile.select → tile.batch(n) → tile.merge`).
//!
//! Everything is bit-deterministic: the same frame sequence and the same
//! selector seed produce the same selected-tile sets and the same merged
//! detections.
//!
//! # Example
//!
//! ```
//! use dronet_tile::{TiledDetector, TiledDetectorConfig};
//! use dronet_detect::DetectorBuilder;
//! use dronet_tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = dronet_core::zoo::build(dronet_core::ModelId::DroNet, 96)?;
//! let detector = DetectorBuilder::new(net).build()?;
//! // 256x256 frames tiled into 96x96 detector-native tiles.
//! let mut tiled = TiledDetector::new(detector, (256, 256), TiledDetectorConfig::default())?;
//! let frame = Tensor::zeros(Shape::nchw(1, 3, 256, 256));
//! let result = tiled.detect_frame(&frame, 0)?;
//! assert!(result.tiles_selected.len() <= tiled.grid().len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod error;
mod grid;
mod merge;
mod selector;

pub use driver::{TiledDetector, TiledDetectorConfig, TiledFrame};
pub use error::TileError;
pub use grid::{Tile, TileGrid};
pub use merge::{MergeConfig, TileMerger};
pub use selector::{SelectorConfig, TileSelection, TileSelector};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, TileError>;
