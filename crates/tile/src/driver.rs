//! The tiled detection driver: select → batch → merge → track.
//!
//! [`TiledDetector`] owns one [`dronet_detect::Detector`] plus the grid,
//! selector, merger and tracker, and turns a large frame into frame-space
//! detections while only spending CNN FLOPs on the selected tiles. The
//! selected tiles run as one micro-batch through
//! [`dronet_detect::Detector::detect_batch_frames`] — exactly the entry
//! point the serve path's micro-batcher uses — so one tiled frame costs one
//! forward pass regardless of how many tiles fired. The batch is a list of
//! tile corners, not a copy: the first convolution reads each tile in place
//! from the frame ([`dronet_tensor::packed::Views::Windows`]).
//!
//! Tracing mirrors the serve path: `tile.select` and `tile.merge` are
//! frame spans, `tile.batch` carries the batch size as its aux value, and
//! the detector's own `detect.forward` / `detect.decode` spans nest
//! underneath.

use crate::grid::TileGrid;
use crate::merge::{MergeConfig, TileMerger};
use crate::selector::{SelectorConfig, TileSelector};
use crate::{Result, TileError};
use dronet_detect::track::{Tracker, TrackerConfig};
use dronet_detect::{panic_payload_message, Detection, Detector, FaultPlan};
use dronet_metrics::BBox;
use dronet_nn::summary::NetworkSummary;
use dronet_obs::Tracer;
use dronet_tensor::packed::Views;
use dronet_tensor::Tensor;

/// Configuration for [`TiledDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TiledDetectorConfig {
    /// Overlap between adjacent tiles in pixels. Must be smaller than the
    /// detector's input size; choose it at least as large as the biggest
    /// expected object in pixels.
    pub overlap: usize,
    /// Tile selection policy.
    pub selector: SelectorConfig,
    /// Cross-tile merge policy.
    pub merge: MergeConfig,
    /// Tracker feeding the selector's attention loop.
    pub tracker: TrackerConfig,
}

impl Default for TiledDetectorConfig {
    fn default() -> Self {
        TiledDetectorConfig {
            overlap: 32,
            selector: SelectorConfig::default(),
            merge: MergeConfig::default(),
            tracker: TrackerConfig::default(),
        }
    }
}

/// The result of running one frame through the tiled pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TiledFrame {
    /// Final frame-space detections after merge and NMS.
    pub detections: Vec<Detection>,
    /// Indices of the tiles that were actually run, ascending.
    pub tiles_selected: Vec<usize>,
    /// Total tiles in the grid (the exhaustive-cost denominator).
    pub tiles_total: usize,
    /// CNN FLOPs spent on this frame (`tiles run × per-tile FLOPs`).
    pub flops: f64,
}

/// Selective tile processing driver around a [`Detector`].
pub struct TiledDetector {
    detector: Detector,
    grid: TileGrid,
    selector: TileSelector,
    merger: TileMerger,
    tracker: Tracker,
    tracer: Tracer,
    per_tile_flops: f64,
    /// Detector-side fault schedule applied per batch forward (chaos/test
    /// knob, the step [`FaultyDetector`](dronet_detect::FaultyDetector)
    /// takes). Indexed by the plan's shared call cursor.
    fault: FaultPlan,
}

impl TiledDetector {
    /// Wraps `detector` for `frame_size` = `(width, height)` frames.
    ///
    /// The tile size is the detector's native input (which must be
    /// square); the grid layout follows from it, the frame size and
    /// `config.overlap`.
    ///
    /// # Errors
    ///
    /// Returns [`TileError::BadConfig`] for a non-square detector input
    /// or invalid selector/merge settings, and [`TileError::BadFrame`]
    /// for an unusable frame geometry.
    pub fn new(
        detector: Detector,
        frame_size: (usize, usize),
        config: TiledDetectorConfig,
    ) -> Result<Self> {
        let (_, h, w) = detector.input_chw();
        if h != w {
            return Err(TileError::BadConfig {
                param: "detector",
                msg: format!("tiling requires a square detector input, got {w}x{h}"),
            });
        }
        let (frame_w, frame_h) = frame_size;
        let grid = TileGrid::new(h, config.overlap, frame_w, frame_h)?;
        let selector = TileSelector::new(config.selector)?;
        let merger = TileMerger::new(config.merge)?;
        let tracker = Tracker::new(config.tracker);
        let per_tile_flops = NetworkSummary::of("tile", detector.network())
            .rows
            .iter()
            .map(|row| row.cost.flops)
            .sum();
        Ok(TiledDetector {
            detector,
            grid,
            selector,
            merger,
            tracker,
            tracer: Tracer::noop(),
            per_tile_flops,
            fault: FaultPlan::none(),
        })
    }

    /// The tile grid this driver partitions frames with.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// The attention tracker (read access, e.g. for inspecting tracks).
    pub fn tracker(&self) -> &Tracker {
        &self.tracker
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// Attaches a tracer to both the tiling spans and the wrapped
    /// detector's spans.
    pub fn set_tracing(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.detector.set_tracing(tracer);
    }

    /// Arms a detector-side fault schedule, one [`FaultPlan::detector_step`]
    /// per tile batch forward: [`FaultKind::DetectorPanic`] panics inside
    /// the batch, [`FaultKind::SlowDetect`] stalls it on the plan's clock,
    /// [`FaultKind::TransientDetect`] fails it with [`TileError::Detect`];
    /// source-side kinds are ignored. Deterministic: same plan, same
    /// faults.
    ///
    /// [`FaultKind::DetectorPanic`]: dronet_detect::FaultKind::DetectorPanic
    /// [`FaultKind::SlowDetect`]: dronet_detect::FaultKind::SlowDetect
    /// [`FaultKind::TransientDetect`]: dronet_detect::FaultKind::TransientDetect
    pub fn set_batch_faults(&mut self, plan: FaultPlan) {
        self.fault = plan;
    }

    /// Runs one frame through select → batch → merge → track.
    ///
    /// # Errors
    ///
    /// Returns [`TileError::BadFrame`] for frames that do not match the
    /// grid geometry, and propagates detector failures as
    /// [`TileError::Detect`].
    pub fn detect_frame(&mut self, frame: &Tensor, frame_id: u64) -> Result<TiledFrame> {
        self.tracer.set_frame(frame_id);
        let hot_boxes: Vec<BBox> = self.tracker.confirmed_tracks().map(|t| t.bbox).collect();
        let span = self.tracer.frame_span("tile.select", frame_id);
        let selection = self.selector.select(&self.grid, frame, &hot_boxes)?;
        drop(span);
        self.run_selected(frame, selection.tiles, frame_id)
    }

    /// Runs an explicit tile set through batch → merge → track, skipping
    /// selection. This is the replay entry point: benchmarks record the
    /// tile sets chosen on one pass and re-run them for timing without
    /// re-deciding.
    ///
    /// # Errors
    ///
    /// Returns [`TileError::BadFrame`] for geometry mismatches or
    /// out-of-range tile indices, and propagates detector failures.
    pub fn run_tiles(
        &mut self,
        frame: &Tensor,
        tiles: &[usize],
        frame_id: u64,
    ) -> Result<TiledFrame> {
        self.grid.check_frame(frame)?;
        if let Some(&bad) = tiles.iter().find(|&&t| t >= self.grid.len()) {
            return Err(TileError::BadFrame {
                msg: format!(
                    "tile index {bad} out of range for {} tiles",
                    self.grid.len()
                ),
            });
        }
        self.tracer.set_frame(frame_id);
        self.run_selected(frame, tiles.to_vec(), frame_id)
    }

    /// Shared batch → merge → track tail of the pipeline.
    fn run_selected(
        &mut self,
        frame: &Tensor,
        tiles: Vec<usize>,
        frame_id: u64,
    ) -> Result<TiledFrame> {
        let n = tiles.len();
        let per_tile: Vec<(usize, Vec<Detection>)> = if n == 0 {
            Vec::new() // nothing moved, nothing tracked: skip the forward
        } else {
            let span = self.tracer.span_aux("tile.batch", n as i64);
            let t = self.grid.tile_size();
            let corners: Vec<(usize, usize)> = tiles
                .iter()
                .map(|&index| {
                    let tile = self.grid.tile(index);
                    (tile.y0, tile.x0)
                })
                .collect();
            let batch = Views::Windows {
                frame,
                size: (t, t),
                corners: &corners,
            };
            let ids = vec![frame_id; n];
            // Panic isolation at the batch boundary: a detector that
            // panics on one poisoned tile batch must not unwind through
            // the whole-frame pipeline. The driver (grid, selector,
            // tracker) holds only plain data, so it stays usable after
            // the catch; the caller decides whether to drop the frame or
            // retire the detector.
            let (fault, detector) = (&self.fault, &mut self.detector);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fault.detector_step()?;
                detector.detect_batch_frames(batch, Some(&ids))
            }));
            drop(span);
            let results = match caught {
                Ok(r) => r?,
                Err(payload) => {
                    return Err(TileError::BatchPanicked {
                        msg: panic_payload_message(payload),
                    })
                }
            };
            tiles.iter().copied().zip(results).collect()
        };

        let span = self.tracer.frame_span("tile.merge", frame_id);
        let detections = self.merger.merge(&self.grid, &per_tile);
        drop(span);
        self.tracker.update(&detections);

        Ok(TiledFrame {
            detections,
            tiles_selected: tiles,
            tiles_total: self.grid.len(),
            flops: self.per_tile_flops * n as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dronet_detect::{DetectorBuilder, FaultKind};
    use dronet_obs::Clock;
    use dronet_tensor::Shape;
    use std::time::{Duration, Instant};

    fn build(frame: (usize, usize), config: TiledDetectorConfig) -> TiledDetector {
        let net = dronet_core::zoo::build(dronet_core::ModelId::DroNet, 96).unwrap();
        let detector = DetectorBuilder::new(net).build().unwrap();
        TiledDetector::new(detector, frame, config).unwrap()
    }

    #[test]
    fn empty_selection_skips_the_forward() {
        let mut tiled = build(
            (256, 256),
            TiledDetectorConfig {
                selector: SelectorConfig {
                    // Gates that never fire and a sweep too slow to reach
                    // any tile quota beyond the mandatory minimum.
                    variance_threshold: f32::MAX,
                    diff_threshold: f32::MAX,
                    ..SelectorConfig::default()
                },
                ..TiledDetectorConfig::default()
            },
        );
        let frame = Tensor::zeros(Shape::nchw(1, 3, 256, 256));
        let out = tiled.run_tiles(&frame, &[], 7).unwrap();
        assert!(out.detections.is_empty());
        assert!(out.tiles_selected.is_empty());
        assert_eq!(out.flops, 0.0);
    }

    #[test]
    fn detect_frame_reports_flops_and_bounds() {
        let mut tiled = build((256, 256), TiledDetectorConfig::default());
        let mut frame = Tensor::zeros(Shape::nchw(1, 3, 256, 256));
        // Texture so saliency has something to chew on.
        for (i, v) in frame.as_mut_slice().iter_mut().enumerate() {
            *v = ((i % 97) as f32) / 97.0;
        }
        let out = tiled.detect_frame(&frame, 0).unwrap();
        assert!(out.tiles_selected.len() <= tiled.grid().len());
        assert_eq!(out.tiles_total, tiled.grid().len());
        let expect = tiled.per_tile_flops * out.tiles_selected.len() as f64;
        assert_eq!(out.flops, expect);
    }

    #[test]
    fn batch_panic_is_caught_as_typed_error_and_driver_stays_usable() {
        let mut tiled = build((256, 256), TiledDetectorConfig::default());
        // First forward panics inside the detector, second runs clean.
        tiled.set_batch_faults(FaultPlan::from_schedule(vec![Some(
            FaultKind::DetectorPanic,
        )]));
        let frame = Tensor::zeros(Shape::nchw(1, 3, 256, 256));
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the injected panic quiet
        let err = tiled.run_tiles(&frame, &[0], 0).unwrap_err();
        std::panic::set_hook(hook);
        match err {
            TileError::BatchPanicked { msg } => {
                assert!(msg.contains("injected detector fault"), "{msg}");
            }
            other => panic!("expected BatchPanicked, got {other}"),
        }
        // The poisoned batch is isolated: the very next frame succeeds on
        // the same driver.
        let out = tiled.run_tiles(&frame, &[0], 1).unwrap();
        assert_eq!(out.tiles_selected, vec![0]);
    }

    #[test]
    fn a_slow_batch_spends_its_spike_on_the_plan_clock() {
        let mut tiled = build((256, 256), TiledDetectorConfig::default());
        let clock = Clock::manual();
        let spike = Duration::from_secs(10);
        tiled.set_batch_faults(
            FaultPlan::from_schedule(vec![Some(FaultKind::SlowDetect(spike))]).clock(&clock),
        );
        let frame = Tensor::zeros(Shape::nchw(1, 3, 256, 256));
        let started = Instant::now();
        tiled.run_tiles(&frame, &[0], 0).unwrap();
        assert!(started.elapsed() < spike, "the spike blocked the batch");
        assert_eq!(clock.now(), spike);
        // The spike was one call's: the next batch spends nothing.
        tiled.run_tiles(&frame, &[0], 1).unwrap();
        assert_eq!(clock.now(), spike);
    }

    #[test]
    fn run_tiles_rejects_out_of_range_indices() {
        let mut tiled = build((256, 256), TiledDetectorConfig::default());
        let frame = Tensor::zeros(Shape::nchw(1, 3, 256, 256));
        let total = tiled.grid().len();
        assert!(tiled.run_tiles(&frame, &[total], 0).is_err());
    }

    #[test]
    fn wrong_frame_geometry_is_rejected() {
        let mut tiled = build((256, 256), TiledDetectorConfig::default());
        let frame = Tensor::zeros(Shape::nchw(1, 3, 128, 128));
        assert!(tiled.detect_frame(&frame, 0).is_err());
    }

    #[test]
    fn tracing_emits_tile_spans() {
        let tracer = Tracer::new();
        let mut tiled = build((256, 256), TiledDetectorConfig::default());
        tiled.set_tracing(&tracer);
        let frame = Tensor::zeros(Shape::nchw(1, 3, 256, 256));
        tiled.detect_frame(&frame, 3).unwrap();
        let names: Vec<String> = tracer
            .snapshot()
            .events
            .iter()
            .map(|e| e.name.to_string())
            .collect();
        assert!(names.iter().any(|n| n == "tile.select"), "{names:?}");
        assert!(names.iter().any(|n| n == "tile.merge"), "{names:?}");
    }
}
