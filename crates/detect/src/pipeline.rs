//! Frame-stream processing: the on-board loop of the paper's Fig. 5
//! deployment ("we use the on-board camera to retrieve real-time video
//! feed and pass it frame by frame to the processing board where the
//! vehicles are detected").
//!
//! Two execution modes are provided, both over any [`FrameSource`] (an
//! [`IterSource`](crate::IterSource) of tensors, the synthetic scene
//! generator, a fault-injection wrapper, ...):
//!
//! * [`VideoPipeline::run`] — synchronous: every frame is processed, with
//!   per-frame latency recorded; the report can then answer "how many
//!   frames would a camera at X FPS have dropped?",
//! * [`VideoPipeline::run_threaded`] — the camera pump feeds a bounded
//!   single-slot queue (the camera's frame buffer) while the detector
//!   drains it; frames arriving while the detector is busy are dropped,
//!   exactly like a real-time deployment whose camera outpaces compute.
//!
//! Telemetry follows the detector: both modes record into the registry and
//! flight recorder the [`Detector`] was built with
//! ([`DetectorBuilder::observability`](crate::DetectorBuilder::observability)
//! / [`tracing`](crate::DetectorBuilder::tracing)) — per-stage latency
//! histograms (`pipeline.preprocess`, `pipeline.frame`), a
//! `pipeline.queue_depth` gauge, `pipeline.frames` / `pipeline.dropped`
//! counters, and every frame's journey (`camera.frame` instant → `frame`
//! span → detector stage spans → per-layer spans) stamped with a monotonic
//! `frame_id`, surfaced per row in [`FrameResult::frame_id`] and, for
//! drops, in [`PipelineReport::dropped_ids`]. A detector built without
//! either pays only inert-handle checks.

use crate::pump::{CameraPump, Pumped};
use crate::source::FrameSource;
use crate::{DetectError, Detection, Detector, Result};
use dronet_metrics::{Fps, FpsMeter};
use dronet_obs::{Counter, Histogram, Tracer};
use dronet_tensor::Tensor;
use std::time::{Duration, Instant};

/// Result of processing one frame.
#[derive(Debug, Clone)]
pub struct FrameResult {
    /// Index of the frame in arrival order.
    pub frame_index: usize,
    /// The frame's trace context id: every flight-recorder event written
    /// while this frame was processed carries it, so a `trace.json` can be
    /// filtered to this row's causal history. Equal to `frame_index` as a
    /// `u64` (arrival order is the id space).
    pub frame_id: u64,
    /// Detections surviving NMS (and altitude gating when enabled).
    pub detections: Vec<Detection>,
    /// Wall-clock processing latency.
    pub latency: Duration,
}

/// Aggregate statistics of a pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Per-frame results, in processing order.
    pub frames: Vec<FrameResult>,
    /// Frames dropped before processing (threaded mode only).
    pub dropped: usize,
    /// Trace ids of the dropped frames, in drop order (threaded mode;
    /// collected on the cold drop path, so the exact list costs nothing
    /// on the frame path). Always `dropped` entries long.
    pub dropped_ids: Vec<u64>,
}

impl PipelineReport {
    /// Number of frames actually processed.
    pub fn processed(&self) -> usize {
        self.frames.len()
    }

    fn meter(&self) -> FpsMeter {
        let mut meter = FpsMeter::new();
        for f in &self.frames {
            meter.record(f.latency);
        }
        meter
    }

    /// Sustained processing rate.
    pub fn fps(&self) -> Fps {
        self.meter().fps()
    }

    /// Mean per-frame latency.
    pub fn mean_latency(&self) -> Duration {
        self.meter().mean_latency()
    }

    /// Total detections across all processed frames.
    pub fn total_detections(&self) -> usize {
        self.frames.iter().map(|f| f.detections.len()).sum()
    }

    /// How many frames a camera producing at `camera_fps` would have
    /// dropped while each processed frame was being computed (synchronous
    /// mode's analytic equivalent of the threaded drop counter).
    ///
    /// Non-positive or non-finite `camera_fps` (a camera that never
    /// produces a frame) and empty runs both estimate zero drops.
    pub fn estimated_drops_at(&self, camera_fps: f64) -> usize {
        self.frames
            .iter()
            .map(|f| estimated_drops(f.latency, camera_fps))
            .sum()
    }
}

/// Frames a camera producing at `camera_fps` emits, and loses, while one
/// frame takes `latency` to process; zero for a camera that never produces
/// (non-positive or non-finite rate).
pub(crate) fn estimated_drops(latency: Duration, camera_fps: f64) -> usize {
    if !(camera_fps.is_finite() && camera_fps > 0.0) {
        return 0;
    }
    ((latency.as_secs_f64() * camera_fps).ceil() as usize).saturating_sub(1)
}

/// The frame-stream processor.
#[derive(Debug, Default)]
pub struct VideoPipeline;

/// The consumer half both modes share: one detector pass per frame, timed
/// into `pipeline.frame`, counted into `pipeline.frames`, wrapped in a
/// `frame` span.
struct FrameStage {
    tracer: Tracer,
    frame_hist: Histogram,
    frames_counter: Counter,
}

impl FrameStage {
    fn of(detector: &Detector) -> Self {
        let obs = detector.network().observability();
        FrameStage {
            tracer: detector.network().tracing().clone(),
            frame_hist: obs.histogram("pipeline.frame"),
            frames_counter: obs.counter("pipeline.frames"),
        }
    }

    fn process(
        &self,
        detector: &mut Detector,
        frame_index: usize,
        frame: &Tensor,
    ) -> Result<FrameResult> {
        let frame_id = frame_index as u64;
        let t0 = Instant::now();
        let frame_span = self.tracer.frame_span("frame", frame_id);
        let span = self.frame_hist.start();
        let detections = detector.detect(frame)?;
        span.stop();
        drop(frame_span);
        self.frames_counter.inc();
        Ok(FrameResult {
            frame_index,
            frame_id,
            detections,
            latency: t0.elapsed(),
        })
    }
}

impl VideoPipeline {
    /// Processes every frame of `source` through `detector` synchronously.
    /// Frame acquisition (the source's `next_frame()`, standing in for
    /// camera readout + preprocessing) is timed into `pipeline.preprocess`.
    ///
    /// # Errors
    ///
    /// Propagates the first acquisition or detector error. For fault
    /// tolerance instead of fail-fast semantics, use
    /// [`crate::Supervisor`].
    pub fn run(detector: &mut Detector, mut source: impl FrameSource) -> Result<PipelineReport> {
        let stage = FrameStage::of(detector);
        let preprocess = detector
            .network()
            .observability()
            .histogram("pipeline.preprocess");
        let mut report = PipelineReport::default();
        for frame_index in 0.. {
            stage.tracer.set_frame(frame_index as u64);
            let acquire = preprocess.start();
            let Some(item) = source.next_frame() else {
                acquire.cancel();
                break;
            };
            acquire.stop();
            stage.tracer.instant("camera.frame");
            report
                .frames
                .push(stage.process(detector, frame_index, &item?)?);
        }
        Ok(report)
    }

    /// Threaded latest-frame mode: the camera pump pushes frames into a
    /// single-slot buffer as fast as it can; the detector always takes the
    /// newest available frame, and frames that arrive while it is busy are
    /// dropped, counted, and listed by id in the report.
    ///
    /// # Errors
    ///
    /// Propagates the first acquisition or detector error; a panicking
    /// source surfaces as [`DetectError::StageFailed`]. The producer thread
    /// is joined either way.
    pub fn run_threaded(
        detector: &mut Detector,
        source: impl FrameSource + Send + 'static,
    ) -> Result<PipelineReport> {
        let stage = FrameStage::of(detector);
        let pump = CameraPump::spawn(source, detector.network().observability(), &stage.tracer);
        let mut report = PipelineReport::default();
        let mut outcome = Ok(());
        while let Ok(item) = pump.recv(None) {
            let result = match item {
                Pumped::Item(index, item) => {
                    item.and_then(|frame| stage.process(detector, index, &frame))
                }
                Pumped::Crashed(msg) => Err(DetectError::StageFailed {
                    stage: "source",
                    msg,
                }),
            };
            match result {
                Ok(frame) => report.frames.push(frame),
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        report.dropped_ids = pump.finish(true);
        report.dropped = report.dropped_ids.len();
        outcome.map(|()| report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DetectorBuilder, IterSource};
    use dronet_nn::{Activation, Conv2d, Layer, Network, RegionConfig, RegionLayer};
    use dronet_obs::Registry;
    use dronet_tensor::Shape;

    fn tiny_network() -> Network {
        let mut net = Network::new(3, 16, 16);
        net.push(Layer::conv(
            Conv2d::new(3, 6, 3, 1, 1, Activation::Leaky, false).unwrap(),
        ));
        net.push(Layer::region(
            RegionLayer::new(RegionConfig {
                anchors: vec![(1.0, 1.0)],
                classes: 1,
            })
            .unwrap(),
        ));
        net
    }

    fn tiny_detector() -> Detector {
        DetectorBuilder::new(tiny_network()).build().unwrap()
    }

    fn frames(n: usize) -> IterSource<std::vec::IntoIter<Tensor>> {
        IterSource::new(
            (0..n)
                .map(|_| Tensor::zeros(Shape::nchw(1, 3, 16, 16)))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn synchronous_mode_processes_everything() {
        let mut det = tiny_detector();
        let report = VideoPipeline::run(&mut det, frames(5)).unwrap();
        assert_eq!(report.processed(), 5);
        assert_eq!(report.dropped, 0);
        assert!(report.fps().0 > 0.0);
        assert!(report.mean_latency() > Duration::ZERO);
        // Frame indices preserved in order.
        for (i, f) in report.frames.iter().enumerate() {
            assert_eq!(f.frame_index, i);
        }
    }

    #[test]
    fn drop_estimation_scales_with_camera_rate() {
        let mut det = tiny_detector();
        let report = VideoPipeline::run(&mut det, frames(4)).unwrap();
        // An implausibly fast camera forces drops; a slow one doesn't.
        let fast = report.estimated_drops_at(1e7);
        let slow = report.estimated_drops_at(0.001);
        assert!(fast > 0);
        assert_eq!(slow, 0);
    }

    #[test]
    fn drop_estimation_handles_degenerate_camera_rates() {
        let mut det = tiny_detector();
        let report = VideoPipeline::run(&mut det, frames(2)).unwrap();
        assert_eq!(report.estimated_drops_at(0.0), 0);
        assert_eq!(report.estimated_drops_at(-30.0), 0);
        assert_eq!(report.estimated_drops_at(f64::NAN), 0);
        assert_eq!(report.estimated_drops_at(f64::INFINITY), 0);
        assert_eq!(PipelineReport::default().estimated_drops_at(30.0), 0);
    }

    #[test]
    fn threaded_mode_accounts_for_every_frame() {
        let mut det = tiny_detector();
        let n = 30;
        let report = VideoPipeline::run_threaded(&mut det, frames(n)).unwrap();
        assert_eq!(
            report.processed() + report.dropped,
            n,
            "processed {} + dropped {}",
            report.processed(),
            report.dropped
        );
        assert!(report.processed() >= 1);
        // Processed frame indices are strictly increasing (latest-frame
        // semantics never reorders).
        for pair in report.frames.windows(2) {
            assert!(pair[1].frame_index > pair[0].frame_index);
        }
    }

    #[test]
    fn empty_stream_is_fine() {
        let mut det = tiny_detector();
        let report = VideoPipeline::run(&mut det, frames(0)).unwrap();
        assert_eq!(report.processed(), 0);
        assert_eq!(report.total_detections(), 0);
        let report = VideoPipeline::run_threaded(&mut det, frames(0)).unwrap();
        assert_eq!(report.processed(), 0);
    }

    #[test]
    fn observed_sync_run_records_stage_metrics() {
        let obs = Registry::new();
        let mut det = DetectorBuilder::new(tiny_network())
            .observability(&obs)
            .build()
            .unwrap();
        let report = VideoPipeline::run(&mut det, frames(4)).unwrap();
        assert_eq!(report.processed(), 4);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("pipeline.frames"), Some(4));
        let frame = snap.histogram("pipeline.frame").unwrap();
        assert_eq!(frame.count, 4);
        assert!(frame.p99_ns >= frame.p50_ns);
        // One acquisition per yielded frame (the end-of-stream probe is
        // cancelled, not recorded).
        assert_eq!(snap.histogram("pipeline.preprocess").unwrap().count, 4);
    }

    /// Yields `ok` clean frames, then one faulty item, then ends.
    struct FaultyTail {
        ok: usize,
        panic_instead: bool,
    }
    impl FrameSource for FaultyTail {
        fn next_frame(&mut self) -> Option<Result<Tensor>> {
            if self.ok > 0 {
                self.ok -= 1;
                return Some(Ok(Tensor::zeros(Shape::nchw(1, 3, 16, 16))));
            }
            if self.panic_instead {
                panic!("camera readout wedged");
            }
            self.panic_instead = true; // only fault once
            Some(Err(DetectError::CorruptFrame {
                frame_index: 0,
                msg: "truncated readout".into(),
            }))
        }
    }

    #[test]
    fn strict_source_mode_propagates_acquisition_errors() {
        let mut det = tiny_detector();
        let src = FaultyTail {
            ok: 2,
            panic_instead: false,
        };
        let err = VideoPipeline::run(&mut det, src).unwrap_err();
        assert!(matches!(err, DetectError::CorruptFrame { .. }));

        let src = FaultyTail {
            ok: 2,
            panic_instead: false,
        };
        let err = VideoPipeline::run_threaded(&mut det, src).unwrap_err();
        assert!(matches!(err, DetectError::CorruptFrame { .. }));
    }

    #[test]
    fn threaded_source_panic_becomes_typed_error() {
        let mut det = tiny_detector();
        let src = FaultyTail {
            ok: 1,
            panic_instead: true,
        };
        let err = VideoPipeline::run_threaded(&mut det, src).unwrap_err();
        match err {
            DetectError::StageFailed { stage, msg } => {
                assert_eq!(stage, "source");
                assert!(msg.contains("wedged"));
            }
            other => panic!("expected StageFailed, got {other}"),
        }
    }

    #[test]
    fn frame_ids_mirror_arrival_order() {
        let mut det = tiny_detector();
        let report = VideoPipeline::run(&mut det, frames(4)).unwrap();
        for f in &report.frames {
            assert_eq!(f.frame_id, f.frame_index as u64);
        }
        assert!(report.dropped_ids.is_empty());
    }

    #[test]
    fn threaded_dropped_ids_match_drop_count() {
        let mut det = tiny_detector();
        let n = 40;
        let report = VideoPipeline::run_threaded(&mut det, frames(n)).unwrap();
        assert_eq!(report.dropped_ids.len(), report.dropped);
        // Dropped and processed ids partition the arrival order.
        let mut all: Vec<u64> = report.frames.iter().map(|f| f.frame_id).collect();
        all.extend(&report.dropped_ids);
        all.sort_unstable();
        assert_eq!(all, (0..n as u64).collect::<Vec<_>>());
    }

    fn tiny_traced_detector(tracer: &Tracer) -> Detector {
        DetectorBuilder::new(tiny_network())
            .tracing(tracer)
            .build()
            .unwrap()
    }

    #[test]
    fn traced_sync_run_nests_frame_stage_layer() {
        let tracer = Tracer::new();
        let mut detector = tiny_traced_detector(&tracer);
        let report = VideoPipeline::run(&mut detector, frames(3)).unwrap();
        assert_eq!(report.processed(), 3);
        let snap = tracer.snapshot();
        for id in 0..3u64 {
            let events = snap.for_frame(id);
            let names: Vec<&str> = events.iter().map(|e| e.name).collect();
            for expected in [
                "camera.frame",
                "frame",
                "detect.forward",
                "nn.forward",
                "conv",
            ] {
                assert!(names.contains(&expected), "frame {id} missing {expected}");
            }
            // The frame span brackets the stage spans.
            let frame_begin = events
                .iter()
                .find(|e| e.name == "frame" && e.kind == dronet_obs::TraceKind::Begin)
                .unwrap();
            let frame_end = events
                .iter()
                .find(|e| e.name == "frame" && e.kind == dronet_obs::TraceKind::End)
                .unwrap();
            for stage in events.iter().filter(|e| e.name == "detect.forward") {
                assert!(stage.ts_ns >= frame_begin.ts_ns && stage.ts_ns <= frame_end.ts_ns);
            }
        }
    }

    #[test]
    fn traced_threaded_run_records_camera_instants() {
        let tracer = Tracer::new();
        let mut det = tiny_traced_detector(&tracer);
        let n = 25;
        let report = VideoPipeline::run_threaded(&mut det, frames(n)).unwrap();
        let snap = tracer.snapshot();
        let drops: Vec<u64> = snap
            .events
            .iter()
            .filter(|e| e.name == "camera.drop")
            .map(|e| e.frame_id)
            .collect();
        assert_eq!(drops, report.dropped_ids, "trace and report agree on drops");
        let camera_frames = snap
            .events
            .iter()
            .filter(|e| e.name == "camera.frame")
            .count();
        assert_eq!(camera_frames + drops.len(), n);
    }

    #[test]
    fn observed_threaded_run_accounts_for_drops() {
        let obs = Registry::new();
        let mut det = DetectorBuilder::new(tiny_network())
            .observability(&obs)
            .build()
            .unwrap();
        let n = 30;
        let report = VideoPipeline::run_threaded(&mut det, frames(n)).unwrap();
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("pipeline.frames"),
            Some(report.processed() as u64)
        );
        assert_eq!(
            snap.counter("pipeline.dropped"),
            Some(report.dropped as u64)
        );
        assert_eq!(
            snap.histogram("pipeline.preprocess").unwrap().count,
            n as u64
        );
        // Buffer fully drained at the end of the run.
        assert_eq!(snap.gauge("pipeline.queue_depth"), Some(0.0));
    }
}
