//! The self-healing pipeline: runs a detection stage against per-stage
//! deadlines, isolates crashes, retries transient failures, and degrades
//! resolution instead of dying.
//!
//! The paper's deployment (Fig. 5) is an *unattended* loop on an
//! Odroid-XU4/RPi3: the camera's frames go one by one to the detector, and
//! a fault mid-flight must cost a frame, not the flight. [`Supervisor`] is
//! the workspace's one frame loop, with:
//!
//! * **per-stage deadlines** — the frame source and the detector each get
//!   one; a frame acquisition or a detector pass that ran past it is
//!   recorded as a fault against its frame once it returns (a stage that
//!   never returns blocks the loop: nothing is pre-empted),
//! * **panic isolation** — the detector runs under `catch_unwind`; a
//!   crash becomes a typed [`DetectError::StageFailed`] and the stage is
//!   rebuilt from its factory instead of unwinding across the pipeline,
//! * **bounded retry with exponential backoff** — recoverable frame
//!   errors ([`DetectError::is_recoverable`]) are retried a configurable
//!   number of times before the frame is skipped,
//! * **a health-state machine** — the workspace's one
//!   `Healthy → Degraded → Halted` ratchet ([`dronet_obs::HealthCell`]),
//!   exported as the `supervisor.health` gauge (0/1/2), with recovery back
//!   to `Healthy` by the workspace's one [`RecoveryClock`] — a clean streak
//!   of `recovery_frames` frames, with the ladder back at its top,
//! * **graceful degradation** — an optional [`DegradeController`]
//!   watches the drops a camera at [`SupervisorConfig::camera_fps`] would
//!   have suffered and walks the detector down (and back up) the paper's
//!   352–608 resolution ladder: frames are conformed to the current rung
//!   and the stage runs at the size it is given, so a shift builds
//!   nothing. A run that ends below the top of its ladder reports
//!   `Degraded`.
//!
//! [`Supervisor::run_sync`] is the one executor: it fetches each frame and
//! calls the stage on the calling thread, so the fault ledger is
//! deterministic for a given fault schedule.
//!
//! Every duration the policy judges — a stage call's latency, a frame
//! acquisition, the retry backoff — is read from, or spent on, the
//! supervisor's [`Clock`] ([`Supervisor::clock`], real by default). On a
//! manual clock whose only movement is a fault plan's stalls and spikes,
//! a run is exact, overload verdicts included.

use crate::degrade::{DegradeController, ShiftMetrics};
use crate::detector::DetectStage;
use crate::error::panic_payload_message;
use crate::pipeline::{estimated_drops, FrameResult};
use crate::source::{conform_frame, FrameSource};
use crate::{DetectError, Detection, Result};
use dronet_metrics::Fps;
use dronet_obs::{
    BlackBox, Clock, Counter, HealthCell, RecoveryClock, Registry, RestartBudget, Tracer,
};
use dronet_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

pub use dronet_obs::Health;

/// One fault the supervisor observed and survived (or halted on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Arrival index of the implicated frame, when attributable.
    pub frame_index: Option<usize>,
    /// Stage that faulted: `"source"`, `"detect"` or `"supervisor"`.
    pub stage: &'static str,
    /// Human-readable description (the typed error's display form).
    pub description: String,
}

/// Tunables of the supervised pipeline.
///
/// The two deadlines are verdicts, not pre-emption: [`Supervisor::run_sync`]
/// compares the latency it read from the supervisor's [`Clock`] with them
/// after the call returns, as it does the latency behind its
/// [`SupervisorConfig::camera_fps`] overload estimate.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Deadline for frame acquisition; exceeding it records a camera
    /// stall against the frame.
    pub source_timeout: Duration,
    /// Deadline for one detector pass; exceeding it records a `detect`
    /// fault against the frame, whose detections are kept.
    pub stage_timeout: Duration,
    /// Clean frames required to recover from `Degraded` to `Healthy` (with
    /// the ladder at its top).
    pub recovery_frames: u32,
    /// Nominal camera rate used to *estimate* overload (drops) from
    /// per-frame latency, since the loop never physically drops a frame.
    pub camera_fps: Option<f64>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            source_timeout: Duration::from_millis(250),
            stage_timeout: Duration::from_secs(1),
            recovery_frames: 8,
            camera_fps: None,
        }
    }
}

/// What a supervised run did: processed frames plus the complete fault and
/// recovery ledger.
#[derive(Debug, Clone, Default)]
pub struct SupervisorReport {
    /// Per-frame results of successfully processed frames.
    pub frames: Vec<FrameResult>,
    /// Frame ids of the frames consumed but abandoned after faults
    /// exhausted their retries, in occurrence order.
    pub skipped_ids: Vec<u64>,
    /// Crash black box: the flight recorder's tail at the most recent stage
    /// failure or halt (later captures overwrite earlier ones — the events
    /// leading up to the *final* failure are the ones a post-mortem reads).
    /// `None` when the run was clean or no tracer was attached via
    /// [`Supervisor::tracing`].
    pub black_box: Option<BlackBox>,
    /// Every fault observed, in occurrence order.
    pub faults: Vec<FaultEvent>,
    /// Detector stage restarts (after panics).
    pub restarts: u32,
    /// Frame-level retry attempts.
    pub retries: u32,
    /// Camera stalls: acquisitions that ran past `source_timeout`.
    pub stalls: u32,
    /// Input sizes used over the run, starting with the initial one.
    pub resolution_history: Vec<usize>,
    /// Health at the end of the run.
    pub final_health: Health,
}

impl SupervisorReport {
    /// Number of frames actually processed.
    pub fn processed(&self) -> usize {
        self.frames.len()
    }

    /// Frames consumed but abandoned after faults exhausted their retries.
    pub fn skipped(&self) -> usize {
        self.skipped_ids.len()
    }

    /// Resolution downshifts performed by the degradation controller.
    pub fn downshifts(&self) -> u32 {
        let history = &self.resolution_history;
        history.windows(2).filter(|w| w[1] < w[0]).count() as u32
    }

    /// Resolution upshifts performed by the degradation controller.
    pub fn upshifts(&self) -> u32 {
        let history = &self.resolution_history;
        history.windows(2).filter(|w| w[1] > w[0]).count() as u32
    }

    /// Sustained processing rate, implied by the mean latency (infinite
    /// for an empty run).
    pub fn fps(&self) -> Fps {
        Fps::from_latency(self.mean_latency())
    }

    /// Mean per-frame latency (zero for an empty run).
    pub fn mean_latency(&self) -> Duration {
        let total: Duration = self.frames.iter().map(|f| f.latency).sum();
        total / self.frames.len().max(1) as u32
    }

    /// How many frames a camera producing at `camera_fps` would have
    /// dropped while each processed frame was being computed: the loop's
    /// one drop model.
    ///
    /// Non-positive or non-finite `camera_fps` (a camera that never
    /// produces a frame) and empty runs both estimate zero drops.
    pub fn estimated_drops_at(&self, camera_fps: f64) -> usize {
        self.frames
            .iter()
            .map(|f| estimated_drops(f.latency, camera_fps))
            .sum()
    }

    /// The fault ledger restricted to schedule-deterministic content
    /// (stage + description + frame index), for reproducibility checks.
    pub fn fault_signature(&self) -> Vec<(Option<usize>, &'static str, String)> {
        self.faults
            .iter()
            .map(|f| (f.frame_index, f.stage, f.description.clone()))
            .collect()
    }
}

/// Factory building the detection stage: called once at startup and again
/// after every crash. A resolution shift builds nothing: the stage
/// runs at the size of the frames it is given.
pub type StageFactory<'a> = dyn FnMut() -> Result<Box<dyn DetectStage>> + 'a;

/// The supervised pipeline runner. See the module docs for the full
/// behaviour; construct with [`Supervisor::new`], attach telemetry with
/// [`Supervisor::observability`], then call [`Supervisor::run_sync`].
#[derive(Debug, Default)]
pub struct Supervisor {
    config: SupervisorConfig,
    obs: Registry,
    tracer: Tracer,
    clock: Clock,
}

/// Health/fault bookkeeping of one run.
struct Monitor {
    report: SupervisorReport,
    health: HealthCell,
    recovery: RecoveryClock,
    tracer: Tracer,
    faults_counter: Counter,
    retries_counter: Counter,
    restarts_counter: Counter,
    stalls_counter: Counter,
    skipped_counter: Counter,
}

impl Monitor {
    fn new(obs: &Registry, recovery_frames: u32, first_rung: usize, tracer: &Tracer) -> Self {
        Monitor {
            report: SupervisorReport {
                resolution_history: vec![first_rung],
                ..SupervisorReport::default()
            },
            health: HealthCell::new(obs.gauge("supervisor.health")),
            recovery: RecoveryClock::new(u64::from(recovery_frames)),
            tracer: tracer.clone(),
            faults_counter: obs.counter("supervisor.faults"),
            retries_counter: obs.counter("supervisor.retries"),
            restarts_counter: obs.counter("supervisor.restarts"),
            stalls_counter: obs.counter("supervisor.stalls"),
            skipped_counter: obs.counter("supervisor.skipped"),
        }
    }

    fn fault(&mut self, frame_index: Option<usize>, stage: &'static str, description: String) {
        self.report.faults.push(FaultEvent {
            frame_index,
            stage,
            description,
        });
        self.faults_counter.inc();
        self.recovery.fault(&self.health);
    }

    fn stall(&mut self, index: usize, elapsed: Duration, limit: Duration) {
        self.report.stalls += 1;
        self.stalls_counter.inc();
        self.fault(
            Some(index),
            "source",
            DetectError::Timeout {
                stage: "source",
                elapsed,
                limit,
            }
            .to_string(),
        );
    }

    /// The source panicked: a fault, after which nothing more will arrive.
    fn source_crashed(&mut self, msg: String) {
        let e = DetectError::StageFailed {
            stage: "source",
            msg,
        };
        self.fault(None, "source", e.to_string());
    }

    fn retry(&mut self) {
        self.report.retries += 1;
        self.retries_counter.inc();
        self.recovery.fault(&self.health);
    }

    /// Counts a stage restart; the stage loss itself was already recorded
    /// as a [`Monitor::fault`].
    fn restart(&mut self) {
        self.report.restarts += 1;
        self.restarts_counter.inc();
    }

    fn skipped(&mut self, index: usize) {
        self.report.skipped_ids.push(index as u64);
        self.skipped_counter.inc();
    }

    fn black_box(&mut self, trigger: &str, frame_ids: &[u64]) {
        if self.tracer.is_enabled() {
            self.report.black_box = Some(BlackBox::capture(&self.tracer, trigger, frame_ids));
        }
    }

    fn halt(&mut self, reason: String) {
        // Keep an earlier capture's frame attribution if the halt itself
        // has none (e.g. restart budget exhausted after a frame's panic).
        let frame_ids = self
            .report
            .black_box
            .take()
            .map(|b| b.frame_ids)
            .unwrap_or_default();
        self.black_box(&reason, &frame_ids);
        self.fault(None, "supervisor", reason);
        self.health.halt();
    }

    fn finish(mut self) -> SupervisorReport {
        self.report.final_health = self.health.get();
        self.report
    }
}

/// The first retry's backoff; it doubles per attempt.
pub const BACKOFF_BASE: Duration = Duration::from_millis(2);

/// Retries per frame before skipping it; the `n`th waits
/// [`BACKOFF_BASE`] × 2ⁿ⁻¹ on the clock first.
const MAX_RETRIES: u64 = 2;

/// Detector stage restarts (after panics) before halting.
const MAX_RESTARTS: u64 = 5;

fn backoff(attempt: u64) -> Duration {
    BACKOFF_BASE.saturating_mul(1u32 << attempt.saturating_sub(1).min(10))
}

/// How one attempt at running the detector stage on a frame ended.
enum StageCall {
    /// The stage returned — detections or a typed error — after this long.
    Returned(Result<Vec<Detection>>, Duration),
    /// The stage panicked and must be rebuilt before anything else is
    /// dispatched.
    Lost(DetectError),
}

/// Runs `stage` on one frame inside a `frame` span, under `catch_unwind`,
/// timing it on `clock`. A panic leaves the span's begin dangling in the
/// ring: it is the black box's crash evidence.
fn call_stage(
    stage: &mut dyn DetectStage,
    tracer: &Tracer,
    clock: &Clock,
    index: usize,
    frame: &Tensor,
) -> StageCall {
    let span = tracer.frame_span("frame", index as u64);
    let t0 = clock.now();
    match catch_unwind(AssertUnwindSafe(|| stage.detect_frame(frame))) {
        Ok(result) => {
            let elapsed = clock.now() - t0;
            drop(span);
            StageCall::Returned(result, elapsed)
        }
        Err(payload) => {
            span.cancel();
            StageCall::Lost(DetectError::StageFailed {
                stage: "detect",
                msg: panic_payload_message(payload),
            })
        }
    }
}

impl Supervisor {
    /// A supervisor with the given tunables and no telemetry.
    pub fn new(config: SupervisorConfig) -> Self {
        Supervisor {
            config,
            ..Supervisor::default()
        }
    }

    /// Times stage calls and frame acquisitions on `clock`, and spends
    /// retry backoffs on it. A test passes a manual clock, and the same
    /// clock to its [`crate::FaultPlan::clock`], so the latencies the
    /// verdicts read are exactly the injected ones.
    pub fn clock(mut self, clock: &Clock) -> Self {
        self.clock = clock.clone();
        self
    }

    /// Attaches a flight recorder: every acquired frame gets a
    /// `camera.frame` instant, every processed frame a `frame` span around
    /// the stage's own spans, and on stage failures and halts the
    /// recorder's last [`dronet_obs::BLACK_BOX_EVENTS`] events are dumped
    /// into [`SupervisorReport::black_box`].
    pub fn tracing(mut self, tracer: &Tracer) -> Self {
        self.tracer = tracer.clone();
        self
    }

    /// Attaches a telemetry registry: the supervisor exports
    /// `supervisor.health` (gauge), `supervisor.{faults,retries,restarts,
    /// stalls,skipped}` (counters), `detect.input_size` (gauge),
    /// `degrade.{downshifts,upshifts}` (counters) and the pipeline's
    /// `pipeline.{preprocess,frame}` (histograms) and `pipeline.frames`
    /// (counter).
    pub fn observability(mut self, obs: &Registry) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Runs the supervised pipeline on the calling thread: each frame is
    /// pulled from `source`, conformed, and passed to the stage.
    ///
    /// `factory` builds the detection stage, and rebuilds it after a
    /// crash. `controller`, when given, drives resolution degradation:
    /// frames are conformed to its current rung, and the stage runs at
    /// that size. Without one, frames are conformed to the stage's own
    /// [`DetectStage::input_chw`].
    ///
    /// The run survives every recoverable fault (panic isolation, retries,
    /// restarts, degradation) and returns a report; the report's
    /// [`SupervisorReport::final_health`] is [`Health::Halted`] when a
    /// fault budget was exhausted. Stalls and slow stages are *recorded*
    /// when their latency on the supervisor's [`Clock`] exceeds the
    /// deadlines, but nothing is pre-empted: a source or stage that never
    /// returns blocks the loop.
    ///
    /// Overload is estimated from that per-frame latency against
    /// [`SupervisorConfig::camera_fps`], as
    /// [`SupervisorReport::estimated_drops_at`] estimates it after the run.
    /// Every verdict of the run reads the clock, so on a manual clock moved
    /// only by a fault plan's stalls and spikes the whole report, ladder
    /// walk included, is a function of the schedule.
    ///
    /// # Errors
    ///
    /// Returns an error only when the *initial* stage construction fails;
    /// everything after that is handled in-band.
    pub fn run_sync(
        &self,
        mut source: impl FrameSource,
        factory: &mut StageFactory<'_>,
        mut controller: Option<DegradeController>,
    ) -> Result<SupervisorReport> {
        let cfg = &self.config;
        let obs = &self.obs;
        let mut stage = factory()?;
        // Frames are conformed to the current rung, or to the stage's own
        // size without a controller; the stage runs at whatever it is given.
        let stage_chw = stage.input_chw();
        let rung = |size| (stage_chw.0, size, size);
        let mut frame_chw = controller.as_ref().map_or(stage_chw, |c| rung(c.current()));

        let preprocess = obs.histogram("pipeline.preprocess");
        let frame_hist = obs.histogram("pipeline.frame");
        let frames_counter = obs.counter("pipeline.frames");
        let shifts = ShiftMetrics {
            downshifts: obs.counter("degrade.downshifts"),
            upshifts: obs.counter("degrade.upshifts"),
            input_size: obs.gauge("detect.input_size"),
        };
        shifts.input_size.set(frame_chw.1 as f64);

        let mut monitor = Monitor::new(obs, cfg.recovery_frames, frame_chw.1, &self.tracer);
        let mut restarts = RestartBudget::new(MAX_RESTARTS);

        // Every exit from this loop other than the end of the stream or a
        // source crash goes through `monitor.halt`.
        'stream: for index in 0.. {
            self.tracer.set_frame(index as u64);
            let t0 = self.clock.now();
            let item = match catch_unwind(AssertUnwindSafe(|| source.next_frame())) {
                Ok(Some(item)) => item,
                Ok(None) => break,
                Err(payload) => {
                    monitor.source_crashed(panic_payload_message(payload));
                    break;
                }
            };
            let acquisition = self.clock.now() - t0;
            self.tracer.instant("camera.frame");
            preprocess.record(acquisition);
            if acquisition > cfg.source_timeout {
                monitor.stall(index, acquisition, cfg.source_timeout);
            }

            let mut latency = None;
            match item.and_then(|frame| conform_frame(frame, frame_chw, index)) {
                Err(e) => {
                    monitor.fault(Some(index), "source", e.to_string());
                    monitor.skipped(index);
                }
                Ok(frame) => {
                    let mut retries = RestartBudget::new(MAX_RETRIES);
                    loop {
                        let call =
                            call_stage(stage.as_mut(), &self.tracer, &self.clock, index, &frame);
                        let lost = match call {
                            StageCall::Returned(Ok(detections), elapsed) => {
                                if elapsed > cfg.stage_timeout {
                                    let slow = DetectError::Timeout {
                                        stage: "detect",
                                        elapsed,
                                        limit: cfg.stage_timeout,
                                    };
                                    monitor.fault(Some(index), "detect", slow.to_string());
                                }
                                frames_counter.inc();
                                frame_hist.record(elapsed);
                                latency = Some(elapsed);
                                monitor.report.frames.push(FrameResult {
                                    frame_index: index,
                                    frame_id: index as u64,
                                    detections,
                                    latency: elapsed,
                                });
                                let browned_out =
                                    controller.as_ref().is_some_and(|c| c.is_degraded());
                                monitor.recovery.clean(&monitor.health, !browned_out);
                                break;
                            }
                            StageCall::Returned(Err(e), _) => {
                                if e.is_recoverable() && retries.spend() {
                                    monitor.retry();
                                    self.clock.sleep(backoff(retries.spent));
                                    continue;
                                }
                                monitor.fault(Some(index), "detect", e.to_string());
                                monitor.skipped(index);
                                break;
                            }
                            StageCall::Lost(e) => e,
                        };
                        // Panic: isolate, restart, maybe retry. The black box
                        // is captured before the restart so the dump ends at
                        // the failing frame's events.
                        let description = lost.to_string();
                        monitor.fault(Some(index), "detect", description.clone());
                        monitor.black_box(&description, &[index as u64]);
                        monitor.restart();
                        if !restarts.spend() {
                            monitor.halt("detector stage restart budget exhausted".to_string());
                            break 'stream;
                        }
                        match factory() {
                            Ok(rebuilt) => stage = rebuilt,
                            Err(e) => {
                                monitor.halt(format!("detector stage rebuild failed: {e}"));
                                break 'stream;
                            }
                        }
                        if retries.spend() {
                            monitor.retry();
                        } else {
                            monitor.skipped(index);
                            break;
                        }
                    }
                }
            }
            // Feed the degradation controller one verdict per consumed
            // item; a shift it requests only moves the size later frames
            // are conformed to. The loop never drops a frame, so an item
            // is hot when a camera at the nominal rate would have dropped
            // frames meanwhile.
            let Some(ctrl) = controller.as_mut() else {
                continue;
            };
            let drops = cfg
                .camera_fps
                .zip(latency)
                .map_or(0, |(fps, latency)| estimated_drops(latency, fps));
            if let Some(size) = ctrl.step(drops > 0, &shifts, &monitor.health) {
                frame_chw = rung(size);
                monitor.report.resolution_history.push(size);
            }
        }
        Ok(monitor.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, FaultyDetector, FaultyFrameSource};
    use crate::source::IterSource;
    use dronet_tensor::Shape;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    /// A trivial stage: constant latency, no detections.
    struct NullStage;
    impl DetectStage for NullStage {
        fn detect_frame(&mut self, _: &Tensor) -> Result<Vec<Detection>> {
            Ok(Vec::new())
        }
        fn input_chw(&self) -> (usize, usize, usize) {
            (3, 8, 8)
        }
    }

    /// A `size`² stage that computes nothing and records the height of
    /// every frame it is given.
    struct SizeProbe {
        size: usize,
        seen: Arc<Mutex<Vec<usize>>>,
    }
    impl SizeProbe {
        fn new(size: usize, seen: &Arc<Mutex<Vec<usize>>>) -> Self {
            let seen = Arc::clone(seen);
            SizeProbe { size, seen }
        }
    }
    impl DetectStage for SizeProbe {
        fn detect_frame(&mut self, frame: &Tensor) -> Result<Vec<Detection>> {
            self.seen.lock().unwrap().push(frame.shape().height());
            Ok(Vec::new())
        }
        fn input_chw(&self) -> (usize, usize, usize) {
            (3, self.size, self.size)
        }
    }

    fn frames(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|_| Tensor::zeros(Shape::nchw(1, 3, 8, 8)))
            .collect()
    }

    fn quick_config() -> SupervisorConfig {
        SupervisorConfig {
            source_timeout: Duration::from_millis(200),
            stage_timeout: Duration::from_millis(500),
            recovery_frames: 2,
            ..SupervisorConfig::default()
        }
    }

    /// `n` blank frames through a real one-conv [`crate::Detector`] over
    /// 8x8 frames, with `obs` and `tracer` on both the detector and the
    /// supervisor.
    fn detector_run(n: usize, obs: &Registry, tracer: &Tracer) -> SupervisorReport {
        use dronet_nn::{Activation, Conv2d, Layer, Network, RegionConfig, RegionLayer};
        let mut net = Network::new(3, 8, 8);
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
        let mut factory = || -> Result<Box<dyn DetectStage>> {
            let detector = crate::DetectorBuilder::new(net.clone())
                .observability(obs)
                .tracing(tracer)
                .build()?;
            Ok(Box::new(detector))
        };
        let sup = Supervisor::new(quick_config())
            .observability(obs)
            .tracing(tracer);
        sup.run_sync(IterSource::new(frames(n)), &mut factory, None)
            .unwrap()
    }

    #[test]
    fn clean_run_processes_everything_and_stays_healthy() {
        let sup = Supervisor::new(quick_config());
        let mut factory: Box<dyn FnMut() -> Result<Box<dyn DetectStage>>> =
            Box::new(|| Ok(Box::new(NullStage)));
        let report = sup
            .run_sync(IterSource::new(frames(10)), &mut factory, None)
            .unwrap();
        assert_eq!(report.processed(), 10, "the loop drops no frame");
        assert_eq!(report.final_health, Health::Healthy);
        assert!(report.faults.is_empty());
        assert_eq!(report.skipped(), 0);
        assert_eq!(report.resolution_history, vec![8]);
    }

    #[test]
    fn report_latency_math() {
        let empty = SupervisorReport::default();
        assert_eq!(empty.mean_latency(), Duration::ZERO);
        assert_eq!(empty.fps(), Fps(f64::INFINITY));
        let report = SupervisorReport {
            frames: [10u64, 20, 30, 40]
                .iter()
                .enumerate()
                .map(|(i, &ms)| FrameResult {
                    frame_index: i,
                    frame_id: i as u64,
                    detections: Vec::new(),
                    latency: Duration::from_millis(ms),
                })
                .collect(),
            ..SupervisorReport::default()
        };
        assert_eq!(report.mean_latency(), Duration::from_millis(25));
        assert!((report.fps().0 - 40.0).abs() < 1e-9);
    }

    #[test]
    fn run_lists_processed_and_skipped_ids() {
        let n = 24;
        let plan = FaultPlan::from_schedule(vec![Some(FaultKind::CorruptFrame); 4]);
        let sup = Supervisor::new(quick_config());
        let mut factory: Box<dyn FnMut() -> Result<Box<dyn DetectStage>>> =
            Box::new(|| Ok(Box::new(NullStage)));
        let source = FaultyFrameSource::new(IterSource::new(frames(n)), plan);
        let report = sup.run_sync(source, &mut factory, None).unwrap();
        assert_eq!(report.skipped_ids, vec![0, 1, 2, 3]);
        assert_eq!(report.skipped(), 4);
        // Processed and skipped ids partition the arrival order.
        let mut all: Vec<u64> = report.frames.iter().map(|f| f.frame_id).collect();
        all.extend(&report.skipped_ids);
        all.sort_unstable();
        assert_eq!(all, (0..n as u64).collect::<Vec<_>>());
        // The loop never reorders.
        for pair in report.frames.windows(2) {
            assert!(pair[1].frame_index > pair[0].frame_index);
        }
    }

    #[test]
    fn corrupt_frames_are_skipped_not_fatal() {
        let plan = FaultPlan::from_schedule(vec![
            None,
            Some(FaultKind::CorruptFrame),
            None,
            Some(FaultKind::NanFrame),
            None,
        ]);
        let sup = Supervisor::new(quick_config());
        let mut factory: Box<dyn FnMut() -> Result<Box<dyn DetectStage>>> =
            Box::new(|| Ok(Box::new(NullStage)));
        let source = FaultyFrameSource::new(IterSource::new(frames(8)), plan);
        let report = sup.run_sync(source, &mut factory, None).unwrap();
        assert_eq!(report.skipped(), 2, "corrupt + NaN frames skipped");
        assert_eq!(report.processed(), 6);
        assert_eq!(report.faults.len(), 2);
        assert!(report.faults.iter().all(|f| f.stage == "source"));
        assert_eq!(
            report.final_health,
            Health::Healthy,
            "recovered after skips"
        );
    }

    #[test]
    fn transient_errors_are_retried_to_success() {
        let plan = FaultPlan::from_schedule(vec![None, Some(FaultKind::TransientDetect)]);
        let sup = Supervisor::new(quick_config());
        let mut factory: Box<dyn FnMut() -> Result<Box<dyn DetectStage>>> =
            Box::new(|| Ok(Box::new(FaultyDetector::new(NullStage, plan.clone()))));
        let report = sup
            .run_sync(IterSource::new(frames(4)), &mut factory, None)
            .unwrap();
        assert_eq!(report.processed(), 4, "retry recovered the faulted frame");
        assert_eq!(report.skipped(), 0);
        assert_eq!(report.retries, 1);
        assert!(report.faults.is_empty(), "recovered retries are not faults");
    }

    #[test]
    fn detector_panic_is_isolated_and_stage_restarted() {
        let plan = FaultPlan::from_schedule(vec![Some(FaultKind::DetectorPanic)]);
        let sup = Supervisor::new(quick_config());
        let builds = Arc::new(AtomicUsize::new(0));
        let builds_in = Arc::clone(&builds);
        let mut factory: Box<dyn FnMut() -> Result<Box<dyn DetectStage>>> = Box::new(move || {
            builds_in.fetch_add(1, Ordering::Relaxed);
            Ok(Box::new(FaultyDetector::new(NullStage, plan.clone())))
        });
        let report = sup
            .run_sync(IterSource::new(frames(12)), &mut factory, None)
            .unwrap();
        assert_eq!(report.restarts, 1, "the panic restarted the stage once");
        assert_eq!(builds.load(Ordering::Relaxed), 2, "startup + one rebuild");
        assert!(report
            .faults
            .iter()
            .any(|f| f.description.contains("injected detector fault")));
        assert_eq!(report.processed(), 12, "the retry recovered frame 0");
        assert_eq!(report.final_health, Health::Healthy);
    }

    #[test]
    fn restart_budget_exhaustion_halts() {
        // Every call panics; the budget (5) runs out and the run halts
        // instead of looping forever. Frame 0 spends three restarts (its
        // first call and both retries) and is skipped; frame 1 spends the
        // last two and halts on its third.
        let plan = FaultPlan::from_schedule(vec![Some(FaultKind::DetectorPanic); 64]);
        let sup = Supervisor::new(quick_config());
        let mut factory: Box<dyn FnMut() -> Result<Box<dyn DetectStage>>> =
            Box::new(|| Ok(Box::new(FaultyDetector::new(NullStage, plan.clone()))));
        let report = sup
            .run_sync(IterSource::new(frames(32)), &mut factory, None)
            .unwrap();
        assert_eq!(report.final_health, Health::Halted);
        assert_eq!(report.restarts, 6, "budget 5 + the halting attempt");
        assert_eq!(report.skipped_ids, [0]);
        assert_eq!(report.processed(), 0);
    }

    #[test]
    fn sync_panic_dumps_black_box_for_failing_frame() {
        let tracer = Tracer::new();
        let plan = FaultPlan::from_schedule(vec![None, None, Some(FaultKind::DetectorPanic), None]);
        let sup = Supervisor::new(quick_config()).tracing(&tracer);
        let mut factory: Box<dyn FnMut() -> Result<Box<dyn DetectStage>>> =
            Box::new(|| Ok(Box::new(FaultyDetector::new(NullStage, plan.clone()))));
        let report = sup
            .run_sync(IterSource::new(frames(5)), &mut factory, None)
            .unwrap();
        assert_eq!(report.processed(), 5, "retry recovered the panicked frame");
        assert!(report
            .frames
            .iter()
            .all(|f| f.frame_id == f.frame_index as u64));
        let bb = report.black_box.as_ref().expect("panic captured black box");
        assert_eq!(bb.frame_ids, [2]);
        // The dump ends at the failing frame's dangling span begin.
        let last = bb.tail.events.last().unwrap();
        assert_eq!(last.kind, dronet_obs::TraceKind::Begin);
        assert_eq!(last.name, "frame");
        assert_eq!(last.frame_id, 2);
        assert!(bb.to_text().contains("frame"));
    }

    #[test]
    fn sync_skips_record_frame_ids() {
        let plan = FaultPlan::from_schedule(vec![
            None,
            Some(FaultKind::CorruptFrame),
            None,
            Some(FaultKind::NanFrame),
        ]);
        let sup = Supervisor::new(quick_config());
        let mut factory: Box<dyn FnMut() -> Result<Box<dyn DetectStage>>> =
            Box::new(|| Ok(Box::new(NullStage)));
        let source = FaultyFrameSource::new(IterSource::new(frames(6)), plan);
        let report = sup.run_sync(source, &mut factory, None).unwrap();
        assert_eq!(report.skipped(), 2);
        assert_eq!(report.skipped_ids, vec![1, 3]);
        assert!(
            report.black_box.is_none(),
            "no tracer attached, so no black box"
        );
    }

    #[test]
    fn halt_preserves_black_box_frame_attribution() {
        let tracer = Tracer::new();
        let plan = FaultPlan::from_schedule(vec![Some(FaultKind::DetectorPanic); 64]);
        let sup = Supervisor::new(quick_config()).tracing(&tracer);
        let mut factory: Box<dyn FnMut() -> Result<Box<dyn DetectStage>>> =
            Box::new(|| Ok(Box::new(FaultyDetector::new(NullStage, plan.clone()))));
        let report = sup
            .run_sync(IterSource::new(frames(8)), &mut factory, None)
            .unwrap();
        assert_eq!(report.final_health, Health::Halted);
        let bb = report.black_box.as_ref().expect("halt captured black box");
        assert!(bb.trigger.contains("restart budget exhausted"));
        // Frame 0 is skipped after its retries; the budget runs out on
        // frame 1.
        assert_eq!(bb.frame_ids, [1], "kept the failing frame's id");
        assert!(!bb.tail.events.is_empty());
    }

    /// One 2 ms frame at a 1 kHz camera overloads a 1-frame window; the
    /// rest take no time on the manual clock, so they are calm. A run that stays on the lower rung ends Degraded
    /// however long its clean streak; one that walks back up ends Healthy.
    /// Either walk builds the stage once: a shift only resizes the frames.
    #[test]
    fn final_health_is_degraded_below_the_top_of_the_ladder() {
        let run = |calm_windows| {
            let clock = Clock::manual();
            let plan = FaultPlan::from_schedule(vec![Some(FaultKind::SlowDetect(
                Duration::from_millis(2),
            ))])
            .clock(&clock);
            let sup = Supervisor::new(SupervisorConfig {
                camera_fps: Some(1000.0),
                ..quick_config()
            })
            .clock(&clock);
            let controller = DegradeController::new(crate::DegradeConfig {
                overload_windows: 1,
                calm_windows,
                cooldown_windows: 0,
                window_frames: 1,
                ..crate::DegradeConfig::over_ladder(vec![4, 8])
            })
            .unwrap();
            let seen = Arc::default();
            let mut builds = 0;
            let mut factory = || -> Result<Box<dyn DetectStage>> {
                builds += 1;
                Ok(Box::new(FaultyDetector::new(
                    SizeProbe::new(8, &seen),
                    plan.clone(),
                )))
            };
            let report = sup
                .run_sync(IterSource::new(frames(10)), &mut factory, Some(controller))
                .unwrap();
            let seen = seen.lock().unwrap().clone();
            (report, builds, seen)
        };
        let (stuck, builds, seen) = run(100);
        assert_eq!(stuck.resolution_history, vec![8, 4]);
        assert!(stuck.faults.is_empty(), "a brownout is not a fault");
        assert_eq!(stuck.final_health, Health::Degraded);
        assert_eq!(builds, 1);
        assert_eq!(seen, [8, 4, 4, 4, 4, 4, 4, 4, 4, 4]);

        let (back, builds, seen) = run(2);
        assert_eq!(back.resolution_history, vec![8, 4, 8]);
        assert_eq!((back.downshifts(), back.upshifts()), (1, 1));
        assert_eq!(back.final_health, Health::Healthy);
        assert_eq!(builds, 1, "down and back up, and the factory ran once");
        assert_eq!(seen, [8, 4, 4, 8, 8, 8, 8, 8, 8, 8]);
    }

    /// With no controller the one rung is the stage's own size, whatever
    /// the default config says: frames run at it and the report and the
    /// `detect.input_size` gauge name it.
    #[test]
    fn without_a_controller_the_rung_is_the_stage_size() {
        let obs = Registry::new();
        let sup = Supervisor::new(SupervisorConfig::default()).observability(&obs);
        let seen = Arc::default();
        let mut factory =
            || -> Result<Box<dyn DetectStage>> { Ok(Box::new(SizeProbe::new(32, &seen))) };
        let report = sup
            .run_sync(IterSource::new(frames(3)), &mut factory, None)
            .unwrap();
        assert_eq!(report.resolution_history, [32]);
        assert_eq!(obs.snapshot().gauge("detect.input_size"), Some(32.0));
        assert_eq!(*seen.lock().unwrap(), [32, 32, 32]);
    }

    #[test]
    fn health_gauge_tracks_transitions() {
        let obs = Registry::new();
        let plan = FaultPlan::from_schedule(vec![Some(FaultKind::CorruptFrame)]);
        let sup = Supervisor::new(quick_config()).observability(&obs);
        let mut factory: Box<dyn FnMut() -> Result<Box<dyn DetectStage>>> =
            Box::new(|| Ok(Box::new(NullStage)));
        let source = FaultyFrameSource::new(IterSource::new(frames(6)), plan);
        let report = sup.run_sync(source, &mut factory, None).unwrap();
        assert_eq!(report.final_health, Health::Healthy);
        let snap = obs.snapshot();
        assert_eq!(snap.gauge("supervisor.health"), Some(0.0));
        assert_eq!(snap.counter("supervisor.faults"), Some(1));
        assert_eq!(snap.counter("supervisor.skipped"), Some(1));
        assert_eq!(snap.counter("pipeline.frames"), Some(5));
    }

    /// Yields two frames, then panics.
    struct CrashAfterTwo(usize);
    impl FrameSource for CrashAfterTwo {
        fn next_frame(&mut self) -> Option<Result<Tensor>> {
            if self.0 == 2 {
                panic!("camera readout wedged");
            }
            self.0 += 1;
            Some(Ok(Tensor::zeros(Shape::nchw(1, 3, 8, 8))))
        }
    }

    #[test]
    fn source_crash_is_one_fault_after_the_frames_it_delivered() {
        let sup = Supervisor::new(quick_config());
        let mut factory: Box<dyn FnMut() -> Result<Box<dyn DetectStage>>> =
            Box::new(|| Ok(Box::new(NullStage)));
        let report = sup.run_sync(CrashAfterTwo(0), &mut factory, None).unwrap();
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].stage, "source");
        assert!(report.faults[0]
            .description
            .contains("camera readout wedged"));
        assert_eq!(report.final_health, Health::Degraded);
        let ids: Vec<u64> = report.frames.iter().map(|f| f.frame_id).collect();
        assert_eq!(ids, [0, 1]);
    }

    #[test]
    fn synchronous_mode_processes_everything() {
        let report = detector_run(5, &Registry::noop(), &Tracer::noop());
        assert_eq!(report.processed(), 5);
        assert!(report.fps().0 > 0.0);
        assert!(report.mean_latency() > Duration::ZERO);
        for (i, f) in report.frames.iter().enumerate() {
            assert_eq!((f.frame_index, f.frame_id), (i, i as u64));
        }
    }

    #[test]
    fn drop_estimation_scales_with_camera_rate() {
        let report = detector_run(4, &Registry::noop(), &Tracer::noop());
        // An implausibly fast camera forces drops; a slow one doesn't.
        assert!(report.estimated_drops_at(1e7) > 0);
        assert_eq!(report.estimated_drops_at(0.001), 0);
    }

    #[test]
    fn drop_estimation_handles_degenerate_camera_rates() {
        let report = detector_run(2, &Registry::noop(), &Tracer::noop());
        for fps in [0.0, -30.0, f64::NAN, f64::INFINITY] {
            assert_eq!(report.estimated_drops_at(fps), 0, "{fps}");
        }
        assert_eq!(SupervisorReport::default().estimated_drops_at(30.0), 0);
    }

    #[test]
    fn empty_stream_is_fine() {
        let report = detector_run(0, &Registry::noop(), &Tracer::noop());
        assert_eq!(report.processed(), 0);
        assert_eq!(report.final_health, Health::Healthy);
    }

    #[test]
    fn observed_sync_run_records_stage_metrics() {
        let obs = Registry::new();
        let report = detector_run(4, &obs, &Tracer::noop());
        assert_eq!(report.processed(), 4);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("pipeline.frames"), Some(4));
        let frame = snap.histogram("pipeline.frame").unwrap();
        assert_eq!(frame.count, 4);
        assert!(frame.quantile_ns(0.99) >= frame.quantile_ns(0.5));
        // One acquisition per yielded frame (the end-of-stream probe is
        // not recorded).
        assert_eq!(snap.histogram("pipeline.preprocess").unwrap().count, 4);
    }

    #[test]
    fn traced_sync_run_nests_frame_stage_layer() {
        let tracer = Tracer::new();
        let report = detector_run(3, &Registry::noop(), &tracer);
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
}
