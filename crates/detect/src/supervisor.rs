//! The self-healing pipeline: runs a detection stage under a watchdog,
//! isolates crashes, retries transient failures, and degrades resolution
//! instead of dying.
//!
//! The paper's deployment (Fig. 5) is an *unattended* loop on an
//! Odroid-XU4/RPi3: the camera's frames go one by one to the detector, and
//! a fault mid-flight must cost a frame, not the flight. [`Supervisor`] is
//! the workspace's one frame loop, with:
//!
//! * **per-stage watchdogs** — the frame source and the detector each get
//!   a deadline; a stalled camera is reported (and eventually halts the
//!   run), a hung detector stage is abandoned and restarted,
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
//!   watches the queue-depth gauge and drop counter and walks the
//!   detector down (and back up) the paper's 352–608 resolution ladder.
//!   A run that ends below the top of its ladder reports `Degraded`.
//!
//! There is one implementation of that policy (the private `supervise`)
//! and two executors under it, which differ only in how a frame is fetched
//! and how a stage call is executed: [`Supervisor::run`] fetches through
//! the camera pump and calls the stage on a worker thread it can abandon
//! at the deadline; [`Supervisor::run_sync`] does both inline, so nothing
//! is pre-empted and the fault ledger is deterministic.

use crate::degrade::{DegradeController, ShiftMetrics};
use crate::detector::DetectStage;
use crate::error::panic_payload_message;
use crate::pipeline::{estimated_drops, FrameResult};
use crate::pump::{CameraPump, Pumped};
use crate::source::{conform_frame, FrameSource};
use crate::{DetectError, Detection, Result};
use dronet_metrics::Fps;
use dronet_obs::{
    BlackBox, Counter, HealthCell, Histogram, RecoveryClock, Registry, RestartBudget, Tracer,
};
use dronet_tensor::Tensor;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::time::{Duration, Instant};

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
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Watchdog deadline for frame acquisition; exceeding it records a
    /// camera stall.
    pub source_timeout: Duration,
    /// Watchdog deadline for one detector pass; exceeding it abandons and
    /// restarts the stage (threaded mode) or flags the frame (sync mode).
    pub stage_timeout: Duration,
    /// Retries per frame for recoverable errors before skipping it.
    pub max_retries: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Detector stage restarts (after panics/hangs) before halting.
    pub max_restarts: u32,
    /// Consecutive source watchdog expiries before halting (threaded mode).
    pub max_consecutive_stalls: u32,
    /// Clean frames required to recover from `Degraded` to `Healthy` (with
    /// the ladder at its top).
    pub recovery_frames: u32,
    /// Detector input size used when no degradation controller is given.
    pub initial_input: usize,
    /// Synchronous mode only: nominal camera rate used to *estimate*
    /// overload (drops) from per-frame latency, since a synchronous run
    /// never physically drops frames.
    pub camera_fps: Option<f64>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            source_timeout: Duration::from_millis(250),
            stage_timeout: Duration::from_secs(1),
            max_retries: 2,
            backoff_base: Duration::from_millis(2),
            max_restarts: 5,
            max_consecutive_stalls: 8,
            recovery_frames: 8,
            initial_input: 416,
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
    /// Frame ids of the frames dropped at the camera buffer (threaded
    /// mode), in drop order.
    pub dropped_ids: Vec<u64>,
    /// Frame ids of the frames consumed but abandoned after faults
    /// exhausted their retries, in occurrence order.
    pub skipped_ids: Vec<u64>,
    /// Crash black box: the flight recorder's tail at the most recent stage
    /// failure, watchdog trip, or halt (later captures overwrite earlier
    /// ones — the events leading up to the *final* failure are the ones a
    /// post-mortem reads). `None` when the run was clean or no tracer was
    /// attached via [`Supervisor::tracing`].
    pub black_box: Option<BlackBox>,
    /// Every fault observed, in occurrence order.
    pub faults: Vec<FaultEvent>,
    /// Detector stage restarts (panics, hangs, unexpected exits).
    pub restarts: u32,
    /// Frame-level retry attempts.
    pub retries: u32,
    /// Camera stall events (source watchdog expiries).
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

    /// Frames dropped at the camera buffer (threaded mode).
    pub fn dropped(&self) -> usize {
        self.dropped_ids.len()
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

    /// The fault ledger restricted to schedule-deterministic content
    /// (stage + description + frame index), for reproducibility checks.
    pub fn fault_signature(&self) -> Vec<(Option<usize>, &'static str, String)> {
        self.faults
            .iter()
            .map(|f| (f.frame_index, f.stage, f.description.clone()))
            .collect()
    }
}

/// Factory rebuilding the detection stage, given an input resolution.
/// Called once at startup and again after every crash, hang, or
/// resolution shift.
pub type StageFactory<'a> = dyn FnMut(usize) -> Result<Box<dyn DetectStage>> + 'a;

/// The supervised pipeline runner. See the module docs for the full
/// behaviour; construct with [`Supervisor::new`], attach telemetry with
/// [`Supervisor::observability`], then call [`Supervisor::run`] (threaded,
/// watchdog-enforced) or [`Supervisor::run_sync`] (single-threaded,
/// deterministic).
#[derive(Debug, Default)]
pub struct Supervisor {
    config: SupervisorConfig,
    obs: Registry,
    tracer: Tracer,
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
    fn new(obs: &Registry, recovery_frames: u32, initial_input: usize, tracer: &Tracer) -> Self {
        Monitor {
            report: SupervisorReport {
                resolution_history: vec![initial_input],
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

    fn stall(&mut self, elapsed: Duration, limit: Duration) {
        self.report.stalls += 1;
        self.stalls_counter.inc();
        self.fault(
            None,
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

fn backoff(base: Duration, attempt: u64) -> Duration {
    base.saturating_mul(1u32 << attempt.saturating_sub(1).min(10))
}

/// How one attempt at running the detector stage on a frame ended.
enum StageCall {
    /// The stage returned — detections or a typed error — after this long.
    Returned(Result<Vec<Detection>>, Duration),
    /// The stage is lost (panicked, hung past its deadline, or gone) and
    /// must be rebuilt before anything else is dispatched.
    Lost(DetectError),
}

/// Runs `stage` on one frame inside a `frame` span, under `catch_unwind`.
/// A panic leaves the span's begin dangling in the ring: it is the black
/// box's crash evidence.
fn call_stage(
    stage: &mut dyn DetectStage,
    tracer: &Tracer,
    index: usize,
    frame: &Tensor,
) -> StageCall {
    tracer.set_frame(index as u64);
    let span = tracer.frame_span("frame", index as u64);
    let t0 = Instant::now();
    match catch_unwind(AssertUnwindSafe(|| stage.detect_frame(frame))) {
        Ok(result) => {
            let elapsed = t0.elapsed();
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

/// The two things [`Supervisor::run`] and [`Supervisor::run_sync`] do
/// differently: fetching a frame and executing a stage call.
trait Executor {
    /// Pulls the next camera item with its arrival index, recording any
    /// stall it sat through. `None` ends the run: the stream is over, the
    /// source crashed (recorded as a fault), or the stall budget ran out
    /// (recorded as a halt).
    fn fetch(
        &mut self,
        cfg: &SupervisorConfig,
        monitor: &mut Monitor,
    ) -> Option<(usize, Result<Tensor>)>;

    /// Replaces the detector stage (after a crash, hang, or resolution
    /// shift); the previous one is dropped or abandoned.
    fn install(&mut self, stage: Box<dyn DetectStage>);

    /// Runs the installed stage on one conformed frame.
    fn call(&mut self, index: usize, frame: &Tensor, cfg: &SupervisorConfig) -> StageCall;

    /// The overload observation for the degradation controller after one
    /// consumed item: buffer depth and frames lost since the last call.
    /// `latency` is the item's detector latency when it was processed.
    fn load(&mut self, cfg: &SupervisorConfig, latency: Option<Duration>) -> (f64, u64);

    /// Ends the run, returning the ids of frames dropped at the camera
    /// buffer.
    fn finish(self, halted: bool) -> Vec<u64>;
}

/// A stage moved onto its own thread. The thread exits when the work
/// channel closes (orderly shutdown or abandonment after a hang) or after
/// reporting a panic, since a stage that unwound mid-frame cannot be
/// trusted with another one.
struct Worker {
    work_tx: SyncSender<(usize, Tensor)>,
    reply_rx: Receiver<StageCall>,
}

impl Worker {
    fn spawn(mut stage: Box<dyn DetectStage>, tracer: Tracer) -> Worker {
        let (work_tx, work_rx) = sync_channel::<(usize, Tensor)>(1);
        let (reply_tx, reply_rx) = channel();
        std::thread::spawn(move || {
            while let Ok((index, frame)) = work_rx.recv() {
                let reply = call_stage(stage.as_mut(), &tracer, index, &frame);
                let lost = matches!(reply, StageCall::Lost(_));
                // A failed send means the supervisor abandoned this worker.
                if reply_tx.send(reply).is_err() || lost {
                    return;
                }
            }
        });
        Worker { work_tx, reply_rx }
    }
}

/// [`Supervisor::run`]'s executor: camera on the pump thread, detector on
/// a worker thread, both watched against pre-emptive deadlines.
struct Threaded {
    pump: CameraPump,
    worker: Worker,
    tracer: Tracer,
    /// Consecutive source watchdog expiries, against
    /// `max_consecutive_stalls`.
    stalls: RestartBudget,
    last_drops: usize,
}

impl Executor for Threaded {
    fn fetch(
        &mut self,
        cfg: &SupervisorConfig,
        monitor: &mut Monitor,
    ) -> Option<(usize, Result<Tensor>)> {
        loop {
            match self.pump.recv(cfg.source_timeout) {
                Ok(Pumped::Item(index, item)) => {
                    self.stalls.reset();
                    return Some((index, item));
                }
                Ok(Pumped::Crashed(msg)) => {
                    monitor.source_crashed(msg);
                    return None;
                }
                Err(RecvTimeoutError::Disconnected) => return None,
                Err(RecvTimeoutError::Timeout) => {
                    monitor.stall(cfg.source_timeout, cfg.source_timeout);
                    if !self.stalls.spend() {
                        monitor.halt(format!(
                            "camera stalled for {} consecutive watchdog periods",
                            self.stalls.spent + 1
                        ));
                        return None;
                    }
                }
            }
        }
    }

    fn install(&mut self, stage: Box<dyn DetectStage>) {
        self.worker = Worker::spawn(stage, self.tracer.clone());
    }

    fn call(&mut self, index: usize, frame: &Tensor, cfg: &SupervisorConfig) -> StageCall {
        let gone = || {
            StageCall::Lost(DetectError::StageFailed {
                stage: "detect",
                msg: "detector stage terminated without replying".to_string(),
            })
        };
        if self.worker.work_tx.send((index, frame.clone())).is_err() {
            return gone();
        }
        match self.worker.reply_rx.recv_timeout(cfg.stage_timeout) {
            Ok(reply) => reply,
            Err(RecvTimeoutError::Timeout) => StageCall::Lost(DetectError::Timeout {
                stage: "detect",
                elapsed: cfg.stage_timeout,
                limit: cfg.stage_timeout,
            }),
            Err(RecvTimeoutError::Disconnected) => gone(),
        }
    }

    fn load(&mut self, _: &SupervisorConfig, _: Option<Duration>) -> (f64, u64) {
        let drops = self.pump.drops();
        let delta = drops - self.last_drops;
        self.last_drops = drops;
        (self.pump.queue_depth(), delta as u64)
    }

    fn finish(self, halted: bool) -> Vec<u64> {
        // After a clean end the producer already ran to completion: reclaim
        // it so the drop list is exact. On halt it may be wedged inside the
        // camera, so it is abandoned instead.
        self.pump.finish(!halted)
    }
}

/// [`Supervisor::run_sync`]'s executor: everything on the calling thread.
/// Deadlines are checked against measured latency after the fact, so
/// stalls and slow stages are *recorded* but nothing is abandoned.
struct Inline<S> {
    source: S,
    stage: Box<dyn DetectStage>,
    next_index: usize,
    preprocess: Histogram,
    tracer: Tracer,
}

impl<S: FrameSource> Executor for Inline<S> {
    fn fetch(
        &mut self,
        cfg: &SupervisorConfig,
        monitor: &mut Monitor,
    ) -> Option<(usize, Result<Tensor>)> {
        let index = self.next_index;
        self.next_index += 1;
        self.tracer.set_frame(index as u64);
        let t0 = Instant::now();
        let item = match catch_unwind(AssertUnwindSafe(|| self.source.next_frame())) {
            Ok(item) => item?,
            Err(payload) => {
                monitor.source_crashed(panic_payload_message(payload));
                return None;
            }
        };
        let acquisition = t0.elapsed();
        self.tracer.instant("camera.frame");
        self.preprocess.record(acquisition);
        if acquisition > cfg.source_timeout {
            monitor.stall(acquisition, cfg.source_timeout);
        }
        Some((index, item))
    }

    fn install(&mut self, stage: Box<dyn DetectStage>) {
        self.stage = stage;
    }

    fn call(&mut self, index: usize, frame: &Tensor, _: &SupervisorConfig) -> StageCall {
        call_stage(self.stage.as_mut(), &self.tracer, index, frame)
    }

    fn load(&mut self, cfg: &SupervisorConfig, latency: Option<Duration>) -> (f64, u64) {
        // A synchronous run never drops frames; estimate the overload a
        // camera at the nominal rate would have caused.
        let drops = cfg
            .camera_fps
            .zip(latency)
            .map_or(0, |(fps, latency)| estimated_drops(latency, fps));
        (0.0, drops as u64)
    }

    fn finish(self, _: bool) -> Vec<u64> {
        Vec::new()
    }
}

impl Supervisor {
    /// A supervisor with the given tunables and no telemetry.
    pub fn new(config: SupervisorConfig) -> Self {
        Supervisor {
            config,
            obs: Registry::noop(),
            tracer: Tracer::noop(),
        }
    }

    /// Attaches a flight recorder: every acquired frame gets a
    /// `camera.frame` instant (a dropped one `camera.drop`), every
    /// processed frame a `frame` span (on the worker thread in threaded
    /// mode) around the stage's own spans, and on stage
    /// failures, watchdog trips, and halts the recorder's last
    /// [`dronet_obs::BLACK_BOX_EVENTS`] events are dumped into
    /// [`SupervisorReport::black_box`].
    pub fn tracing(mut self, tracer: &Tracer) -> Self {
        self.tracer = tracer.clone();
        self
    }

    /// Attaches a telemetry registry: the supervisor exports
    /// `supervisor.health` (gauge), `supervisor.{faults,retries,restarts,
    /// stalls,skipped}` (counters), `detect.input_size` (gauge),
    /// `degrade.{downshifts,upshifts}` (counters) and the pipeline's
    /// `pipeline.*` metrics.
    pub fn observability(mut self, obs: &Registry) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Runs the supervised pipeline with the camera on the pump thread
    /// and the detector stage on a watchdog-monitored worker thread.
    ///
    /// `factory` builds (and rebuilds, after crashes or resolution shifts)
    /// the detection stage for a given input size. `controller`, when
    /// given, drives resolution degradation; its current rung overrides
    /// [`SupervisorConfig::initial_input`].
    ///
    /// The run survives every recoverable fault and returns a report; the
    /// report's [`SupervisorReport::final_health`] is [`Health::Halted`]
    /// when a fault budget was exhausted.
    ///
    /// # Errors
    ///
    /// Returns an error only when the *initial* stage construction fails;
    /// everything after that is handled in-band.
    pub fn run<S>(
        &self,
        source: S,
        factory: &mut StageFactory<'_>,
        controller: Option<DegradeController>,
    ) -> Result<SupervisorReport>
    where
        S: FrameSource + Send + 'static,
    {
        self.supervise(factory, controller, |stage| Threaded {
            pump: CameraPump::spawn(source, &self.obs, &self.tracer),
            worker: Worker::spawn(stage, self.tracer.clone()),
            tracer: self.tracer.clone(),
            stalls: RestartBudget::new(u64::from(self.config.max_consecutive_stalls)),
            last_drops: 0,
        })
    }

    /// Single-threaded supervised run: same fault handling (panic
    /// isolation, retries, restarts, degradation) without watchdog
    /// preemption, so the fault ledger is fully deterministic for a given
    /// fault schedule. Stalls and slow stages are *recorded* when their
    /// measured latency exceeds the deadlines, but nothing is abandoned.
    ///
    /// Overload is estimated from per-frame latency against
    /// [`SupervisorConfig::camera_fps`], as
    /// [`SupervisorReport::estimated_drops_at`] estimates it after the run.
    ///
    /// # Errors
    ///
    /// Returns an error only when the initial stage construction fails.
    pub fn run_sync(
        &self,
        source: impl FrameSource,
        factory: &mut StageFactory<'_>,
        controller: Option<DegradeController>,
    ) -> Result<SupervisorReport> {
        self.supervise(factory, controller, |stage| Inline {
            source,
            stage,
            next_index: 0,
            preprocess: self.obs.histogram("pipeline.preprocess"),
            tracer: self.tracer.clone(),
        })
    }

    /// The frame loop and its fault policy, over either executor.
    fn supervise<E: Executor>(
        &self,
        factory: &mut StageFactory<'_>,
        mut controller: Option<DegradeController>,
        make_executor: impl FnOnce(Box<dyn DetectStage>) -> E,
    ) -> Result<SupervisorReport> {
        let cfg = &self.config;
        let obs = &self.obs;
        let mut current_input = controller
            .as_ref()
            .map_or(cfg.initial_input, DegradeController::current);
        let stage = factory(current_input)?;
        let stage_chw = Cell::new(stage.input_chw());
        let mut exec = make_executor(stage);

        let frame_hist = obs.histogram("pipeline.frame");
        let frames_counter = obs.counter("pipeline.frames");
        let shifts = ShiftMetrics {
            downshifts: obs.counter("degrade.downshifts"),
            upshifts: obs.counter("degrade.upshifts"),
            input_size: obs.gauge("detect.input_size"),
        };
        shifts.input_size.set(current_input as f64);

        let mut monitor = Monitor::new(obs, cfg.recovery_frames, current_input, &self.tracer);
        let mut restarts = RestartBudget::new(u64::from(cfg.max_restarts));
        // Builds a stage at `input` and installs it; a factory failure
        // halts the run.
        let mut rebuild =
            |exec: &mut E, monitor: &mut Monitor, input: usize, what: &str| match factory(input) {
                Ok(stage) => {
                    stage_chw.set(stage.input_chw());
                    exec.install(stage);
                    true
                }
                Err(e) => {
                    monitor.halt(format!("{what} rebuild failed: {e}"));
                    false
                }
            };

        // Every exit from this loop other than the end of the stream goes
        // through `monitor.halt`.
        'stream: while let Some((index, item)) = exec.fetch(cfg, &mut monitor) {
            let mut latency = None;
            match item.and_then(|frame| conform_frame(frame, stage_chw.get(), index)) {
                Err(e) => {
                    monitor.fault(Some(index), "source", e.to_string());
                    monitor.skipped(index);
                }
                Ok(frame) => {
                    let mut retries = RestartBudget::new(u64::from(cfg.max_retries));
                    loop {
                        let lost = match exec.call(index, &frame, cfg) {
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
                                    std::thread::sleep(backoff(cfg.backoff_base, retries.spent));
                                    continue;
                                }
                                monitor.fault(Some(index), "detect", e.to_string());
                                monitor.skipped(index);
                                break;
                            }
                            StageCall::Lost(e) => e,
                        };
                        // Panic / hang / unexpected exit: isolate, restart,
                        // maybe retry. The black box is captured before the
                        // restart so the dump ends at the failing frame's
                        // events.
                        let description = lost.to_string();
                        monitor.fault(Some(index), "detect", description.clone());
                        monitor.black_box(&description, &[index as u64]);
                        monitor.restart();
                        if !restarts.spend() {
                            monitor.halt("detector stage restart budget exhausted".to_string());
                            break 'stream;
                        }
                        if !rebuild(&mut exec, &mut monitor, current_input, "detector stage") {
                            break 'stream;
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
            // Feed the degradation controller one observation per consumed
            // item, then apply any resolution shift it requests (policy,
            // not failure: it does not consume the restart budget).
            let Some(ctrl) = controller.as_mut() else {
                continue;
            };
            let (queue_depth, drops) = exec.load(cfg, latency);
            if let Some(size) = ctrl.step(queue_depth, drops, &shifts, &monitor.health) {
                current_input = size;
                monitor.report.resolution_history.push(size);
                if !rebuild(&mut exec, &mut monitor, size, "resolution-shift") {
                    break;
                }
            }
        }
        let mut report = monitor.finish();
        report.dropped_ids = exec.finish(report.final_health == Health::Halted);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, FaultyDetector, FaultyFrameSource};
    use crate::source::IterSource;
    use dronet_tensor::Shape;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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

    fn frames(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|_| Tensor::zeros(Shape::nchw(1, 3, 8, 8)))
            .collect()
    }

    fn quick_config() -> SupervisorConfig {
        SupervisorConfig {
            source_timeout: Duration::from_millis(200),
            stage_timeout: Duration::from_millis(500),
            backoff_base: Duration::from_micros(100),
            recovery_frames: 2,
            initial_input: 8,
            ..SupervisorConfig::default()
        }
    }

    fn run_either<S: FrameSource + Send + 'static>(
        sup: &Supervisor,
        source: S,
        factory: &mut StageFactory<'_>,
        threaded: bool,
    ) -> SupervisorReport {
        let report = if threaded {
            sup.run(source, factory, None)
        } else {
            sup.run_sync(source, factory, None)
        };
        report.unwrap()
    }

    /// `n` blank frames through a real one-conv [`crate::Detector`] over
    /// 8x8 frames, with `obs` and `tracer` on both the detector and the
    /// supervisor.
    fn detector_run(n: usize, threaded: bool, obs: &Registry, tracer: &Tracer) -> SupervisorReport {
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
        let mut factory = |_: usize| -> Result<Box<dyn DetectStage>> {
            let detector = crate::DetectorBuilder::new(net.clone())
                .observability(obs)
                .tracing(tracer)
                .build()?;
            Ok(Box::new(detector))
        };
        let sup = Supervisor::new(quick_config())
            .observability(obs)
            .tracing(tracer);
        run_either(&sup, IterSource::new(frames(n)), &mut factory, threaded)
    }

    #[test]
    fn clean_run_processes_everything_and_stays_healthy() {
        let sup = Supervisor::new(quick_config());
        let mut factory: Box<dyn FnMut(usize) -> Result<Box<dyn DetectStage>>> =
            Box::new(|_| Ok(Box::new(NullStage)));
        let report = sup
            .run(IterSource::new(frames(10)), &mut factory, None)
            .unwrap();
        assert_eq!(report.processed() + report.dropped(), 10);
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
    fn threaded_run_lists_dropped_and_skipped_ids() {
        // Acquisition errors are never dropped at the buffer, so corrupting
        // the first four frames pins the skip list regardless of scheduling;
        // whatever the buffer then drops of the rest must be listed by id.
        let n = 24;
        let plan = FaultPlan::from_schedule(vec![Some(FaultKind::CorruptFrame); 4]);
        let sup = Supervisor::new(quick_config());
        let mut factory: Box<dyn FnMut(usize) -> Result<Box<dyn DetectStage>>> =
            Box::new(|_| Ok(Box::new(NullStage)));
        let source = FaultyFrameSource::new(IterSource::new(frames(n)), plan);
        let report = sup.run(source, &mut factory, None).unwrap();
        assert_eq!(report.skipped_ids, vec![0, 1, 2, 3]);
        assert_eq!(report.skipped(), 4);
        // Processed, dropped and skipped ids partition the arrival order.
        let mut all: Vec<u64> = report.frames.iter().map(|f| f.frame_id).collect();
        all.extend(&report.dropped_ids);
        all.extend(&report.skipped_ids);
        all.sort_unstable();
        assert_eq!(all, (0..n as u64).collect::<Vec<_>>());
        // Latest-frame semantics never reorders.
        for pair in report.frames.windows(2) {
            assert!(pair[1].frame_index > pair[0].frame_index);
        }
    }

    #[test]
    fn sync_run_is_lossless() {
        let sup = Supervisor::new(quick_config());
        let mut factory: Box<dyn FnMut(usize) -> Result<Box<dyn DetectStage>>> =
            Box::new(|_| Ok(Box::new(NullStage)));
        let report = sup
            .run_sync(IterSource::new(frames(10)), &mut factory, None)
            .unwrap();
        assert_eq!(report.processed(), 10);
        assert_eq!(report.dropped(), 0);
        assert_eq!(report.final_health, Health::Healthy);
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
        let mut factory: Box<dyn FnMut(usize) -> Result<Box<dyn DetectStage>>> =
            Box::new(|_| Ok(Box::new(NullStage)));
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
        let calls = Arc::new(AtomicUsize::new(0));
        let mut factory: Box<dyn FnMut(usize) -> Result<Box<dyn DetectStage>>> = Box::new(|_| {
            Ok(Box::new(FaultyDetector::with_counter(
                NullStage,
                plan.clone(),
                Arc::clone(&calls),
            )))
        });
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
        // Panic on the very first detect call: frame 0 always reaches the
        // worker, whereas later frames can be dropped by the lossy camera
        // channel when the host scheduler stalls the consumer.
        let plan = FaultPlan::from_schedule(vec![Some(FaultKind::DetectorPanic)]);
        let sup = Supervisor::new(quick_config());
        let calls = Arc::new(AtomicUsize::new(0));
        let builds = Arc::new(AtomicUsize::new(0));
        let builds_in = Arc::clone(&builds);
        let mut factory: Box<dyn FnMut(usize) -> Result<Box<dyn DetectStage>>> =
            Box::new(move |_| {
                builds_in.fetch_add(1, Ordering::Relaxed);
                Ok(Box::new(FaultyDetector::with_counter(
                    NullStage,
                    plan.clone(),
                    Arc::clone(&calls),
                )))
            });
        let report = sup
            .run(IterSource::new(frames(12)), &mut factory, None)
            .unwrap();
        // At least one restart from the injected panic; a slow host can add
        // more via watchdog timeouts, so this is a lower bound.
        assert!(report.restarts >= 1, "panic triggered a stage restart");
        assert!(
            builds.load(Ordering::Relaxed) >= 2,
            "factory rebuilt the stage"
        );
        assert!(report
            .faults
            .iter()
            .any(|f| f.description.contains("injected detector fault")));
        // Recovery-to-Healthy timing depends on how many frames survive the
        // restart window (the producer keeps dropping meanwhile); the
        // deterministic sync tests pin the exact transition.
        assert_ne!(report.final_health, Health::Halted, "survived the panic");
        assert!(report.processed() >= 1);
    }

    #[test]
    fn restart_budget_exhaustion_halts() {
        // Every call panics; the budget (2) runs out and the run halts
        // instead of looping forever.
        let plan = FaultPlan::from_schedule(vec![Some(FaultKind::DetectorPanic); 64]);
        let sup = Supervisor::new(SupervisorConfig {
            max_restarts: 2,
            max_retries: 1,
            ..quick_config()
        });
        let calls = Arc::new(AtomicUsize::new(0));
        let mut factory: Box<dyn FnMut(usize) -> Result<Box<dyn DetectStage>>> = Box::new(|_| {
            Ok(Box::new(FaultyDetector::with_counter(
                NullStage,
                plan.clone(),
                Arc::clone(&calls),
            )))
        });
        let report = sup
            .run_sync(IterSource::new(frames(32)), &mut factory, None)
            .unwrap();
        assert_eq!(report.final_health, Health::Halted);
        assert_eq!(report.restarts, 3, "initial budget 2 + the halting attempt");
        assert_eq!(report.processed(), 0);
    }

    #[test]
    fn sync_panic_dumps_black_box_for_failing_frame() {
        let tracer = Tracer::new();
        let plan = FaultPlan::from_schedule(vec![None, None, Some(FaultKind::DetectorPanic), None]);
        let sup = Supervisor::new(quick_config()).tracing(&tracer);
        let calls = Arc::new(AtomicUsize::new(0));
        let mut factory: Box<dyn FnMut(usize) -> Result<Box<dyn DetectStage>>> = Box::new(|_| {
            Ok(Box::new(FaultyDetector::with_counter(
                NullStage,
                plan.clone(),
                Arc::clone(&calls),
            )))
        });
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
        let mut factory: Box<dyn FnMut(usize) -> Result<Box<dyn DetectStage>>> =
            Box::new(|_| Ok(Box::new(NullStage)));
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
        let sup = Supervisor::new(SupervisorConfig {
            max_restarts: 1,
            max_retries: 1,
            ..quick_config()
        })
        .tracing(&tracer);
        let calls = Arc::new(AtomicUsize::new(0));
        let mut factory: Box<dyn FnMut(usize) -> Result<Box<dyn DetectStage>>> = Box::new(|_| {
            Ok(Box::new(FaultyDetector::with_counter(
                NullStage,
                plan.clone(),
                Arc::clone(&calls),
            )))
        });
        let report = sup
            .run_sync(IterSource::new(frames(8)), &mut factory, None)
            .unwrap();
        assert_eq!(report.final_health, Health::Halted);
        let bb = report.black_box.as_ref().expect("halt captured black box");
        assert!(bb.trigger.contains("restart budget exhausted"));
        assert_eq!(bb.frame_ids, [0], "kept the failing frame's id");
        assert!(!bb.tail.events.is_empty());
    }

    #[test]
    fn threaded_panic_dumps_black_box() {
        let tracer = Tracer::new();
        let plan = FaultPlan::from_schedule(vec![Some(FaultKind::DetectorPanic)]);
        let sup = Supervisor::new(quick_config()).tracing(&tracer);
        let calls = Arc::new(AtomicUsize::new(0));
        let mut factory: Box<dyn FnMut(usize) -> Result<Box<dyn DetectStage>>> = Box::new(|_| {
            Ok(Box::new(FaultyDetector::with_counter(
                NullStage,
                plan.clone(),
                Arc::clone(&calls),
            )))
        });
        let report = sup
            .run(IterSource::new(frames(12)), &mut factory, None)
            .unwrap();
        let bb = report.black_box.as_ref().expect("panic captured black box");
        // The injected panic hits frame 0, but a slow host can overwrite
        // the capture with a later watchdog trip; either way the dump is
        // attributed to a concrete frame whose span begin it contains.
        let fid = *bb
            .frame_ids
            .first()
            .expect("stage failures carry a frame id");
        assert!(bb
            .tail
            .events
            .iter()
            .any(|e| e.kind == dronet_obs::TraceKind::Begin
                && e.name == "frame"
                && e.frame_id == fid));
    }

    /// One 2 ms frame at a 1 kHz camera overloads a 1-frame window; the
    /// rest are calm. A run that stays on the lower rung ends Degraded
    /// however long its clean streak; one that walks back up ends Healthy.
    #[test]
    fn final_health_is_degraded_below_the_top_of_the_ladder() {
        let run = |calm_windows| {
            let plan = FaultPlan::from_schedule(vec![Some(FaultKind::SlowDetect(
                Duration::from_millis(2),
            ))]);
            let sup = Supervisor::new(SupervisorConfig {
                camera_fps: Some(1000.0),
                ..quick_config()
            });
            let controller = DegradeController::new(crate::DegradeConfig {
                overload_windows: 1,
                calm_windows,
                cooldown_windows: 0,
                window_frames: 1,
                ..crate::DegradeConfig::over_ladder(vec![4, 8])
            })
            .unwrap();
            let calls = Arc::new(AtomicUsize::new(0));
            let mut factory: Box<dyn FnMut(usize) -> Result<Box<dyn DetectStage>>> =
                Box::new(|_| {
                    Ok(Box::new(FaultyDetector::with_counter(
                        NullStage,
                        plan.clone(),
                        Arc::clone(&calls),
                    )))
                });
            sup.run_sync(IterSource::new(frames(10)), &mut factory, Some(controller))
                .unwrap()
        };
        let stuck = run(100);
        assert_eq!(stuck.resolution_history, vec![8, 4]);
        assert!(stuck.faults.is_empty(), "a brownout is not a fault");
        assert_eq!(stuck.final_health, Health::Degraded);

        let back = run(2);
        assert_eq!(back.resolution_history, vec![8, 4, 8]);
        assert_eq!((back.downshifts(), back.upshifts()), (1, 1));
        assert_eq!(back.final_health, Health::Healthy);
    }

    #[test]
    fn health_gauge_tracks_transitions() {
        let obs = Registry::new();
        let plan = FaultPlan::from_schedule(vec![Some(FaultKind::CorruptFrame)]);
        let sup = Supervisor::new(quick_config()).observability(&obs);
        let mut factory: Box<dyn FnMut(usize) -> Result<Box<dyn DetectStage>>> =
            Box::new(|_| Ok(Box::new(NullStage)));
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
        for threaded in [false, true] {
            let mut factory: Box<dyn FnMut(usize) -> Result<Box<dyn DetectStage>>> =
                Box::new(|_| Ok(Box::new(NullStage)));
            let report = run_either(&sup, CrashAfterTwo(0), &mut factory, threaded);
            assert_eq!(report.faults.len(), 1, "threaded {threaded}");
            assert_eq!(report.faults[0].stage, "source");
            assert!(report.faults[0]
                .description
                .contains("camera readout wedged"));
            assert_eq!(report.final_health, Health::Degraded, "threaded {threaded}");
            let mut ids: Vec<u64> = report.frames.iter().map(|f| f.frame_id).collect();
            if threaded {
                // The single-slot buffer may drop frame 1.
                ids.extend(&report.dropped_ids);
                ids.sort_unstable();
            }
            assert_eq!(ids, [0, 1], "threaded {threaded}");
        }
    }

    #[test]
    fn synchronous_mode_processes_everything() {
        let report = detector_run(5, false, &Registry::noop(), &Tracer::noop());
        assert_eq!(report.processed(), 5);
        assert_eq!(report.dropped(), 0);
        assert!(report.dropped_ids.is_empty());
        assert!(report.fps().0 > 0.0);
        assert!(report.mean_latency() > Duration::ZERO);
        for (i, f) in report.frames.iter().enumerate() {
            assert_eq!((f.frame_index, f.frame_id), (i, i as u64));
        }
    }

    #[test]
    fn drop_estimation_scales_with_camera_rate() {
        let report = detector_run(4, false, &Registry::noop(), &Tracer::noop());
        // An implausibly fast camera forces drops; a slow one doesn't.
        assert!(report.estimated_drops_at(1e7) > 0);
        assert_eq!(report.estimated_drops_at(0.001), 0);
    }

    #[test]
    fn drop_estimation_handles_degenerate_camera_rates() {
        let report = detector_run(2, false, &Registry::noop(), &Tracer::noop());
        for fps in [0.0, -30.0, f64::NAN, f64::INFINITY] {
            assert_eq!(report.estimated_drops_at(fps), 0, "{fps}");
        }
        assert_eq!(SupervisorReport::default().estimated_drops_at(30.0), 0);
    }

    #[test]
    fn empty_stream_is_fine() {
        for threaded in [false, true] {
            let report = detector_run(0, threaded, &Registry::noop(), &Tracer::noop());
            assert_eq!(report.processed(), 0);
            assert_eq!(report.final_health, Health::Healthy);
        }
    }

    #[test]
    fn observed_sync_run_records_stage_metrics() {
        let obs = Registry::new();
        let report = detector_run(4, false, &obs, &Tracer::noop());
        assert_eq!(report.processed(), 4);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("pipeline.frames"), Some(4));
        let frame = snap.histogram("pipeline.frame").unwrap();
        assert_eq!(frame.count, 4);
        assert!(frame.p99_ns >= frame.p50_ns);
        // One acquisition per yielded frame (the end-of-stream probe is
        // not recorded).
        assert_eq!(snap.histogram("pipeline.preprocess").unwrap().count, 4);
    }

    #[test]
    fn observed_threaded_run_accounts_for_drops() {
        let obs = Registry::new();
        let n = 30;
        let report = detector_run(n, true, &obs, &Tracer::noop());
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("pipeline.frames"),
            Some(report.processed() as u64)
        );
        assert_eq!(
            snap.counter("pipeline.dropped"),
            Some(report.dropped() as u64)
        );
        assert_eq!(
            snap.histogram("pipeline.preprocess").unwrap().count,
            n as u64
        );
        // Buffer fully drained at the end of the run.
        assert_eq!(snap.gauge("pipeline.queue_depth"), Some(0.0));
    }

    #[test]
    fn traced_sync_run_nests_frame_stage_layer() {
        let tracer = Tracer::new();
        let report = detector_run(3, false, &Registry::noop(), &tracer);
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
        let n = 25;
        let report = detector_run(n, true, &Registry::noop(), &tracer);
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
}
