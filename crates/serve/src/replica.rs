//! Replicated detector pools with health-aware dispatch, quarantine, and
//! canary re-admission — and the one supervisor that watches them all.
//!
//! One [`ReplicaCore`] is a complete, private failure domain: its own
//! admission queue, worker pool, brownout controller, and health cell.
//! Nothing is shared between replicas but the metric registry and the
//! server's black-box store — a panic, wedge, or brownout on one replica
//! cannot touch its peers.
//!
//! The [`ReplicaSet`] sits above the cores. Dispatch (`pick_primary`
//! routes each request to the active replica with the shallowest queue,
//! breaking ties by rolling p99 then id; `pick_hedge` picks the best
//! *other* replica when a request is at deadline risk) runs on the
//! connection threads; every supervisory decision happens on one thread,
//! in one method, [`ReplicaSet::tick`], once per `watchdog_interval` of
//! the builder's [`Clock`] — the one clock heartbeats, stall holds and the
//! fault schedule read, so a test on a manual clock decides every wedge
//! and due fault exactly:
//!
//! 1. **Watchdog pass** ([`ReplicaCore::supervise`], per active core) —
//!    each worker's in-flight record carries the clock time its batch
//!    began ([`crate::batcher::WorkerSlot`]). A worker busy past
//!    `wedge_timeout` is declared wedged: its record is *stolen* in the
//!    same step, those requests fail with [`ServeError::WorkerWedged`]
//!    (typed `500`s instead of hung connections), the flight-recorder tail
//!    is captured as a [`BlackBox`], the slot is retired, and — under a
//!    bounded restart budget — a replacement worker is spawned with a
//!    fresh detector. The wedged thread finds its record gone whenever it
//!    wakes and exits silently; a worker that finished first keeps its
//!    slot. Then one brownout step ([`DegradeController::step`], hot
//!    when a job is still queued at the tick or one was shed since the
//!    last): sustained pressure walks the input-resolution ladder down
//!    (the paper's 608→352 accuracy-vs-FPS knob, applied as load shedding
//!    that still answers), sustained calm walks it back up. Then the core's one fault clock — its own pool's
//!    fault count, never a peer's — feeds both the quarantine streak and
//!    the [`RecoveryClock`]: after `recovery_ticks` ticks with no new
//!    fault and the ladder back at the top, the core's health returns
//!    Degraded → Healthy. Losing the last worker (restart budget
//!    exhausted, or a rebuild failure) flips the core to Halted, closes
//!    its queue, and fails the backlog — loud and typed, never a hang.
//! 2. **Quarantine** — a replica that halts, or keeps faulting across
//!    consecutive ticks, is taken out of rotation: its queue is failed
//!    fast and its threads sent to the graveyard. The *last* active
//!    replica is never quarantined for faulting — degraded service beats
//!    no service — and a single-replica set never quarantines at all
//!    (terminal halt, recoverable by a process restart).
//! 3. **Re-admission** — a quarantined slot is rebuilt from the factory,
//!    but serves nothing until the fresh detector reproduces the
//!    reference *golden* canary detections bit-for-bit
//!    ([`dronet_detect::canary`]). A rebuild that fails the canary is
//!    dropped on the spot and retried next tick.
//!
//! Service health is a ratchet: losing replicas degrades, only losing
//! *everything* (with rebuilds exhausted) halts.

use crate::batcher::{
    lock_recover, spawn_worker, BatchQueue, InFlight, Pool, WorkerShared, WorkerSlot,
};
use crate::chaos::Fault;
use crate::error::ServeError;
use crate::server::{DetectorFactory, ServeConfig, ROLLING_SUB_BUCKETS, ROLLING_WINDOW};
use dronet_detect::canary::{check_canary, golden_detections};
use dronet_detect::{DegradeController, Detection, Detector, ShiftMetrics};
use dronet_obs::window::mono_now_ns;
use dronet_obs::{
    json_object, BlackBox, Clock, Counter, Gauge, Health, HealthCell, JsonWriter, RecoveryClock,
    Registry, RestartBudget, RollingWindow, ToJson, Tracer,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Most black boxes retained per server; older captures are dropped first.
const MAX_BLACK_BOXES: usize = 16;

/// Factory failures tolerated per quarantined slot; one more abandons the
/// slot, and all slots abandoned ⇒ service Halted.
const MAX_REBUILD_FAILURES: u64 = 8;

/// The server's crash black boxes — one store for every replica, so a
/// capture outlives the core it explains: bounded retention
/// ([`MAX_BLACK_BOXES`] per server) plus the `serve.black_box_captures`
/// counter.
pub(crate) struct BlackBoxStore {
    boxes: Mutex<Vec<BlackBox>>,
    captures: Counter,
    tracer: Tracer,
}

impl BlackBoxStore {
    pub fn new(captures: Counter, tracer: Tracer) -> Self {
        BlackBoxStore {
            boxes: Mutex::new(Vec::new()),
            captures,
            tracer,
        }
    }

    /// Snapshots the tracer tail and retains it under `trigger`.
    pub fn capture(&self, trigger: &str, frame_ids: &[u64]) {
        let captured = BlackBox::capture(&self.tracer, trigger, frame_ids);
        let mut boxes = lock_recover(&self.boxes);
        if boxes.len() >= MAX_BLACK_BOXES {
            boxes.remove(0);
        }
        boxes.push(captured);
        self.captures.inc();
    }

    /// Every retained capture, oldest first.
    pub fn all(&self) -> Vec<BlackBox> {
        lock_recover(&self.boxes).clone()
    }

    /// How many captures are retained, counted without copying them.
    pub fn len(&self) -> usize {
        lock_recover(&self.boxes).len()
    }
}

/// Every retained capture, oldest first, written under the store's lock.
impl ToJson for BlackBoxStore {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        lock_recover(&self.boxes).write_json(w);
    }
}

/// What one core's watchdog pass carries from tick to tick.
#[derive(Default)]
struct Watch {
    /// This replica's own ladder walk (each replica has its own
    /// controller — an overloaded replica browns out alone).
    brownout: Option<DegradeController>,
    /// Replacement workers spawned, against `max_worker_restarts`.
    restarts: RestartBudget,
    /// The queue's admission drops at the last tick. Brownout pressure
    /// must come from *this* pool's queue, not the registry counter:
    /// replicas share the counter name, and one overloaded replica must
    /// not brown out its healthy peers.
    last_drops: u64,
    /// This pool's own fault count (never the name-shared registry
    /// counters, which a faulting peer moves too) at the last tick, and
    /// the faults accumulated over consecutive ticks that each brought
    /// one: quarantine's evidence. The same ticks drive `recovery`.
    last_faults: u64,
    fault_streak: u64,
    recovery: RecoveryClock,
}

/// One live replica: a private queue + worker pool, and the state of the
/// watchdog pass over them.
pub(crate) struct ReplicaCore {
    /// Slot id (stable across rebuilds).
    pub id: usize,
    pub queue: Arc<BatchQueue>,
    pub worker: Arc<WorkerShared>,
    /// End-to-end latencies served by (or charged to) this replica over
    /// the registry's rolling window: the dispatcher's p99 tie-break.
    latency: RollingWindow,
    watch: Mutex<Watch>,
    wedges: Counter,
    restarts: Counter,
    shifts: ShiftMetrics,
}

impl ReplicaCore {
    /// The input size this replica currently conforms frames to.
    pub fn current_input(&self) -> usize {
        self.worker.target_input.load(Ordering::SeqCst)
    }

    /// Records one request latency served by (or charged to) this replica.
    pub fn record_latency(&self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.latency.record_at(mono_now_ns(), ns);
    }

    /// This replica's p99 latency over the rolling window, nanoseconds: 0
    /// when it answered nothing in the window, so a fresh or idle replica
    /// looks fast, which is the bias re-admission wants.
    pub fn p99_ns(&self) -> u64 {
        self.latency.stats_at(mono_now_ns()).p99_ns
    }

    /// One watchdog pass: wedge scan, brownout step, fault clock.
    /// Returns the faults (panics + deaths + wedges) accumulated over the
    /// consecutive faulting ticks up to this one. Only the supervisor
    /// thread calls this, so the `watch` lock is never contended.
    fn supervise(&self) -> u64 {
        let shared = &self.worker;
        let watch = &mut *lock_recover(&self.watch);

        let now = shared.builder.clock.now();
        for slot in shared.pool.slots_snapshot() {
            if let Some(held) = slot.take_wedged(now, shared.builder.config.wedge_timeout) {
                self.handle_wedge(&slot, held, &mut watch.restarts);
            }
        }

        if let Some(ctrl) = watch.brownout.as_mut() {
            let now_drops = self.queue.local_drops();
            let delta = now_drops.saturating_sub(watch.last_drops);
            watch.last_drops = now_drops;
            let hot = !self.queue.is_empty() || delta > 0;
            if let Some(size) = ctrl.step(hot, &self.shifts, &shared.health) {
                shared.target_input.store(size, Ordering::SeqCst);
            }
        }

        let faults = shared.fault_events.load(Ordering::SeqCst);
        if faults == watch.last_faults {
            watch.fault_streak = 0;
            let at_top = !watch
                .brownout
                .as_ref()
                .is_some_and(DegradeController::is_degraded);
            watch.recovery.clean(&shared.health, at_top);
        } else {
            watch.fault_streak += faults - watch.last_faults;
            watch.last_faults = faults;
            watch.recovery.fault(&shared.health);
        }
        watch.fault_streak
    }

    /// Retires `slot`, wedged in the batch whose record the watchdog took
    /// (typed errors, black box), spawning a replacement under the
    /// restart budget.
    fn handle_wedge(&self, slot: &WorkerSlot, inflight: InFlight, restarts: &mut RestartBudget) {
        let shared = &self.worker;
        let builder = &shared.builder;
        let busy = builder.clock.now().saturating_sub(inflight.began);
        let trigger = format!(
            "worker {} wedged after {busy:.0?} holding {} job(s)",
            slot.index,
            inflight.frame_ids.len()
        );
        let msg = format!(
            "worker {} stuck past {:.0?} deadline",
            slot.index, builder.config.wedge_timeout
        );
        let spare = || {
            if restarts.is_exhausted() {
                return;
            }
            match builder.build_detector() {
                Ok(det) => {
                    restarts.spend();
                    self.restarts.inc();
                    spawn_worker(shared, det);
                }
                Err(e) => builder
                    .black_box
                    .capture(&format!("replacement rebuild failed: {e}"), &[]),
            }
        };
        let failed = || ServeError::WorkerWedged(msg.clone());
        shared.retire_worker(slot, Some(inflight), &self.wedges, &trigger, failed, spare);
    }

    /// Fails the backlog, halts the pool's health cell, and returns the
    /// worker join handles. Joins nothing itself: callers decide whether
    /// joining is safe — a wedged worker may be mid-sleep.
    fn tear_down(&self) -> Vec<thread::JoinHandle<()>> {
        self.queue.close();
        self.queue.fail_pending();
        self.worker.health.halt();
        self.worker.pool.take_handles()
    }
}

/// The server-wide parts every core is built (and rebuilt) from, shared
/// with the workers for their own detector rebuilds.
pub(crate) struct ReplicaBuilder {
    /// The one detector factory.
    pub factory: DetectorFactory,
    pub config: Arc<ServeConfig>,
    pub obs: Registry,
    pub tracer: Tracer,
    pub black_box: BlackBoxStore,
    /// The supervision clock: heartbeats, stall holds, the fault
    /// schedule and the supervisor's pacing.
    pub clock: Clock,
}

impl ReplicaBuilder {
    /// Builds a detector, instrumented — the one way serve makes a
    /// detector once it is running (further workers and replicas, canary
    /// probes, post-panic rebuilds, wedge replacements). It runs at the
    /// size of the frames it is given, whatever size it is built at.
    pub fn build_detector(&self) -> dronet_detect::Result<Detector> {
        Ok(self.instrument((self.factory)()?))
    }

    /// Attaches the server's registry and tracer to a factory build.
    fn instrument(&self, mut det: Detector) -> Detector {
        if self.obs.is_enabled() {
            det.set_observability(&self.obs);
        }
        if self.tracer.is_enabled() {
            det.set_tracing(&self.tracer);
        }
        det
    }

    /// Builds one complete replica around `first` (worker 0's detector —
    /// the reference build at startup, the canary-verified one on
    /// re-admission): queue, worker pool, and a watchdog state starting
    /// at the top of the ladder, or without brownout at `first`'s size.
    fn build_core(
        self: &Arc<Self>,
        id: usize,
        first: Detector,
    ) -> Result<Arc<ReplicaCore>, ServeError> {
        let brownout = self.config.brownout.clone();
        let brownout = brownout.map(DegradeController::new).transpose()?;
        let base = brownout
            .as_ref()
            .map_or(first.input_chw().1, DegradeController::current);
        let mut detectors = vec![first];
        while detectors.len() < self.config.workers {
            detectors.push(self.build_detector()?);
        }

        let obs = &self.obs;
        let queue = BatchQueue::new(self.config.queue_capacity, obs);
        let shifts = ShiftMetrics {
            downshifts: obs.counter("serve.brownout_downshifts"),
            upshifts: obs.counter("serve.brownout_upshifts"),
            input_size: obs.gauge("serve.input_resolution"),
        };
        shifts.input_size.set(base as f64);

        let worker = Arc::new(WorkerShared {
            queue: Arc::clone(&queue),
            builder: Arc::clone(self),
            pool: Pool::new(),
            health: HealthCell::new(obs.gauge(&format!("serve.replica.{id}.health"))),
            target_input: AtomicUsize::new(base),
            batch_size_hist: obs.histogram("serve.batch_size"),
            queue_wait_hist: obs.histogram("serve.queue_wait"),
            forward_hist: obs.histogram("serve.forward"),
            panics: obs.counter("serve.worker_panics"),
            worker_deaths: obs.counter("serve.worker_deaths"),
            fault_events: AtomicU64::new(0),
            injected: Mutex::default(),
        });
        for det in detectors {
            spawn_worker(&worker, det);
        }
        Ok(Arc::new(ReplicaCore {
            id,
            queue,
            worker,
            latency: RollingWindow::new(ROLLING_WINDOW, ROLLING_SUB_BUCKETS),
            watch: Mutex::new(Watch {
                brownout,
                restarts: RestartBudget::new(self.config.max_worker_restarts as u64),
                recovery: RecoveryClock::new(u64::from(self.config.recovery_ticks)),
                ..Watch::default()
            }),
            wedges: obs.counter("serve.worker_wedges"),
            restarts: obs.counter("serve.worker_restarts"),
            shifts,
        }))
    }
}

struct SlotState {
    /// The core in rotation; `None` while the slot is quarantined and the
    /// supervisor is rebuilding it.
    core: Option<Arc<ReplicaCore>>,
    generation: u64,
    /// Cumulative canary probes failed on this slot.
    canary_failures: u64,
    /// Consecutive factory failures since the last successful rebuild.
    rebuild_failures: RestartBudget,
    /// Canary probes still to fail on purpose (`Fault::FailCanary`).
    forced_canary_failures: usize,
}

/// One replica slot: a stable identity whose core is replaced across
/// quarantine/rebuild cycles.
pub(crate) struct ReplicaSlot {
    pub id: usize,
    state: Mutex<SlotState>,
}

impl ReplicaSlot {
    /// The current core, if the slot is active: quarantine takes the core
    /// out of the slot, so a quarantined slot has none.
    pub fn active_core(&self) -> Option<Arc<ReplicaCore>> {
        lock_recover(&self.state).core.clone()
    }
}

/// The replicated pool: slots, dispatch, quarantine, re-admission.
pub(crate) struct ReplicaSet {
    pub slots: Vec<ReplicaSlot>,
    builder: Arc<ReplicaBuilder>,
    /// The service-level health cell — owns the `serve.health` gauge.
    /// Mirrored from replica states by the supervisor: replica loss
    /// degrades, total loss halts.
    pub service_health: HealthCell,
    /// Reference canary detections, computed once from a trusted build
    /// at startup; every re-admitted replica must reproduce them.
    golden: Vec<Detection>,
    /// The reference build's input `(c, h, w)`: every frame keeps its
    /// channel count.
    pub base_chw: (usize, usize, usize),
    /// Worker threads of quarantined cores — possibly mid-wedge-sleep,
    /// joined only at server shutdown.
    graveyard: Mutex<Vec<thread::JoinHandle<()>>>,
    pub hedge_issued: Counter,
    pub hedge_won: Counter,
    pub hedge_wasted: Counter,
    quarantine_entered: Counter,
    quarantine_readmitted: Counter,
    canary_failed: Counter,
    active_gauge: Gauge,
    /// When serving started on the builder's clock: the fault schedule's
    /// time origin.
    serving_start: Duration,
    /// Index of the next unapplied `config.faults` event.
    fault_cursor: AtomicUsize,
}

impl ReplicaSet {
    /// Builds the full set around `reference`, the factory's first build:
    /// it gives the golden canary output (at its own size, as every later
    /// build is) and the channel count; then one core per slot is built
    /// (failing fast on any broken build). Fault events due at serving
    /// start are in force before this returns.
    pub fn new(
        builder: ReplicaBuilder,
        reference: Detector,
    ) -> Result<Arc<ReplicaSet>, ServeError> {
        let builder = Arc::new(builder);
        let mut reference = builder.instrument(reference);
        let base_chw = reference.input_chw();
        let golden = golden_detections(&mut reference)
            .map_err(|e| ServeError::Config(format!("canary golden run failed: {e}")))?;
        // The reference build is trusted by construction: hand it to the
        // first slot instead of discarding a warm detector.
        let mut first = Some(reference);

        let obs = builder.obs.clone();
        let replicas = builder.config.replicas;
        let mut slots = Vec::with_capacity(replicas);
        for id in 0..replicas {
            let first = match first.take() {
                Some(det) => det,
                None => builder.build_detector()?,
            };
            let core = builder.build_core(id, first)?;
            slots.push(ReplicaSlot {
                id,
                state: Mutex::new(SlotState {
                    core: Some(core),
                    generation: 0,
                    canary_failures: 0,
                    rebuild_failures: RestartBudget::new(MAX_REBUILD_FAILURES + 1),
                    forced_canary_failures: 0,
                }),
            });
        }
        let active_gauge = obs.gauge("serve.replicas_active");
        active_gauge.set(replicas as f64);
        let set = Arc::new(ReplicaSet {
            slots,
            service_health: HealthCell::new(obs.gauge("serve.health")),
            golden,
            base_chw,
            graveyard: Mutex::new(Vec::new()),
            hedge_issued: obs.counter("serve.hedge.issued"),
            hedge_won: obs.counter("serve.hedge.won"),
            hedge_wasted: obs.counter("serve.hedge.wasted"),
            quarantine_entered: obs.counter("serve.quarantine.entered"),
            quarantine_readmitted: obs.counter("serve.quarantine.readmitted"),
            canary_failed: obs.counter("serve.quarantine.canary_failed"),
            active_gauge,
            serving_start: builder.clock.now(),
            fault_cursor: AtomicUsize::new(0),
            builder,
        });
        set.apply_faults(Duration::ZERO);
        Ok(set)
    }

    fn config(&self) -> &ServeConfig {
        &self.builder.config
    }

    /// Every in-rotation core that still has workers serving (health not
    /// Halted), with its slot id.
    pub fn active_cores(&self) -> Vec<Arc<ReplicaCore>> {
        self.slots
            .iter()
            .filter_map(|s| s.active_core())
            .filter(|c| !matches!(c.worker.health.get(), Health::Halted))
            .collect()
    }

    /// How many replicas are currently in rotation and serviceable.
    pub fn active_count(&self) -> usize {
        self.active_cores().len()
    }

    /// Health-aware dispatch: the serviceable replica with the
    /// shallowest queue, breaking ties by rolling p99, then id.
    pub fn pick_primary(&self) -> Option<Arc<ReplicaCore>> {
        self.active_cores()
            .into_iter()
            .min_by_key(|c| (c.queue.len(), c.p99_ns(), c.id))
    }

    /// The best serviceable replica other than `exclude` — the hedge
    /// target for a request whose primary is at deadline risk.
    pub fn pick_hedge(&self, exclude: usize) -> Option<Arc<ReplicaCore>> {
        self.active_cores()
            .into_iter()
            .filter(|c| c.id != exclude)
            .min_by_key(|c| (c.queue.len(), c.p99_ns(), c.id))
    }

    /// The largest input size any active replica currently serves at
    /// (health surfaces); the base size when nothing is active.
    pub fn current_input(&self) -> usize {
        self.active_cores()
            .iter()
            .map(|c| c.current_input())
            .max()
            .unwrap_or(self.base_chw.1)
    }

    /// Load-aware `Retry-After`: the *most optimistic* active queue
    /// (a shed client should come back when anyone can take it).
    pub fn retry_after_hint(&self, base_secs: u64, max_secs: u64) -> u64 {
        self.active_cores()
            .iter()
            .map(|c| c.queue.retry_after_hint(base_secs, max_secs))
            .min()
            .unwrap_or_else(|| base_secs.max(1))
    }

    /// Total queued jobs across active replicas.
    pub fn queue_depth_total(&self) -> usize {
        self.active_cores().iter().map(|c| c.queue.len()).sum()
    }

    /// Total live workers across all cores (quarantined ones report 0).
    pub fn workers_alive_total(&self) -> usize {
        self.slots
            .iter()
            .filter_map(|s| s.active_core())
            .map(|c| c.worker.pool.alive_count())
            .sum()
    }

    /// The server's crash black boxes, oldest first — those of cores
    /// since quarantined or replaced included.
    pub fn black_boxes(&self) -> &BlackBoxStore {
        &self.builder.black_box
    }

    /// One supervisor tick — every supervisory decision the server makes:
    /// the watchdog pass over each core in rotation and its quarantine
    /// verdict, then due fault events, rebuilds, gauges, and the
    /// service-health mirror. It never sleeps and nothing else decides any
    /// of this, so a test can build a set without [`spawn_supervisor`] and
    /// drive it tick by tick.
    ///
    /// A wedge is noticed within `wedge_timeout` + one `watchdog_interval`,
    /// plus whatever the tick ahead of it spends building detectors on
    /// this thread (wedge replacements, canary probes, core rebuilds).
    fn tick(&self) {
        self.supervise_and_quarantine();
        self.apply_faults(self.builder.clock.now() - self.serving_start);
        self.try_rebuilds();
        self.publish_gauges();
        self.mirror_health();
    }

    /// Applies every `config.faults` event due by `now` (time since
    /// serving start), once each, in order: `FailCanary` to its slot, any
    /// other fault to the slot's *current* core (none while quarantined).
    fn apply_faults(&self, now: Duration) {
        let events = self.config().faults.events();
        let from = self.fault_cursor.load(Ordering::SeqCst);
        let due = from + events[from..].partition_point(|e| e.at <= now);
        self.fault_cursor.store(due, Ordering::SeqCst);
        for event in &events[from..due] {
            // `ServeConfig::validate` keeps every event on an existing slot.
            let slot = &self.slots[event.replica];
            match event.fault {
                Fault::FailCanary(n) => lock_recover(&slot.state).forced_canary_failures += n,
                fault => {
                    if let Some(core) = slot.active_core() {
                        core.worker.inject(fault);
                    }
                }
            }
        }
    }

    /// Runs the watchdog pass over every core in rotation, and pulls out
    /// of rotation a core that halted or keeps faulting. Single-replica
    /// sets never quarantine: there a halt is terminal.
    fn supervise_and_quarantine(&self) {
        for slot in &self.slots {
            let Some(core) = slot.active_core() else {
                continue;
            };
            let fault_streak = core.supervise();
            if self.config().replicas <= 1 {
                continue;
            }
            // Never quarantine the last serviceable replica for mere
            // faulting; a halted core serves nothing either way.
            let halted = matches!(core.worker.health.get(), Health::Halted);
            let faulting = fault_streak >= self.config().quarantine_faults;
            if !(halted || (faulting && self.active_count() > 1)) {
                continue;
            }
            lock_recover(&slot.state).core = None;
            self.quarantine_entered.inc();
            lock_recover(&self.graveyard).extend(core.tear_down());
        }
    }

    /// Rebuilds quarantined slots, gating re-admission on the canary.
    fn try_rebuilds(&self) {
        for slot in &self.slots {
            let forced_failure = {
                let mut s = lock_recover(&slot.state);
                if s.core.is_some() || s.rebuild_failures.is_exhausted() {
                    continue;
                }
                let forced = s.forced_canary_failures > 0;
                s.forced_canary_failures -= usize::from(forced);
                forced
            };
            // A forced failure (`Fault::FailCanary`) is a canary failure
            // without the build.
            let rebuilt = if forced_failure {
                Ok(None)
            } else {
                self.rebuild(slot.id)
            };
            let mut s = lock_recover(&slot.state);
            match rebuilt {
                Ok(Some(core)) => {
                    s.core = Some(core);
                    s.generation += 1;
                    s.rebuild_failures.reset();
                    self.quarantine_readmitted.inc();
                }
                Ok(None) => {
                    s.canary_failures += 1;
                    self.canary_failed.inc();
                }
                Err(_) => {
                    s.rebuild_failures.spend();
                }
            }
        }
    }

    /// A fresh core for slot `id` around a canary-verified detector:
    /// `Ok(None)` when the probe failed the canary and was dropped on the
    /// spot, `Err` when the factory failed.
    fn rebuild(&self, id: usize) -> Result<Option<Arc<ReplicaCore>>, ServeError> {
        let mut probe = self.builder.build_detector()?;
        if !check_canary(&mut probe, &self.golden).passed {
            return Ok(None);
        }
        self.builder.build_core(id, probe).map(Some)
    }

    /// Publishes per-replica gauges and the active-count gauge.
    fn publish_gauges(&self) {
        let obs = &self.builder.obs;
        for slot in &self.slots {
            let prefix = format!("serve.replica.{}", slot.id);
            match slot.active_core() {
                Some(core) => {
                    obs.gauge(&format!("{prefix}.queue_depth"))
                        .set(core.queue.len() as f64);
                    obs.gauge(&format!("{prefix}.input_resolution"))
                        .set(core.current_input() as f64);
                    obs.gauge(&format!("{prefix}.p99_ms"))
                        .set(core.p99_ns() as f64 / 1e6);
                }
                None => {
                    obs.gauge(&format!("{prefix}.queue_depth")).set(0.0);
                    obs.gauge(&format!("{prefix}.p99_ms")).set(0.0);
                }
            }
        }
        self.active_gauge.set(self.active_count() as f64);
    }

    /// Folds replica states into the service health cell: every replica
    /// active and healthy → Healthy; nothing serviceable and nothing left
    /// to rebuild → Halted (terminal); anything in between → Degraded. A
    /// single replica is never rebuilt, so the service mirrors its pool.
    fn mirror_health(&self) {
        let replicas = self.config().replicas;
        let active = self.active_cores();
        let all_healthy = active
            .iter()
            .all(|c| matches!(c.worker.health.get(), Health::Healthy));
        let rebuildable = |s: &ReplicaSlot| !lock_recover(&s.state).rebuild_failures.is_exhausted();
        if active.len() == replicas && all_healthy {
            self.service_health.recover();
        } else if active.is_empty() && (replicas <= 1 || !self.slots.iter().any(rebuildable)) {
            self.service_health.halt();
        } else {
            self.service_health.degrade();
        }
    }

    /// Full teardown at server shutdown: every core torn down, every
    /// worker (graveyard included) joined.
    pub fn shutdown(&self) {
        let mut handles = Vec::new();
        for slot in &self.slots {
            let core = lock_recover(&slot.state).core.take();
            if let Some(core) = core {
                handles.extend(core.tear_down());
            }
        }
        handles.append(&mut lock_recover(&self.graveyard));
        for h in handles {
            let _ = h.join();
        }
        self.service_health.halt();
    }
}

/// One row of the `replicas` member of `/debug/vars` (no booleans — the
/// in-tree parser has no literals).
impl ToJson for ReplicaSlot {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        let (active, generation, canary_failures, rebuild_failures) = {
            let s = lock_recover(&self.state);
            (
                s.core.is_some(),
                s.generation,
                s.canary_failures,
                s.rebuild_failures.spent,
            )
        };
        let (health, depth, alive, input, p99_ms) = match self.active_core() {
            Some(c) => (
                c.worker.health.get().as_metric(),
                c.queue.len(),
                c.worker.pool.alive_count(),
                c.current_input(),
                c.p99_ns() as f64 / 1e6,
            ),
            None => (Health::Halted.as_metric(), 0, 0, 0, 0.0),
        };
        let status = if active { "active" } else { "quarantined" };
        json_object!(w, "id" => self.id, "status" => status,
            "generation" => generation, "health" => health, "queue_depth" => depth,
            "workers_alive" => alive, "input_resolution" => input,
            "p99_ms" => format_args!("{p99_ms:.3}"), "canary_failures" => canary_failures,
            "rebuild_failures" => rebuild_failures);
    }
}

/// Spawns the replica supervisor thread: one [`ReplicaSet::tick`] per
/// `watchdog_interval` on the builder's clock until `shutdown`.
pub(crate) fn spawn_supervisor(
    set: Arc<ReplicaSet>,
    shutdown: Arc<AtomicBool>,
) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name("serve-replicas".to_string())
        .spawn(move || loop {
            set.builder.clock.sleep(set.config().watchdog_interval);
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            set.tick();
        })
        .expect("spawn replica supervisor thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::{Job, PRIMARY_LEG};
    use crate::chaos::{FaultEvent, FaultSchedule};
    use dronet_core::{zoo, ModelId};
    use dronet_detect::{DegradeConfig, DetectError, DetectorBuilder};
    use dronet_tensor::{Shape, Tensor};
    use std::sync::mpsc;
    use std::time::Instant;

    /// A set with no supervisor thread, on a manual clock: the tests below
    /// tick it and move its clock.
    fn unsupervised(config: ServeConfig, factory: DetectorFactory) -> Arc<ReplicaSet> {
        let obs = Registry::new();
        let first = factory().expect("first detector");
        let builder = ReplicaBuilder {
            factory,
            config: Arc::new(config),
            black_box: BlackBoxStore::new(obs.counter("serve.black_box_captures"), Tracer::noop()),
            obs,
            tracer: Tracer::noop(),
            clock: Clock::manual(),
        };
        ReplicaSet::new(builder, first).expect("build the replica set")
    }

    /// Waits until `set`'s workers have begun `n` batches: a counted batch
    /// has its in-flight record, and so its heartbeat, in place.
    fn wait_for_batches(set: &ReplicaSet, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let begun = || {
            let snap = set.builder.obs.snapshot();
            snap.histogram("serve.batch_size").map_or(0, |h| h.count)
        };
        while begun() < n {
            assert!(Instant::now() < deadline, "no worker began batch {n}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    fn dronet_32() -> dronet_detect::Result<Detector> {
        DetectorBuilder::new(zoo::build(ModelId::DroNet, 32)?).build()
    }

    /// [`dronet_32`], counting its builds in `builds`.
    fn counted_dronet_32(builds: &Arc<AtomicUsize>) -> DetectorFactory {
        let builds = Arc::clone(builds);
        Arc::new(move || {
            builds.fetch_add(1, Ordering::SeqCst);
            dronet_32()
        })
    }

    /// Longer than any test: only a heal or teardown ends this stall.
    const FOREVER: Duration = Duration::from_secs(30);

    type Answer = mpsc::Receiver<Result<Vec<Detection>, ServeError>>;

    fn push(core: &ReplicaCore, frame_id: u64) -> Answer {
        let (reply, answer) = mpsc::channel();
        let job = Job {
            frame_id,
            frame: Tensor::zeros(Shape::nchw(1, 3, 32, 32)),
            enqueued: Instant::now(),
            reply,
            hedge: None,
            leg: PRIMARY_LEG,
        };
        core.queue.push(job).expect("queue has room");
        answer
    }

    /// A slot's `(in rotation, generation, canary failures)`.
    fn slot_state(set: &ReplicaSet, id: usize) -> (bool, u64, u64) {
        let s = lock_recover(&set.slots[id].state);
        (s.core.is_some(), s.generation, s.canary_failures)
    }

    #[test]
    fn black_box_store_caps_retention_and_counts_captures() {
        let obs = Registry::new();
        let store = BlackBoxStore::new(obs.counter("serve.black_box_captures"), Tracer::noop());
        for i in 0..(MAX_BLACK_BOXES + 3) {
            store.capture(&format!("trigger {i}"), &[i as u64]);
        }
        let boxes = store.all();
        assert_eq!(boxes.len(), MAX_BLACK_BOXES, "oldest captures dropped");
        assert_eq!(boxes[0].trigger, "trigger 3");
        assert!(boxes.last().unwrap().to_text().contains("trigger 18"));
        assert_eq!(
            obs.snapshot().counter("serve.black_box_captures"),
            Some((MAX_BLACK_BOXES + 3) as u64)
        );
    }

    #[test]
    fn equal_queue_depths_break_ties_on_the_rolling_p99() {
        let config = ServeConfig {
            replicas: 2,
            ..ServeConfig::default()
        };
        let set = unsupervised(config, Arc::new(dronet_32));
        let core = |id: usize| set.slots[id].active_core().expect("active");
        assert_eq!(
            set.pick_primary().unwrap().id,
            0,
            "no latency yet: id decides"
        );
        // Both queues are empty. Replica 0 has answered slower than 1.
        core(0).record_latency(Duration::from_millis(40));
        core(1).record_latency(Duration::from_millis(5));
        assert_eq!(set.pick_primary().unwrap().id, 1);
        assert_eq!(set.pick_hedge(1).unwrap().id, 0);
        // One slow answer lifts replica 1's p99 above replica 0's.
        core(1).record_latency(Duration::from_millis(400));
        assert_eq!(set.pick_primary().unwrap().id, 0);
        assert_eq!(set.pick_hedge(0).unwrap().id, 1);
        set.shutdown();
    }

    /// The default 10 s `wedge_timeout` on a manual clock: the held batch
    /// began at zero, so a tick 1 ns short of the deadline wedges nothing
    /// and the tick at it fails the batch.
    #[test]
    fn one_tick_fails_a_wedged_batch_and_registers_a_replacement() {
        let set = unsupervised(ServeConfig::default(), Arc::new(dronet_32));
        let clock = &set.builder.clock;
        let wedge_timeout = set.config().wedge_timeout;
        assert_eq!(wedge_timeout, Duration::from_secs(10));
        let core = set.slots[0].active_core().expect("active");
        core.worker.inject(Fault::Stall(FOREVER));
        let answer = push(&core, 7);
        let wedged = core.worker.pool.slots_snapshot().remove(0);
        wait_for_batches(&set, 1);

        clock.sleep(wedge_timeout - Duration::from_nanos(1));
        set.tick();
        assert!(answer.try_recv().is_err(), "1 ns short of the deadline");
        assert!(wedged.is_alive());
        assert_eq!(core.worker.fault_events.load(Ordering::SeqCst), 0);

        clock.sleep(Duration::from_nanos(1));
        set.tick();

        assert!(matches!(
            answer.try_recv(),
            Ok(Err(ServeError::WorkerWedged(_)))
        ));
        assert!(!wedged.is_alive());
        let workers = core.worker.pool.slots_snapshot();
        assert_eq!(workers.len(), 2, "a replacement was registered");
        assert!(workers[1].is_alive());
        assert_eq!(core.worker.pool.alive_count(), 1);
        assert_eq!(core.worker.fault_events.load(Ordering::SeqCst), 1);
        assert_eq!(set.black_boxes().len(), 1);
        assert_eq!(set.service_health.get(), Health::Degraded);
        set.shutdown();
    }

    /// A batch that finished before the wedge deadline leaves nothing to
    /// steal: a tick past the deadline keeps its worker in the pool,
    /// serving its next job, with no fault, black box or replacement.
    #[test]
    fn a_steal_that_loses_to_a_finishing_worker_leaves_it_serving() {
        let set = unsupervised(ServeConfig::default(), Arc::new(dronet_32));
        let core = set.slots[0].active_core().expect("active");
        assert!(matches!(push(&core, 0).recv(), Ok(Ok(_))));
        set.builder.clock.sleep(set.config().wedge_timeout);
        set.tick();

        assert!(matches!(push(&core, 1).recv(), Ok(Ok(_))));
        let workers = core.worker.pool.slots_snapshot();
        assert_eq!(workers.len(), 1, "no replacement");
        assert!(workers[0].is_alive());
        assert_eq!(core.worker.fault_events.load(Ordering::SeqCst), 0);
        assert_eq!(set.black_boxes().len(), 0);
        assert_eq!(set.service_health.get(), Health::Healthy);
        set.shutdown();
    }

    #[test]
    fn a_repeat_offender_is_quarantined_and_readmitted_through_the_canary() {
        let config = ServeConfig {
            replicas: 2,
            quarantine_faults: 3,
            // In force from the start: replica 1 panics on every batch, and
            // its first two canary probes fail.
            faults: FaultSchedule::new(vec![
                FaultEvent::at(Duration::ZERO, 1, Fault::Panic),
                FaultEvent::at(Duration::ZERO, 1, Fault::FailCanary(2)),
            ]),
            ..ServeConfig::default()
        };
        let set = unsupervised(config, Arc::new(dronet_32));
        let sick = set.slots[1].active_core().expect("active");
        for frame_id in 0..3 {
            assert!(slot_state(&set, 1).0);
            // The fault is counted before the typed error is delivered.
            let answer = push(&sick, frame_id);
            assert!(matches!(
                answer.recv(),
                Ok(Err(ServeError::WorkerFailed(_)))
            ));
            set.tick();
        }
        // The third faulting tick quarantines, and its own rebuild attempt
        // already meets the first forced canary failure.
        assert_eq!(slot_state(&set, 1), (false, 0, 1));
        assert_eq!(set.active_count(), 1);
        assert_eq!(set.service_health.get(), Health::Degraded);

        set.tick();
        assert_eq!(slot_state(&set, 1), (false, 0, 2));
        assert_eq!(set.canary_failed.get(), 2);

        set.tick();
        assert_eq!(slot_state(&set, 1), (true, 1, 2));
        assert_eq!(set.active_count(), 2);
        assert_eq!(set.quarantine_readmitted.get(), 1);
        assert_eq!(set.service_health.get(), Health::Healthy);
        set.shutdown();
    }

    #[test]
    fn fault_events_fire_once_each_when_the_schedule_clock_reaches_them() {
        let at = |ms, fault| FaultEvent::at(Duration::from_millis(ms), 1, fault);
        let config = ServeConfig {
            replicas: 2,
            faults: FaultSchedule::new(vec![
                at(0, Fault::Panic),
                at(10, Fault::FailCanary(2)),
                at(20, Fault::Heal),
            ]),
            ..ServeConfig::default()
        };
        let set = unsupervised(config, Arc::new(dronet_32));
        let core = set.slots[1].active_core().expect("active");
        let forced = || lock_recover(&set.slots[1].state).forced_canary_failures;
        assert!(
            matches!(push(&core, 0).recv(), Ok(Err(ServeError::WorkerFailed(_)))),
            "a start event is in force before the first tick"
        );
        set.apply_faults(Duration::from_millis(9));
        assert_eq!(forced(), 0, "not due yet");
        set.apply_faults(Duration::from_millis(10));
        set.apply_faults(Duration::from_millis(15));
        assert_eq!(forced(), 2, "due once, applied once");
        set.apply_faults(Duration::from_millis(20));
        assert!(matches!(push(&core, 1).recv(), Ok(Ok(_))), "healed");
        set.shutdown();
    }

    #[test]
    fn a_factory_that_stays_broken_spends_every_rebuild_budget_and_halts() {
        let broken = Arc::new(AtomicBool::new(false));
        let builds = Arc::new(AtomicUsize::new(0));
        let factory: DetectorFactory = {
            let (broken, builds) = (Arc::clone(&broken), Arc::clone(&builds));
            Arc::new(move || {
                builds.fetch_add(1, Ordering::SeqCst);
                if broken.load(Ordering::SeqCst) {
                    return Err(DetectError::MissingRegionHead);
                }
                dronet_32()
            })
        };
        let config = ServeConfig {
            replicas: 2,
            ..ServeConfig::default()
        };
        let set = unsupervised(config, factory);
        broken.store(true, Ordering::SeqCst);
        // A panic whose rebuild fails kills each replica's only worker.
        for slot in &set.slots {
            let core = slot.active_core().expect("active");
            core.worker.inject(Fault::Panic);
            let _answer = push(&core, slot.id as u64);
            while core.worker.health.get() != Health::Halted {
                thread::yield_now();
            }
        }
        for _ in 0..MAX_REBUILD_FAILURES {
            set.tick();
            assert_eq!(set.active_count(), 0);
            assert_eq!(set.service_health.get(), Health::Degraded);
        }
        set.tick();
        assert_eq!(set.service_health.get(), Health::Halted);
        assert_eq!(
            set.black_boxes().len(),
            2,
            "the deaths' boxes outlive the cores"
        );
        let spent = builds.load(Ordering::SeqCst);
        set.tick();
        assert_eq!(builds.load(Ordering::SeqCst), spent, "abandoned slots rest");
        set.shutdown();
    }

    #[test]
    fn a_faulting_peer_does_not_hold_a_quiet_replica_degraded() {
        let config = ServeConfig {
            replicas: 2,
            recovery_ticks: 3,
            quarantine_faults: u64::MAX,
            ..ServeConfig::default()
        };
        let set = unsupervised(config, Arc::new(dronet_32));
        let quiet = set.slots[0].active_core().expect("active");
        let sick = set.slots[1].active_core().expect("active");
        quiet.worker.health.degrade(); // an old fault; no traffic since
        sick.worker.inject(Fault::Panic);
        for frame_id in 0..3 {
            // The fault is counted before the typed error is delivered.
            let answer = push(&sick, frame_id);
            assert!(matches!(
                answer.recv(),
                Ok(Err(ServeError::WorkerFailed(_)))
            ));
            set.tick();
        }
        // One panic per tick on replica 1 shares the `serve.worker_panics`
        // name with replica 0, but not replica 0's own fault clock.
        assert_eq!(quiet.worker.health.get(), Health::Healthy);
        assert_eq!(sick.worker.health.get(), Health::Degraded);
        assert_eq!(set.service_health.get(), Health::Degraded);
        set.shutdown();
    }

    #[test]
    fn brownout_serves_from_the_ladder_top_whatever_size_the_factory_builds() {
        let config = ServeConfig {
            brownout: Some(DegradeConfig::over_ladder(vec![16, 48])),
            ..ServeConfig::default()
        };
        let set = unsupervised(config, Arc::new(dronet_32));
        let core = set.slots[0].active_core().expect("active");
        assert_eq!(core.current_input(), 48);
        // A 32² frame is resized to the rung at the door, and the 32² build
        // runs at it.
        assert!(matches!(push(&core, 0).recv(), Ok(Ok(_))));
        set.shutdown();
    }

    #[test]
    fn a_held_queue_walks_the_ladder_down_and_recovery_waits_for_the_top() {
        let config = ServeConfig {
            brownout: Some(DegradeConfig {
                overload_windows: 1,
                calm_windows: 2,
                cooldown_windows: 0,
                window_frames: 1,
                ..DegradeConfig::over_ladder(vec![16, 24, 32])
            }),
            recovery_ticks: 1,
            ..ServeConfig::default()
        };
        let builds = Arc::new(AtomicUsize::new(0));
        let set = unsupervised(config, counted_dronet_32(&builds));
        assert_eq!(builds.load(Ordering::SeqCst), 1, "the one worker's build");
        let core = set.slots[0].active_core().expect("active");
        // Hold the only worker mid-batch; the next job then sits queued.
        core.worker.inject(Fault::Stall(FOREVER));
        let held = push(&core, 0);
        wait_for_batches(&set, 1);
        let queued = push(&core, 1);
        let mut walk = vec![core.current_input()];
        for _ in 0..4 {
            set.tick();
            walk.push(core.current_input());
            assert_eq!(core.worker.health.get(), Health::Degraded);
        }
        assert_eq!(walk, [32, 24, 16, 16, 16], "one rung per hot tick");

        // Heal: the held batch and the queued job are both answered.
        core.worker.inject(Fault::Heal);
        assert!(matches!(held.recv(), Ok(Ok(_))));
        assert!(matches!(queued.recv(), Ok(Ok(_))));
        let mut walk = vec![core.current_input()];
        while core.current_input() < 32 && walk.len() < 16 {
            set.tick();
            walk.push(core.current_input());
            // No fault for many ticks, but Healthy only back at the top.
            let healthy = core.worker.health.get() == Health::Healthy;
            assert_eq!(healthy, core.current_input() == 32, "walk {walk:?}");
        }
        assert_eq!(walk, [16, 16, 24, 24, 32], "two calm ticks per rung");
        assert_eq!(set.service_health.get(), Health::Healthy);
        // Both 32² frames were answered at the 16² rung by the worker's
        // first detector: no shift built one.
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        set.shutdown();
    }
}
