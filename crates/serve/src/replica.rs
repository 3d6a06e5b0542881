//! Replicated detector pools with health-aware dispatch, quarantine, and
//! canary re-admission.
//!
//! One [`ReplicaCore`] is a complete, private failure domain: its own
//! admission queue, worker pool, watchdog, brownout controller, and
//! health cell. Nothing is shared between replicas but the metric
//! registry — a panic, wedge, or brownout on one replica cannot touch
//! its peers.
//!
//! The [`ReplicaSet`] sits above the cores and makes three decisions:
//!
//! 1. **Dispatch** — `pick_primary` routes each request to the active
//!    replica with the shallowest queue, breaking ties by rolling p99
//!    then id; `pick_hedge` picks the best *other* replica when a
//!    request is at deadline risk.
//! 2. **Quarantine** — a supervisor thread watches each pool's private
//!    fault count (panics + deaths + wedges). A replica that halts, or
//!    keeps faulting across consecutive ticks, is taken out of rotation:
//!    its queue is failed fast, its watchdog stopped, its threads sent
//!    to the graveyard. The *last* active replica is never quarantined
//!    for faulting — degraded service beats no service — and a
//!    single-replica set keeps today's single-pool semantics exactly
//!    (terminal halt, no quarantine dance).
//! 3. **Re-admission** — a quarantined slot is rebuilt from the factory,
//!    but serves nothing until the fresh detector reproduces the
//!    reference *golden* canary detections bit-for-bit
//!    ([`dronet_detect::canary`]). A rebuild that fails the canary is
//!    dropped on the spot and retried next tick.
//!
//! Service health is the ratchet the tentpole promises: losing replicas
//! degrades, only losing *everything* (with rebuilds exhausted) halts.

use crate::batcher::{lock_recover, spawn_worker, BatchQueue, WorkerShared, WorkerSlot};
use crate::chaos::ReplicaKillKind;
use crate::error::ServeError;
use crate::server::{DetectorFactory, ServeConfig, SizedDetectorFactory};
use crate::watchdog::{spawn_watchdog, BlackBoxStore};
use dronet_detect::canary::{check_canary, golden_detections};
use dronet_detect::{DegradeConfig, DegradeController, Detection, Detector};
use dronet_obs::{BlackBox, Counter, Gauge, Health, HealthCell, Registry, Tracer};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Latency samples retained per replica for the rolling p99 estimate.
const LATENCY_RING: usize = 256;

/// A small ring of recent end-to-end latencies, one per replica. Feeds
/// the dispatcher's p99 tie-break — cheap, approximate, and local.
pub(crate) struct LatencyRing {
    samples: Mutex<VecDeque<u64>>,
}

impl LatencyRing {
    pub fn new() -> Self {
        LatencyRing {
            samples: Mutex::new(VecDeque::with_capacity(LATENCY_RING)),
        }
    }

    /// Records one request latency served by (or charged to) this replica.
    pub fn record(&self, latency: Duration) {
        let mut s = lock_recover(&self.samples);
        if s.len() >= LATENCY_RING {
            s.pop_front();
        }
        s.push_back(latency.as_nanos() as u64);
    }

    /// The 99th-percentile latency over the ring, in nanoseconds
    /// (0 when no samples exist yet — a fresh replica looks fast, which
    /// is exactly the bias re-admission wants).
    pub fn p99_ns(&self) -> u64 {
        let s = lock_recover(&self.samples);
        if s.is_empty() {
            return 0;
        }
        let mut v: Vec<u64> = s.iter().copied().collect();
        v.sort_unstable();
        v[(v.len() - 1) * 99 / 100]
    }
}

/// One live replica: a private queue + worker pool + watchdog.
pub(crate) struct ReplicaCore {
    /// Slot id (stable across rebuilds).
    pub id: usize,
    pub queue: Arc<BatchQueue>,
    pub worker: Arc<WorkerShared>,
    /// Private shutdown flag for *this core's* watchdog, so quarantining
    /// one replica never stops a peer's supervisor machinery.
    watchdog_shutdown: Arc<AtomicBool>,
    watchdog: Mutex<Option<thread::JoinHandle<()>>>,
    pub latency: LatencyRing,
}

impl ReplicaCore {
    /// The input size this replica currently conforms frames to.
    pub fn current_input(&self, base: usize) -> usize {
        match self.worker.target_input.load(Ordering::SeqCst) {
            0 => base,
            t => t,
        }
    }

    /// Stops the watchdog, fails the backlog, halts the pool's health
    /// cell, and returns the worker join handles (callers decide whether
    /// joining is safe — a wedged worker may be mid-sleep).
    fn tear_down(&self) -> Vec<thread::JoinHandle<()>> {
        self.watchdog_shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = lock_recover(&self.watchdog).take() {
            let _ = h.join();
        }
        self.queue.close();
        self.queue.fail_pending();
        self.worker.health.halt();
        self.worker.pool.take_handles()
    }
}

/// Everything needed to build (and rebuild) a [`ReplicaCore`].
pub(crate) struct ReplicaBuilder {
    pub factory: DetectorFactory,
    pub sized_factory: Option<SizedDetectorFactory>,
    pub config: Arc<ServeConfig>,
    pub obs: Registry,
    pub tracer: Tracer,
}

impl ReplicaBuilder {
    /// Builds a detector at the ladder top and attaches the server's
    /// registry and tracer.
    fn build_detector(&self) -> Result<Detector, ServeError> {
        let mut det = (self.factory)()?;
        if self.obs.is_enabled() {
            det.set_observability(&self.obs);
        }
        if self.tracer.is_enabled() {
            det.set_tracing(&self.tracer);
        }
        Ok(det)
    }

    /// A fresh brownout controller for one core (each replica walks its
    /// own ladder — an overloaded replica browns out alone).
    fn build_brownout(&self) -> Result<Option<DegradeController>, ServeError> {
        let Some(b) = &self.config.brownout else {
            return Ok(None);
        };
        let initial = *b.ladder.last().expect("validated non-empty");
        DegradeController::new(DegradeConfig {
            ladder: b.ladder.clone(),
            initial,
            overload_queue: b.overload_queue,
            overload_windows: b.overload_windows,
            calm_windows: b.calm_windows,
            cooldown_windows: b.cooldown_windows,
            window_frames: b.window_ticks,
        })
        .map(Some)
        .map_err(|e| ServeError::Config(e.to_string()))
    }

    /// Builds one complete replica: detectors, queue, worker pool,
    /// watchdog. `first` (when given) becomes worker 0's detector —
    /// the canary-verified build on the re-admission path.
    pub fn build_core(
        &self,
        id: usize,
        first: Option<Detector>,
    ) -> Result<Arc<ReplicaCore>, ServeError> {
        let brownout_ctrl = self.build_brownout()?;
        let mut detectors = Vec::with_capacity(self.config.workers);
        if let Some(d) = first {
            detectors.push(d);
        }
        while detectors.len() < self.config.workers {
            detectors.push(self.build_detector()?);
        }
        let base = detectors[0].input_chw().1;

        let queue = BatchQueue::new(self.config.queue_capacity, &self.obs);
        let initial_target = brownout_ctrl.as_ref().map_or(0, |c| c.current());
        let resolution_gauge = self.obs.gauge("serve.input_resolution");
        resolution_gauge.set(base as f64);

        let worker = Arc::new(WorkerShared {
            queue: Arc::clone(&queue),
            factory: Arc::clone(&self.factory),
            sized_factory: self.sized_factory.clone(),
            config: Arc::clone(&self.config),
            epoch: Instant::now(),
            pool: crate::watchdog::Pool::new(),
            health: HealthCell::new(self.obs.gauge(&format!("serve.replica.{id}.health"))),
            target_input: AtomicUsize::new(initial_target),
            resolution_gauge,
            wedge_armed: AtomicBool::new(self.config.wedge_chaos.is_some()),
            black_box: BlackBoxStore::new(self.obs.counter("serve.black_box_captures")),
            batch_size_hist: self.obs.histogram("serve.batch_size"),
            queue_wait_hist: self.obs.histogram("serve.queue_wait"),
            forward_hist: self.obs.histogram("serve.forward"),
            panics: self.obs.counter("serve.worker_panics"),
            worker_deaths: self.obs.counter("serve.worker_deaths"),
            fault_events: std::sync::atomic::AtomicU64::new(0),
            chaos_wedge: AtomicBool::new(false),
            chaos_panic: AtomicBool::new(false),
            obs: self.obs.clone(),
            tracer: self.tracer.clone(),
        });
        for det in detectors {
            let slot = WorkerSlot::new(worker.pool.next_index());
            let handle = spawn_worker(Arc::clone(&worker), Arc::clone(&slot), det);
            worker.pool.register(slot, handle);
        }
        let watchdog_shutdown = Arc::new(AtomicBool::new(false));
        let watchdog = spawn_watchdog(
            Arc::clone(&worker),
            Arc::clone(&watchdog_shutdown),
            brownout_ctrl,
        );
        Ok(Arc::new(ReplicaCore {
            id,
            queue,
            worker,
            watchdog_shutdown,
            watchdog: Mutex::new(Some(watchdog)),
            latency: LatencyRing::new(),
        }))
    }
}

/// Where a slot currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotStatus {
    /// In rotation, taking traffic.
    Active,
    /// Out of rotation; the supervisor is rebuilding it.
    Quarantined,
}

impl SlotStatus {
    fn as_str(self) -> &'static str {
        match self {
            SlotStatus::Active => "active",
            SlotStatus::Quarantined => "quarantined",
        }
    }
}

struct SlotState {
    core: Option<Arc<ReplicaCore>>,
    status: SlotStatus,
    generation: u64,
    /// Cumulative canary probes failed on this slot.
    canary_failures: u64,
    /// Consecutive factory failures since the last successful rebuild.
    rebuild_failures: usize,
    /// Fault events accumulated over consecutive faulting ticks.
    recent_faults: u64,
    /// The pool's fault counter at the last scan (delta baseline).
    last_fault_events: u64,
}

/// One replica slot: a stable identity whose core is replaced across
/// quarantine/rebuild cycles.
pub(crate) struct ReplicaSlot {
    pub id: usize,
    state: Mutex<SlotState>,
}

impl ReplicaSlot {
    /// The current core, if the slot is active.
    pub fn active_core(&self) -> Option<Arc<ReplicaCore>> {
        let s = lock_recover(&self.state);
        match s.status {
            SlotStatus::Active => s.core.clone(),
            SlotStatus::Quarantined => None,
        }
    }

    /// The current core regardless of rotation status (debug surfaces).
    fn any_core(&self) -> Option<Arc<ReplicaCore>> {
        lock_recover(&self.state).core.clone()
    }
}

/// The replicated pool: slots, dispatch, quarantine, re-admission.
pub(crate) struct ReplicaSet {
    pub slots: Vec<ReplicaSlot>,
    builder: ReplicaBuilder,
    /// Forced canary failures remaining, counted down from
    /// `canary_chaos_failures` — a chaos knob proving the canary gate
    /// actually gates.
    canary_chaos: AtomicUsize,
    /// The service-level health cell — owns the `serve.health` gauge.
    /// Mirrored from replica states by the supervisor: replica loss
    /// degrades, total loss halts.
    pub service_health: HealthCell,
    /// Reference canary detections, computed once from a trusted build
    /// at startup; every re-admitted replica must reproduce them.
    golden: Vec<Detection>,
    /// The detector's native input `(c, h, w)` at the ladder top.
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
    /// Serving start — the replica chaos plan's time origin.
    start: Instant,
    /// Index of the next unapplied chaos event.
    chaos_cursor: AtomicUsize,
}

impl ReplicaSet {
    /// Builds the full set: a reference detector for the golden canary
    /// output, then one core per slot (failing fast on any broken build).
    pub fn new(builder: ReplicaBuilder) -> Result<Arc<ReplicaSet>, ServeError> {
        let mut reference = builder.build_detector()?;
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
            let core = builder.build_core(id, first.take())?;
            slots.push(ReplicaSlot {
                id,
                state: Mutex::new(SlotState {
                    core: Some(core),
                    status: SlotStatus::Active,
                    generation: 0,
                    canary_failures: 0,
                    rebuild_failures: 0,
                    recent_faults: 0,
                    last_fault_events: 0,
                }),
            });
        }
        let active_gauge = obs.gauge("serve.replicas_active");
        active_gauge.set(replicas as f64);
        Ok(Arc::new(ReplicaSet {
            slots,
            canary_chaos: AtomicUsize::new(builder.config.canary_chaos_failures),
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
            start: Instant::now(),
            chaos_cursor: AtomicUsize::new(0),
            builder,
        }))
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
            .min_by_key(|c| (c.queue.len(), c.latency.p99_ns(), c.id))
    }

    /// The best serviceable replica other than `exclude` — the hedge
    /// target for a request whose primary is at deadline risk.
    pub fn pick_hedge(&self, exclude: usize) -> Option<Arc<ReplicaCore>> {
        self.active_cores()
            .into_iter()
            .filter(|c| c.id != exclude)
            .min_by_key(|c| (c.queue.len(), c.latency.p99_ns(), c.id))
    }

    /// The largest input size any active replica currently serves at
    /// (health surfaces); the base size when nothing is active.
    pub fn current_input(&self) -> usize {
        self.active_cores()
            .iter()
            .map(|c| c.current_input(self.base_chw.1))
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
            .filter_map(|s| s.any_core())
            .map(|c| c.worker.pool.alive_count())
            .sum()
    }

    /// Crash black boxes from every core, in slot order.
    pub fn black_boxes(&self) -> Vec<BlackBox> {
        self.slots
            .iter()
            .filter_map(|s| s.any_core())
            .flat_map(|c| c.worker.black_box.all())
            .collect()
    }

    /// One supervisor tick: chaos, quarantine scan, rebuilds, gauges,
    /// service-health mirror.
    fn tick(&self) {
        self.apply_chaos();
        self.scan_and_quarantine();
        self.try_rebuilds();
        self.publish_gauges();
        self.mirror_health();
    }

    /// Applies every due chaos event to its slot's *current* core.
    fn apply_chaos(&self) {
        let Some(plan) = &self.config().replica_chaos else {
            return;
        };
        let elapsed = self.start.elapsed();
        loop {
            let i = self.chaos_cursor.load(Ordering::SeqCst);
            let Some(kill) = plan.kills.get(i) else {
                return;
            };
            if kill.at > elapsed {
                return;
            }
            self.chaos_cursor.store(i + 1, Ordering::SeqCst);
            let Some(slot) = self.slots.get(kill.replica) else {
                continue;
            };
            let Some(core) = slot.any_core() else {
                continue;
            };
            match kill.kind {
                ReplicaKillKind::Wedge => core.worker.chaos_wedge.store(true, Ordering::SeqCst),
                ReplicaKillKind::Panic => core.worker.chaos_panic.store(true, Ordering::SeqCst),
                ReplicaKillKind::Heal => {
                    core.worker.chaos_wedge.store(false, Ordering::SeqCst);
                    core.worker.chaos_panic.store(false, Ordering::SeqCst);
                }
            }
        }
    }

    /// Accumulates per-replica fault deltas and pulls repeat offenders
    /// out of rotation. Single-replica sets never quarantine — they keep
    /// the single-pool semantics (terminal halt) exactly.
    fn scan_and_quarantine(&self) {
        if self.config().replicas <= 1 {
            return;
        }
        for slot in &self.slots {
            // Phase 1: fault accounting under the slot lock, decision
            // inputs copied out (active_count locks peer slots, so it
            // must not run while this slot's lock is held).
            let (core, halted, faulting) = {
                let mut s = lock_recover(&slot.state);
                let Some(core) = (match s.status {
                    SlotStatus::Active => s.core.clone(),
                    SlotStatus::Quarantined => None,
                }) else {
                    continue;
                };
                let fe = core.worker.fault_events.load(Ordering::SeqCst);
                let delta = fe.saturating_sub(s.last_fault_events);
                s.last_fault_events = fe;
                if delta > 0 {
                    s.recent_faults += delta;
                } else {
                    s.recent_faults = 0;
                }
                let halted = matches!(core.worker.health.get(), Health::Halted);
                let faulting = s.recent_faults >= self.config().quarantine_faults;
                (core, halted, faulting)
            };
            // Never quarantine the last serviceable replica for mere
            // faulting; a halted core serves nothing either way.
            let last_standing = self.active_count() <= 1;
            if !(halted || (faulting && !last_standing)) {
                continue;
            }
            {
                let mut s = lock_recover(&slot.state);
                if s.status != SlotStatus::Active {
                    continue;
                }
                s.core = None;
                s.status = SlotStatus::Quarantined;
                s.recent_faults = 0;
            }
            self.quarantine_entered.inc();
            // Teardown outside the slot lock: joining the watchdog can
            // take a tick, and dispatch must not block on it.
            let orphans = core.tear_down();
            lock_recover(&self.graveyard).extend(orphans);
        }
    }

    /// Rebuilds quarantined slots, gating re-admission on the canary.
    fn try_rebuilds(&self) {
        for slot in &self.slots {
            {
                let s = lock_recover(&slot.state);
                if s.status != SlotStatus::Quarantined
                    || s.rebuild_failures > self.config().max_rebuild_failures
                {
                    continue;
                }
            }
            // Chaos gate: force the next N canary probes to fail,
            // proving a bad rebuild cannot slip back into rotation.
            let forced_failure = self
                .canary_chaos
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
            if forced_failure {
                self.canary_failed.inc();
                let mut s = lock_recover(&slot.state);
                s.canary_failures += 1;
                continue;
            }
            let mut probe = match self.builder.build_detector() {
                Ok(d) => d,
                Err(_) => {
                    let mut s = lock_recover(&slot.state);
                    s.rebuild_failures += 1;
                    continue;
                }
            };
            if !check_canary(&mut probe, &self.golden).passed {
                self.canary_failed.inc();
                let mut s = lock_recover(&slot.state);
                s.canary_failures += 1;
                continue;
            }
            match self.builder.build_core(slot.id, Some(probe)) {
                Ok(core) => {
                    let mut s = lock_recover(&slot.state);
                    s.core = Some(core);
                    s.status = SlotStatus::Active;
                    s.generation += 1;
                    s.rebuild_failures = 0;
                    s.recent_faults = 0;
                    s.last_fault_events = 0;
                    drop(s);
                    self.quarantine_readmitted.inc();
                }
                Err(_) => {
                    let mut s = lock_recover(&slot.state);
                    s.rebuild_failures += 1;
                }
            }
        }
    }

    /// Publishes per-replica gauges and the active-count gauge.
    fn publish_gauges(&self) {
        let obs = &self.builder.obs;
        for slot in &self.slots {
            let prefix = format!("serve.replica.{}", slot.id);
            match slot.any_core() {
                Some(core) => {
                    obs.gauge(&format!("{prefix}.queue_depth"))
                        .set(core.queue.len() as f64);
                    obs.gauge(&format!("{prefix}.input_resolution"))
                        .set(core.current_input(self.base_chw.1) as f64);
                    obs.gauge(&format!("{prefix}.p99_ms"))
                        .set(core.latency.p99_ns() as f64 / 1e6);
                }
                None => {
                    obs.gauge(&format!("{prefix}.queue_depth")).set(0.0);
                    obs.gauge(&format!("{prefix}.p99_ms")).set(0.0);
                }
            }
        }
        self.active_gauge.set(self.active_count() as f64);
    }

    /// Folds replica states into the service health cell.
    ///
    /// Single replica: mirror its pool health exactly (today's
    /// semantics). Multiple: all active and healthy → Healthy; nothing
    /// serviceable with every rebuild budget spent → Halted (terminal);
    /// anything in between → Degraded.
    fn mirror_health(&self) {
        if self.config().replicas <= 1 {
            let health = self
                .slots
                .first()
                .and_then(|s| s.any_core())
                .map_or(Health::Halted, |c| c.worker.health.get());
            match health {
                Health::Healthy => self.service_health.recover(),
                Health::Degraded => self.service_health.degrade(),
                Health::Halted => self.service_health.halt(),
            }
            return;
        }
        let active = self.active_cores();
        if active.is_empty() {
            let exhausted = self.slots.iter().all(|s| {
                lock_recover(&s.state).rebuild_failures > self.config().max_rebuild_failures
            });
            if exhausted {
                self.service_health.halt();
            } else {
                self.service_health.degrade();
            }
            return;
        }
        let all_in = active.len() == self.config().replicas;
        let all_healthy = active
            .iter()
            .all(|c| matches!(c.worker.health.get(), Health::Healthy));
        if all_in && all_healthy {
            self.service_health.recover();
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

    /// `/debug/replicas` body: per-slot status as JSON (no booleans —
    /// the in-tree parser has no literals).
    pub fn debug_json(&self) -> String {
        let mut rows = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let (status, generation, canary_failures, rebuild_failures) = {
                let s = lock_recover(&slot.state);
                (
                    s.status,
                    s.generation,
                    s.canary_failures,
                    s.rebuild_failures,
                )
            };
            let (health, depth, alive, input, p99_ms) = match slot.any_core() {
                Some(c) => (
                    c.worker.health.get().as_metric(),
                    c.queue.len(),
                    c.worker.pool.alive_count(),
                    c.current_input(self.base_chw.1),
                    c.latency.p99_ns() as f64 / 1e6,
                ),
                None => (Health::Halted.as_metric(), 0, 0, 0, 0.0),
            };
            rows.push(format!(
                "{{\"id\": {}, \"status\": \"{}\", \"generation\": {generation}, \
                 \"health\": {health}, \"queue_depth\": {depth}, \"workers_alive\": {alive}, \
                 \"input_resolution\": {input}, \"p99_ms\": {p99_ms:.3}, \
                 \"canary_failures\": {canary_failures}, \"rebuild_failures\": {rebuild_failures}}}",
                slot.id,
                status.as_str(),
            ));
        }
        format!(
            "{{\"replicas_total\": {}, \"replicas_active\": {}, \"service_health\": {}, \
             \"replicas\": [{}]}}\n",
            self.config().replicas,
            self.active_count(),
            self.service_health.get().as_metric(),
            rows.join(", ")
        )
    }
}

/// Spawns the replica supervisor thread: one [`ReplicaSet::tick`] per
/// `watchdog_interval` until `shutdown`.
pub(crate) fn spawn_supervisor(
    set: Arc<ReplicaSet>,
    shutdown: Arc<AtomicBool>,
) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name("serve-replicas".to_string())
        .spawn(move || loop {
            thread::sleep(set.config().watchdog_interval);
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

    #[test]
    fn latency_ring_p99_and_bounded_retention() {
        let ring = LatencyRing::new();
        assert_eq!(ring.p99_ns(), 0, "empty ring reads fast");
        for i in 1..=100u64 {
            ring.record(Duration::from_nanos(i));
        }
        assert_eq!(ring.p99_ns(), 99);
        // Overflow the ring: old (small) samples fall out.
        for _ in 0..LATENCY_RING {
            ring.record(Duration::from_nanos(1_000));
        }
        assert_eq!(ring.p99_ns(), 1_000);
    }
}
