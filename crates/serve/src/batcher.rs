//! Bounded admission queue and the dynamic micro-batching worker pool.
//!
//! Connections push one [`Job`] per `POST /detect`; workers pop *batches*.
//! The batcher is work-conserving: a free worker takes every queued job,
//! up to `max_batch`, the moment one is there, and never waits for more.
//! A batch is whatever queued up while the workers were busy. The worker
//! stacks the frames into one NCHW tensor, runs a single shared
//! `Network::forward`, and de-multiplexes per-image decode + NMS results
//! back to each waiting connection over its reply channel. At 352² the
//! forward's per-image cost is flat in batch size (the repo benchmark's
//! `nn.batch_ms_per_image` on `tile_1408` against `stream_352`), so
//! waiting for stragglers would only add latency; what a batch buys is
//! fewer forwards when a backlog has formed.
//!
//! The queue is strictly bounded: a full queue rejects at push time
//! ([`ServeError::Overloaded`] → `503` + `Retry-After`) instead of letting
//! latency grow without bound.
//!
//! Self-healing: every worker owns a `WorkerSlot` holding a *takeable*
//! record of its in-flight jobs, stamped on the replica's clock when the
//! batch began — the worker's heartbeat. The supervisor's tick
//! (`crate::replica`) takes a record whose batch has run past the wedge
//! deadline, in one step under the slot's lock, fails those jobs with
//! typed errors, retires the slot and spawns a replacement — the wedged
//! thread, whenever it wakes, finds the record gone and exits quietly.
//! Only the side that takes the record retires the slot, so a worker that
//! finished first keeps serving. A failed detector rebuild retires the
//! worker instead of panicking; losing the last worker flips health to
//! Halted and fails the backlog rather than hanging it.

use crate::chaos::Fault;
use crate::error::ServeError;
use crate::replica::ReplicaBuilder;
use dronet_detect::{resize_frame, Detection, Detector};
use dronet_obs::window::{mono_now_ns, RollingWindow};
use dronet_obs::{Counter, Gauge, HealthCell, Histogram, Registry};
use dronet_tensor::Tensor;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Locks a mutex, inheriting the data after a poisoning panic.
///
/// Every shared structure in this module is a plain value store (job
/// lists, option cells) with no invariant that a panicking writer could
/// leave half-established, so inheriting the poisoned state is safe —
/// and vastly better than the default behaviour, where one panic while
/// holding the queue lock turns into a panic on *every subsequent
/// request* for the life of the process.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Leg id for the first dispatch of a request (its primary replica).
pub const PRIMARY_LEG: u8 = 1;
/// Leg id for a hedged re-dispatch on a peer replica.
pub const HEDGE_LEG: u8 = 2;

/// First-wins coordination between a request's dispatch legs.
///
/// A hedged request enqueues the same frame on two replicas; both legs
/// share one `HedgeState` and one reply channel. The first leg to produce
/// a *success* claims the win with a CAS and delivers; the loser's result
/// is discarded. Typed errors never claim — the connection collects them
/// and only answers with an error once every leg has failed, so a wedged
/// primary cannot veto a healthy hedge. `settle` is the connection's
/// cancellation signal: once the final answer is taken, a still-queued
/// loser is dropped at the batcher's door instead of burning a forward.
pub struct HedgeState {
    /// `0` = unclaimed, else the winning leg id.
    winner: AtomicU8,
    /// The connection has taken its final answer; queued losers may be
    /// dropped unprocessed.
    settled: AtomicBool,
}

impl HedgeState {
    /// Fresh, unclaimed state shared by a request's legs.
    pub fn new() -> Arc<Self> {
        Arc::new(HedgeState {
            winner: AtomicU8::new(0),
            settled: AtomicBool::new(false),
        })
    }

    /// Claims the win for `leg`; `true` exactly once across all legs.
    pub fn try_claim(&self, leg: u8) -> bool {
        self.winner
            .compare_exchange(0, leg, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// The winning leg id, or `0` while unclaimed.
    pub fn winner(&self) -> u8 {
        self.winner.load(Ordering::SeqCst)
    }

    /// Marks the request answered (cancellation signal for queued losers).
    pub fn settle(&self) {
        self.settled.store(true, Ordering::SeqCst);
    }

    /// Whether this request no longer needs work: a leg won, or the
    /// connection already took its final answer.
    pub fn finished(&self) -> bool {
        self.settled.load(Ordering::SeqCst) || self.winner() != 0
    }
}

/// One queued detection request.
pub struct Job {
    /// Server-assigned frame id (trace correlation + response body).
    pub frame_id: u64,
    /// The conformed `[1, c, h, w]` frame.
    pub frame: Tensor,
    /// When the job entered the queue.
    pub enqueued: Instant,
    /// Where the worker sends this frame's detections.
    pub reply: mpsc::Sender<Result<Vec<Detection>, ServeError>>,
    /// First-wins state shared with this request's other dispatch leg;
    /// `None` for plain (unhedged) requests.
    pub hedge: Option<Arc<HedgeState>>,
    /// Which dispatch leg this job is ([`PRIMARY_LEG`] / [`HEDGE_LEG`]).
    pub leg: u8,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// No new pushes are admitted, and workers exit once the remaining
    /// jobs are drained.
    closed: bool,
}

/// Rolling window the drain-rate estimate looks back over.
const DRAIN_WINDOW: Duration = Duration::from_secs(5);
const DRAIN_SUB_BUCKETS: usize = 10;

/// The bounded, condvar-signalled admission queue.
pub struct BatchQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
    capacity: usize,
    depth: Gauge,
    drops: Counter,
    /// Admission drops on *this* queue alone. The `drops` counter is a
    /// registry name shared by every replica's queue; brownout needs a
    /// per-replica signal, so each queue also keeps its own tally.
    local_drops: AtomicU64,
    /// Jobs handed to workers recently; feeds the drain-rate estimate
    /// behind load-aware `Retry-After` hints.
    drained: RollingWindow,
}

impl BatchQueue {
    /// A queue admitting at most `capacity` pending jobs.
    pub fn new(capacity: usize, obs: &Registry) -> Arc<Self> {
        Arc::new(BatchQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            cond: Condvar::new(),
            capacity,
            depth: obs.gauge("serve.queue_depth"),
            drops: obs.counter("serve.admission_drops"),
            local_drops: AtomicU64::new(0),
            drained: RollingWindow::new(DRAIN_WINDOW, DRAIN_SUB_BUCKETS),
        })
    }

    /// Admits a job, or sheds load.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the queue is at capacity,
    /// [`ServeError::Draining`] once the queue is closed.
    pub fn push(&self, job: Job) -> Result<(), ServeError> {
        let mut s = lock_recover(&self.state);
        if s.closed {
            return Err(ServeError::Draining);
        }
        if s.jobs.len() >= self.capacity {
            self.drops.inc();
            self.local_drops.fetch_add(1, Ordering::SeqCst);
            return Err(ServeError::Overloaded);
        }
        s.jobs.push_back(job);
        self.depth.set(s.jobs.len() as f64);
        self.cond.notify_one();
        Ok(())
    }

    /// Total admission drops on this queue since birth (monotonic) — the
    /// per-replica brownout pressure signal.
    pub fn local_drops(&self) -> u64 {
        self.local_drops.load(Ordering::SeqCst)
    }

    /// Current queue depth (tests and metrics).
    pub fn len(&self) -> usize {
        lock_recover(&self.state).jobs.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until at least one job is queued, then takes up to
    /// `max_batch` of them, FIFO, at once: it never waits for more.
    /// Returns `None` only when the queue is closed and empty.
    pub fn pop_batch(&self, max_batch: usize) -> Option<Vec<Job>> {
        let mut s = lock_recover(&self.state);
        while s.jobs.is_empty() {
            if s.closed {
                return None;
            }
            s = self.cond.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        let n = s.jobs.len().min(max_batch);
        let batch: Vec<Job> = s.jobs.drain(..n).collect();
        self.drained.record_at(mono_now_ns(), n as u64);
        self.depth.set(s.jobs.len() as f64);
        if !s.jobs.is_empty() {
            // Leftovers form the next batch; wake another worker.
            self.cond.notify_one();
        }
        Some(batch)
    }

    /// Jobs per second handed to workers over the recent drain window
    /// (zero when nothing has drained recently).
    pub fn drain_rate_per_sec(&self) -> f64 {
        let stats = self.drained.stats_at(mono_now_ns());
        stats.sum as f64 / (stats.window_ns as f64 / 1e9)
    }

    /// Load-aware `Retry-After` in seconds: at the current drain rate, how
    /// long until today's backlog has cleared, clamped to
    /// `[base_secs, max_secs]` (floor at least 1 s).
    ///
    /// A constant `Retry-After` teaches every shed client to come back in
    /// lockstep after the same pause — exactly wrong under overload, when
    /// the queue needs *longer* to clear. Deriving the hint from the
    /// observed drain rate makes the advice scale with how wedged the
    /// server actually is; with no recent drains (cold start, or a fully
    /// wedged pool still inside its watchdog deadline) there is no
    /// evidence either way, so the base hint is returned unchanged.
    pub fn retry_after_hint(&self, base_secs: u64, max_secs: u64) -> u64 {
        let floor = base_secs.max(1);
        let cap = max_secs.max(floor);
        let rate = self.drain_rate_per_sec();
        if rate <= 0.0 {
            return floor;
        }
        let secs = (self.len() as f64 / rate).ceil() as u64;
        secs.clamp(floor, cap)
    }

    /// Stops admitting new jobs AND tells workers to exit once the backlog
    /// is drained.
    pub fn close(&self) {
        let mut s = lock_recover(&self.state);
        s.closed = true;
        self.cond.notify_all();
    }

    /// Whether [`close`](Self::close) was called — teardown in progress.
    pub fn is_closed(&self) -> bool {
        lock_recover(&self.state).closed
    }

    /// Fails every queued job with [`ServeError::Halted`] — the last
    /// resort when no worker remains to drain the backlog. Returns the
    /// number of jobs failed.
    pub fn fail_pending(&self) -> usize {
        let mut s = lock_recover(&self.state);
        let n = s.jobs.len();
        for job in s.jobs.drain(..) {
            let _ = job.reply.send(Err(ServeError::Halted));
        }
        self.depth.set(0.0);
        n
    }
}

/// The faults in force on one pool, as the supervisor's tick injected
/// them from the server's [`crate::chaos::FaultSchedule`]; each worker
/// reads them before its forward.
#[derive(Default)]
pub(crate) struct Injected {
    stall: Option<Duration>,
    stall_once: Option<Duration>,
    panic: bool,
    /// Heals so far: a hold in progress ends when this moves.
    heals: u64,
}

/// A job's reply route plus its hedge coordination, carried through the
/// in-flight record so both the worker and the watchdog deliver through
/// the same first-wins gate.
pub(crate) struct Reply {
    pub sender: mpsc::Sender<Result<Vec<Detection>, ServeError>>,
    pub hedge: Option<Arc<HedgeState>>,
    pub leg: u8,
}

impl Reply {
    /// Delivers a result honouring hedge semantics: a success must win the
    /// claim first (a losing leg's output is discarded so the connection
    /// never sees two answers); typed errors always flow — the connection
    /// counts them and only errors out once every leg has failed.
    pub fn deliver(&self, result: Result<Vec<Detection>, ServeError>) {
        match (&self.hedge, &result) {
            (Some(h), Ok(_)) if !h.try_claim(self.leg) => {}
            _ => {
                let _ = self.sender.send(result);
            }
        }
    }
}

/// The jobs a worker is currently holding: stolen by the watchdog when
/// the worker wedges, reclaimed by the worker itself on completion —
/// whoever takes it owns replying to the clients.
pub(crate) struct InFlight {
    /// When the batch began on the replica's clock: the heartbeat.
    pub began: Duration,
    pub frame_ids: Vec<u64>,
    pub replies: Vec<Reply>,
}

impl InFlight {
    /// Answers every held job with the typed error `failed` builds.
    pub fn fail(&self, failed: impl Fn() -> ServeError) {
        for reply in &self.replies {
            reply.deliver(Err(failed()));
        }
    }
}

/// Per-worker in-flight record, shared with the watchdog.
pub(crate) struct WorkerSlot {
    /// Stable worker index (thread name, black-box triggers).
    pub index: usize,
    alive: AtomicBool,
    inflight: Mutex<Option<InFlight>>,
}

impl WorkerSlot {
    pub fn new(index: usize) -> Arc<Self> {
        Arc::new(WorkerSlot {
            index,
            alive: AtomicBool::new(true),
            inflight: Mutex::new(None),
        })
    }

    /// Deposits the in-flight record: the batch is running.
    pub fn begin_batch(&self, inflight: InFlight) {
        *lock_recover(&self.inflight) = Some(inflight);
    }

    /// Takes the in-flight record — `None` means the other side (worker
    /// or watchdog) already claimed it and owns the replies.
    pub fn take_inflight(&self) -> Option<InFlight> {
        lock_recover(&self.inflight).take()
    }

    /// The watchdog's wedge verdict and steal as one step: takes the
    /// in-flight record when its batch has run for `limit` or longer at
    /// `now`.
    pub fn take_wedged(&self, now: Duration, limit: Duration) -> Option<InFlight> {
        lock_recover(&self.inflight).take_if(|i| now.saturating_sub(i.began) >= limit)
    }

    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Marks the worker dead; returns `true` exactly once (whoever wins
    /// the race — worker death path or watchdog — decides whether the
    /// pool is left empty).
    pub fn retire(&self) -> bool {
        self.alive.swap(false, Ordering::SeqCst)
    }
}

/// The live worker registry: slots for the watchdog pass to scan (and
/// to count the workers still alive), handles for shutdown to join.
pub(crate) struct Pool {
    slots: Mutex<Vec<Arc<WorkerSlot>>>,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
    next_index: AtomicUsize,
}

impl Pool {
    pub fn new() -> Self {
        Pool {
            slots: Mutex::new(Vec::new()),
            handles: Mutex::new(Vec::new()),
            next_index: AtomicUsize::new(0),
        }
    }

    /// A fresh, unique worker index.
    pub fn next_index(&self) -> usize {
        self.next_index.fetch_add(1, Ordering::SeqCst)
    }

    /// Adds a live worker (initial spawn or watchdog replacement).
    pub fn register(&self, slot: Arc<WorkerSlot>, handle: thread::JoinHandle<()>) {
        lock_recover(&self.slots).push(slot);
        lock_recover(&self.handles).push(handle);
    }

    /// Registered workers not yet retired.
    pub fn alive_count(&self) -> usize {
        lock_recover(&self.slots)
            .iter()
            .filter(|s| s.is_alive())
            .count()
    }

    /// A point-in-time copy of every slot ever registered (dead slots
    /// included; callers filter on liveness).
    pub fn slots_snapshot(&self) -> Vec<Arc<WorkerSlot>> {
        lock_recover(&self.slots).clone()
    }

    /// Takes every join handle (shutdown joins them after queue close).
    pub fn take_handles(&self) -> Vec<thread::JoinHandle<()>> {
        std::mem::take(&mut lock_recover(&self.handles))
    }
}

/// Everything shared between one replica's worker pool, the supervisor's
/// watchdog pass, and the server front end.
pub(crate) struct WorkerShared {
    pub queue: Arc<BatchQueue>,
    /// The server-wide parts: the detector factory, the configuration
    /// (read where it is used), registry, tracer, black-box store and the
    /// clock heartbeats and stall holds read.
    pub builder: Arc<ReplicaBuilder>,
    pub pool: Pool,
    pub health: HealthCell,
    /// The input size workers serve at, moved along the ladder by
    /// brownout. Frames are conformed to it; the detector runs at the size
    /// of the frames it is given.
    pub target_input: AtomicUsize,
    pub batch_size_hist: Histogram,
    pub queue_wait_hist: Histogram,
    /// Wall time of the shared batch forward, recorded once per request in
    /// the batch (every rider experiences the full forward) — the middle
    /// leg of the queue-wait / forward / serialization latency split.
    pub forward_hist: Histogram,
    pub panics: Counter,
    pub worker_deaths: Counter,
    /// Monotonic count of fault events in this pool (panics, deaths,
    /// wedges). The supervisor reads deltas to decide quarantine — a
    /// per-pool signal, unlike the name-shared registry counters.
    pub fault_events: AtomicU64,
    /// Faults injected by the supervisor (`WorkerShared::inject`).
    pub injected: Mutex<Injected>,
}

/// The one way a worker joins the pool (at startup, or replacing a wedged
/// one): a fresh slot, registered, and the worker loop on a new thread
/// with `detector` moved into it.
pub(crate) fn spawn_worker(shared: &Arc<WorkerShared>, detector: Detector) {
    let slot = WorkerSlot::new(shared.pool.next_index());
    let index = slot.index;
    let (worker_shared, worker_slot) = (Arc::clone(shared), Arc::clone(&slot));
    let handle = thread::Builder::new()
        .name(format!("serve-worker-{index}"))
        .spawn(move || {
            let (shared, slot) = (worker_shared, worker_slot);
            // Register with the flight recorder so Chrome-trace exports
            // label this lane ("serve-worker-N") instead of a bare tid.
            shared
                .builder
                .tracer
                .name_thread(&format!("serve-worker-{index}"));
            let mut detector = detector;
            loop {
                let Some(batch) = shared.queue.pop_batch(shared.builder.config.max_batch) else {
                    // Clean shutdown: the queue closed and drained.
                    slot.retire();
                    return;
                };
                // `None` when the watchdog took the batch's record and
                // retired the slot, or the worker died: vanish quietly.
                match run_batch(detector, batch, &shared, &slot) {
                    Some(d) => detector = d,
                    None => return,
                }
            }
        })
        .expect("spawn worker thread");
    shared.pool.register(slot, handle);
}

impl WorkerShared {
    /// Puts `fault` in force on this pool. `FailCanary` is the slot's, not
    /// the pool's: the replica set counts it, and it is ignored here.
    pub fn inject(&self, fault: Fault) {
        let mut f = lock_recover(&self.injected);
        match fault {
            Fault::Stall(hold) => f.stall = Some(hold),
            Fault::StallOnce(hold) => f.stall_once = Some(hold),
            Fault::Panic => f.panic = true,
            Fault::Heal => {
                (f.stall, f.stall_once, f.panic, f.heals) = (None, None, false, f.heals + 1)
            }
            Fault::FailCanary(_) => {}
        }
    }

    /// Holds the calling worker mid-batch, like a stuck kernel, for the
    /// stall in force (a one-shot stall is used up here), until the clock
    /// reaches the hold's end. A heal or the queue closing ends the hold
    /// early, so neither waits it out; the poll for them is a real sleep.
    fn hold_if_stalled(&self) {
        let (hold, heals) = {
            let mut f = lock_recover(&self.injected);
            (f.stall_once.take().max(f.stall), f.heals)
        };
        let Some(hold) = hold else { return };
        let clock = &self.builder.clock;
        let until = clock.now() + hold;
        loop {
            let left = until.saturating_sub(clock.now());
            let healed = lock_recover(&self.injected).heals != heals;
            if left.is_zero() || healed || self.queue.is_closed() {
                return;
            }
            thread::sleep(left.min(Duration::from_millis(5)));
        }
    }

    /// A fault in this pool (panic, death or wedge): counted under
    /// `counter` and in `fault_events`, and the pool degraded.
    pub fn fault(&self, counter: &Counter) {
        counter.inc();
        self.fault_events.fetch_add(1, Ordering::SeqCst);
        self.health.degrade();
    }

    /// The one way a worker leaves the pool, dead or wedged: the `fault`,
    /// the jobs it held failed with `failed()`, the trace tail black-boxed
    /// under `trigger`, its slot retired; then `replace` may register a
    /// successor, and a pool left with nobody halts — queue closed,
    /// backlog failed — so nothing hangs. Whoever loses the race to retire
    /// the slot (worker or watchdog) stops after the replies.
    pub fn retire_worker(
        &self,
        slot: &WorkerSlot,
        inflight: Option<InFlight>,
        fault: &Counter,
        trigger: &str,
        failed: impl Fn() -> ServeError,
        replace: impl FnOnce(),
    ) {
        self.fault(fault);
        let frame_ids = inflight.as_ref().map_or(&[][..], |i| &i.frame_ids);
        self.builder.black_box.capture(trigger, frame_ids);
        if let Some(inflight) = &inflight {
            inflight.fail(failed);
        }
        if !slot.retire() {
            return;
        }
        replace();
        if self.pool.alive_count() == 0 {
            self.health.halt();
            self.queue.close();
            self.queue.fail_pending();
        }
    }
}

/// The typed replacement for the old `panic!` on rebuild failure: the
/// worker leaves the pool ([`WorkerShared::retire_worker`]). Returns
/// `None` (the worker loop's exit signal).
fn worker_dies(shared: &WorkerShared, slot: &WorkerSlot, reason: &str) -> Option<Detector> {
    let trigger = format!("worker {} died: {reason}", slot.index);
    let failed = || ServeError::WorkerFailed(format!("worker died: {reason}"));
    let deaths = &shared.worker_deaths;
    shared.retire_worker(slot, slot.take_inflight(), deaths, &trigger, failed, || {});
    None
}

/// Processes one batch. Returns the (possibly rebuilt) detector, or
/// `None` when this worker must exit (wedged-and-superseded, or dead).
fn run_batch(
    mut detector: Detector,
    mut batch: Vec<Job>,
    shared: &WorkerShared,
    slot: &WorkerSlot,
) -> Option<Detector> {
    // Hedge cancellation: a leg whose request already got its answer
    // (the peer won, or the connection timed out and settled) is dead
    // weight — drop it at the door instead of burning a forward on it.
    batch.retain(|j| j.hedge.as_ref().is_none_or(|h| !h.finished()));
    if batch.is_empty() {
        return Some(detector);
    }
    let n = batch.len();
    let mut frames = Vec::with_capacity(n);
    let mut ids = Vec::with_capacity(n);
    let mut replies = Vec::with_capacity(n);
    for job in batch {
        shared.queue_wait_hist.record(job.enqueued.elapsed());
        frames.push(job.frame);
        ids.push(job.frame_id);
        replies.push(Reply {
            sender: job.reply,
            hedge: job.hedge,
            leg: job.leg,
        });
    }
    // From here the watchdog co-owns the jobs: if this thread wedges, the
    // watchdog takes the record and replies on our behalf.
    slot.begin_batch(InFlight {
        began: shared.builder.clock.now(),
        frame_ids: ids.clone(),
        replies,
    });
    // The batch-size histogram encodes *counts* as nanoseconds: the log2
    // buckets keep 1/2/4/8 distinct and `max_ns` records the exact largest
    // batch, which is what the coalescing tests assert on. It counts a
    // batch once its record is deposited, so a counted batch is one the
    // watchdog can see.
    shared
        .batch_size_hist
        .record(Duration::from_nanos(n as u64));

    // An injected stall: the watchdog (or, below the wedge timeout,
    // brownout pressure) takes it from here.
    shared.hold_if_stalled();

    // Frames conformed before a brownout shift are not at the current
    // rung; resample stragglers at the door, so a batch stacks at one size
    // and the detector runs at the rung.
    let target = shared.target_input.load(Ordering::SeqCst);
    for frame in &mut frames {
        let s = frame.shape();
        if s.height() != target || s.width() != target {
            *frame = resize_frame(frame, target, target);
        }
    }

    let trace = shared.builder.tracer.span_aux("serve.batch", n as i64);
    let stacked = match Tensor::stack_batch(&frames) {
        Ok(t) => t,
        Err(e) => {
            drop(trace);
            // Lost the record: the watchdog failed the jobs and retired us.
            let inflight = slot.take_inflight()?;
            inflight.fail(|| ServeError::WorkerFailed(format!("stacking batch failed: {e}")));
            return Some(detector);
        }
    };
    let forward_started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if lock_recover(&shared.injected).panic {
            panic!("chaos: injected replica panic");
        }
        let result = detector.detect_batch_frames(&stacked, Some(&ids));
        (detector, result)
    }));
    let forward_elapsed = forward_started.elapsed();
    drop(trace);

    let Some(inflight) = slot.take_inflight() else {
        // The watchdog declared us wedged while we ran, failed the jobs,
        // retired our slot and spawned a successor: just disappear.
        return None;
    };

    for _ in 0..inflight.replies.len() {
        shared.forward_hist.record(forward_elapsed);
    }

    match outcome {
        Ok((det, Ok(all))) => {
            for (reply, dets) in inflight.replies.iter().zip(all) {
                reply.deliver(Ok(dets));
            }
            Some(det)
        }
        Ok((det, Err(e))) => {
            inflight.fail(|| ServeError::WorkerFailed(e.to_string()));
            Some(det)
        }
        Err(_) => {
            // The detector may hold poisoned state after a panic: isolate
            // the blast radius, mark the server degraded, rebuild.
            shared.fault(&shared.panics);
            inflight.fail(|| ServeError::WorkerFailed("worker panicked during batch".to_string()));
            match shared.builder.build_detector() {
                Ok(fresh) => Some(fresh),
                Err(e) => worker_dies(shared, slot, &format!("post-panic rebuild failed: {e}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dronet_tensor::Shape;

    fn job(id: u64, reply: &mpsc::Sender<Result<Vec<Detection>, ServeError>>) -> Job {
        Job {
            frame_id: id,
            frame: Tensor::zeros(Shape::nchw(1, 3, 8, 8)),
            enqueued: Instant::now(),
            reply: reply.clone(),
            hedge: None,
            leg: PRIMARY_LEG,
        }
    }

    #[test]
    fn queue_sheds_load_at_capacity() {
        let obs = Registry::new();
        let q = BatchQueue::new(2, &obs);
        let (tx, _rx) = mpsc::channel();
        q.push(job(1, &tx)).unwrap();
        q.push(job(2, &tx)).unwrap();
        assert!(matches!(q.push(job(3, &tx)), Err(ServeError::Overloaded)));
        assert_eq!(obs.snapshot().counter("serve.admission_drops"), Some(1));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_rejects_new_work_but_keeps_backlog() {
        let obs = Registry::new();
        let q = BatchQueue::new(4, &obs);
        let (tx, _rx) = mpsc::channel();
        q.push(job(1, &tx)).unwrap();
        q.close();
        assert!(matches!(q.push(job(2, &tx)), Err(ServeError::Draining)));
        assert_eq!(q.len(), 1);
        // A worker still drains the backlog…
        let batch = q.pop_batch(8).expect("backlog");
        assert_eq!(batch.len(), 1);
        // …and only then signals exit.
        assert!(q.pop_batch(8).is_none());
    }

    /// A consumer thread standing in for a worker: each `go` lets it pop
    /// one batch, whose frame ids it sends back.
    fn worker_stand_in(
        q: &Arc<BatchQueue>,
        max_batch: usize,
    ) -> (mpsc::Sender<()>, mpsc::Receiver<Vec<u64>>) {
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (ids_tx, ids_rx) = mpsc::channel();
        let q = Arc::clone(q);
        thread::spawn(move || {
            while go_rx.recv().is_ok() {
                let Some(batch) = q.pop_batch(max_batch) else {
                    return;
                };
                let ids = batch.iter().map(|j| j.frame_id).collect();
                if ids_tx.send(ids).is_err() {
                    return;
                }
            }
        });
        (go_tx, ids_rx)
    }

    /// The stand-in's next batch; a batcher that holds a batch back fails
    /// here instead of hanging the test.
    fn next_batch(batches: &mpsc::Receiver<Vec<u64>>) -> Vec<u64> {
        batches
            .recv_timeout(Duration::from_secs(10))
            .expect("a queued job is handed out")
    }

    #[test]
    fn a_lone_job_is_returned_at_once() {
        let obs = Registry::new();
        let q = BatchQueue::new(16, &obs);
        let (tx, _rx) = mpsc::channel();
        let (go, batches) = worker_stand_in(&q, 8);
        go.send(()).unwrap();
        go.send(()).unwrap();
        q.push(job(0, &tx)).unwrap();
        // Job 1 is pushed only once job 0's batch is out: a batcher that
        // waited for a second job would never return the first.
        assert_eq!(next_batch(&batches), vec![0]);
        q.push(job(1, &tx)).unwrap();
        assert_eq!(next_batch(&batches), vec![1]);
    }

    #[test]
    fn jobs_queued_behind_a_busy_worker_ride_the_next_batch_together() {
        let obs = Registry::new();
        let q = BatchQueue::new(16, &obs);
        let (tx, _rx) = mpsc::channel();
        let (go, batches) = worker_stand_in(&q, 3);
        q.push(job(0, &tx)).unwrap();
        go.send(()).unwrap();
        assert_eq!(next_batch(&batches), vec![0]);
        // The worker is busy with job 0's batch while four more arrive.
        for i in 1..=4 {
            q.push(job(i, &tx)).unwrap();
        }
        go.send(()).unwrap();
        assert_eq!(
            next_batch(&batches),
            vec![1, 2, 3],
            "FIFO, capped at max_batch"
        );
        go.send(()).unwrap();
        assert_eq!(next_batch(&batches), vec![4]);
        assert!(q.is_empty());
    }

    #[test]
    fn queue_survives_a_poisoning_panic() {
        let obs = Registry::new();
        let q = BatchQueue::new(4, &obs);
        let (tx, _rx) = mpsc::channel();
        q.push(job(1, &tx)).unwrap();
        // Panic while holding the state lock: the mutex is now poisoned.
        let q2 = Arc::clone(&q);
        let poisoner = thread::spawn(move || {
            let _guard = q2.state.lock().unwrap();
            panic!("poison the queue lock");
        });
        assert!(poisoner.join().is_err());
        assert!(q.state.is_poisoned(), "precondition: lock is poisoned");
        // Every operation still works on the inherited state.
        q.push(job(2, &tx)).unwrap();
        assert_eq!(q.len(), 2);
        let batch = q.pop_batch(8).expect("batch");
        assert_eq!(batch.len(), 2);
        q.close();
        assert!(q.pop_batch(8).is_none());
    }

    #[test]
    fn fail_pending_flushes_the_backlog_with_halted() {
        let obs = Registry::new();
        let q = BatchQueue::new(4, &obs);
        let (tx, rx) = mpsc::channel();
        q.push(job(1, &tx)).unwrap();
        q.push(job(2, &tx)).unwrap();
        assert_eq!(q.fail_pending(), 2);
        assert!(q.is_empty());
        for _ in 0..2 {
            assert!(matches!(rx.recv().unwrap(), Err(ServeError::Halted)));
        }
        assert_eq!(obs.snapshot().gauge("serve.queue_depth"), Some(0.0));
    }

    #[test]
    fn retry_after_hint_is_load_aware() {
        let obs = Registry::new();
        let q = BatchQueue::new(8, &obs);
        let (tx, _rx) = mpsc::channel();
        // Cold start: no drains yet → no evidence, base hint unchanged.
        assert_eq!(q.retry_after_hint(1, 30), 1);
        assert_eq!(q.retry_after_hint(0, 30), 1, "floor is clamped to 1 s");
        // One job drains; the window now knows the rate is ~0.2/s (1 job
        // per 5 s window). Six queued jobs at that rate need ~30 s.
        q.push(job(0, &tx)).unwrap();
        q.pop_batch(1).unwrap();
        assert!(q.drain_rate_per_sec() > 0.0);
        for i in 1..=6 {
            q.push(job(i, &tx)).unwrap();
        }
        let hint = q.retry_after_hint(1, 120);
        assert!(
            (hint > 1) && (hint <= 120),
            "hint {hint} must exceed the constant base under backlog"
        );
        // The cap wins when the backlog estimate is enormous.
        assert_eq!(q.retry_after_hint(1, 3), 3);
        // Draining the backlog raises the observed rate and the hint
        // falls back to the floor once the queue is empty.
        q.pop_batch(16).unwrap();
        assert_eq!(q.retry_after_hint(1, 120), 1, "empty queue needs no wait");
    }

    #[test]
    fn hedge_first_success_wins_and_loser_is_discarded() {
        let h = HedgeState::new();
        assert!(!h.finished());
        let (tx, rx) = mpsc::channel::<Result<Vec<Detection>, ServeError>>();
        let primary = Reply {
            sender: tx.clone(),
            hedge: Some(Arc::clone(&h)),
            leg: PRIMARY_LEG,
        };
        let hedged = Reply {
            sender: tx,
            hedge: Some(Arc::clone(&h)),
            leg: HEDGE_LEG,
        };
        hedged.deliver(Ok(vec![]));
        primary.deliver(Ok(vec![])); // loses the claim, discarded
        assert_eq!(h.winner(), HEDGE_LEG);
        assert!(rx.recv().unwrap().is_ok(), "winner's answer arrives");
        assert!(
            rx.try_recv().is_err(),
            "losing leg's success must be discarded"
        );
        // Errors always flow, even after a winner exists.
        primary.deliver(Err(ServeError::Halted));
        assert!(rx.recv().unwrap().is_err());
    }

    #[test]
    fn settled_hedge_jobs_are_finished_without_a_winner() {
        let h = HedgeState::new();
        h.settle();
        assert!(h.finished(), "settle alone finishes the request");
        assert_eq!(h.winner(), 0);
        // A late claim after settling still records a winner (the
        // connection has gone; nothing reads it, but counters may).
        assert!(h.try_claim(PRIMARY_LEG));
        assert!(!h.try_claim(HEDGE_LEG), "claim is exactly-once");
    }

    #[test]
    fn local_drops_counts_only_this_queue() {
        let obs = Registry::new();
        let a = BatchQueue::new(1, &obs);
        let b = BatchQueue::new(1, &obs);
        let (tx, _rx) = mpsc::channel();
        a.push(job(1, &tx)).unwrap();
        assert!(a.push(job(2, &tx)).is_err());
        assert_eq!(a.local_drops(), 1, "a saw its own drop");
        assert_eq!(b.local_drops(), 0, "b saw nothing");
        // The shared registry counter aggregates across queues.
        assert_eq!(obs.snapshot().counter("serve.admission_drops"), Some(1));
    }

    #[test]
    fn pool_accounting_tracks_alive_workers() {
        let pool = Pool::new();
        assert_eq!(pool.alive_count(), 0);
        let i0 = pool.next_index();
        let i1 = pool.next_index();
        assert_ne!(i0, i1, "indices are unique");
        let slot = WorkerSlot::new(i0);
        pool.register(Arc::clone(&slot), thread::spawn(|| {}));
        assert_eq!(pool.alive_count(), 1);
        assert_eq!(pool.slots_snapshot().len(), 1);
        assert!(slot.retire());
        assert_eq!(pool.alive_count(), 0);
        assert_eq!(
            pool.slots_snapshot().len(),
            1,
            "a retired slot stays listed"
        );
        for h in pool.take_handles() {
            h.join().unwrap();
        }
        assert!(pool.take_handles().is_empty(), "handles taken once");
    }

    #[test]
    fn worker_slot_heartbeat_and_single_retirement() {
        let slot = WorkerSlot::new(3);
        let s = Duration::from_secs;
        assert!(slot.take_wedged(s(60), s(10)).is_none(), "idle at birth");
        let (tx, _rx) = mpsc::channel::<Result<Vec<Detection>, ServeError>>();
        slot.begin_batch(InFlight {
            began: s(5),
            frame_ids: vec![7],
            replies: vec![Reply {
                sender: tx,
                hedge: None,
                leg: PRIMARY_LEG,
            }],
        });
        let short = s(15) - Duration::from_nanos(1);
        assert!(slot.take_wedged(short, s(10)).is_none(), "not yet wedged");
        let taken = slot.take_wedged(s(15), s(10)).expect("wedged at the limit");
        assert_eq!(taken.frame_ids, vec![7]);
        assert!(slot.take_inflight().is_none(), "a second take loses");
        assert!(slot.take_wedged(s(60), s(10)).is_none(), "idle again");
        assert!(slot.retire(), "first retire reports prior liveness");
        assert!(!slot.retire(), "second retire is a no-op");
        assert!(!slot.is_alive());
    }
}
