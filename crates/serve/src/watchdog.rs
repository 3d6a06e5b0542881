//! The serve-side supervisor: wedge detection, bounded worker restarts,
//! brownout resolution control, and crash black boxes.
//!
//! One lightweight thread ticks every `watchdog_interval`, doing three jobs:
//!
//! 1. **Wedge watch** — each worker stamps a heartbeat around its batch
//!    forward ([`crate::batcher::WorkerSlot`]). A worker busy past
//!    `wedge_timeout` is declared wedged: the watchdog *steals* its
//!    in-flight job record, fails those requests with
//!    [`crate::ServeError::WorkerWedged`] (typed `500`s instead of
//!    hung connections), captures the flight-recorder tail as a
//!    [`BlackBox`], and — under a bounded restart budget — spawns a
//!    replacement worker with a fresh detector. The wedged thread finds
//!    its slot abandoned whenever it wakes and exits silently.
//! 2. **Brownout control** — when configured, a
//!    [`dronet_detect::DegradeController`] is fed one observation per
//!    tick (queue depth + admission-shed delta). Sustained pressure
//!    walks the input-resolution ladder down (the paper's 608→352
//!    accuracy-vs-FPS knob, applied as load shedding that still
//!    answers); sustained calm walks it back up.
//! 3. **Recovery** — after `recovery_ticks` ticks with no new panics,
//!    deaths, or wedges, and with the brownout ladder back at the top,
//!    health returns Degraded → Healthy.
//!
//! Losing the last worker (restart budget exhausted, or a rebuild
//! failure) flips health to Halted, closes the queue, and fails the
//! backlog — loud, typed, and recoverable by a process restart, never a
//! silent hang or a panic.

use crate::batcher::{lock_recover, spawn_worker, WorkerShared, WorkerSlot};
use crate::error::ServeError;
use dronet_detect::{DegradeAction, DegradeController};
use dronet_obs::{BlackBox, Counter, Health, Tracer};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Most black boxes retained; older captures are dropped first.
const MAX_BLACK_BOXES: usize = 16;

/// The live worker registry: slots for the watchdog to scan, handles for
/// shutdown to join, and the count of workers still alive.
pub(crate) struct Pool {
    slots: Mutex<Vec<Arc<WorkerSlot>>>,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
    alive: AtomicUsize,
    next_index: AtomicUsize,
}

impl Pool {
    pub fn new() -> Self {
        Pool {
            slots: Mutex::new(Vec::new()),
            handles: Mutex::new(Vec::new()),
            alive: AtomicUsize::new(0),
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
        self.alive.fetch_add(1, Ordering::SeqCst);
    }

    /// Accounts one worker's death; returns how many remain alive.
    pub fn worker_gone(&self) -> usize {
        self.alive.fetch_sub(1, Ordering::SeqCst).saturating_sub(1)
    }

    pub fn alive_count(&self) -> usize {
        self.alive.load(Ordering::SeqCst)
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

/// Bounded retention of [`BlackBox`] captures plus the
/// `serve.black_box_captures` counter.
pub(crate) struct BlackBoxStore {
    boxes: Mutex<Vec<BlackBox>>,
    captures: Counter,
}

impl BlackBoxStore {
    pub fn new(captures: Counter) -> Self {
        BlackBoxStore {
            boxes: Mutex::new(Vec::new()),
            captures,
        }
    }

    /// Snapshots the tracer tail and retains it under `trigger`.
    pub fn capture(&self, tracer: &Tracer, trigger: &str, frame_ids: &[u64]) {
        let captured = BlackBox::capture(tracer, trigger, frame_ids);
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
}

/// Spawns the supervisor thread.
pub(crate) fn spawn_watchdog(
    shared: Arc<WorkerShared>,
    shutdown: Arc<AtomicBool>,
    mut brownout: Option<DegradeController>,
) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name("serve-watchdog".to_string())
        .spawn(move || {
            shared.tracer.name_thread("serve-watchdog");
            let cfg = &shared.config;
            let wedges = shared.obs.counter("serve.worker_wedges");
            let restarts = shared.obs.counter("serve.worker_restarts");
            let downshifts = shared.obs.counter("serve.brownout_downshifts");
            let upshifts = shared.obs.counter("serve.brownout_upshifts");
            let mut restarts_used = 0usize;
            // Brownout pressure must come from *this* pool's queue, not
            // the registry counter: replicas share the counter name, and
            // one overloaded replica must not brown out its healthy peers.
            let mut last_drops = shared.queue.local_drops();
            let mut last_activity = 0u64;
            let mut quiet_ticks = 0u32;
            while !shutdown.load(Ordering::SeqCst) {
                thread::sleep(cfg.watchdog_interval);
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }

                // 1. Wedge scan.
                for slot in shared.pool.slots_snapshot() {
                    if !slot.is_alive() || slot.abandoned.load(Ordering::SeqCst) {
                        continue;
                    }
                    if let Some(busy) = slot.busy_for(shared.epoch) {
                        if busy >= cfg.wedge_timeout {
                            handle_wedge(
                                &shared,
                                &slot,
                                busy,
                                &mut restarts_used,
                                &wedges,
                                &restarts,
                            );
                        }
                    }
                }

                // 2. Brownout: one load observation per tick.
                if let Some(ctrl) = brownout.as_mut() {
                    let now_drops = shared.queue.local_drops();
                    let delta = now_drops.saturating_sub(last_drops);
                    last_drops = now_drops;
                    if let Some(action) = ctrl.observe_frame(shared.queue.len() as f64, delta) {
                        let target = action.target();
                        shared.target_input.store(target, Ordering::SeqCst);
                        shared.resolution_gauge.set(target as f64);
                        match action {
                            DegradeAction::Downshift(_) => {
                                downshifts.inc();
                                shared.health.degrade();
                            }
                            DegradeAction::Upshift(_) => upshifts.inc(),
                        }
                    }
                }

                // 3. Recovery: quiet for long enough, ladder at the top.
                let activity = shared.panics.get() + shared.worker_deaths.get() + wedges.get();
                if activity == last_activity {
                    quiet_ticks = quiet_ticks.saturating_add(1);
                } else {
                    quiet_ticks = 0;
                    last_activity = activity;
                }
                let still_degraded_by_brownout = brownout.as_ref().is_some_and(|c| c.is_degraded());
                if quiet_ticks >= cfg.recovery_ticks
                    && !still_degraded_by_brownout
                    && matches!(shared.health.get(), Health::Degraded)
                {
                    shared.health.recover();
                }
            }
        })
        .expect("spawn watchdog thread")
}

/// Declares `slot` wedged: steal its jobs, answer them with typed
/// errors, black-box the trace tail, and spawn a replacement under the
/// restart budget.
fn handle_wedge(
    shared: &Arc<WorkerShared>,
    slot: &WorkerSlot,
    busy: Duration,
    restarts_used: &mut usize,
    wedges: &Counter,
    restarts: &Counter,
) {
    slot.abandoned.store(true, Ordering::SeqCst);
    let Some(inflight) = slot.take_inflight() else {
        // The worker finished between our busy check and the steal: it
        // holds the replies and will keep looping — un-abandon it.
        slot.abandoned.store(false, Ordering::SeqCst);
        return;
    };
    wedges.inc();
    shared.fault_events.fetch_add(1, Ordering::SeqCst);
    shared.black_box.capture(
        &shared.tracer,
        &format!(
            "worker {} wedged after {:.0?} holding {} job(s)",
            slot.index,
            busy,
            inflight.frame_ids.len()
        ),
        &inflight.frame_ids,
    );
    let msg = format!(
        "worker {} stuck past {:.0?} deadline",
        slot.index, shared.config.wedge_timeout
    );
    for reply in &inflight.replies {
        reply.deliver(Err(ServeError::WorkerWedged(msg.clone())));
    }
    if !slot.retire() {
        return; // the worker's own death path already did the accounting
    }
    shared.pool.worker_gone();
    shared.health.degrade();
    if *restarts_used < shared.config.max_worker_restarts {
        let target = shared.target_input.load(Ordering::SeqCst);
        match crate::batcher::rebuild_detector(shared, target) {
            Ok(det) => {
                *restarts_used += 1;
                restarts.inc();
                let new_slot = WorkerSlot::new(shared.pool.next_index());
                let handle = spawn_worker(Arc::clone(shared), Arc::clone(&new_slot), det);
                shared.pool.register(new_slot, handle);
            }
            Err(e) => {
                shared.black_box.capture(
                    &shared.tracer,
                    &format!("replacement rebuild failed: {e}"),
                    &[],
                );
            }
        }
    }
    if shared.pool.alive_count() == 0 {
        // No replacement and nobody left: fail loudly instead of hanging.
        shared.health.halt();
        shared.queue.close();
        shared.queue.fail_pending();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dronet_obs::Registry;

    #[test]
    fn black_box_store_caps_retention_and_counts_captures() {
        let obs = Registry::new();
        let tracer = Tracer::noop();
        let store = BlackBoxStore::new(obs.counter("serve.black_box_captures"));
        for i in 0..(MAX_BLACK_BOXES + 3) {
            store.capture(&tracer, &format!("trigger {i}"), &[i as u64]);
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
        assert_eq!(pool.worker_gone(), 0);
        assert_eq!(pool.alive_count(), 0);
        for h in pool.take_handles() {
            h.join().unwrap();
        }
        assert!(pool.take_handles().is_empty(), "handles taken once");
    }
}
