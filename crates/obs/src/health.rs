//! The workspace's one supervision policy: the `Healthy → Degraded →
//! Halted` state, the gauge-mirrored ratchet cell that holds it, the one
//! restart budget, the one recovery clock, the crash black box, and the
//! one [`Clock`] every timed verdict reads.
//!
//! Three supervisors follow it — `detect::Supervisor` (per-frame faults),
//! `serve`'s watchdog/batcher/replica pool (worker wedges and deaths) and
//! `train::Trainer` (divergence-sentry trips). They differ only in their
//! triggers and in their unit of time (a frame, a tick, a step): when a
//! restart is spent ([`RestartBudget`]), when Degraded recovers
//! ([`RecoveryClock`]), what those words mean, how they are exported, and
//! what a post-mortem capture looks like is defined once, here. A verdict
//! that compares time with a deadline (a slow stage, a stalled camera, a
//! wedged worker, a due fault) reads the [`Clock`] it was given, so a test
//! on a manual clock decides it exactly.

use crate::json::to_json;
use crate::window::mono_now_ns;
use crate::{Gauge, TraceSnapshot, Tracer};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Trailing flight-recorder events a [`BlackBox`] keeps.
pub const BLACK_BOX_EVENTS: usize = 64;

/// Health of a supervised component, exported as a gauge (`Healthy` = 0,
/// `Degraded` = 1, `Halted` = 2).
///
/// Transitions: a fault moves `Healthy → Degraded`; a [`RecoveryClock`]
/// streak moves `Degraded → Healthy`; exhausting a [`RestartBudget`] (or
/// another fault budget) moves to the terminal `Halted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Health {
    /// Everything nominal.
    #[default]
    Healthy = 0,
    /// Running, but faults were observed recently or quality is reduced.
    Degraded = 1,
    /// The supervisor gave up: fault budgets exhausted. Terminal.
    Halted = 2,
}

impl Health {
    /// The gauge encoding of this state.
    pub fn as_metric(self) -> f64 {
        f64::from(self as u8)
    }
}

/// Lock-free holder of a [`Health`], mirrored into a gauge on every
/// transition. The transitions are one-way ratchets: nothing leaves
/// `Halted`, `degrade` only acts on `Healthy`, `recover` only on
/// `Degraded`.
#[derive(Debug)]
pub struct HealthCell {
    state: AtomicU8,
    gauge: Gauge,
}

impl HealthCell {
    /// A `Healthy` cell publishing into `gauge`.
    pub fn new(gauge: Gauge) -> Self {
        gauge.set(Health::Healthy.as_metric());
        HealthCell {
            state: AtomicU8::new(Health::Healthy as u8),
            gauge,
        }
    }

    /// The current state.
    pub fn get(&self) -> Health {
        match self.state.load(Ordering::SeqCst) {
            0 => Health::Healthy,
            1 => Health::Degraded,
            _ => Health::Halted,
        }
    }

    fn transition(&self, from: Health, to: Health) -> bool {
        let moved = self
            .state
            .compare_exchange(from as u8, to as u8, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if moved {
            self.gauge.set(to.as_metric());
        }
        moved
    }

    /// `Healthy → Degraded`; no effect in any other state.
    pub fn degrade(&self) {
        self.transition(Health::Healthy, Health::Degraded);
    }

    /// `Degraded → Healthy`; no effect in any other state. Returns whether
    /// the cell moved.
    pub fn recover(&self) -> bool {
        self.transition(Health::Degraded, Health::Healthy)
    }

    /// Terminal: nothing leaves `Halted`.
    pub fn halt(&self) {
        self.state.store(Health::Halted as u8, Ordering::SeqCst);
        self.gauge.set(Health::Halted.as_metric());
    }
}

/// The one restart budget: how many restarts (or retries) a supervisor
/// may spend — a detector stage rebuild, a frame retry, a replacement
/// worker, a quarantined slot's rebuild, a training rollback — before it
/// must give up.
#[derive(Debug, Clone, Copy, Default)]
pub struct RestartBudget {
    limit: u64,
    /// Restarts spent so far. Public so a caller can persist and restore
    /// it (a training checkpoint's rollbacks) or report it.
    pub spent: u64,
}

impl RestartBudget {
    /// A budget of `limit` restarts, none spent.
    pub fn new(limit: u64) -> Self {
        RestartBudget { limit, spent: 0 }
    }

    /// Whether all `limit` restarts are spent.
    pub fn is_exhausted(&self) -> bool {
        self.spent >= self.limit
    }

    /// Spends one restart; `false`, spending nothing, once exhausted.
    pub fn spend(&mut self) -> bool {
        let ok = !self.is_exhausted();
        self.spent += u64::from(ok);
        ok
    }

    /// Gives every restart back (a rebuilt slot proved itself again).
    pub fn reset(&mut self) {
        self.spent = 0;
    }
}

/// The one recovery rule: a fault moves `Healthy → Degraded` and restarts
/// the clock; `after` consecutive fault-free units (frames in detect,
/// ticks in serve, steps in train) move `Degraded → Healthy` — but only
/// while the component's resolution ladder is at the top, since a lower
/// rung is reduced quality and so still [`Health::Degraded`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryClock {
    after: u64,
    /// Fault-free units since the last fault (for reports).
    pub streak: u64,
}

impl RecoveryClock {
    /// A clock recovering after `after` clean units.
    pub fn new(after: u64) -> Self {
        RecoveryClock { after, streak: 0 }
    }

    /// A fault: degrades `health` and restarts the streak.
    pub fn fault(&mut self, health: &HealthCell) {
        self.streak = 0;
        health.degrade();
    }

    /// One fault-free unit; `at_top` says the ladder (if any) is at its
    /// top rung. Returns whether this unit recovered `health`.
    pub fn clean(&mut self, health: &HealthCell, at_top: bool) -> bool {
        self.streak = self.streak.saturating_add(1);
        at_top && self.streak >= self.after && health.recover()
    }
}

/// A crash black box: why a supervisor captured it, which frames were
/// implicated, and the flight recorder's last [`BLACK_BOX_EVENTS`] events —
/// enough to reconstruct the final moments without a debugger on the drone.
#[derive(Debug, Clone, Default)]
pub struct BlackBox {
    /// What tripped the capture (the failure's display form).
    pub trigger: String,
    /// Frame ids in flight when the capture fired (empty when the failure
    /// is not attributable to a frame).
    pub frame_ids: Vec<u64>,
    /// The flight recorder's tail at capture time, oldest event first.
    pub tail: TraceSnapshot,
}

impl BlackBox {
    /// Snapshots `tracer`'s tail under `trigger`.
    pub fn capture(tracer: &Tracer, trigger: &str, frame_ids: &[u64]) -> BlackBox {
        BlackBox {
            trigger: trigger.to_string(),
            frame_ids: frame_ids.to_vec(),
            tail: tracer.snapshot().tail_snapshot(BLACK_BOX_EVENTS),
        }
    }

    /// Renders the black box as a greppable plain-text timeline.
    pub fn to_text(&self) -> String {
        format!(
            "=== black box ===\ntrigger: {}\nframes in flight: {:?}\n{}",
            self.trigger,
            self.frame_ids,
            self.tail.to_text()
        )
    }
}

// The tail as its plain-text timeline, one event a line.
to_json!(BlackBox => |b, w| crate::json_object!(w, "trigger" => &b.trigger,
    "frame_ids" => &b.frame_ids, "tail" => b.tail.to_text()));

/// The one supervision clock, passed in at construction. The default is
/// the real clock: it reads the monotonic anchor [`mono_now_ns`] reads, so
/// the process keeps one time origin. A [`Clock::manual`] one stands still
/// until a [`Clock::sleep`] on it moves it forward. Clones share one time.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    manual: Option<Arc<AtomicU64>>,
}

impl Clock {
    /// A clock at zero that only [`Clock::sleep`] moves.
    pub fn manual() -> Clock {
        Clock {
            manual: Some(Arc::default()),
        }
    }

    /// Time since the clock's origin.
    pub fn now(&self) -> Duration {
        let manual = self.manual.as_ref().map(|ns| ns.load(Ordering::SeqCst));
        Duration::from_nanos(manual.unwrap_or_else(mono_now_ns))
    }

    /// Blocks for `d` on the real clock; moves a manual one forward by
    /// exactly `d`, at once.
    pub fn sleep(&self, d: Duration) {
        let Some(ns) = &self.manual else {
            return std::thread::sleep(d);
        };
        let d = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        ns.fetch_add(d, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use proptest::prelude::*;

    #[test]
    fn metric_encoding() {
        assert_eq!(Health::Healthy.as_metric(), 0.0);
        assert_eq!(Health::Degraded.as_metric(), 1.0);
        assert_eq!(Health::Halted.as_metric(), 2.0);
        assert_eq!(Health::default(), Health::Healthy);
    }

    #[test]
    fn transitions_are_one_way_ratchets() {
        let obs = Registry::new();
        let cell = HealthCell::new(obs.gauge("health"));
        assert_eq!(cell.get(), Health::Healthy);
        cell.recover(); // no-op from Healthy
        assert_eq!(cell.get(), Health::Healthy);
        cell.degrade();
        assert_eq!(cell.get(), Health::Degraded);
        assert_eq!(obs.snapshot().gauge("health"), Some(1.0));
        cell.recover();
        assert_eq!(cell.get(), Health::Healthy);
        cell.halt();
        cell.degrade(); // halted is terminal
        cell.recover();
        assert_eq!(cell.get(), Health::Halted);
        assert_eq!(obs.snapshot().gauge("health"), Some(2.0));
    }

    #[test]
    fn restart_budget_spends_exhausts_and_resets() {
        let mut budget = RestartBudget::new(2);
        assert!(!budget.is_exhausted());
        assert!(budget.spend() && budget.spend());
        assert!(budget.is_exhausted());
        assert!(!budget.spend(), "an exhausted budget refuses");
        assert_eq!(budget.spent, 2, "a refused spend costs nothing");
        budget.reset();
        assert_eq!(budget.spent, 0);
        assert!(budget.spend());
        budget.spent = 7; // restored past the limit, as a checkpoint may be
        assert!(budget.is_exhausted() && !budget.spend());
        assert_eq!(budget.spent, 7);
        assert!(
            RestartBudget::new(0).is_exhausted(),
            "a zero budget starts spent"
        );
    }

    #[test]
    fn black_box_keeps_the_newest_events() {
        let tracer = Tracer::new();
        for i in 0..(BLACK_BOX_EVENTS as u64 + 10) {
            tracer.instant_frame("tick", i);
        }
        let bb = BlackBox::capture(&tracer, "boom", &[73]);
        assert_eq!(bb.tail.events.len(), BLACK_BOX_EVENTS);
        assert_eq!(bb.tail.events.last().unwrap().frame_id, 73);
        let text = bb.to_text();
        assert!(text.contains("trigger: boom") && text.contains("[73]"));
        // A noop tracer captures an empty, still-renderable box.
        assert!(BlackBox::capture(&Tracer::noop(), "x", &[])
            .tail
            .events
            .is_empty());
    }

    #[test]
    fn a_manual_clock_moves_only_by_its_sleeps_and_clones_share_it() {
        let clock = Clock::manual();
        let shared = clock.clone();
        assert_eq!(clock.now(), Duration::ZERO);
        shared.sleep(Duration::from_secs(10) - Duration::from_nanos(1));
        clock.sleep(Duration::from_nanos(1));
        assert_eq!(clock.now(), Duration::from_secs(10));
        assert_eq!(shared.now(), clock.now());
        let real = Clock::default();
        let t0 = real.now();
        real.sleep(Duration::from_millis(1));
        assert!(real.now() >= t0 + Duration::from_millis(1));
    }

    proptest! {
        /// Under any interleaving of the three operations, once halted the
        /// cell never leaves `Halted`, and the gauge always mirrors `get()`.
        #[test]
        fn halted_is_terminal_and_gauge_mirrors_state(ops in prop::collection::vec(0u8..3, 0..64)) {
            let obs = Registry::new();
            let cell = HealthCell::new(obs.gauge("health"));
            let mut halted = false;
            for op in ops {
                match op {
                    0 => cell.degrade(),
                    1 => {
                        cell.recover();
                    }
                    _ => {
                        cell.halt();
                        halted = true;
                    }
                }
                prop_assert_eq!(halted, cell.get() == Health::Halted);
                prop_assert_eq!(obs.snapshot().gauge("health"), Some(cell.get().as_metric()));
            }
        }

        /// The recovery clock against a plain counter oracle: a fault
        /// always degrades and resets the streak; recovery happens exactly
        /// when `after` clean units ran since the last fault, and never
        /// below the top of the ladder.
        #[test]
        fn recovery_clock_matches_a_counter_oracle(
            after in 1u64..6,
            ops in prop::collection::vec(0u8..3, 0..96),
        ) {
            let cell = HealthCell::new(Registry::new().gauge("health"));
            let mut clock = RecoveryClock::new(after);
            let (mut streak, mut degraded) = (0u64, false);
            for op in ops {
                if op == 0 {
                    clock.fault(&cell);
                    (streak, degraded) = (0, true);
                    prop_assert_eq!(cell.get(), Health::Degraded);
                    continue;
                }
                let at_top = op == 1;
                streak += 1;
                let expect = degraded && at_top && streak >= after;
                let recovered = clock.clean(&cell, at_top);
                prop_assert_eq!(recovered, expect);
                prop_assert!(!recovered || at_top, "recovered below the top");
                degraded &= !recovered;
                prop_assert_eq!(cell.get() == Health::Degraded, degraded);
            }
        }
    }
}
