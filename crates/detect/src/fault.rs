//! Deterministic fault injection for the detection pipeline.
//!
//! The paper's deployment (Fig. 5) is an unattended on-board loop: the one
//! failure the system may not have is a process abort mid-flight. This
//! module makes the failure modes of that loop *testable*: a seeded
//! [`FaultPlan`] decides, per frame, whether to inject a camera stall, a
//! corrupt or NaN-poisoned frame, a transient detector error, a latency
//! spike, or an outright detector panic. [`FaultyFrameSource`] applies the
//! source-side faults to any [`FrameSource`]; [`FaultyDetector`] applies
//! the detector-side faults to any [`DetectStage`]. Both consume the same
//! plan, so one seed describes one complete chaos scenario and the same
//! seed always reproduces the same fault sequence. A stall or a latency
//! spike is spent on the plan's [`Clock`]: on a manual clock it moves time
//! forward by exactly its length and blocks nothing.

use crate::detector::DetectStage;
use crate::source::FrameSource;
use crate::{DetectError, Detection, Result};
use dronet_obs::Clock;
use dronet_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One injectable fault class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The camera stalls: the source sleeps on the plan's clock before
    /// yielding the frame.
    SourceStall(Duration),
    /// The readout is truncated: the source yields a typed
    /// [`DetectError::CorruptFrame`] instead of the frame.
    CorruptFrame,
    /// The frame arrives NaN-poisoned (every fourth pixel is NaN),
    /// modelling a DMA fault propagating garbage into the activations.
    NanFrame,
    /// The detector reports a transient, recoverable error for this call
    /// (succeeds again on retry).
    TransientDetect,
    /// The detector suffers a latency spike: it sleeps on the plan's clock
    /// before processing.
    SlowDetect(Duration),
    /// The detector panics outright (e.g. a poisoned weight buffer hitting
    /// an unchecked kernel); exercises `catch_unwind` isolation.
    DetectorPanic,
}

/// Per-class injection probabilities and magnitudes for plan generation.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Probability of a camera stall on any given frame.
    pub stall_prob: f64,
    /// Probability of a corrupt (truncated) frame.
    pub corrupt_prob: f64,
    /// Probability of a NaN-poisoned frame.
    pub nan_prob: f64,
    /// Probability of a transient detector error.
    pub transient_prob: f64,
    /// Probability of a detector latency spike.
    pub slow_prob: f64,
    /// Probability of a detector panic.
    pub panic_prob: f64,
    /// Duration of an injected camera stall.
    pub stall: Duration,
    /// Duration of an injected latency spike.
    pub slow: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            stall_prob: 0.04,
            corrupt_prob: 0.04,
            nan_prob: 0.04,
            transient_prob: 0.04,
            slow_prob: 0.04,
            panic_prob: 0.01,
            stall: Duration::from_millis(25),
            slow: Duration::from_millis(25),
        }
    }
}

/// A deterministic, per-frame fault schedule, with the clock its stalls
/// and latency spikes spend their time on (real unless
/// [`FaultPlan::clock`] says otherwise).
///
/// Cheap to clone, and every clone shares the schedule, the clock and the
/// detector's call cursor: a frame source and a detector wrapper driven by
/// the same plan stay in sync, and a [`FaultyDetector`] rebuilt after a
/// crash from a clone resumes the schedule where its predecessor left off
/// instead of replaying the fault that killed it.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    slots: Arc<Vec<Option<FaultKind>>>,
    /// Detector calls made so far, across every [`FaultyDetector`] on this
    /// plan.
    calls: Arc<AtomicUsize>,
    clock: Clock,
}

impl FaultPlan {
    /// Generates a schedule for `frames` frames from `seed`. At most one
    /// fault is injected per frame; classes are drawn by cumulative
    /// probability in the order stall, corrupt, NaN, transient, slow,
    /// panic. Identical `(seed, frames, config)` always yields an
    /// identical plan.
    pub fn generate(seed: u64, frames: usize, config: &FaultConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let classes = [
            (config.stall_prob, FaultKind::SourceStall(config.stall)),
            (config.corrupt_prob, FaultKind::CorruptFrame),
            (config.nan_prob, FaultKind::NanFrame),
            (config.transient_prob, FaultKind::TransientDetect),
            (config.slow_prob, FaultKind::SlowDetect(config.slow)),
            (config.panic_prob, FaultKind::DetectorPanic),
        ];
        let slots = (0..frames)
            .map(|_| {
                let roll: f64 = rng.gen();
                let mut acc = 0.0;
                for (p, kind) in &classes {
                    acc += p;
                    if roll < acc {
                        return Some(kind.clone());
                    }
                }
                None
            })
            .collect();
        FaultPlan::from_schedule(slots)
    }

    /// A hand-written schedule: `slots[i]` is the fault (if any) for frame
    /// / call index `i`; indices beyond the schedule are fault-free.
    pub fn from_schedule(slots: Vec<Option<FaultKind>>) -> Self {
        FaultPlan {
            slots: Arc::new(slots),
            calls: Arc::default(),
            clock: Clock::default(),
        }
    }

    /// Spends stalls and latency spikes on `clock` (the supervisor's, so
    /// a spike is exactly the latency it measures).
    pub fn clock(mut self, clock: &Clock) -> Self {
        self.clock = clock.clone();
        self
    }

    /// A plan that never injects anything.
    pub fn none() -> Self {
        FaultPlan::from_schedule(Vec::new())
    }

    /// The fault scheduled for index `i`, if any.
    pub fn fault_for(&self, i: usize) -> Option<&FaultKind> {
        self.slots.get(i).and_then(|slot| slot.as_ref())
    }

    /// One detector call: advances the shared call cursor and applies the
    /// detector-side fault scheduled at it. A latency spike sleeps on the
    /// plan's clock; source-side kinds are ignored. [`FaultyDetector`] and
    /// `dronet-tile`'s tiled batch forward both step through here.
    ///
    /// # Errors
    ///
    /// [`DetectError::BadNetworkOutput`] for a scheduled
    /// [`FaultKind::TransientDetect`].
    ///
    /// # Panics
    ///
    /// On a scheduled [`FaultKind::DetectorPanic`], by design.
    pub fn detector_step(&self) -> Result<()> {
        let idx = self.calls.fetch_add(1, Ordering::Relaxed);
        match self.fault_for(idx) {
            Some(FaultKind::SlowDetect(d)) => self.clock.sleep(*d),
            Some(FaultKind::DetectorPanic) => {
                panic!("injected detector fault at call {idx}")
            }
            Some(FaultKind::TransientDetect) => {
                return Err(DetectError::BadNetworkOutput {
                    expected: "finite activations".to_string(),
                    actual: format!("injected transient fault at call {idx}"),
                });
            }
            _ => {}
        }
        Ok(())
    }

    /// The raw schedule.
    pub fn slots(&self) -> &[Option<FaultKind>] {
        &self.slots
    }

    /// Number of scheduled (non-empty) faults.
    pub fn injected(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

/// Wraps a [`FrameSource`], injecting the source-side faults of a plan
/// (stalls, corrupt frames, NaN poisoning). Detector-side faults in the
/// plan are ignored here and applied by [`FaultyDetector`].
#[derive(Debug)]
pub struct FaultyFrameSource<S> {
    inner: S,
    plan: FaultPlan,
    index: usize,
}

impl<S: FrameSource> FaultyFrameSource<S> {
    /// Wraps `inner` with the source-side faults of `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultyFrameSource {
            inner,
            plan,
            index: 0,
        }
    }
}

impl<S: FrameSource> FrameSource for FaultyFrameSource<S> {
    fn next_frame(&mut self) -> Option<Result<Tensor>> {
        let idx = self.index;
        self.index += 1;
        match self.plan.fault_for(idx) {
            Some(FaultKind::SourceStall(d)) => {
                self.plan.clock.sleep(*d);
                self.inner.next_frame()
            }
            Some(FaultKind::CorruptFrame) => {
                // Consume (and lose) the real frame, as a truncated camera
                // readout would.
                let _ = self.inner.next_frame()?;
                Some(Err(DetectError::CorruptFrame {
                    frame_index: idx,
                    msg: "injected truncated readout".to_string(),
                }))
            }
            Some(FaultKind::NanFrame) => {
                let frame = self.inner.next_frame()?;
                Some(frame.map(|mut t| {
                    for v in t.as_mut_slice().iter_mut().step_by(4) {
                        *v = f32::NAN;
                    }
                    t
                }))
            }
            _ => self.inner.next_frame(),
        }
    }
}

/// Wraps a [`DetectStage`], injecting the detector-side faults of a plan
/// (transient errors, latency spikes, panics) by the plan's shared call
/// cursor: a supervisor factory that wraps every build with
/// `FaultyDetector::new(inner, plan.clone())` walks one schedule across
/// restarts.
#[derive(Debug)]
pub struct FaultyDetector<D> {
    inner: D,
    plan: FaultPlan,
}

impl<D: DetectStage> FaultyDetector<D> {
    /// Wraps `inner` with the detector-side faults of `plan`, from the
    /// plan's next call on.
    pub fn new(inner: D, plan: FaultPlan) -> Self {
        FaultyDetector { inner, plan }
    }
}

impl<D: DetectStage> DetectStage for FaultyDetector<D> {
    fn detect_frame(&mut self, frame: &Tensor) -> Result<Vec<Detection>> {
        self.plan.detector_step()?;
        self.inner.detect_frame(frame)
    }

    fn input_chw(&self) -> (usize, usize, usize) {
        self.inner.input_chw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::IterSource;
    use dronet_tensor::Shape;

    fn frames(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|_| Tensor::zeros(Shape::nchw(1, 3, 8, 8)))
            .collect()
    }

    /// A stage that always succeeds with no detections.
    struct Always;
    impl DetectStage for Always {
        fn detect_frame(&mut self, _: &Tensor) -> Result<Vec<Detection>> {
            Ok(Vec::new())
        }
        fn input_chw(&self) -> (usize, usize, usize) {
            (3, 8, 8)
        }
    }

    #[test]
    fn plan_generation_is_deterministic() {
        let cfg = FaultConfig::default();
        let a = FaultPlan::generate(42, 200, &cfg);
        let b = FaultPlan::generate(42, 200, &cfg);
        assert_eq!(a.slots(), b.slots());
        let c = FaultPlan::generate(43, 200, &cfg);
        assert_ne!(a.slots(), c.slots(), "different seeds differ");
    }

    #[test]
    fn plan_respects_probabilities_roughly() {
        let cfg = FaultConfig {
            stall_prob: 0.5,
            corrupt_prob: 0.0,
            nan_prob: 0.0,
            transient_prob: 0.0,
            slow_prob: 0.0,
            panic_prob: 0.0,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(7, 1000, &cfg);
        let stalls = plan.injected();
        assert!((350..=650).contains(&stalls), "got {stalls} stalls");
        // All-zero probabilities inject nothing.
        let quiet = FaultPlan::generate(
            7,
            100,
            &FaultConfig {
                stall_prob: 0.0,
                corrupt_prob: 0.0,
                nan_prob: 0.0,
                transient_prob: 0.0,
                slow_prob: 0.0,
                panic_prob: 0.0,
                ..FaultConfig::default()
            },
        );
        assert_eq!(quiet.injected(), 0);
    }

    #[test]
    fn faulty_source_injects_corrupt_and_nan_frames() {
        let plan = FaultPlan::from_schedule(vec![
            None,
            Some(FaultKind::CorruptFrame),
            Some(FaultKind::NanFrame),
        ]);
        let mut src = FaultyFrameSource::new(IterSource::new(frames(4)), plan);
        assert!(matches!(src.next_frame(), Some(Ok(_))));
        match src.next_frame() {
            Some(Err(DetectError::CorruptFrame { frame_index: 1, .. })) => {}
            other => panic!("expected corrupt frame, got {other:?}"),
        }
        let poisoned = src.next_frame().unwrap().unwrap();
        assert!(poisoned.as_slice().iter().any(|v| v.is_nan()));
        // Past the schedule: clean again, and stream length is preserved
        // (the corrupt slot consumed one real frame).
        assert!(matches!(src.next_frame(), Some(Ok(_))));
        assert!(src.next_frame().is_none());
    }

    #[test]
    fn faulty_detector_injects_transient_then_recovers() {
        let plan = FaultPlan::from_schedule(vec![Some(FaultKind::TransientDetect), None]);
        let mut det = FaultyDetector::new(Always, plan.clone());
        let x = Tensor::zeros(Shape::nchw(1, 3, 8, 8));
        assert!(det.detect_frame(&x).unwrap_err().is_recoverable());
        assert!(det.detect_frame(&x).is_ok(), "retry succeeds");
        // A replacement on a clone of the plan does not replay slot 0.
        let mut rebuilt = FaultyDetector::new(Always, plan);
        assert!(rebuilt.detect_frame(&x).is_ok());
    }

    #[test]
    fn stalls_and_spikes_spend_exactly_their_length_on_the_plan_clock() {
        let clock = Clock::manual();
        let ms = Duration::from_millis;
        let plan = FaultPlan::from_schedule(vec![
            Some(FaultKind::SourceStall(ms(30))),
            Some(FaultKind::SlowDetect(ms(40))),
        ])
        .clock(&clock);
        let mut src = FaultyFrameSource::new(IterSource::new(frames(2)), plan.clone());
        assert!(matches!(src.next_frame(), Some(Ok(_))));
        assert_eq!(clock.now(), ms(30));
        let mut det = FaultyDetector::new(Always, plan);
        let x = Tensor::zeros(Shape::nchw(1, 3, 8, 8));
        det.detect_frame(&x).unwrap(); // call 0: the stall slot, ignored here
        det.detect_frame(&x).unwrap();
        assert_eq!(clock.now(), ms(70));
    }
}
