//! Divergence sentry: detects a training run going off the rails and
//! drives the rollback/backoff policy in [`crate::Trainer`].
//!
//! Mirrors `detect::Supervisor`'s philosophy for the training half of the
//! pipeline: a long unattended run may not abort, so non-finite losses,
//! NaN gradients and exploding-loss spikes become *events with a recovery
//! policy* (roll back to the last good checkpoint, back the learning rate
//! off, retry under a bounded budget) instead of hours of wasted compute —
//! with the same `Healthy → Degraded → Halted` health machine on the obs
//! registry.

use std::fmt;

/// Why the sentry tripped on a step.
#[derive(Debug, Clone, PartialEq)]
pub enum TripReason {
    /// The loss came back NaN or infinite.
    NonFiniteLoss {
        /// The offending loss value.
        loss: f32,
    },
    /// The global gradient norm is NaN or infinite.
    NonFiniteGradNorm,
    /// The loss spiked far above its recent EWMA.
    LossSpike {
        /// The offending loss value.
        loss: f32,
        /// The EWMA it was compared against.
        ewma: f32,
    },
}

impl fmt::Display for TripReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TripReason::NonFiniteLoss { loss } => write!(f, "non-finite loss {loss}"),
            TripReason::NonFiniteGradNorm => write!(f, "non-finite gradient norm"),
            TripReason::LossSpike { loss, ewma } => {
                write!(f, "loss spike {loss} vs EWMA {ewma}")
            }
        }
    }
}

/// EWMA smoothing factor in `(0, 1]`; higher = faster tracking.
const EWMA_ALPHA: f32 = 0.2;

/// Trip when `loss > SPIKE_FACTOR * ewma` (after warm-up).
const SPIKE_FACTOR: f32 = 4.0;

/// Global steps before the spike detector arms (the first batches of a run
/// are legitimately noisy).
const WARMUP_STEPS: u64 = 8;

/// The recovery policy.
#[derive(Debug, Clone)]
pub struct SentryConfig {
    /// Rollbacks allowed before the run halts.
    pub max_rollbacks: u32,
    /// Consecutive clean steps required to recover `Degraded → Healthy`.
    pub recover_after: u64,
}

impl Default for SentryConfig {
    fn default() -> Self {
        SentryConfig {
            max_rollbacks: 3,
            recover_after: 16,
        }
    }
}

/// The detector itself: feed it every step's observed loss and gradient
/// norm; it answers with a [`TripReason`] when the run looks divergent.
///
/// The EWMA is part of the training state — the trainer checkpoints it and
/// restores it on resume/rollback, so sentry decisions replay
/// deterministically (see [`DivergenceSentry::ewma`] /
/// [`DivergenceSentry::restore_ewma`]).
#[derive(Debug, Clone)]
pub struct DivergenceSentry {
    config: SentryConfig,
    ewma: Option<f32>,
}

impl DivergenceSentry {
    /// Creates a sentry.
    pub fn new(config: SentryConfig) -> Self {
        DivergenceSentry { config, ewma: None }
    }

    /// The configuration.
    pub fn config(&self) -> &SentryConfig {
        &self.config
    }

    /// The current EWMA of the loss, if any step has been accepted.
    pub fn ewma(&self) -> Option<f32> {
        self.ewma
    }

    /// Restores the EWMA from a checkpoint (or clears it with `None`).
    pub fn restore_ewma(&mut self, ewma: Option<f32>) {
        self.ewma = ewma;
    }

    /// Checks the gradient norm computed after `backward`. Non-finite →
    /// trip. Does not update any state.
    pub fn check_grad_norm(&self, norm: f64) -> Option<TripReason> {
        if norm.is_finite() {
            None
        } else {
            Some(TripReason::NonFiniteGradNorm)
        }
    }

    /// Checks the observed loss for step `step` (the global step index the
    /// batch will have once accepted). On acceptance (`None`) the EWMA is
    /// updated; on a trip the EWMA is left untouched so the replayed step
    /// is judged against the same baseline.
    pub fn check_loss(&mut self, step: u64, loss: f32) -> Option<TripReason> {
        if !loss.is_finite() {
            return Some(TripReason::NonFiniteLoss { loss });
        }
        if step >= WARMUP_STEPS {
            if let Some(ewma) = self.ewma {
                if ewma > 0.0 && loss > SPIKE_FACTOR * ewma {
                    return Some(TripReason::LossSpike { loss, ewma });
                }
            }
        }
        self.ewma = Some(match self.ewma {
            Some(e) => e + EWMA_ALPHA * (loss - e),
            None => loss,
        });
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_loss_trips_immediately() {
        let mut s = DivergenceSentry::new(SentryConfig::default());
        assert!(matches!(
            s.check_loss(0, f32::NAN),
            Some(TripReason::NonFiniteLoss { .. })
        ));
        assert!(matches!(
            s.check_loss(0, f32::INFINITY),
            Some(TripReason::NonFiniteLoss { .. })
        ));
        assert_eq!(s.ewma(), None, "tripped steps do not move the EWMA");
    }

    #[test]
    fn non_finite_grad_norm_trips() {
        let s = DivergenceSentry::new(SentryConfig::default());
        assert!(s.check_grad_norm(1e30).is_none());
        assert!(matches!(
            s.check_grad_norm(f64::NAN),
            Some(TripReason::NonFiniteGradNorm)
        ));
        assert!(matches!(
            s.check_grad_norm(f64::INFINITY),
            Some(TripReason::NonFiniteGradNorm)
        ));
    }

    #[test]
    fn spike_detector_arms_after_warmup() {
        let mut s = DivergenceSentry::new(SentryConfig::default());
        // During warm-up even huge jumps pass (and feed the EWMA), up to
        // its last step.
        assert!(s.check_loss(0, 1.0).is_none());
        assert!(s.check_loss(WARMUP_STEPS - 1, 100.0).is_none());
        // Settle the EWMA back down.
        let mut s = DivergenceSentry::new(SentryConfig::default());
        for step in 0..WARMUP_STEPS {
            assert!(s.check_loss(step, 2.0).is_none());
        }
        let ewma = s.ewma().unwrap();
        assert!((ewma - 2.0).abs() < 1e-6);
        // 4x the EWMA trips; slightly below does not.
        assert!(s.check_loss(WARMUP_STEPS, 7.9).is_none());
        let trip = s.check_loss(WARMUP_STEPS + 1, 30.0);
        assert!(
            matches!(trip, Some(TripReason::LossSpike { .. })),
            "{trip:?}"
        );
    }

    #[test]
    fn ewma_restores_for_deterministic_replay() {
        let mut a = DivergenceSentry::new(SentryConfig::default());
        for step in 0..10 {
            a.check_loss(step, 1.0 + step as f32 * 0.1);
        }
        let saved = a.ewma();
        let mut b = DivergenceSentry::new(SentryConfig::default());
        b.restore_ewma(saved);
        assert_eq!(a.ewma(), b.ewma());
        // Identical observations produce identical verdicts afterwards.
        assert_eq!(a.check_loss(10, 2.0), b.check_loss(10, 2.0));
        assert_eq!(a.ewma().unwrap().to_bits(), b.ewma().unwrap().to_bits());
    }

    #[test]
    fn trip_reasons_display() {
        assert!(TripReason::NonFiniteLoss { loss: f32::NAN }
            .to_string()
            .contains("non-finite loss"));
        assert!(TripReason::LossSpike {
            loss: 10.0,
            ewma: 1.0
        }
        .to_string()
        .contains("spike"));
    }
}
