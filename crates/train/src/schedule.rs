/// Learning-rate schedules, mirroring the Darknet policies the paper's
/// training configs use (`constant`, `burn-in` + `steps`).
#[derive(Debug, Clone, PartialEq)]
pub enum LrSchedule {
    /// A constant learning rate.
    Constant {
        /// The learning rate.
        lr: f32,
    },
    /// Polynomial warm-up over the first `burnin` batches, then constant.
    /// Darknet: `lr * (batch/burnin)^power` during burn-in.
    Burnin {
        /// The post-warm-up learning rate.
        lr: f32,
        /// Number of warm-up batches.
        burnin: usize,
        /// Warm-up exponent (Darknet uses 4).
        power: f32,
    },
    /// Step decays: the base rate is multiplied by every `scale` whose
    /// `at_batch` has passed.
    Steps {
        /// The initial learning rate.
        lr: f32,
        /// `(at_batch, scale)` pairs, in ascending batch order.
        steps: Vec<(usize, f32)>,
    },
}

impl LrSchedule {
    /// Learning rate at (0-based) batch index `batch`.
    pub fn lr_at(&self, batch: usize) -> f32 {
        match self {
            LrSchedule::Constant { lr } => *lr,
            LrSchedule::Burnin { lr, burnin, power } => {
                if *burnin == 0 || batch >= *burnin {
                    *lr
                } else {
                    lr * ((batch + 1) as f32 / *burnin as f32).powf(*power)
                }
            }
            LrSchedule::Steps { lr, steps } => {
                let mut rate = *lr;
                for (at, scale) in steps {
                    if batch >= *at {
                        rate *= scale;
                    }
                }
                rate
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = LrSchedule::Constant { lr: 0.01 };
        assert_eq!(s.lr_at(0), 0.01);
        assert_eq!(s.lr_at(10_000), 0.01);
    }

    #[test]
    fn burnin_ramps_monotonically() {
        let s = LrSchedule::Burnin {
            lr: 1e-3,
            burnin: 100,
            power: 4.0,
        };
        let mut prev = 0.0;
        for b in 0..100 {
            let lr = s.lr_at(b);
            assert!(lr > prev, "batch {b}");
            assert!(lr <= 1e-3 + 1e-9);
            prev = lr;
        }
        assert_eq!(s.lr_at(100), 1e-3);
        assert_eq!(s.lr_at(1000), 1e-3);
    }

    #[test]
    fn burnin_zero_is_constant() {
        let s = LrSchedule::Burnin {
            lr: 0.5,
            burnin: 0,
            power: 4.0,
        };
        assert_eq!(s.lr_at(0), 0.5);
    }

    #[test]
    fn steps_decay_cumulatively() {
        let s = LrSchedule::Steps {
            lr: 1.0,
            steps: vec![(10, 0.1), (20, 0.5)],
        };
        assert_eq!(s.lr_at(0), 1.0);
        assert_eq!(s.lr_at(9), 1.0);
        assert!((s.lr_at(10) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(19) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(20) - 0.05).abs() < 1e-7);
    }
}
