//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so this in-tree shim keeps
//! the workspace's Criterion-style benches compiling and running. It
//! implements warm-up + timed measurement with mean/min reporting, but none
//! of real Criterion's statistics (no outlier analysis, no HTML reports).
//!
//! Covered API, what the workspace's one bench (`train_step`) uses:
//! [`Criterion`] (`sample_size`, `warm_up_time`, `measurement_time`,
//! `bench_function`), [`Bencher::iter`], [`criterion_group!`] (the
//! `name = ...; config = ...; targets = ...` form) and [`criterion_main!`].

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Benchmark driver: holds measurement settings and prints results.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            warm_up: Duration::from_millis(200),
            measurement: Duration::from_secs(1),
        }
    }
}

impl Criterion {
    /// Sets the target number of samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Sets the warm-up duration.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up = d;
        self
    }

    /// Sets the measurement duration.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement = d;
        self
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_one(self, id, &mut f);
        self
    }
}

/// Timing handle passed to benchmark closures.
pub struct Bencher {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`, first warming up, then collecting samples until the
    /// measurement budget or the sample target is reached.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up {
            black_box(routine());
            warm_iters += 1;
        }
        // Aim each sample at ~1/sample_size of the budget, at least 1 iter.
        let per_iter = if warm_iters > 0 {
            warm_start.elapsed() / (warm_iters as u32)
        } else {
            Duration::from_millis(1)
        };
        let budget_per_sample = self.measurement / self.sample_size as u32;
        let iters_per_sample = if per_iter.is_zero() {
            1
        } else {
            (budget_per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1 << 20) as u32
        };
        let deadline = Instant::now() + self.measurement;
        while self.samples.len() < self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            self.samples.push(t0.elapsed() / iters_per_sample);
            if Instant::now() > deadline && !self.samples.is_empty() {
                break;
            }
        }
    }
}

fn run_one(c: &Criterion, id: &str, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher {
        warm_up: c.warm_up,
        measurement: c.measurement,
        sample_size: c.sample_size,
        samples: Vec::new(),
    };
    f(&mut b);
    if b.samples.is_empty() {
        eprintln!("{id:<40} (no samples)");
        return;
    }
    let min = b.samples.iter().min().copied().unwrap_or_default();
    let sum: Duration = b.samples.iter().sum();
    let mean = sum / b.samples.len() as u32;
    eprintln!(
        "{id:<40} mean {:>12?}  min {:>12?}  ({} samples)",
        mean,
        min,
        b.samples.len()
    );
}

/// Declares a benchmark group function, as upstream Criterion.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_samples() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let mut ran = 0u64;
        c.bench_function("smoke", |b| b.iter(|| ran += 1));
        assert!(ran > 0);
    }
}
