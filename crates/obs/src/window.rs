//! Fixed-memory rolling time-window aggregation.
//!
//! Every metric in this workspace is cumulative-since-start, which makes
//! `/metrics` useless for "what is p99 *right now*": a latency regression
//! ten minutes into a serve run is averaged into oblivion. A
//! [`RollingWindow`] keeps a ring of sub-window buckets (fixed memory,
//! O(sub_buckets) per metric) and answers windowed count / rate / p50 / p99
//! over the last N seconds.
//!
//! Windows attach lazily to existing registry cells via
//! [`Registry::enable_windows`](crate::Registry::enable_windows) — the
//! record path when windows are *off* is a single `OnceLock` load, keeping
//! the <2% instrumentation-overhead budget intact — and
//! [`Registry::snapshot`](crate::Registry::snapshot) reads each one into
//! its metric's snapshot.
//!
//! Time is passed in explicitly (nanoseconds on the registry's monotonic
//! clock) so the rotation logic is deterministic under test: the proptests
//! drive `record_at`/`stats_at` with synthetic clocks, including wraps,
//! skips and out-of-order writers, and compare against a brute-force
//! oracle.

use crate::histogram::{bucket_index, quantile_from_buckets};
use crate::BUCKET_COUNT;
use std::sync::Mutex;
use std::time::Duration;

/// One sub-window bucket: a compact histogram plus count/sum, tagged with
/// the bucket epoch it currently represents.
#[derive(Debug, Clone)]
struct WinBucket {
    /// `time_ns / bucket_ns` of the interval this bucket holds. `u64::MAX`
    /// marks a never-used bucket.
    epoch: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    hist: [u64; BUCKET_COUNT],
}

impl WinBucket {
    fn empty() -> Self {
        WinBucket {
            epoch: u64::MAX,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            hist: [0; BUCKET_COUNT],
        }
    }

    fn reset(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.hist = [0; BUCKET_COUNT];
    }

    fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.hist[bucket_index(value)] += 1;
    }
}

/// Aggregate over the live portion of a [`RollingWindow`]; the `window` of
/// a [`CounterSnapshot`](crate::CounterSnapshot) or
/// [`HistogramSnapshot`](crate::HistogramSnapshot).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowStats {
    /// Window length this aggregate covers, nanoseconds.
    pub window_ns: u64,
    /// Samples recorded inside the window (for counters, `add` calls).
    pub count: u64,
    /// Sum of sample values inside the window (for counters, the total
    /// increment).
    pub sum: u64,
    /// Samples (for histograms) or summed increments (for counters) per
    /// second over the window.
    pub rate_per_sec: f64,
    /// Estimated windowed 50th percentile (0 when empty), from the one
    /// quantile estimator every histogram reader shares.
    pub p50_ns: u64,
    /// Estimated windowed 99th percentile (0 when empty), likewise.
    pub p99_ns: u64,
}

/// Fixed-memory rolling aggregation over the last `window` of time.
///
/// The window is divided into `sub_buckets` equal sub-intervals; each
/// recorded value lands in the bucket for its timestamp's sub-interval, and
/// buckets are recycled in place as time advances (no allocation after
/// construction). Queries merge the buckets still inside the window.
///
/// Timestamps are caller-supplied nanoseconds on any monotonic scale.
/// Records older than the window (or older than what their ring slot
/// currently holds) are dropped; a clock that skips forward simply ages
/// every bucket out, yielding an empty window.
#[derive(Debug)]
pub struct RollingWindow {
    window_ns: u64,
    bucket_ns: u64,
    ring: Mutex<Vec<WinBucket>>,
}

impl RollingWindow {
    /// Creates a window of length `window` split into `sub_buckets` buckets.
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero or shorter than `sub_buckets`
    /// nanoseconds, or when `sub_buckets` is zero.
    pub fn new(window: Duration, sub_buckets: usize) -> Self {
        let window_ns = u64::try_from(window.as_nanos()).unwrap_or(u64::MAX);
        assert!(sub_buckets > 0, "RollingWindow needs at least one bucket");
        let bucket_ns = window_ns / sub_buckets as u64;
        assert!(
            bucket_ns > 0,
            "window {window:?} too short for {sub_buckets} sub-buckets"
        );
        RollingWindow {
            window_ns: bucket_ns * sub_buckets as u64,
            bucket_ns,
            ring: Mutex::new(vec![WinBucket::empty(); sub_buckets]),
        }
    }

    /// The effective window length (the requested window rounded down to a
    /// whole number of sub-buckets), nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Records `value` with timestamp `now_ns`.
    pub fn record_at(&self, now_ns: u64, value: u64) {
        let epoch = now_ns / self.bucket_ns;
        let mut ring = self.ring.lock().expect("rolling window lock poisoned");
        let n = ring.len() as u64;
        let slot = (epoch % n) as usize;
        let bucket = &mut ring[slot];
        if bucket.epoch != epoch {
            if bucket.epoch != u64::MAX && epoch < bucket.epoch {
                // The slot already holds a newer interval: this record is
                // older than the window. Drop it.
                return;
            }
            bucket.reset(epoch);
        }
        bucket.record(value);
    }

    /// Windowed aggregate as of `now_ns`: merges every bucket whose epoch is
    /// inside `(now_epoch - sub_buckets, now_epoch]`.
    pub fn stats_at(&self, now_ns: u64) -> WindowStats {
        let now_epoch = now_ns / self.bucket_ns;
        let ring = self.ring.lock().expect("rolling window lock poisoned");
        let oldest = now_epoch.saturating_sub(ring.len() as u64 - 1);
        let mut merged = WinBucket::empty();
        for bucket in ring.iter() {
            if bucket.epoch == u64::MAX || bucket.epoch < oldest || bucket.epoch > now_epoch {
                continue;
            }
            merged.count += bucket.count;
            merged.sum += bucket.sum;
            merged.min = merged.min.min(bucket.min);
            merged.max = merged.max.max(bucket.max);
            for (acc, b) in merged.hist.iter_mut().zip(bucket.hist.iter()) {
                *acc += *b;
            }
        }
        drop(ring);
        let secs = self.window_ns as f64 / 1e9;
        let quantile = |q| quantile_from_buckets(&merged.hist, merged.min, merged.max, q);
        WindowStats {
            window_ns: self.window_ns,
            count: merged.count,
            sum: merged.sum,
            rate_per_sec: if secs > 0.0 {
                merged.count as f64 / secs
            } else {
                0.0
            },
            p50_ns: quantile(0.5),
            p99_ns: quantile(0.99),
        }
    }

    /// Sub-bucket width, nanoseconds (exposed for tests).
    pub fn bucket_ns(&self) -> u64 {
        self.bucket_ns
    }
}

/// Nanoseconds on the process-wide monotonic clock all windowed metrics
/// share (anchored at first use).
pub fn mono_now_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    let anchor = *ANCHOR.get_or_init(Instant::now);
    u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_ages_out() {
        let w = RollingWindow::new(Duration::from_secs(10), 10);
        let b = w.bucket_ns();
        w.record_at(b, 100);
        w.record_at(2 * b, 200);
        let s = w.stats_at(2 * b);
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 300);
        // Advance past the window: everything ages out.
        let s = w.stats_at(2 * b + w.window_ns());
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_ns, 0);
    }

    #[test]
    fn partial_expiry_keeps_recent_buckets() {
        let w = RollingWindow::new(Duration::from_secs(10), 10);
        let b = w.bucket_ns();
        w.record_at(b, 100); // epoch 1
        w.record_at(5 * b, 500); // epoch 5
                                 // At epoch 11 the window covers epochs 2..=11: only the second stays.
        let s = w.stats_at(11 * b);
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 500);
    }

    #[test]
    fn stale_slot_is_recycled_in_place() {
        let w = RollingWindow::new(Duration::from_secs(10), 10);
        let b = w.bucket_ns();
        w.record_at(b, 1); // epoch 1 -> slot 1
        w.record_at(11 * b, 2); // epoch 11 -> slot 1 again, recycled
        let s = w.stats_at(11 * b);
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 2);
    }

    #[test]
    fn out_of_window_record_is_dropped() {
        let w = RollingWindow::new(Duration::from_secs(10), 10);
        let b = w.bucket_ns();
        w.record_at(20 * b, 5);
        w.record_at(10 * b, 7); // slot (10 % 10)=0 vs epoch-20 bucket: older, dropped
        let s = w.stats_at(20 * b);
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 5);
    }

    #[test]
    fn clock_skip_empties_the_window() {
        let w = RollingWindow::new(Duration::from_secs(10), 10);
        let b = w.bucket_ns();
        for e in 0..10u64 {
            w.record_at(e * b, e + 1);
        }
        assert_eq!(w.stats_at(9 * b).count, 10);
        // A huge forward skip ages out every bucket at query time even
        // though no record has recycled them yet.
        assert_eq!(w.stats_at(1_000_000 * b).count, 0);
    }

    #[test]
    fn record_far_past_last_epoch_restarts_cleanly() {
        // A loadgen run that stalls (VM pause, debugger, suspend) resumes
        // with `record_at` timestamps thousands of epochs past the last
        // write. The first record after the gap must not drag any pre-gap
        // bucket back into view.
        let w = RollingWindow::new(Duration::from_secs(10), 10);
        let b = w.bucket_ns();
        for e in 0..10u64 {
            w.record_at(e * b, 1_000 * (e + 1));
        }
        assert_eq!(w.stats_at(9 * b).count, 10);
        let far = 1_000_000_007u64 * b;
        w.record_at(far, 42);
        let s = w.stats_at(far);
        assert_eq!(s.count, 1, "only the post-gap record may be visible");
        assert_eq!(s.sum, 42);
        assert_eq!(s.p50_ns, 42);
        assert_eq!(s.p99_ns, 42);
        // A write stamped before the gap must stay outside the live view,
        // not resurrect stale data.
        w.record_at(5 * b, 9_999);
        assert_eq!(w.stats_at(far).sum, 42);
    }

    #[test]
    fn empty_window_stats_after_full_idle_rotation() {
        let w = RollingWindow::new(Duration::from_secs(10), 10);
        let b = w.bucket_ns();
        for e in 0..10u64 {
            w.record_at(e * b, (e + 1) * 100);
        }
        // Idle for exactly one full window after the last write: every
        // bucket has aged out, and the empty aggregate must be all-zero
        // (not u64::MAX min artifacts or stale percentiles).
        let idle = 9 * b + w.window_ns();
        let s = w.stats_at(idle);
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0);
        assert_eq!(s.rate_per_sec, 0.0);
        assert_eq!(s.p50_ns, 0);
        assert_eq!(s.p99_ns, 0);
        // The ring must accept fresh records immediately after the idle
        // rotation.
        w.record_at(idle, 7);
        let s = w.stats_at(idle);
        assert_eq!((s.count, s.sum), (1, 7));
    }

    #[test]
    fn backwards_timestamp_within_window_still_counts() {
        // Writers race: a thread preempted between reading the clock and
        // recording lands a timestamp a few buckets behind the newest
        // write. As long as its epoch is still inside the window it must
        // be kept.
        let w = RollingWindow::new(Duration::from_secs(10), 10);
        let b = w.bucket_ns();
        w.record_at(5 * b, 500);
        w.record_at(3 * b, 300); // older epoch, same ring generation
        let s = w.stats_at(5 * b);
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 800);
    }

    #[test]
    fn windowed_quantiles_interpolate_within_buckets() {
        let w = RollingWindow::new(Duration::from_secs(10), 10);
        let b = w.bucket_ns();
        // Uniformly fill one log2 bucket: (1024, 2048].
        for ns in 1025..=2048u64 {
            w.record_at(b, ns);
        }
        let s = w.stats_at(b);
        assert!(
            (1534..=1538).contains(&s.p50_ns),
            "windowed p50 {} off",
            s.p50_ns
        );
        // Rank 1014 of 1024 interpolates to 2038, the exact order statistic.
        assert_eq!(s.p99_ns, 2038, "windowed p99");
    }

    #[test]
    fn windowed_percentiles_are_plausible() {
        let w = RollingWindow::new(Duration::from_secs(10), 10);
        let b = w.bucket_ns();
        for i in 1..=100u64 {
            w.record_at(b, i * 1_000_000);
        }
        let s = w.stats_at(b);
        assert_eq!(s.count, 100);
        assert!(s.p50_ns >= 1_000_000 && s.p50_ns <= 100_000_000);
        assert!(s.p99_ns >= s.p50_ns);
        assert!((s.rate_per_sec - 10.0).abs() < 1e-9);
    }
}
