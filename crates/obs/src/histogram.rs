//! Fixed-bucket latency histogram and the RAII span timer.

use crate::window::{mono_now_ns, RollingWindow, WindowStats};
use crate::{BucketCount, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Number of buckets: powers of two from 64 ns up to ~68.7 s, plus one
/// overflow bucket. Chosen so a single conv-layer forward (microseconds) and
/// a whole training epoch (tens of seconds) land in distinct buckets.
pub const BUCKET_COUNT: usize = 31;

/// Smallest bucket upper bound, nanoseconds.
const FIRST_BOUND_NS: u64 = 64;

/// Inclusive upper bound of bucket `i` in nanoseconds.
pub(crate) fn bucket_bound(i: usize) -> u64 {
    if i + 1 >= BUCKET_COUNT {
        u64::MAX
    } else {
        FIRST_BOUND_NS << i
    }
}

/// Bucket index for a value in nanoseconds.
pub(crate) fn bucket_index(ns: u64) -> usize {
    if ns <= FIRST_BOUND_NS {
        return 0;
    }
    // First i with 64 << i >= ns, i.e. ceil(log2(ns / 64)).
    let i = (64 - (ns - 1).leading_zeros()) as usize - FIRST_BOUND_NS.trailing_zeros() as usize;
    i.min(BUCKET_COUNT - 1)
}

/// Estimated value at percentile `p` in `[0, 100]` (clamped) from a merged
/// bucket array, in nanoseconds.
///
/// Shared by the cumulative [`HistogramCell`] and the rolling-window
/// aggregation so windowed and lifetime percentiles use identical
/// estimation: the geometric midpoint of the bucket holding the
/// rank-`ceil(p/100 * count)` sample, clamped into the observed
/// `[min, max]` support.
pub(crate) fn percentile_from_buckets(
    buckets: &[u64; BUCKET_COUNT],
    count: u64,
    min: u64,
    max: u64,
    p: f64,
) -> u64 {
    if count == 0 {
        return 0;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
    let mut cumulative = 0u64;
    for (i, &bucket) in buckets.iter().enumerate() {
        cumulative += bucket;
        if cumulative >= rank {
            let hi = bucket_bound(i).min(max);
            let lo = if i == 0 { 0 } else { bucket_bound(i - 1) }.max(min);
            // Geometric midpoint of the bucket (buckets are log-spaced).
            let mid = (((lo.max(1) as f64) * (hi.max(1) as f64)).sqrt()) as u64;
            return mid.clamp(min, max);
        }
    }
    max
}

/// Estimated value at quantile `q` in `[0, 1]` (clamped) from a merged
/// bucket array, in nanoseconds — with **within-bucket linear
/// interpolation**.
///
/// [`percentile_from_buckets`] answers at bucket granularity (the
/// geometric midpoint of the rank's bucket), which is fine for p50/p99
/// dashboards but useless for tail quantiles like p99.9: every estimate
/// inside one log2 bucket collapses to the same value. Here the bucket
/// holding the rank-`ceil(q * count)` sample is located the same way,
/// then the estimate walks linearly from the bucket's lower bound to its
/// upper bound according to the rank's position among the bucket's own
/// samples. Bounds are clamped into the observed `[min, max]` support, so
/// a fully-populated bucket interpolates across exactly the range that
/// was recorded.
pub(crate) fn quantile_from_buckets(
    buckets: &[u64; BUCKET_COUNT],
    count: u64,
    min: u64,
    max: u64,
    q: f64,
) -> u64 {
    if count == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * count as f64).ceil().max(1.0) as u64;
    let mut before = 0u64;
    for (i, &bucket) in buckets.iter().enumerate() {
        if bucket == 0 {
            continue;
        }
        if before + bucket >= rank {
            let lo = (if i == 0 { 0 } else { bucket_bound(i - 1) }).clamp(min, max);
            let hi = bucket_bound(i).clamp(lo, max);
            // Rank position among this bucket's samples, in (0, 1].
            let frac = (rank - before) as f64 / bucket as f64;
            let est = lo as f64 + frac * (hi - lo) as f64;
            return (est as u64).clamp(min, max);
        }
        before += bucket;
    }
    max
}

#[derive(Debug)]
pub(crate) struct HistogramCell {
    pub(crate) name: String,
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; BUCKET_COUNT],
    /// Optional rolling window; attached once via
    /// [`Registry::enable_windows`](crate::Registry::enable_windows). When
    /// absent the record-path cost is one `OnceLock` load.
    window: OnceLock<RollingWindow>,
}

impl HistogramCell {
    pub(crate) fn new(name: String) -> Self {
        HistogramCell {
            name,
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            window: OnceLock::new(),
        }
    }

    fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        if let Some(w) = self.window.get() {
            w.record_at(mono_now_ns(), ns);
        }
    }

    /// Attaches a rolling window (first caller wins; later calls are
    /// no-ops, so re-enabling with different parameters cannot tear).
    pub(crate) fn attach_window(&self, window: Duration, sub_buckets: usize) {
        let _ = self.window.set(RollingWindow::new(window, sub_buckets));
    }

    /// Windowed aggregate as of now, if a window is attached.
    pub(crate) fn window_stats(&self) -> Option<WindowStats> {
        self.window.get().map(|w| w.stats_at(mono_now_ns()))
    }

    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// Estimated value at percentile `p` in `[0, 100]` (clamped), in ns.
    ///
    /// The estimate is the geometric midpoint of the bucket holding the
    /// rank-`ceil(p/100 * count)` sample, clamped into the recorded
    /// `[min, max]` range so estimates never leave the observed support.
    fn percentile_ns(&self, p: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        let buckets: [u64; BUCKET_COUNT] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        percentile_from_buckets(
            &buckets,
            count,
            self.min_ns.load(Ordering::Relaxed),
            self.max_ns.load(Ordering::Relaxed),
            p,
        )
    }

    /// Estimated value at quantile `q` in `[0, 1]` (clamped), in ns, with
    /// within-bucket linear interpolation — see [`quantile_from_buckets`].
    fn quantile_ns(&self, q: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        let buckets: [u64; BUCKET_COUNT] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        quantile_from_buckets(
            &buckets,
            count,
            self.min_ns.load(Ordering::Relaxed),
            self.max_ns.load(Ordering::Relaxed),
            q,
        )
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let count = b.load(Ordering::Relaxed);
                (count > 0).then_some(BucketCount {
                    le_ns: bucket_bound(i),
                    count,
                })
            })
            .collect();
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            name: self.name.clone(),
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            min_ns: if count == 0 {
                0
            } else {
                self.min_ns.load(Ordering::Relaxed)
            },
            max_ns: self.max_ns.load(Ordering::Relaxed),
            p50_ns: self.percentile_ns(50.0),
            p90_ns: self.percentile_ns(90.0),
            p99_ns: self.percentile_ns(99.0),
            buckets,
        }
    }
}

/// Handle to a named latency histogram.
///
/// Cheap to clone; a handle from a [`noop`](crate::Registry::noop) registry
/// is inert — its record path is a single `None` check and no clock read.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    pub(crate) cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// Records one duration.
    pub fn record(&self, d: Duration) {
        if let Some(cell) = &self.cell {
            cell.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    /// Records one duration given in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        if let Some(cell) = &self.cell {
            cell.record_ns(ns);
        }
    }

    /// Starts a span that records its lifetime on drop.
    ///
    /// On an inert handle no clock is read.
    pub fn start(&self) -> ScopedTimer {
        ScopedTimer {
            span: self.cell.as_ref().map(|c| (Arc::clone(c), Instant::now())),
        }
    }

    /// Number of recorded samples (0 for inert handles).
    pub fn count(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Mean recorded duration (zero when empty).
    pub fn mean(&self) -> Duration {
        match &self.cell {
            Some(c) => {
                let n = c.count.load(Ordering::Relaxed);
                c.sum_ns
                    .load(Ordering::Relaxed)
                    .checked_div(n)
                    .map_or(Duration::ZERO, Duration::from_nanos)
            }
            None => Duration::ZERO,
        }
    }

    /// Estimated duration at percentile `p` in `[0, 100]` (clamped).
    pub fn percentile(&self, p: f64) -> Duration {
        self.cell
            .as_ref()
            .map_or(Duration::ZERO, |c| Duration::from_nanos(c.percentile_ns(p)))
    }

    /// Estimated duration at quantile `q` in `[0, 1]` (clamped), using
    /// within-bucket linear interpolation.
    ///
    /// Unlike [`Histogram::percentile`] — which answers at bucket
    /// granularity and therefore cannot distinguish p99 from p99.9 once
    /// both ranks land in the same log2 bucket — this walks linearly
    /// through the target bucket, so deep-tail quantiles move smoothly
    /// with the data. Returns zero for empty or inert histograms.
    pub fn quantile(&self, q: f64) -> Duration {
        self.cell
            .as_ref()
            .map_or(Duration::ZERO, |c| Duration::from_nanos(c.quantile_ns(q)))
    }

    /// Estimated durations at each quantile in `qs` (each clamped to
    /// `[0, 1]`), using within-bucket linear interpolation.
    ///
    /// The caller picks the quantile set — e.g. `&[0.5, 0.99, 0.999]` for
    /// an SLO dashboard — instead of being limited to the hard-coded
    /// p50/p90/p99 of [`HistogramSnapshot`](crate::HistogramSnapshot).
    pub fn quantiles(&self, qs: &[f64]) -> Vec<Duration> {
        qs.iter().map(|&q| self.quantile(q)).collect()
    }
}

/// RAII span guard: records the time between creation and drop into its
/// histogram. Obtained from [`Histogram::start`] or
/// [`Registry::timer`](crate::Registry::timer).
#[derive(Debug)]
pub struct ScopedTimer {
    span: Option<(Arc<HistogramCell>, Instant)>,
}

impl ScopedTimer {
    /// An inert timer that records nothing (used by noop registries).
    pub fn inactive() -> Self {
        ScopedTimer { span: None }
    }

    /// Stops the span now, recording its duration.
    pub fn stop(self) {
        drop(self);
    }

    /// Stops the span without recording anything.
    pub fn cancel(mut self) {
        self.span = None;
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        if let Some((cell, t0)) = self.span.take() {
            cell.record_ns(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotone_and_bounded() {
        let mut prev = 0;
        for ns in [0u64, 1, 63, 64, 65, 1_000, 1_000_000, u64::MAX] {
            let idx = bucket_index(ns);
            assert!(idx >= prev, "index not monotone at {ns}");
            assert!(idx < BUCKET_COUNT);
            assert!(ns <= bucket_bound(idx), "{ns} above bound of bucket {idx}");
            if idx > 0 {
                assert!(ns > bucket_bound(idx - 1), "{ns} fits an earlier bucket");
            }
            prev = idx;
        }
    }

    #[test]
    fn record_and_percentiles() {
        let cell = HistogramCell::new("t".into());
        for ms in 1..=100u64 {
            cell.record_ns(ms * 1_000_000);
        }
        let snap = cell.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.min_ns, 1_000_000);
        assert_eq!(snap.max_ns, 100_000_000);
        assert!(snap.p50_ns >= snap.min_ns && snap.p50_ns <= snap.max_ns);
        assert!(snap.p90_ns >= snap.p50_ns);
        assert!(snap.p99_ns >= snap.p90_ns);
    }

    /// Exact quantile of a sorted sample set by the same nearest-rank
    /// convention the estimator targets: the rank-`ceil(q * n)` sample.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil().max(1.0) as usize).min(sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn interpolated_quantiles_track_an_exact_sorted_oracle() {
        // Deterministic LCG samples spanning several log2 buckets.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut samples: Vec<u64> = (0..4096)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                1_000 + (state >> 40) % 4_000_000
            })
            .collect();
        let cell = HistogramCell::new("t".into());
        for &s in &samples {
            cell.record_ns(s);
        }
        samples.sort_unstable();
        let h = Histogram {
            cell: Some(Arc::new(HistogramCell::new("h".into()))),
        };
        for &s in &samples {
            h.record_ns(s);
        }
        let mut prev = 0u64;
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&samples, q);
            let est = cell.quantile_ns(q);
            // Log2 buckets bound the within-bucket error to a factor of 2
            // of the exact order statistic.
            assert!(
                est >= exact / 2 && est <= exact.saturating_mul(2),
                "q={q}: estimate {est} not within 2x of exact {exact}"
            );
            assert!(est >= prev, "quantiles must be monotone in q");
            assert_eq!(h.quantile(q).as_nanos() as u64, est);
            prev = est;
        }
        assert_eq!(
            cell.quantile_ns(1.0),
            *samples.last().unwrap(),
            "q=1.0 must clamp to the observed max"
        );
        let multi = h.quantiles(&[0.5, 0.99, 0.999]);
        assert_eq!(multi.len(), 3);
        assert!(multi[0] <= multi[1] && multi[1] <= multi[2]);
    }

    #[test]
    fn interpolation_resolves_within_a_single_bucket() {
        // 1024 samples uniformly filling one bucket: (1024, 2048].
        let cell = HistogramCell::new("t".into());
        for ns in 1025..=2048u64 {
            cell.record_ns(ns);
        }
        // Exact nearest-rank p50 is sample #512 = 1536. Linear
        // interpolation lands within rounding of it; the old geometric
        // bucket midpoint (~1448) cannot.
        let p50 = cell.quantile_ns(0.5);
        assert!((1534..=1538).contains(&p50), "p50 estimate {p50} off");
        // p99.9: rank 1023 of 1024 → exact 2047; interpolation stays in
        // the top of the bucket instead of collapsing to the midpoint.
        let p999 = cell.quantile_ns(0.999);
        assert!((2045..=2048).contains(&p999), "p99.9 estimate {p999} off");
        // The bucket-granularity estimator cannot tell p60 from p90 here;
        // the interpolated one must separate them.
        assert!(cell.quantile_ns(0.9) > cell.quantile_ns(0.6));
        assert_eq!(cell.percentile_ns(90.0), cell.percentile_ns(60.0));
    }

    #[test]
    fn quantile_edge_cases() {
        let empty = HistogramCell::new("t".into());
        assert_eq!(empty.quantile_ns(0.5), 0);
        let h = Histogram::default();
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert!(h.quantiles(&[0.5, 0.999]).iter().all(|d| d.is_zero()));
        let one = HistogramCell::new("t".into());
        one.record_ns(777);
        for q in [0.0, 0.5, 1.0, 7.0, -3.0] {
            assert_eq!(one.quantile_ns(q), 777, "single sample at q={q}");
        }
    }

    #[test]
    fn inert_handle_records_nothing() {
        let h = Histogram::default();
        h.record(Duration::from_millis(5));
        let _t = h.start();
        drop(_t);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn scoped_timer_records_on_drop() {
        let cell = Arc::new(HistogramCell::new("t".into()));
        let h = Histogram {
            cell: Some(Arc::clone(&cell)),
        };
        {
            let _span = h.start();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        assert!(h.mean() >= Duration::from_millis(1));
        h.start().cancel();
        assert_eq!(h.count(), 1, "cancelled span must not record");
    }
}
