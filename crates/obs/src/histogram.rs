//! Fixed-bucket latency histogram and the RAII span timer.

use crate::window::{mono_now_ns, RollingWindow};
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

/// Estimated value at quantile `q` in `[0, 1]` (clamped) from a merged
/// bucket array, in nanoseconds; 0 when every bucket is empty.
///
/// The workspace's one quantile estimator: live histograms, snapshots,
/// rolling windows and everything that exports them (`/debug/vars`,
/// `/metrics`, serve's dispatch) answer through it. It finds the bucket
/// holding the rank-`ceil(q * n)` sample, `n` being the total of
/// `buckets`, then walks linearly from the bucket's lower bound to its
/// upper bound by the rank's position among the bucket's own samples, so
/// p99 and p99.9 stay apart inside one log2 bucket. Bounds are clamped
/// into the observed `[min, max]`, so a fully populated bucket
/// interpolates across exactly the range that was recorded. A `min`
/// above `max`, which a record still in flight can show, yields `max`
/// rather than a panic.
pub(crate) fn quantile_from_buckets(
    buckets: &[u64; BUCKET_COUNT],
    min: u64,
    max: u64,
    q: f64,
) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let into_support = |v: u64| v.max(min).min(max);
    let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut before = 0u64;
    for (i, &bucket) in buckets.iter().enumerate() {
        if bucket == 0 {
            continue;
        }
        if before + bucket >= rank {
            let lo = into_support(if i == 0 { 0 } else { bucket_bound(i - 1) });
            let hi = into_support(bucket_bound(i)).max(lo);
            // Rank position among this bucket's samples, in (0, 1].
            let frac = (rank - before) as f64 / bucket as f64;
            return into_support((lo as f64 + frac * (hi - lo) as f64) as u64);
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

    /// Estimated value at quantile `q` in `[0, 1]` (clamped), in ns — see
    /// [`quantile_from_buckets`].
    fn quantile_ns(&self, q: f64) -> u64 {
        let buckets: [u64; BUCKET_COUNT] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        quantile_from_buckets(
            &buckets,
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
        let max_ns = self.max_ns.load(Ordering::Relaxed);
        HistogramSnapshot {
            name: self.name.clone(),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            // `min_ns` is u64::MAX until the first record lands: a snapshot
            // never carries a minimum above its maximum.
            min_ns: self.min_ns.load(Ordering::Relaxed).min(max_ns),
            max_ns,
            buckets,
            window: self.window.get().map(|w| w.stats_at(mono_now_ns())),
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

    /// Estimated duration at quantile `q` in `[0, 1]` (clamped), from the
    /// workspace's one estimator (within-bucket linear interpolation).
    /// Returns zero for empty or inert histograms.
    pub fn quantile(&self, q: f64) -> Duration {
        self.cell
            .as_ref()
            .map_or(Duration::ZERO, |c| Duration::from_nanos(c.quantile_ns(q)))
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
        let [p50, p90, p99] = [0.5, 0.9, 0.99].map(|q| snap.quantile_ns(q));
        assert!(p50 >= snap.min_ns && p50 <= snap.max_ns);
        assert!(p90 >= p50);
        assert!(p99 >= p90);
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
    }

    #[test]
    fn interpolation_resolves_within_a_single_bucket() {
        // 1024 samples uniformly filling one bucket: (1024, 2048].
        let cell = HistogramCell::new("t".into());
        for ns in 1025..=2048u64 {
            cell.record_ns(ns);
        }
        // Exact nearest-rank p50 is sample #512 = 1536. Linear
        // interpolation lands within rounding of it; a geometric bucket
        // midpoint (~1448) could not.
        let p50 = cell.quantile_ns(0.5);
        assert!((1534..=1538).contains(&p50), "p50 estimate {p50} off");
        // p99.9: rank 1023 of 1024 → exact 2047; interpolation stays in
        // the top of the bucket instead of collapsing to the midpoint.
        let p999 = cell.quantile_ns(0.999);
        assert!((2045..=2048).contains(&p999), "p99.9 estimate {p999} off");
        // A bucket-granularity estimator could not tell p60 from p90 here;
        // the interpolated one must separate them.
        assert!(cell.quantile_ns(0.9) > cell.quantile_ns(0.6));
    }

    #[test]
    fn every_reader_reports_one_number_per_quantile() {
        use crate::{JsonValue, Registry, Snapshot};
        let r = Registry::new();
        r.enable_windows(Duration::from_secs(10), 10);
        let h = r.histogram("h");
        // Spread over thirteen log2 buckets.
        for i in 1..=300u64 {
            h.record_ns(700 + i * i * 37);
        }
        let json = r.snapshot().to_json();
        let fields = JsonValue::parse(&json).unwrap();
        let fields = &fields
            .get("histograms")
            .and_then(JsonValue::as_array)
            .unwrap()[0];
        let back = Snapshot::from_json(&json).unwrap();
        let window = r.snapshot().histogram("h").unwrap().window.unwrap();
        for (q, key, windowed) in [
            (0.5, "p50_ns", Some(window.p50_ns)),
            (0.9, "p90_ns", None),
            (0.99, "p99_ns", Some(window.p99_ns)),
        ] {
            let live = h.quantile(q).as_nanos() as u64;
            let parsed = back.histogram("h").unwrap().quantile_ns(q);
            assert_eq!(parsed, live, "{key}: round-tripped snapshot");
            let written = fields.get(key).and_then(JsonValue::as_u64);
            assert_eq!(written, Some(live), "{key}: JSON field");
            if let Some(windowed) = windowed {
                assert_eq!(windowed, live, "{key}: rolling window");
            }
        }
    }

    #[test]
    fn quantile_edge_cases() {
        let empty = HistogramCell::new("t".into());
        assert_eq!(empty.quantile_ns(0.5), 0);
        let h = Histogram::default();
        assert_eq!(h.quantile(0.99), Duration::ZERO);
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
