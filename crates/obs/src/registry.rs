//! The metric registry and the counter/gauge handle types.

use crate::histogram::{Histogram, HistogramCell, ScopedTimer};
use crate::window::{mono_now_ns, RollingWindow, WindowStats};
use crate::{CounterSnapshot, GaugeSnapshot, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

/// Backing storage for one counter: the cumulative value plus an optional
/// rolling window fed with each increment.
#[derive(Debug, Default)]
pub(crate) struct CounterCell {
    value: AtomicU64,
    window: OnceLock<RollingWindow>,
}

impl CounterCell {
    fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        if let Some(w) = self.window.get() {
            w.record_at(mono_now_ns(), n);
        }
    }

    fn attach_window(&self, window: Duration, sub_buckets: usize) {
        let _ = self.window.set(RollingWindow::new(window, sub_buckets));
    }

    /// The window as of now, its rate that of the summed increments rather
    /// than of the `add` calls.
    fn window_stats(&self) -> Option<WindowStats> {
        let stats = self.window.get()?.stats_at(mono_now_ns());
        let rate_per_sec = stats.sum as f64 / (stats.window_ns as f64 / 1e9);
        Some(WindowStats {
            rate_per_sec,
            ..stats
        })
    }
}

/// Handle to a named monotonic counter. Cheap to clone; inert when obtained
/// from a [`Registry::noop`] registry.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<CounterCell>>,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.add(n);
        }
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for inert handles).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }
}

/// Handle to a named `f64` gauge (last-write-wins, with atomic add for
/// things like queue depths). Cheap to clone; inert from a noop registry.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.cell {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `delta` atomically (compare-and-swap loop).
    pub fn add(&self, delta: f64) {
        if let Some(cell) = &self.cell {
            let mut cur = cell.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + delta).to_bits();
                match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        }
    }

    /// Subtracts `delta` atomically.
    pub fn sub(&self, delta: f64) {
        self.add(-delta);
    }

    /// Current value (0.0 for inert handles).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: RwLock<BTreeMap<String, Arc<CounterCell>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<HistogramCell>>>,
    /// Optional `# HELP` text per metric name (see [`Registry::describe`]).
    descriptions: RwLock<BTreeMap<String, String>>,
    /// Once set, every existing and future counter/histogram gets a rolling
    /// window with these parameters.
    window_config: OnceLock<(Duration, usize)>,
}

/// A clonable handle to a set of named metrics.
///
/// All clones share the same underlying storage, so a registry can be handed
/// to the network, the detector, the trainer and the pipeline and snapshotted
/// once at the end. [`Registry::noop`] yields a registry whose handles are
/// inert: every record path reduces to one `Option` check and no clock read,
/// which keeps instrumented hot paths within noise of uninstrumented ones.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

impl Registry {
    /// A live registry.
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// An inert registry: every handle it yields records nothing.
    pub fn noop() -> Self {
        Registry { inner: None }
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|inner| {
                let cell = Arc::clone(
                    inner
                        .counters
                        .write()
                        .expect("obs registry lock poisoned")
                        .entry(name.to_string())
                        .or_default(),
                );
                if let Some(&(window, sub)) = inner.window_config.get() {
                    cell.attach_window(window, sub);
                }
                cell
            }),
        }
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.inner.as_ref().map(|inner| {
                Arc::clone(
                    inner
                        .gauges
                        .write()
                        .expect("obs registry lock poisoned")
                        .entry(name.to_string())
                        .or_default(),
                )
            }),
        }
    }

    /// Gets or creates the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            cell: self.inner.as_ref().map(|inner| {
                let cell = Arc::clone(
                    inner
                        .histograms
                        .write()
                        .expect("obs registry lock poisoned")
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(HistogramCell::new(name.to_string()))),
                );
                if let Some(&(window, sub)) = inner.window_config.get() {
                    cell.attach_window(window, sub);
                }
                cell
            }),
        }
    }

    /// Starts a span recording into the histogram `name` on drop.
    pub fn timer(&self, name: &str) -> ScopedTimer {
        if self.is_enabled() {
            self.histogram(name).start()
        } else {
            ScopedTimer::inactive()
        }
    }

    /// Point-in-time copy of every metric, sorted by name, each counter and
    /// histogram with its rolling window as of now when
    /// [`Registry::enable_windows`] attached one.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let counters = inner
            .counters
            .read()
            .expect("obs registry lock poisoned")
            .iter()
            .map(|(name, cell)| CounterSnapshot {
                name: name.clone(),
                value: cell.value.load(Ordering::Relaxed),
                window: cell.window_stats(),
            })
            .collect();
        let gauges = inner
            .gauges
            .read()
            .expect("obs registry lock poisoned")
            .iter()
            .map(|(name, cell)| GaugeSnapshot {
                name: name.clone(),
                value: f64::from_bits(cell.load(Ordering::Relaxed)),
            })
            .collect();
        let histograms = inner
            .histograms
            .read()
            .expect("obs registry lock poisoned")
            .values()
            .map(|cell| cell.snapshot())
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Attaches a rolling time window of length `window` (split into
    /// `sub_buckets` ring buckets) to every existing and future counter and
    /// histogram in this registry.
    ///
    /// Each window is read back in its metric's [`Registry::snapshot`]
    /// entry and exported next to the cumulative values by
    /// [`PromExporter`](crate::PromExporter). The first call wins; later
    /// calls (and calls on a noop registry) are no-ops. Metrics record into
    /// their window on the same code path as the cumulative cells, so the
    /// cost when windows are disabled is a single `OnceLock` load.
    pub fn enable_windows(&self, window: Duration, sub_buckets: usize) {
        let Some(inner) = &self.inner else { return };
        if inner.window_config.set((window, sub_buckets)).is_err() {
            return;
        }
        for cell in inner
            .counters
            .read()
            .expect("obs registry lock poisoned")
            .values()
        {
            cell.attach_window(window, sub_buckets);
        }
        for cell in inner
            .histograms
            .read()
            .expect("obs registry lock poisoned")
            .values()
        {
            cell.attach_window(window, sub_buckets);
        }
    }

    /// Registers `# HELP` text for the metric `name`, rendered by
    /// [`PromExporter`](crate::PromExporter) ahead of the `# TYPE` line.
    /// Last write wins; noop registries ignore it.
    pub fn describe(&self, name: &str, help: &str) {
        if let Some(inner) = &self.inner {
            inner
                .descriptions
                .write()
                .expect("obs registry lock poisoned")
                .insert(name.to_string(), help.to_string());
        }
    }

    /// All registered metric descriptions, keyed by metric name.
    pub fn descriptions(&self) -> BTreeMap<String, String> {
        self.inner.as_ref().map_or_else(BTreeMap::new, |inner| {
            inner
                .descriptions
                .read()
                .expect("obs registry lock poisoned")
                .clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.counter("c").get(), 5, "same name shares storage");
        let g = r.gauge("g");
        g.set(2.5);
        g.add(1.0);
        g.sub(0.5);
        assert!((g.get() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn noop_registry_is_inert() {
        let r = Registry::noop();
        assert!(!r.is_enabled());
        let c = r.counter("c");
        c.add(10);
        assert_eq!(c.get(), 0);
        r.histogram("h").record(Duration::from_millis(1));
        let _span = r.timer("h");
        drop(_span);
        assert_eq!(r.snapshot(), Snapshot::default());
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("b").inc();
        r.counter("a").inc();
        r.gauge("z").set(1.0);
        r.histogram("h").record(Duration::from_micros(10));
        let snap = r.snapshot();
        assert_eq!(
            snap.counters
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].count, 1);
    }

    #[test]
    fn concurrent_records_are_not_lost() {
        let r = Registry::new();
        let h = r.histogram("h");
        let c = r.counter("c");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record_ns(i * 100 + 1);
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
    }
}
