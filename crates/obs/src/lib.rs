//! # dronet-obs
//!
//! Zero-dependency telemetry for the DroNet reproduction. The paper's whole
//! contribution is *measured* — FPS, per-platform latency and the weighted
//! Score metric are its deliverables — so the stack needs visibility into
//! where milliseconds go inside a forward pass, a pipeline stage or a
//! training step, not just whole-frame timing.
//!
//! * [`Registry`] — a clonable handle to a set of named [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket latency [`Histogram`]s. `Registry::noop()`
//!   yields inert handles whose record paths are a single branch, so
//!   instrumented code can keep its instrumentation unconditionally.
//! * [`ScopedTimer`] — RAII span guard recording its lifetime into a
//!   histogram on drop; created via [`Registry::timer`] or
//!   [`Histogram::start`].
//! * [`Snapshot`] — a point-in-time copy of every metric, each counter and
//!   histogram with its rolling window when windows are enabled, exported
//!   with [`Snapshot::to_json`] or [`PromExporter`] and re-imported with
//!   [`Snapshot::from_json`] for round-trip tests.
//! * [`JsonWriter`] / [`JsonValue`] — the workspace's one JSON writer and
//!   one reader (no serde). Every JSON body in `obs` and `serve` — the
//!   snapshot and its windows, Chrome traces, `/detect` replies —
//!   streams through the writer in one compact layout, and the reader
//!   parses it back.
//! * [`Tracer`] — the flight recorder: nested spans and instant events in
//!   fixed-capacity per-thread ring buffers, each carrying a `frame_id`
//!   trace context; merged snapshots export to Chrome/Perfetto
//!   `trace.json` via [`ChromeTrace`] or a plain-text timeline via
//!   [`TraceSnapshot::to_text`]. `Tracer::noop()` is a single branch, so
//!   instrumentation can stay in release builds.
//! * [`Health`] / [`HealthCell`] / [`BlackBox`] — the supervision
//!   vocabulary shared by the detect, serve and train supervisors: one
//!   `Healthy → Degraded → Halted` ratchet mirrored into a gauge, one
//!   crash-capture shape.
//!
//! # Example
//!
//! ```
//! use dronet_obs::Registry;
//! use std::time::Duration;
//!
//! let obs = Registry::new();
//! obs.counter("frames").add(3);
//! obs.gauge("queue_depth").set(1.0);
//! {
//!     let _span = obs.timer("stage.decode"); // records on drop
//! }
//! obs.histogram("stage.nms").record(Duration::from_micros(250));
//! let snapshot = obs.snapshot();
//! assert_eq!(snapshot.counters[0].value, 3);
//! let json = snapshot.to_json();
//! assert!(json.contains("stage.nms"));
//! ```

// `deny` rather than `forbid`: the allocator module is the one deliberate
// exception (implementing `GlobalAlloc` requires `unsafe`) and carries its
// own scoped `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
mod chrome;
mod health;
mod histogram;
mod json;
mod prom;
mod registry;
mod trace;
pub mod window;

pub use alloc::{AllocDelta, AllocScope, AllocStats, CountingAlloc};
pub use chrome::{ChromeEvent, ChromeTrace, CHROME_TRACE_PID};
pub use health::{
    BlackBox, Clock, Health, HealthCell, RecoveryClock, RestartBudget, BLACK_BOX_EVENTS,
};
pub use histogram::{Histogram, ScopedTimer, BUCKET_COUNT};
pub use json::{format_f64, JsonParseError, JsonValue, JsonWriter, ToJson};
pub use prom::PromExporter;
pub use registry::{Counter, Gauge, Registry};
pub use trace::{
    TraceEvent, TraceKind, TraceSnapshot, TraceSpan, Tracer, DEFAULT_TRACE_CAPACITY, NO_AUX,
};
pub use window::{RollingWindow, WindowStats};

use std::time::Duration;

/// Point-in-time copy of one counter.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
    /// The rolling window as of the snapshot, when
    /// [`Registry::enable_windows`] attached one: `sum` is the increment
    /// inside the window and `rate_per_sec` its per-second rate.
    pub window: Option<WindowStats>,
}

/// Point-in-time copy of one gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Last set value.
    pub value: f64,
}

/// One occupied histogram bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket, in nanoseconds.
    pub le_ns: u64,
    /// Samples that fell into this bucket.
    pub count: u64,
}

/// Point-in-time copy of one histogram. Quantiles are computed from the
/// buckets on demand ([`HistogramSnapshot::quantile_ns`]), never stored.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all recorded values, nanoseconds.
    pub sum_ns: u64,
    /// Smallest recorded value, nanoseconds (0 when empty).
    pub min_ns: u64,
    /// Largest recorded value, nanoseconds (0 when empty).
    pub max_ns: u64,
    /// Occupied buckets in ascending bound order.
    pub buckets: Vec<BucketCount>,
    /// The rolling window as of the snapshot, when
    /// [`Registry::enable_windows`] attached one.
    pub window: Option<WindowStats>,
}

impl HistogramSnapshot {
    /// Mean recorded value (zero when empty).
    pub fn mean(&self) -> Duration {
        self.sum_ns
            .checked_div(self.count)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Estimated value at quantile `q` in `[0, 1]` (clamped), nanoseconds:
    /// the same estimator, and so the same number, as
    /// [`Histogram::quantile`] on the live histogram, usable on parsed or
    /// round-tripped snapshots where the live cell is gone.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let mut dense = [0u64; BUCKET_COUNT];
        for b in &self.buckets {
            dense[histogram::bucket_index(b.le_ns)] += b.count;
        }
        histogram::quantile_from_buckets(&dense, self.min_ns, self.max_ns, q)
    }
}

/// A point-in-time copy of every metric in a [`Registry`].
///
/// Metric vectors are sorted by name, so exports are deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All counters.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}
