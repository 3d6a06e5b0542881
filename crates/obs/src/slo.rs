//! Service-level objectives with multi-window burn-rate evaluation.
//!
//! A metric says what *is*; an SLO says what is *acceptable*. This module
//! turns declared objectives — "99% of successful requests complete under
//! 250 ms", "99.9% of requests are served" — into live verdicts computed
//! over the same [`RollingWindow`] machinery the rest of the registry
//! uses, so SLO state needs no new aggregation substrate, no allocation
//! after construction, and no background thread.
//!
//! Evaluation follows the multi-window burn-rate pattern: each objective
//! tracks a short and a long window of good/bad events, and the *burn
//! rate* of a window is its observed bad-event ratio divided by the error
//! budget (`1 − target`). Burn 1.0 means the budget is being consumed
//! exactly as fast as it refills; burn 10 means ten times too fast. An
//! objective is **breached** only when *both* windows burn above the alert
//! threshold — the long window supplies evidence the problem is real, the
//! short window confirms it is still happening, and requiring both
//! suppresses flapping on short blips and on long-ago incidents alike.
//!
//! Timestamps are caller-supplied (like `RollingWindow` itself) so the
//! whole layer is deterministic under test; the convenience methods
//! without `_at` use the shared monotonic clock.
//!
//! ```
//! use dronet_obs::{Registry, SloSet, SloSpec};
//! use std::time::Duration;
//!
//! let slos = SloSet::new(vec![
//!     SloSpec::latency("detect_latency", Duration::from_millis(250), 0.99),
//!     SloSpec::availability("detect_availability", 0.999),
//! ]);
//! slos.record(Duration::from_millis(3), true); // fast success: no burn
//! let status = slos.statuses();
//! assert!(!status[0].breached && !status[1].breached);
//! let obs = Registry::new();
//! slos.publish(&obs); // burn-rate gauges appear in /metrics
//! assert!(obs.snapshot().gauge("slo.detect_latency.burn_rate_short").is_some());
//! ```

use crate::json::{format_f64, to_json, JsonWriter};
use crate::window::{mono_now_ns, RollingWindow};
use crate::Registry;
use std::sync::Arc;
use std::time::Duration;

/// What a single [`SloSpec`] promises.
#[derive(Debug, Clone, PartialEq)]
pub enum SloObjective {
    /// At least `target` of *successful* requests complete within
    /// `threshold`. Failed requests are excluded — they are charged to the
    /// availability objective instead, so one slow outage does not burn
    /// two budgets for the same root cause.
    LatencyUnder {
        /// Latency budget per request.
        threshold: Duration,
        /// Required fraction of in-budget requests, in `(0, 1)`.
        target: f64,
    },
    /// At least `target` of all requests are served without a server-side
    /// failure, in `(0, 1)`.
    Availability {
        /// Required fraction of served requests, in `(0, 1)`.
        target: f64,
    },
}

impl SloObjective {
    fn target(&self) -> f64 {
        match self {
            SloObjective::LatencyUnder { target, .. } => *target,
            SloObjective::Availability { target } => *target,
        }
    }

    /// Human-readable statement of the objective.
    fn describe(&self) -> String {
        match self {
            SloObjective::LatencyUnder { threshold, target } => {
                format!(
                    "P(success latency <= {:?}) >= {}",
                    threshold,
                    format_f64(*target)
                )
            }
            SloObjective::Availability { target } => {
                format!("P(served) >= {}", format_f64(*target))
            }
        }
    }

    /// Classifies one request against this objective: `Some(true)` = bad
    /// event, `Some(false)` = good event, `None` = not counted.
    fn classify(&self, latency_ns: u64, success: bool) -> Option<bool> {
        match self {
            SloObjective::LatencyUnder { threshold, .. } => {
                let budget_ns = u64::try_from(threshold.as_nanos()).unwrap_or(u64::MAX);
                success.then_some(latency_ns > budget_ns)
            }
            SloObjective::Availability { .. } => Some(!success),
        }
    }
}

/// Fast-signal window: confirms the problem is still happening.
const SHORT_WINDOW: Duration = Duration::from_secs(10);
/// Evidence window: confirms the problem is material.
const LONG_WINDOW: Duration = Duration::from_secs(60);
/// Ring sub-buckets per window.
const SUB_BUCKETS: usize = 10;
/// Burn-rate threshold; breach requires **both** windows at or above it.
const BURN_ALERT: f64 = 2.0;

/// One declared objective, evaluated over a 10 s short and a 60 s long
/// window (10 sub-buckets each) with an alert at burn 2.0.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Objective name; lives in gauge names (`slo.<name>.burn_rate_short`)
    /// and the `slo` member of `/debug/vars`.
    pub name: String,
    /// The promise itself.
    pub objective: SloObjective,
}

impl SloSpec {
    /// Latency objective.
    ///
    /// # Panics
    ///
    /// Panics unless `target` is in `(0, 1)`.
    pub fn latency(name: &str, threshold: Duration, target: f64) -> Self {
        SloSpec::with_defaults(name, SloObjective::LatencyUnder { threshold, target })
    }

    /// Availability objective.
    ///
    /// # Panics
    ///
    /// Panics unless `target` is in `(0, 1)`.
    pub fn availability(name: &str, target: f64) -> Self {
        SloSpec::with_defaults(name, SloObjective::Availability { target })
    }

    fn with_defaults(name: &str, objective: SloObjective) -> Self {
        let target = objective.target();
        assert!(
            target > 0.0 && target < 1.0,
            "SLO target must be in (0, 1), got {target}"
        );
        SloSpec {
            name: name.to_string(),
            objective,
        }
    }

    /// Error budget: the tolerable bad-event fraction, `1 − target`.
    pub fn error_budget(&self) -> f64 {
        1.0 - self.objective.target()
    }
}

/// Burn state of one evaluation window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BurnWindow {
    /// Window length, nanoseconds.
    pub window_ns: u64,
    /// Events counted inside the window.
    pub events: u64,
    /// Bad events inside the window.
    pub bad: u64,
    /// `bad / events` (0 when the window is empty).
    pub bad_ratio: f64,
    /// `bad_ratio / error_budget` — 1.0 consumes the budget exactly at the
    /// sustainable rate.
    pub burn_rate: f64,
}

/// Point-in-time verdict for one objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Objective name.
    pub name: String,
    /// Human-readable objective statement.
    pub objective: String,
    /// Required good fraction.
    pub target: f64,
    /// Tolerable bad fraction, `1 − target`.
    pub error_budget: f64,
    /// Burn-rate threshold for alerting.
    pub burn_alert: f64,
    /// Fast-signal window state.
    pub short: BurnWindow,
    /// Evidence window state.
    pub long: BurnWindow,
    /// Whether both windows burn at or above `burn_alert`.
    pub breached: bool,
}

/// One objective bound to its pair of rolling windows.
#[derive(Debug)]
struct Slo {
    spec: SloSpec,
    short: RollingWindow,
    long: RollingWindow,
}

impl Slo {
    fn new(spec: SloSpec) -> Self {
        let short = RollingWindow::new(SHORT_WINDOW, SUB_BUCKETS);
        let long = RollingWindow::new(LONG_WINDOW, SUB_BUCKETS);
        Slo { spec, short, long }
    }

    fn record_at(&self, now_ns: u64, latency_ns: u64, success: bool) {
        if let Some(bad) = self.spec.objective.classify(latency_ns, success) {
            let v = u64::from(bad);
            self.short.record_at(now_ns, v);
            self.long.record_at(now_ns, v);
        }
    }

    fn burn_at(&self, window: &RollingWindow, now_ns: u64) -> BurnWindow {
        let stats = window.stats_at(now_ns);
        let bad_ratio = if stats.count == 0 {
            0.0
        } else {
            stats.sum as f64 / stats.count as f64
        };
        let budget = self.spec.error_budget();
        BurnWindow {
            window_ns: stats.window_ns,
            events: stats.count,
            bad: stats.sum,
            bad_ratio,
            burn_rate: if budget > 0.0 {
                bad_ratio / budget
            } else {
                0.0
            },
        }
    }

    fn status_at(&self, now_ns: u64) -> SloStatus {
        let short = self.burn_at(&self.short, now_ns);
        let long = self.burn_at(&self.long, now_ns);
        SloStatus {
            name: self.spec.name.clone(),
            objective: self.spec.objective.describe(),
            target: self.spec.objective.target(),
            error_budget: self.spec.error_budget(),
            burn_alert: BURN_ALERT,
            breached: short.burn_rate >= BURN_ALERT && long.burn_rate >= BURN_ALERT,
            short,
            long,
        }
    }
}

/// A set of objectives fed from one request stream.
///
/// Cheap to clone (the objectives are shared); an empty set is inert and
/// records nothing.
#[derive(Debug, Clone, Default)]
pub struct SloSet {
    slos: Arc<Vec<Slo>>,
}

impl SloSet {
    /// Builds the set from declared objectives.
    pub fn new(specs: Vec<SloSpec>) -> Self {
        SloSet {
            slos: Arc::new(specs.into_iter().map(Slo::new).collect()),
        }
    }

    /// Whether the set holds no objectives.
    pub fn is_empty(&self) -> bool {
        self.slos.is_empty()
    }

    /// Number of objectives.
    pub fn len(&self) -> usize {
        self.slos.len()
    }

    /// Records one request outcome against every objective at an explicit
    /// timestamp (nanoseconds on any monotonic scale). `success` means "no
    /// server-side failure".
    pub fn record_at(&self, now_ns: u64, latency_ns: u64, success: bool) {
        for slo in self.slos.iter() {
            slo.record_at(now_ns, latency_ns, success);
        }
    }

    /// Records one request outcome on the shared monotonic clock.
    pub fn record(&self, latency: Duration, success: bool) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.record_at(mono_now_ns(), ns, success);
    }

    /// Verdicts for every objective at an explicit timestamp.
    pub fn statuses_at(&self, now_ns: u64) -> Vec<SloStatus> {
        self.slos.iter().map(|s| s.status_at(now_ns)).collect()
    }

    /// Verdicts for every objective now.
    pub fn statuses(&self) -> Vec<SloStatus> {
        self.statuses_at(mono_now_ns())
    }

    /// Publishes per-objective gauges into `registry` at an explicit
    /// timestamp: `slo.<name>.burn_rate_short`, `slo.<name>.burn_rate_long`
    /// and `slo.<name>.breached` (1.0 breached / 0.0 healthy). Rendered by
    /// [`PromExporter`](crate::PromExporter) like any other gauge, which
    /// puts burn rates on `/metrics` with no exporter-side special-casing.
    pub fn publish_at(&self, registry: &Registry, now_ns: u64) {
        for status in self.statuses_at(now_ns) {
            registry
                .gauge(&format!("slo.{}.burn_rate_short", status.name))
                .set(status.short.burn_rate);
            registry
                .gauge(&format!("slo.{}.burn_rate_long", status.name))
                .set(status.long.burn_rate);
            registry
                .gauge(&format!("slo.{}.breached", status.name))
                .set(if status.breached { 1.0 } else { 0.0 });
        }
    }

    /// Publishes per-objective gauges as of now.
    pub fn publish(&self, registry: &Registry) {
        self.publish_at(registry, mono_now_ns());
    }

    /// Writes every verdict at an explicit timestamp as one JSON object:
    /// `{"slos":[...]}`, one [`SloStatus`] each.
    fn write_json_at(&self, w: &mut JsonWriter<'_>, now_ns: u64) {
        crate::json_object!(w, "slos" => self.statuses_at(now_ns));
    }
}

// Every verdict as of now: the `slo` member of the server's `/debug/vars`.
to_json!(SloSet => |s, w| s.write_json_at(w, mono_now_ns()));
to_json!(SloStatus => |s, w| crate::json_object!(w, "name" => &s.name,
    "objective" => &s.objective, "target" => s.target, "error_budget" => s.error_budget,
    "burn_alert" => s.burn_alert, "short" => &s.short, "long" => &s.long,
    "breached" => s.breached));
to_json!(BurnWindow => |b, w| crate::json_object!(w, "window_ns" => b.window_ns,
    "events" => b.events, "bad" => b.bad, "bad_ratio" => b.bad_ratio,
    "burn_rate" => b.burn_rate));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JsonValue, PromExporter, ToJson};
    use std::collections::BTreeMap;

    fn set() -> SloSet {
        SloSet::new(vec![
            SloSpec::latency("lat", Duration::from_millis(10), 0.99),
            SloSpec::availability("avail", 0.999),
        ])
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn healthy_traffic_burns_nothing() {
        let s = set();
        for i in 0..100u64 {
            s.record_at(i * MS, 2 * MS, true);
        }
        for status in s.statuses_at(100 * MS) {
            assert_eq!(status.short.burn_rate, 0.0, "{}", status.name);
            assert_eq!(status.long.burn_rate, 0.0, "{}", status.name);
            assert!(!status.breached);
        }
    }

    #[test]
    fn latency_breaches_only_when_both_windows_burn() {
        let s = SloSet::new(vec![SloSpec::latency(
            "lat",
            Duration::from_millis(10),
            0.99,
        )]);
        // 100 successes, 10 of them over-budget: bad ratio 0.1, budget
        // 0.01 → burn 10 on both windows (all inside 10 s).
        for i in 0..100u64 {
            let latency = if i < 10 { 20 * MS } else { 2 * MS };
            s.record_at(i * MS, latency, true);
        }
        let status = &s.statuses_at(100 * MS)[0];
        assert!((status.short.burn_rate - 10.0).abs() < 1e-9);
        assert!((status.long.burn_rate - 10.0).abs() < 1e-9);
        assert!(status.breached);
        // 11 s later the short window is clean but the long window still
        // remembers: evidence without recurrence is not a breach.
        let later = 11_000 * MS;
        let status = &s.statuses_at(later)[0];
        assert_eq!(status.short.burn_rate, 0.0);
        assert!(status.long.burn_rate > 2.0);
        assert!(!status.breached);
    }

    #[test]
    fn availability_counts_failures_and_latency_ignores_them() {
        let s = set();
        // 1000 requests, 5 failures (slow ones — a timeout pattern).
        for i in 0..1000u64 {
            let failed = i % 200 == 0;
            s.record_at(i * 10_000, if failed { 30_000 * MS } else { MS }, !failed);
        }
        let statuses = s.statuses_at(10 * MS);
        let lat = statuses.iter().find(|s| s.name == "lat").unwrap();
        let avail = statuses.iter().find(|s| s.name == "avail").unwrap();
        // Failures never reach the latency objective...
        assert_eq!(lat.short.events, 995);
        assert_eq!(lat.short.bad, 0);
        // ...but all burn the availability budget: 5/1000 vs budget 0.001.
        assert_eq!(avail.short.events, 1000);
        assert_eq!(avail.short.bad, 5);
        assert!((avail.short.burn_rate - 5.0).abs() < 1e-9);
        assert!(avail.breached);
    }

    #[test]
    fn empty_set_is_inert() {
        let s = SloSet::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        s.record(Duration::from_millis(1), true);
        assert!(s.statuses().is_empty());
        let json = JsonValue::parse(&JsonWriter::render(|w| s.write_json(w))).unwrap();
        assert_eq!(
            json.get("slos").and_then(JsonValue::as_array),
            Some(&[][..])
        );
    }

    #[test]
    fn json_parses_and_carries_verdicts() {
        let s = set();
        for i in 0..10u64 {
            s.record_at(i * MS, 2 * MS, i != 3);
        }
        let json = JsonWriter::render(|w| s.write_json_at(w, 10 * MS));
        let v = JsonValue::parse(&json).expect("slo json must parse");
        let slos = v.get("slos").and_then(JsonValue::as_array).unwrap();
        assert_eq!(slos.len(), 2);
        for slo in slos {
            for key in [
                "name",
                "objective",
                "target",
                "error_budget",
                "burn_alert",
                "short",
                "long",
                "breached",
            ] {
                assert!(slo.get(key).is_some(), "missing {key}");
            }
            let short = slo.get("short").unwrap();
            assert!(short.get("burn_rate").and_then(JsonValue::as_f64).is_some());
        }
    }

    #[test]
    fn published_gauge_exposition_format_is_locked() {
        // Power-of-two fixture so every burn rate is float-exact: targets
        // of 0.75 give a 0.25 budget; 32 successes with 8 over-budget burn
        // the latency budget at exactly 1.0, and 32 failures out of 64
        // requests burn availability at exactly 2.0. Locks the full gauge
        // block rendered by PromExporter so the /metrics surface cannot
        // drift silently.
        let s = SloSet::new(vec![
            SloSpec::latency("lat", Duration::from_millis(10), 0.75),
            SloSpec::availability("avail", 0.75),
        ]);
        for i in 0..64u64 {
            let failed = i < 32;
            let latency = if (32..40).contains(&i) { 20 * MS } else { MS };
            s.record_at(i * MS, latency, !failed);
        }
        let r = Registry::new();
        s.publish_at(&r, 64 * MS);
        let text = PromExporter::render(&r.snapshot(), &BTreeMap::new());
        let expected = "\
# TYPE slo_avail_breached gauge
slo_avail_breached 1.0
# TYPE slo_avail_burn_rate_long gauge
slo_avail_burn_rate_long 2.0
# TYPE slo_avail_burn_rate_short gauge
slo_avail_burn_rate_short 2.0
# TYPE slo_lat_breached gauge
slo_lat_breached 0.0
# TYPE slo_lat_burn_rate_long gauge
slo_lat_burn_rate_long 1.0
# TYPE slo_lat_burn_rate_short gauge
slo_lat_burn_rate_short 1.0
";
        assert_eq!(text, expected);
    }
}
