//! Snapshot exporter: a hand-rolled JSON writer (no serde — the build
//! environment is offline, and the schema is small and stable).

use crate::Snapshot;
use std::fmt::Write as _;

/// Escapes a metric name for embedding in a JSON string literal.
pub(crate) fn escape_json(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Formats an `f32` or `f64` as a JSON number with that type's own
/// shortest round-trip `Display`, always keeping a decimal point or
/// exponent so the value re-parses as a float. Non-finite values (an
/// untrained or NaN-poisoned network) render as `0.0`: JSON, like the
/// in-tree `JsonValue` reader, has no NaN, and the workspace schema
/// convention avoids `null`.
pub fn format_f64<T: Copy + Into<f64> + std::fmt::Display>(v: T) -> String {
    if v.into().is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        // JSON has no Inf/NaN; clamp to null-ish sentinel 0.
        "0.0".to_string()
    }
}

/// Writes a [`Snapshot`] as a single JSON document.
///
/// Schema:
///
/// ```json
/// {
///   "counters": [{"name": "...", "value": 1}],
///   "gauges": [{"name": "...", "value": 0.5}],
///   "histograms": [{
///     "name": "...", "count": 2, "sum_ns": 100, "min_ns": 40,
///     "max_ns": 60, "p50_ns": 50, "p90_ns": 60, "p99_ns": 60,
///     "buckets": [{"le_ns": 64, "count": 2}]
///   }]
/// }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonExporter;

impl JsonExporter {
    /// Renders the snapshot as a pretty-printed JSON string.
    pub fn to_string(snapshot: &Snapshot) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"counters\": [");
        for (i, c) in snapshot.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"name\": \"");
            escape_json(&c.name, &mut out);
            let _ = write!(out, "\", \"value\": {}}}", c.value);
        }
        out.push_str(if snapshot.counters.is_empty() {
            ""
        } else {
            "\n  "
        });
        out.push_str("],\n  \"gauges\": [");
        for (i, g) in snapshot.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"name\": \"");
            escape_json(&g.name, &mut out);
            let _ = write!(out, "\", \"value\": {}}}", format_f64(g.value));
        }
        out.push_str(if snapshot.gauges.is_empty() {
            ""
        } else {
            "\n  "
        });
        out.push_str("],\n  \"histograms\": [");
        for (i, h) in snapshot.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"name\": \"");
            escape_json(&h.name, &mut out);
            let _ = write!(
                out,
                "\", \"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
                 \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"buckets\": [",
                h.count, h.sum_ns, h.min_ns, h.max_ns, h.p50_ns, h.p90_ns, h.p99_ns
            );
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{{\"le_ns\": {}, \"count\": {}}}", b.le_ns, b.count);
            }
            out.push_str("]}");
        }
        out.push_str(if snapshot.histograms.is_empty() {
            ""
        } else {
            "\n  "
        });
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use std::time::Duration;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("frames").add(12);
        r.gauge("queue_depth").set(1.5);
        r.histogram("stage.forward")
            .record(Duration::from_micros(800));
        r.histogram("stage.forward")
            .record(Duration::from_micros(950));
        r.snapshot()
    }

    #[test]
    fn json_contains_all_metrics() {
        let json = JsonExporter::to_string(&sample());
        for needle in [
            "frames",
            "queue_depth",
            "stage.forward",
            "p99_ns",
            "buckets",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let snap = Snapshot::default();
        let json = JsonExporter::to_string(&snap);
        assert!(json.contains("\"counters\": []"));
    }
}
