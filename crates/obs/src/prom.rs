//! Prometheus text exposition format for [`Snapshot`]s.
//!
//! Renders every metric as `# TYPE`-annotated lines a Prometheus scraper
//! (or `promtool check metrics`) accepts: counters and gauges as single
//! samples, histograms as cumulative `_bucket{le="..."}` series plus
//! `_sum` / `_count`. Metric names are sanitized to the legal
//! `[a-zA-Z_:][a-zA-Z0-9_:]*` alphabet (dots and dashes become
//! underscores), and histogram nanoseconds are converted to seconds, the
//! Prometheus base unit.
//!
//! A metric whose snapshot carries a window (see
//! [`Registry::enable_windows`](crate::Registry::enable_windows)) gets
//! per-window gauges next to its cumulative series:
//! `{name}_window_rate{window="10s"}` plus `_window_p50_seconds` /
//! `_window_p99_seconds` for histograms. [`PromExporter::render`]
//! additionally emits `# HELP` lines for metrics with a registered
//! description (see [`Registry::describe`](crate::Registry::describe)).

use crate::json::format_f64;
use crate::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

/// Renders a [`Snapshot`] in the Prometheus text exposition format.
pub struct PromExporter;

/// Maps an internal metric name onto the Prometheus name alphabet.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let legal =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || { i > 0 && ch.is_ascii_digit() };
        out.push(if legal { ch } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Seconds rendering for nanosecond quantities.
fn seconds(ns: u64) -> String {
    format_f64(ns as f64 / 1e9)
}

/// Escapes `# HELP` text per the exposition format (backslash and newline).
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Human label for a window length, e.g. `10s` or `250ms`.
fn window_label(window_ns: u64) -> String {
    if window_ns.is_multiple_of(1_000_000_000) {
        format!("{}s", window_ns / 1_000_000_000)
    } else if window_ns.is_multiple_of(1_000_000) {
        format!("{}ms", window_ns / 1_000_000)
    } else {
        format!("{window_ns}ns")
    }
}

fn write_help(out: &mut String, help: &BTreeMap<String, String>, raw: &str, name: &str) {
    if let Some(text) = help.get(raw) {
        let _ = writeln!(out, "# HELP {name} {}", escape_help(text));
    }
}

impl PromExporter {
    /// The `Content-Type` an HTTP endpoint should advertise for this
    /// format (Prometheus text exposition v0.0.4).
    pub const CONTENT_TYPE: &'static str = "text/plain; version=0.0.4";

    /// Renders the snapshot as exposition-format text without help text
    /// (the registry-free path; see [`PromExporter::render`]).
    pub fn to_string(snapshot: &Snapshot) -> String {
        Self::render(snapshot, &BTreeMap::new())
    }

    /// Renders the snapshot with `# HELP` lines (keyed by the *internal*
    /// metric name, pre-sanitization), and each metric's window gauges
    /// next to its cumulative series.
    ///
    /// Typical use:
    ///
    /// ```
    /// use dronet_obs::{PromExporter, Registry};
    /// let obs = Registry::new();
    /// obs.describe("frames", "Frames processed since start");
    /// obs.counter("frames").inc();
    /// let text = PromExporter::render(&obs.snapshot(), &obs.descriptions());
    /// assert!(text.starts_with("# HELP frames Frames processed since start\n"));
    /// ```
    pub fn render(snapshot: &Snapshot, help: &BTreeMap<String, String>) -> String {
        let mut out = String::new();
        for c in &snapshot.counters {
            let name = sanitize(&c.name);
            write_help(&mut out, help, &c.name, &name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", c.value);
            if let Some(w) = &c.window {
                let label = window_label(w.window_ns);
                let _ = writeln!(out, "# TYPE {name}_window_rate gauge");
                let _ = writeln!(
                    out,
                    "{name}_window_rate{{window=\"{label}\"}} {}",
                    format_f64(w.rate_per_sec)
                );
            }
        }
        for g in &snapshot.gauges {
            let name = sanitize(&g.name);
            write_help(&mut out, help, &g.name, &name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", format_f64(g.value));
        }
        for h in &snapshot.histograms {
            let name = sanitize(&h.name);
            write_help(&mut out, help, &h.name, &format!("{name}_seconds"));
            let _ = writeln!(out, "# TYPE {name}_seconds histogram");
            let mut cumulative = 0u64;
            for b in &h.buckets {
                cumulative += b.count;
                let _ = writeln!(
                    out,
                    "{name}_seconds_bucket{{le=\"{}\"}} {cumulative}",
                    seconds(b.le_ns)
                );
            }
            let _ = writeln!(out, "{name}_seconds_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_seconds_sum {}", seconds(h.sum_ns));
            let _ = writeln!(out, "{name}_seconds_count {}", h.count);
            if let Some(w) = &h.window {
                let label = window_label(w.window_ns);
                let _ = writeln!(out, "# TYPE {name}_window_rate gauge");
                let _ = writeln!(
                    out,
                    "{name}_window_rate{{window=\"{label}\"}} {}",
                    format_f64(w.rate_per_sec)
                );
                let _ = writeln!(out, "# TYPE {name}_window_p50_seconds gauge");
                let _ = writeln!(
                    out,
                    "{name}_window_p50_seconds{{window=\"{label}\"}} {}",
                    seconds(w.p50_ns)
                );
                let _ = writeln!(out, "# TYPE {name}_window_p99_seconds gauge");
                let _ = writeln!(
                    out,
                    "{name}_window_p99_seconds{{window=\"{label}\"}} {}",
                    seconds(w.p99_ns)
                );
            }
        }
        out
    }

    /// Writes the exposition text to `writer`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn write_to(snapshot: &Snapshot, writer: &mut dyn io::Write) -> io::Result<()> {
        writer.write_all(Self::to_string(snapshot).as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use std::time::Duration;

    #[test]
    fn exposition_format_is_locked() {
        let r = Registry::new();
        r.counter("pipeline.frames").add(12);
        r.gauge("supervisor.health").set(2.0);
        let h = r.histogram("detect.nms");
        h.record(Duration::from_nanos(100)); // bucket le=128ns
        h.record(Duration::from_nanos(100));
        h.record(Duration::from_nanos(200)); // bucket le=256ns
        let text = PromExporter::to_string(&r.snapshot());
        let expected = "\
# TYPE pipeline_frames counter
pipeline_frames 12
# TYPE supervisor_health gauge
supervisor_health 2.0
# TYPE detect_nms_seconds histogram
detect_nms_seconds_bucket{le=\"0.000000128\"} 2
detect_nms_seconds_bucket{le=\"0.000000256\"} 3
detect_nms_seconds_bucket{le=\"+Inf\"} 3
detect_nms_seconds_sum 0.0000004
detect_nms_seconds_count 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn exposition_format_with_help_and_windows_is_locked() {
        let r = Registry::new();
        r.enable_windows(Duration::from_secs(10), 10);
        r.describe("pipeline.frames", "Frames entering the pipeline");
        r.describe("detect.nms", "NMS stage latency");
        r.counter("pipeline.frames").add(12);
        r.gauge("supervisor.health").set(2.0);
        let h = r.histogram("detect.nms");
        h.record(Duration::from_nanos(100)); // bucket le=128ns
        h.record(Duration::from_nanos(100));
        h.record(Duration::from_nanos(200)); // bucket le=256ns
        let text = PromExporter::render(&r.snapshot(), &r.descriptions());
        // Windowed percentiles interpolate within the rank's bucket, whose
        // bounds are clamped to the observed [100, 200] ns: p50 is rank 2,
        // the last of the 2 samples in (100, 128] -> 128 ns; p99 is rank 3,
        // the only sample in (128, 200] -> 200 ns. Rates are per-second
        // over the 10 s window.
        let expected = "\
# HELP pipeline_frames Frames entering the pipeline
# TYPE pipeline_frames counter
pipeline_frames 12
# TYPE pipeline_frames_window_rate gauge
pipeline_frames_window_rate{window=\"10s\"} 1.2
# TYPE supervisor_health gauge
supervisor_health 2.0
# HELP detect_nms_seconds NMS stage latency
# TYPE detect_nms_seconds histogram
detect_nms_seconds_bucket{le=\"0.000000128\"} 2
detect_nms_seconds_bucket{le=\"0.000000256\"} 3
detect_nms_seconds_bucket{le=\"+Inf\"} 3
detect_nms_seconds_sum 0.0000004
detect_nms_seconds_count 3
# TYPE detect_nms_window_rate gauge
detect_nms_window_rate{window=\"10s\"} 0.3
# TYPE detect_nms_window_p50_seconds gauge
detect_nms_window_p50_seconds{window=\"10s\"} 0.000000128
# TYPE detect_nms_window_p99_seconds gauge
detect_nms_window_p99_seconds{window=\"10s\"} 0.0000002
";
        assert_eq!(text, expected);
    }

    #[test]
    fn help_text_is_escaped() {
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
    }

    #[test]
    fn names_are_sanitized_to_legal_alphabet() {
        assert_eq!(sanitize("nn.forward.L00.conv"), "nn_forward_L00_conv");
        assert_eq!(sanitize("weird-name with spaces"), "weird_name_with_spaces");
        assert_eq!(sanitize("0starts_with_digit"), "_starts_with_digit");
        assert_eq!(sanitize(""), "_");
        let legal = |s: &str| {
            s.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
        };
        assert!(legal(&sanitize("üñïçødé.metric")));
    }

    #[test]
    fn buckets_are_cumulative() {
        let r = Registry::new();
        let h = r.histogram("h");
        for us in [1u64, 2, 4, 8] {
            h.record(Duration::from_micros(us));
        }
        let text = PromExporter::to_string(&r.snapshot());
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.contains("_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] <= w[1]),
            "monotone: {counts:?}"
        );
        assert_eq!(*counts.last().unwrap(), 4, "+Inf bucket equals count");
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(PromExporter::to_string(&Snapshot::default()), "");
    }
}
