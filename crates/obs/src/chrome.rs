//! Chrome Trace Event Format export for [`TraceSnapshot`]s through the
//! one [`JsonWriter`], plus a reader for round-trip tests.
//!
//! The output is a plain JSON array of event objects (the "JSON Array
//! Format" accepted by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)):
//!
//! * closed spans become complete `"ph":"X"` events (`ts` = span start,
//!   `dur` = span length),
//! * spans still open at capture time (crash evidence) become `"ph":"B"`
//!   events without a matching `"E"` — the viewers render these as
//!   unterminated slices, which is exactly what they are,
//! * instants become `"ph":"i"` events with thread scope,
//! * threads labelled via [`Tracer::name_thread`](crate::Tracer::name_thread)
//!   become `"ph":"M"` `process_name` / `thread_name` metadata events, so
//!   Perfetto shows `serve-worker-0` instead of a bare tid.
//!
//! Timestamps are microseconds (the format's unit) written with three
//! decimal places, so the recorder's nanosecond clock survives export →
//! parse losslessly.

use crate::json::{to_json, JsonParseError, JsonValue, JsonWriter};
use crate::trace::{TraceKind, TraceSnapshot, NO_AUX};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::io;

/// The process id stamped on every exported event (single-process traces).
pub const CHROME_TRACE_PID: u64 = 1;

/// The `process_name` stamped on exported traces via an `M` metadata event.
pub const CHROME_TRACE_PROCESS_NAME: &str = "dronet";

/// Writer/reader for Chrome/Perfetto `trace.json` files.
pub struct ChromeTrace;

/// Splits nanoseconds into whole and fractional microseconds so the
/// written decimal is exact (`1_234_567 ns` → `"1234.567"`).
fn write_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// A nanosecond time written as exact microseconds ([`write_us`]).
struct Micros(u64);

to_json!(Micros => |t, w| w.scalar(|out| write_us(out, t.0)));

/// Parses a microsecond decimal with up to three fraction digits back to
/// exact nanoseconds (the inverse of [`write_us`]).
fn parse_us_text(text: &str) -> Option<u64> {
    let (whole, frac) = match text.split_once('.') {
        Some((w, f)) => (w, f),
        None => (text, ""),
    };
    if frac.len() > 3 {
        return None;
    }
    let whole: u64 = whole.parse().ok()?;
    let mut frac_ns = 0u64;
    for (i, ch) in frac.chars().enumerate() {
        let digit = ch.to_digit(10)? as u64;
        frac_ns += digit * 10u64.pow(2 - i as u32);
    }
    whole
        .checked_mul(1_000)
        .and_then(|us| us.checked_add(frac_ns))
}

impl ChromeTrace {
    /// Renders the snapshot as a Chrome Trace Event Format JSON array.
    pub fn to_string(snapshot: &TraceSnapshot) -> String {
        // Begins whose End survived in the ring are subsumed by the X
        // event the End produces; the rest are open spans worth showing.
        let closed: HashSet<u64> = snapshot
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::End)
            .map(|e| e.begin_seq)
            .collect();
        let mut out = String::with_capacity(snapshot.events.len() * 96 + 16);
        JsonWriter::new(&mut out).array(|w| {
            // Metadata first: one process_name plus a thread_name per
            // labelled shard, so viewers resolve names before any slice
            // references a tid.
            let mut metadata = |name: &str, tid: u64, label: &str| {
                w.object(|w| {
                    w.field("name", name).field("ph", "M");
                    w.field("pid", CHROME_TRACE_PID).field("tid", tid);
                    w.field("ts", Micros(0)).key("args");
                    crate::json_object!(w, "name" => label);
                });
            };
            if !snapshot.thread_names.is_empty() {
                metadata("process_name", 0, CHROME_TRACE_PROCESS_NAME);
                for (tid, name) in &snapshot.thread_names {
                    metadata("thread_name", *tid, name);
                }
            }
            for e in &snapshot.events {
                let (ph, ts_ns) = match e.kind {
                    TraceKind::End => ("X", e.start_ns()),
                    TraceKind::Begin if !closed.contains(&e.seq) => ("B", e.ts_ns),
                    TraceKind::Begin => continue,
                    TraceKind::Instant => ("i", e.ts_ns),
                };
                w.object(|w| {
                    w.field("name", e.name).field("ph", ph);
                    w.field("pid", CHROME_TRACE_PID).field("tid", e.tid);
                    w.field("ts", Micros(ts_ns));
                    if e.kind == TraceKind::End {
                        w.field("dur", Micros(e.dur_ns));
                    }
                    if e.kind == TraceKind::Instant {
                        w.field("s", "t");
                    }
                    w.key("args").object(|w| {
                        w.field("frame_id", e.frame_id).field("seq", e.seq);
                        if e.aux != NO_AUX {
                            w.field("layer", e.aux);
                        }
                    });
                });
            }
        });
        out
    }

    /// Writes the snapshot as `trace.json` to `writer`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn write_to(snapshot: &TraceSnapshot, writer: &mut dyn io::Write) -> io::Result<()> {
        writer.write_all(Self::to_string(snapshot).as_bytes())
    }

    /// Parses a Chrome Trace Event Format document written by
    /// [`ChromeTrace::to_string`] (or a compatible array-format trace).
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] on malformed JSON or a missing field.
    pub fn parse(input: &str) -> Result<Vec<ChromeEvent>, JsonParseError> {
        let bad = |msg: &str| JsonParseError {
            msg: msg.to_string(),
            offset: 0,
        };
        let root = JsonValue::parse(input)?;
        let items = root
            .as_array()
            .ok_or_else(|| bad("trace root must be an array"))?;
        let mut events = Vec::with_capacity(items.len());
        for item in items {
            let name = item
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("event missing 'name'"))?
                .to_string();
            let ph_text = item
                .get("ph")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("event missing 'ph'"))?;
            let ph = match ph_text {
                "X" | "B" | "E" | "i" | "M" => ph_text.chars().next().expect("non-empty"),
                _ => return Err(bad(&format!("unsupported phase '{ph_text}'"))),
            };
            // Metadata events carry no meaningful timestamp; tolerate its
            // absence there (other writers omit it entirely).
            let ts_ns = match item.get("ts") {
                Some(JsonValue::Number(text)) => {
                    parse_us_text(text).ok_or_else(|| bad("unparseable 'ts'"))?
                }
                _ if ph == 'M' => 0,
                _ => return Err(bad("event missing 'ts'")),
            };
            let arg = |key: &str| item.get("args").and_then(|a| a.get(key));
            let dur_ns = match item.get("dur") {
                Some(JsonValue::Number(text)) => {
                    parse_us_text(text).ok_or_else(|| bad("unparseable 'dur'"))?
                }
                _ => 0,
            };
            events.push(ChromeEvent {
                name,
                ph,
                pid: item.get("pid").and_then(JsonValue::as_u64).unwrap_or(0),
                tid: item.get("tid").and_then(JsonValue::as_u64).unwrap_or(0),
                ts_ns,
                dur_ns,
                frame_id: arg("frame_id").and_then(JsonValue::as_u64),
                seq: arg("seq").and_then(JsonValue::as_u64),
                layer: arg("layer").and_then(JsonValue::as_i64),
                arg_name: arg("name").and_then(JsonValue::as_str).map(str::to_string),
            });
        }
        Ok(events)
    }
}

/// One event parsed back from a `trace.json` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeEvent {
    /// Event name.
    pub name: String,
    /// Phase: `X` complete span, `B`/`E` open/close, `i` instant, `M`
    /// metadata (`process_name` / `thread_name`).
    pub ph: char,
    /// Process id.
    pub pid: u64,
    /// Thread id.
    pub tid: u64,
    /// Start time, nanoseconds.
    pub ts_ns: u64,
    /// Duration, nanoseconds (`X` events; 0 otherwise).
    pub dur_ns: u64,
    /// `args.frame_id` when present.
    pub frame_id: Option<u64>,
    /// `args.seq` when present.
    pub seq: Option<u64>,
    /// `args.layer` when present.
    pub layer: Option<i64>,
    /// `args.name` when present (`M` metadata events: the process/thread
    /// label being assigned).
    pub arg_name: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    #[test]
    fn microsecond_encoding_is_lossless() {
        for ns in [0u64, 1, 999, 1_000, 1_234_567, u64::MAX / 2_000 * 1_000] {
            let mut text = String::new();
            write_us(&mut text, ns);
            assert_eq!(parse_us_text(&text), Some(ns), "ns={ns} text={text}");
        }
        assert_eq!(parse_us_text("12"), Some(12_000));
        assert_eq!(parse_us_text("12.3456"), None, "too many fraction digits");
        assert_eq!(parse_us_text("x"), None);
    }

    #[test]
    fn closed_spans_export_as_x_events() {
        let t = Tracer::new();
        {
            let _frame = t.frame_span("frame", 5);
            let _layer = t.span_aux("conv", 0);
            t.instant("decode.start");
        }
        let snap = t.snapshot();
        let json = ChromeTrace::to_string(&snap);
        let events = ChromeTrace::parse(&json).expect("parses own output");
        assert_eq!(events.len(), 3, "2 X spans + 1 instant");
        let phases: Vec<char> = events.iter().map(|e| e.ph).collect();
        assert_eq!(phases.iter().filter(|&&p| p == 'X').count(), 2);
        assert_eq!(phases.iter().filter(|&&p| p == 'i').count(), 1);
        assert!(events.iter().all(|e| e.frame_id == Some(5)));
        assert!(events.iter().all(|e| e.pid == CHROME_TRACE_PID));
        let conv = events.iter().find(|e| e.name == "conv").unwrap();
        assert_eq!(conv.layer, Some(0));
        let frame = events.iter().find(|e| e.name == "frame").unwrap();
        assert!(
            frame.ts_ns <= conv.ts_ns && frame.ts_ns + frame.dur_ns >= conv.ts_ns + conv.dur_ns,
            "layer span nests inside frame span"
        );
    }

    #[test]
    fn open_span_exports_as_b_event() {
        let t = Tracer::new();
        t.frame_span("frame", 3).cancel();
        let events = ChromeTrace::parse(&ChromeTrace::to_string(&t.snapshot())).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ph, 'B');
        assert_eq!(events[0].frame_id, Some(3));
    }

    #[test]
    fn round_trip_preserves_timing_exactly() {
        let t = Tracer::new();
        for i in 0..20u64 {
            let _span = t.frame_span("frame", i);
            t.instant("tick");
        }
        let snap = t.snapshot();
        let events = ChromeTrace::parse(&ChromeTrace::to_string(&snap)).unwrap();
        // Every exported event maps back to its source by seq with exact times.
        for parsed in &events {
            let seq = parsed.seq.expect("args.seq present");
            let src = snap.events.iter().find(|e| e.seq == seq).unwrap();
            assert_eq!(parsed.ts_ns, src.start_ns());
            assert_eq!(parsed.dur_ns, src.dur_ns);
            assert_eq!(parsed.frame_id, Some(src.frame_id));
            assert_eq!(parsed.name, src.name);
            assert_eq!(parsed.tid, src.tid);
        }
        assert_eq!(
            events.len(),
            snap.events.len() - 20,
            "each closed span collapses B+E into one X"
        );
    }

    #[test]
    fn named_threads_export_metadata_events() {
        let t = Tracer::new();
        t.name_thread("serve-worker-0");
        t.instant("tick");
        let json = ChromeTrace::to_string(&t.snapshot());
        let events = ChromeTrace::parse(&json).expect("parses own output");
        let process = events
            .iter()
            .find(|e| e.ph == 'M' && e.name == "process_name")
            .expect("process_name metadata present");
        assert_eq!(process.arg_name.as_deref(), Some(CHROME_TRACE_PROCESS_NAME));
        let thread = events
            .iter()
            .find(|e| e.ph == 'M' && e.name == "thread_name")
            .expect("thread_name metadata present");
        assert_eq!(thread.arg_name.as_deref(), Some("serve-worker-0"));
        let tick = events.iter().find(|e| e.name == "tick").unwrap();
        assert_eq!(thread.tid, tick.tid, "label attaches to the slice's tid");
        assert_eq!(
            events.iter().filter(|e| e.ph == 'M').count(),
            2,
            "one process_name + one thread_name"
        );
    }

    #[test]
    fn metadata_events_tolerate_missing_ts() {
        let doc = "[{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 7, \
                   \"args\": {\"name\": \"worker\"}}]";
        let events = ChromeTrace::parse(doc).expect("M without ts parses");
        assert_eq!(events[0].ts_ns, 0);
        assert_eq!(events[0].arg_name.as_deref(), Some("worker"));
    }

    #[test]
    fn empty_snapshot_is_an_empty_array() {
        let json = ChromeTrace::to_string(&TraceSnapshot::default());
        assert_eq!(ChromeTrace::parse(&json).unwrap(), Vec::new());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(ChromeTrace::parse("{}").is_err(), "root must be array");
        assert!(ChromeTrace::parse("[{\"ph\": \"X\"}]").is_err(), "no name");
        assert!(
            ChromeTrace::parse("[{\"name\": \"a\", \"ph\": \"Q\", \"ts\": 1.0}]").is_err(),
            "unknown phase"
        );
    }
}
