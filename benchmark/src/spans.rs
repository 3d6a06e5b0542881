//! The benchmark's own span recorder: spans are taken around calls into
//! the product crates (all timing is from outside), held in memory, and
//! written as Chrome-trace JSON when the run ends.

use std::borrow::Cow;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: Cow<'static, str>,
    /// Frame or request the span belongs to; spans of one frame share it.
    pub id: u64,
    /// Index (in the same log) of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Recording thread, as numbered by the benchmark (0 = main).
    pub tid: u32,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An append-only span list of one thread; logs of several threads share
/// an epoch and are merged after their threads have joined.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, tid: u32) -> Self {
        SpanLog {
            epoch,
            tid,
            spans: Vec::new(),
        }
    }

    /// The instant all of this log's timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index. The clock is read last, so
    /// building the name is outside the span.
    pub fn begin(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        let name = name.into();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: 0,
            end_ns: 0,
            tid: self.tid,
        });
        let index = self.spans.len() - 1;
        let now = self.now_ns();
        let span = &mut self.spans[index];
        span.start_ns = now;
        span.end_ns = now;
        index
    }

    /// Closes a span opened by [`SpanLog::begin`]; the clock is read first.
    pub fn end(&mut self, index: usize) {
        let now = self.now_ns();
        self.spans[index].end_ns = now;
    }

    /// Runs `f` under a span.
    pub fn time<T>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.begin(name, parent, id);
        let out = f();
        self.end(index);
        out
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn merge(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the part of its interval
    /// that its direct children cover (overlapping children count once).
    pub fn self_time_ns(&self, index: usize) -> u64 {
        let span = &self.spans[index];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| {
                (
                    s.start_ns.clamp(span.start_ns, span.end_ns),
                    s.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (start, end) in children {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        (span.end_ns - span.start_ns) - covered
    }

    /// Writes the log as Chrome-trace JSON in the array form that
    /// `chrome://tracing`, Perfetto and `dronet_obs::ChromeTrace::parse`
    /// all load: one complete (`X`) event per span, microsecond
    /// timestamps, the frame id and parent index under `args`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_chrome(&self, out: &mut dyn Write) -> io::Result<()> {
        out.write_all(b"[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"frame_id\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name, // span names are benchmark constants: no escaping needed
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
            )?;
        }
        out.write_all(b"\n]\n")
    }
}

/// Runs `f`, under a span when there is a log to record it in.
pub fn maybe_time<T>(
    log: Option<&mut SpanLog>,
    name: &'static str,
    parent: Option<usize>,
    id: u64,
    f: impl FnOnce() -> T,
) -> T {
    match log {
        Some(log) => log.time(name, parent, id, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(spans: &[(&'static str, Option<usize>, u64, u64)]) -> SpanLog {
        let mut log = SpanLog::new(Instant::now(), 0);
        for &(name, parent, start_ns, end_ns) in spans {
            log.spans.push(Span {
                name: name.into(),
                id: 1,
                parent,
                start_ns,
                end_ns,
                tid: 0,
            });
        }
        log
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let log = log_with(&[
            ("root", None, 100, 1100),
            ("a", Some(0), 200, 500),
            ("b", Some(0), 400, 700),  // overlaps a by 100
            ("c", Some(0), 900, 1300), // runs past the parent: clamped
            ("grandchild", Some(1), 250, 300),
            ("other-root", None, 0, 5000),
        ]);
        // children cover [200,700) and [900,1100) = 700 of 1000
        assert_eq!(log.self_time_ns(0), 300);
        assert_eq!(log.self_time_ns(1), 250);
        assert_eq!(log.self_time_ns(4), 50);
    }

    #[test]
    fn begin_end_nest_and_merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch, 0);
        let root = a.begin("root", None, 7);
        let got = a.time("child", Some(root), 7, || 3);
        a.end(root);
        assert_eq!(got, 3);
        let mut b = SpanLog::new(epoch, 1);
        let r = b.begin(format!("conv{}", 1), None, 8);
        b.time("leaf", Some(r), 8, || ());
        b.end(r);
        a.merge(b);
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!((s[2].name.as_ref(), s[2].tid), ("conv1", 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s.iter().filter(|s| s.name == "child").count(), 1);
    }

    #[test]
    fn chrome_trace_is_json_the_in_tree_reader_loads() {
        let log = log_with(&[("root", None, 1000, 3500), ("a", Some(0), 1500, 2000)]);
        let mut buf = Vec::new();
        log.write_chrome(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let events = dronet_obs::ChromeTrace::parse(&text).expect("loadable chrome trace");
        assert_eq!(events.len(), 2);
        let json = dronet_obs::JsonValue::parse(&text).unwrap();
        let first = &json.as_array().unwrap()[1];
        assert_eq!(first.get("name").unwrap().as_str(), Some("a"));
        assert_eq!(first.get("dur").unwrap().as_f64(), Some(0.5));
        assert_eq!(
            first.get("args").unwrap().get("parent").unwrap().as_i64(),
            Some(0)
        );
    }
}
