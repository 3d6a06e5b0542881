//! The workspace's one JSON writer and one JSON reader, without serde.
//!
//! [`JsonWriter`] streams a document into a `String` in the one layout every
//! in-tree body uses: compact `{"k":v,...}` and `[a,b]`, keys in the order
//! they are written. It owns string escaping, number text (floats follow
//! [`format_f64`]) and the flag rule: a `bool` is written `0`/`1`, because
//! the reader has no literals. Anything implementing [`ToJson`] can be a
//! value; [`Snapshot::to_json`] is one.
//!
//! [`JsonValue::parse`] reads that grammar back — objects, arrays, strings
//! with every JSON escape, and numbers; no `true`/`false`/`null` — into a
//! tree, nested at most 128 deep. [`Snapshot::from_json`] maps
//! the tree back onto [`Snapshot`]; the Chrome-trace reader and the tests
//! of the server's JSON bodies read the tree directly.

use crate::{BucketCount, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, Snapshot};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Streams one JSON document into a `String` (see the module docs).
///
/// Values go in with [`value`](Self::value), object members with
/// [`field`](Self::field) — or [`json_object!`](crate::json_object), which
/// lists them — and a member whose value is built in place with
/// [`key`](Self::key) then [`object`](Self::object) / [`array`](Self::array).
/// The writer places every comma and colon.
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// A value was just completed: the next key or element needs a comma.
    comma: bool,
}

/// A value [`JsonWriter`] can write.
pub trait ToJson {
    /// Writes `self` as one JSON value at the writer's position.
    fn write_json(&self, w: &mut JsonWriter<'_>);
}

/// Writes one object through a [`JsonWriter`], its members listed in order
/// as `"key" => value` with any [`ToJson`] value: `json_object!(w, "id" =>
/// 7u64, "up" => true)` writes `{"id":7,"up":1}`.
#[macro_export]
macro_rules! json_object {
    ($w:expr, $($key:literal => $value:expr),* $(,)?) => {{
        $w.object(|w| { $(w.field($key, $value);)* });
    }};
}

impl<'a> JsonWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        JsonWriter { out, comma: false }
    }

    /// Renders the document `body` writes into a new `String`.
    pub fn render(body: impl FnOnce(&mut JsonWriter<'_>)) -> String {
        let mut out = String::new();
        body(&mut JsonWriter::new(&mut out));
        out
    }

    /// Writes one value: an array element, or the member after [`key`](Self::key).
    pub fn value(&mut self, value: impl ToJson) -> &mut Self {
        value.write_json(self);
        self
    }

    /// Writes an object member's key; its value is written next.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.scalar(|out| {
            quote(out, key);
            out.push(':');
        });
        self.comma = false;
        self
    }

    /// Writes one object member.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        self.key(key).value(value)
    }

    /// Writes an object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('{', body, '}')
    }

    /// Writes an array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('[', body, ']')
    }

    /// Appends the next item's text (a scalar, a key or an opening
    /// bracket), after a comma when one is due.
    pub(crate) fn scalar(&mut self, text: impl FnOnce(&mut String)) -> &mut Self {
        if self.comma {
            self.out.push(',');
        }
        text(self.out);
        self.comma = true;
        self
    }

    fn nest(&mut self, open: char, body: impl FnOnce(&mut Self), close: char) -> &mut Self {
        self.scalar(|out| out.push(open));
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }
}

/// Writes `s` as a JSON string literal.
fn quote(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Appends `v` as [`format_f64`] formats it.
fn float<T: Copy + Into<f64> + fmt::Display>(out: &mut String, v: T) {
    if !v.into().is_finite() {
        out.push_str("0.0");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Formats an `f32` or `f64` as [`JsonWriter`] writes it: the type's own
/// shortest round-trip `Display`, always keeping a decimal point or
/// exponent so the value re-parses as a float. Non-finite values (an
/// untrained or NaN-poisoned network) render as `0.0`: JSON, like
/// [`JsonValue`], has no NaN, and the workspace schema convention avoids
/// `null`.
pub fn format_f64<T: Copy + Into<f64> + fmt::Display>(v: T) -> String {
    let mut out = String::new();
    float(&mut out, v);
    out
}

/// Implements [`ToJson`] for each listed type: `to_json!(T => |v, w| body)`
/// writes `v: &T` with `body` through `w: &mut JsonWriter`.
macro_rules! to_json {
    ($($t:ty),* => |$v:ident, $w:ident| $body:expr) => {$(
        impl $crate::json::ToJson for $t {
            fn write_json(&self, $w: &mut $crate::json::JsonWriter<'_>) {
                let $v = self;
                $body;
            }
        }
    )*};
}
pub(crate) use to_json;

to_json!(u64, usize, i64 => |v, w| w.scalar(|out| { let _ = write!(out, "{v}"); }));
to_json!(f32, f64 => |v, w| w.scalar(|out| float(out, *v)));
to_json!(str, String => |v, w| w.scalar(|out| quote(out, v)));
// The flag rule: the reader has no `true`/`false`, so a flag is 0/1.
to_json!(bool => |v, w| w.scalar(|out| out.push(if *v { '1' } else { '0' })));
// Number text in a fixed format the float rule would not keep, such as
// `format_args!("{ms:.3}")`; the caller makes it a JSON number.
to_json!(fmt::Arguments<'_> => |v, w| w.scalar(|out| { let _ = out.write_fmt(*v); }));

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        (**self).write_json(w);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.array(|w| self.iter().for_each(|v| v.write_json(w)));
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self[..].write_json(w);
    }
}

/// How deeply [`JsonValue::parse`] lets objects and arrays nest; deeper
/// input is an error, not a stack overflow. The deepest
/// document the workspace writes (`/debug/vars`) nests 6 levels.
const MAX_DEPTH: usize = 128;

/// Error from [`JsonValue::parse`] and [`Snapshot::from_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset in the input where parsing stopped.
    pub offset: usize,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonParseError {}

/// A parsed JSON value from the in-tree reader.
///
/// Covers the grammar [`JsonWriter`] emits: objects, arrays, strings and
/// numbers (no booleans or nulls — flags are 0/1 numbers instead).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// Raw number text; kept unparsed so `u64` fields (counter values,
    /// nanosecond sums) round-trip losslessly instead of through `f64`.
    Number(String),
    /// A string literal, unescaped.
    String(String),
    /// An array of values.
    Array(Vec<JsonValue>),
    /// An object, keys sorted.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parses a complete JSON document (rejecting trailing data).
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] on malformed input, on grammar this
    /// reader does not support (`true`/`false`/`null`), or on objects and
    /// arrays nested more than 128 deep.
    pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
        let mut parser = Parser {
            text: input,
            pos: 0,
        };
        let root = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != input.len() {
            return parser.err("trailing data after document");
        }
        Ok(root)
    }

    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `u64` (exact integer parse first, then a lossy
    /// float fallback), if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        self.number::<u64>()
            .or_else(|| self.as_f64().map(|v| v as u64))
    }

    /// The number as `i64` (exact first, like [`as_u64`](Self::as_u64)),
    /// if this is a number.
    pub fn as_i64(&self) -> Option<i64> {
        self.number::<i64>()
            .or_else(|| self.as_f64().map(|v| v as i64))
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        self.number()
    }

    fn number<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            JsonValue::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// Member lookup, if this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|map| map.get(key))
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, JsonParseError> {
        Err(JsonParseError {
            msg: msg.into(),
            offset: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    /// One value inside `depth` enclosing objects and arrays.
    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                self.err(format!("nested deeper than {MAX_DEPTH}"))
            }
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.items(b'{', b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    map.insert(key, p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(JsonValue::Object(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b'[', b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(JsonValue::Array(items))
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => self.err("expected a value"),
        }
    }

    /// The comma-separated items between `open` and `close`, each read by
    /// `item`.
    fn items(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonParseError>,
    ) -> Result<(), JsonParseError> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                item(self)?;
                self.skip_ws();
                if self.peek() != Some(b',') {
                    break;
                }
                self.pos += 1;
            }
        }
        self.expect(close)
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let mut code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // A high surrogate followed by an escaped low one
                            // is one astral scalar; a lone half is U+FFFD.
                            if (0xD800..0xDC00).contains(&code)
                                && self.text[self.pos + 1..].starts_with("\\u")
                            {
                                let low = self.hex4(self.pos + 3)?;
                                if (0xDC00..0xE000).contains(&low) {
                                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    self.pos += 6;
                                }
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return self.err("unknown escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Every step so far consumed whole chars: `pos` is on a
                    // char boundary.
                    let ch = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("not at the end");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// The four hex digits of a `\\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, JsonParseError> {
        let hex = self.text.get(at..at + 4);
        match hex.and_then(|hex| u32::from_str_radix(hex, 16).ok()) {
            Some(code) => Ok(code),
            None => self.err("bad \\u escape"),
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(_) => Ok(JsonValue::Number(text.to_string())),
            Err(_) => self.err(format!("bad number '{text}'")),
        }
    }
}

/// `obj[key]` read through `read`; a missing or mistyped field is an error
/// naming it.
fn field<'v, T>(
    obj: &'v JsonValue,
    key: &str,
    read: impl FnOnce(&'v JsonValue) -> Option<T>,
) -> Result<T, JsonParseError> {
    obj.get(key).and_then(read).ok_or_else(|| JsonParseError {
        msg: format!("missing or mistyped field '{key}'"),
        offset: 0,
    })
}

to_json!(Snapshot => |s, w| crate::json_object!(w, "counters" => &s.counters,
    "gauges" => &s.gauges, "histograms" => &s.histograms));
// A metric's `window` member is written only when it has one.
to_json!(CounterSnapshot => |c, w| w.object(|w| {
    w.field("name", &c.name).field("value", c.value);
    if let Some(win) = &c.window {
        crate::json_object!(w.key("window"), "window_ns" => win.window_ns,
            "increment" => win.sum, "rate_per_sec" => win.rate_per_sec);
    }
}));
to_json!(GaugeSnapshot => |g, w| crate::json_object!(w, "name" => &g.name, "value" => g.value));
to_json!(HistogramSnapshot => |h, w| w.object(|w| {
    w.field("name", &h.name).field("count", h.count).field("sum_ns", h.sum_ns)
        .field("min_ns", h.min_ns).field("max_ns", h.max_ns)
        .field("p50_ns", h.quantile_ns(0.5)).field("p90_ns", h.quantile_ns(0.9))
        .field("p99_ns", h.quantile_ns(0.99)).field("buckets", &h.buckets);
    if let Some(win) = &h.window {
        crate::json_object!(w.key("window"), "window_ns" => win.window_ns,
            "count" => win.count, "sum_ns" => win.sum, "rate_per_sec" => win.rate_per_sec,
            "p50_ns" => win.p50_ns, "p99_ns" => win.p99_ns);
    }
}));
to_json!(BucketCount => |b, w| crate::json_object!(w, "le_ns" => b.le_ns, "count" => b.count));

impl Snapshot {
    /// Renders the snapshot as one JSON document:
    /// `{"counters":[{"name","value","window"?:{"window_ns","increment",
    /// "rate_per_sec"}}],"gauges":[{"name","value"}],
    /// "histograms":[{"name","count","sum_ns","min_ns","max_ns","p50_ns",
    /// "p90_ns","p99_ns","buckets":[{"le_ns","count"}],"window"?:{
    /// "window_ns","count","sum_ns","rate_per_sec","p50_ns","p99_ns"}}]}`,
    /// where `window` is present only for a windowed metric.
    pub fn to_json(&self) -> String {
        JsonWriter::render(|w| self.write_json(w))
    }

    /// Parses a snapshot written by [`Snapshot::to_json`]. The written
    /// `p50_ns`/`p90_ns`/`p99_ns` are not read back: they are computed from
    /// the buckets. Nor are the windows: a parsed metric has none.
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] on malformed input, a missing field, or a
    /// histogram whose `min_ns` is above its `max_ns`.
    pub fn from_json(input: &str) -> Result<Snapshot, JsonParseError> {
        let root = JsonValue::parse(input)?;
        let name = |v: &JsonValue| field(v, "name", |s| s.as_str().map(str::to_owned));
        // `as_u64` parses exact integers first: values above 2^53 are not
        // representable in f64 and would silently lose low bits.
        let int = |v: &JsonValue, key: &str| field(v, key, JsonValue::as_u64);
        let mut snapshot = Snapshot::default();
        for c in field(&root, "counters", JsonValue::as_array)? {
            snapshot.counters.push(CounterSnapshot {
                name: name(c)?,
                value: int(c, "value")?,
                window: None,
            });
        }
        for g in field(&root, "gauges", JsonValue::as_array)? {
            snapshot.gauges.push(GaugeSnapshot {
                name: name(g)?,
                value: field(g, "value", JsonValue::as_f64)?,
            });
        }
        for h in field(&root, "histograms", JsonValue::as_array)? {
            let buckets = field(h, "buckets", JsonValue::as_array)?
                .iter()
                .map(|b| {
                    Ok(BucketCount {
                        le_ns: int(b, "le_ns")?,
                        count: int(b, "count")?,
                    })
                })
                .collect::<Result<_, JsonParseError>>()?;
            let (min_ns, max_ns) = (int(h, "min_ns")?, int(h, "max_ns")?);
            if min_ns > max_ns {
                return Err(JsonParseError {
                    msg: format!("histogram min_ns {min_ns} above max_ns {max_ns}"),
                    offset: 0,
                });
            }
            snapshot.histograms.push(HistogramSnapshot {
                name: name(h)?,
                count: int(h, "count")?,
                sum_ns: int(h, "sum_ns")?,
                min_ns,
                max_ns,
                buckets,
                window: None,
            });
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use std::time::Duration;

    #[test]
    fn round_trip_preserves_snapshot() {
        let r = Registry::new();
        r.counter("frames").add(7);
        r.counter("with \"quotes\" and, commas").inc();
        r.gauge("depth").set(-2.25);
        let h = r.histogram("stage");
        h.record(Duration::from_nanos(50));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_millis(40));
        let snap = r.snapshot();
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).expect("parses own output");
        assert_eq!(back, snap);
    }

    #[test]
    fn windows_are_written_but_not_read_back() {
        let r = Registry::new();
        r.enable_windows(Duration::from_secs(10), 10);
        r.counter("frames").add(7);
        r.histogram("stage").record(Duration::from_micros(3));
        let snap = r.snapshot();
        let json = JsonValue::parse(&snap.to_json()).unwrap();
        let member = |kind: &str| {
            let metric = &json.get(kind).and_then(JsonValue::as_array).unwrap()[0];
            metric.get("window").cloned().expect("window member")
        };
        assert_eq!(
            member("counters").get("increment").unwrap().as_u64(),
            Some(7)
        );
        assert_eq!(member("histograms").get("count").unwrap().as_u64(), Some(1));
        let mut back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert!(back.counters[0].window.is_none() && back.histograms[0].window.is_none());
        back.counters[0].window = snap.counters[0].window;
        back.histograms[0].window = snap.histograms[0].window;
        assert_eq!(back, snap, "everything but the windows round-trips");
    }

    #[test]
    fn empty_round_trip() {
        let snap = Snapshot::default();
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Snapshot::from_json("not json").is_err());
        assert!(Snapshot::from_json("{\"counters\": [").is_err());
        assert!(
            Snapshot::from_json("{}").is_err(),
            "missing required arrays"
        );
        assert!(
            Snapshot::from_json("{\"counters\":[],\"gauges\":[],\"histograms\":[]} x").is_err()
        );
    }

    #[test]
    fn rejects_a_histogram_whose_min_is_above_its_max() {
        let json = r#"{"counters":[],"gauges":[],"histograms":[{"name":"h","count":1,
            "sum_ns":9,"min_ns":9,"max_ns":1,"buckets":[{"le_ns":64,"count":1}]}]}"#;
        let err = Snapshot::from_json(json).unwrap_err();
        assert!(err.msg.contains("min_ns 9 above max_ns 1"), "{err}");
        let ordered = json.replace(r#""max_ns":1"#, r#""max_ns":9"#);
        let back = Snapshot::from_json(&ordered).unwrap();
        assert_eq!(back.histograms[0].quantile_ns(0.99), 9);
    }

    #[test]
    fn escaped_names_survive() {
        let r = Registry::new();
        r.counter("tab\there\nnewline").inc();
        let snap = r.snapshot();
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.counters[0].name, "tab\there\nnewline");
    }

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
        let json = sample().to_json();
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
        let json = snap.to_json();
        let parsed = JsonValue::parse(&json).unwrap();
        assert_eq!(
            parsed.get("counters").and_then(JsonValue::as_array),
            Some(&[][..])
        );
    }

    #[test]
    fn the_writer_places_every_comma_and_colon() {
        let json = JsonWriter::render(|w| {
            w.object(|w| {
                w.field("a", 1u64)
                    .field("s", "q\"\\\u{1}")
                    .field("flag", true)
                    .field("x", 2.0f32)
                    .field("list", &[1u64, 2][..])
                    .key("empty")
                    .object(|_| {})
                    .key("nested")
                    .array(|w| {
                        w.value(-3i64).object(|w| {
                            w.field("off", false);
                        });
                    });
            });
        });
        assert_eq!(
            json,
            r#"{"a":1,"s":"q\"\\\u0001","flag":1,"x":2.0,"list":[1,2],"empty":{},"nested":[-3,{"off":0}]}"#
        );
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = JsonValue::parse(&deep).unwrap_err();
        assert!(err.msg.contains("nested deeper"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&at_limit).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(JsonValue::parse(&past).is_err());
        assert!(JsonValue::parse(&"{\"k\":".repeat(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn every_json_escape_decodes() {
        let s = |text: &str| {
            JsonValue::parse(text)
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        };
        assert_eq!(s(r#""a\/b""#), "a/b");
        assert_eq!(s(r#""\b\f\n\r\t\"\\""#), "\u{8}\u{c}\n\r\t\"\\");
        assert_eq!(s(r#""\u00e9\u0001""#), "\u{e9}\u{1}");
        // A surrogate pair is one astral scalar; a lone half is U+FFFD.
        assert_eq!(s(r#""\ud83d\ude00""#), "😀");
        assert_eq!(s(r#""\uD83D\uDE00!""#), "😀!");
        assert_eq!(s(r#""\ud83d""#), "\u{FFFD}");
        assert_eq!(s(r#""\ude00x""#), "\u{FFFD}x");
        assert_eq!(s(r#""\ud83d\u0041""#), "\u{FFFD}A");
        assert!(JsonValue::parse(r#""\x""#).is_err());
        assert!(JsonValue::parse(r#""\ud83d\u00""#).is_err());
    }
}
