//! Minimal JSON reader for the exporter's own output, enabling snapshot
//! round-trips (persist a profile, reload it, compare runs) without serde.
//!
//! This is not a general JSON library: it parses the value grammar the
//! in-tree writers emit (objects, arrays, strings with the escapes we
//! write, and numbers — no `true`/`false`/`null`) into a [`JsonValue`]
//! tree. [`Snapshot::from_json`] maps that tree back onto [`Snapshot`];
//! the Chrome-trace reader and the bench-report schema checks reuse the
//! same tree directly.

use crate::{BucketCount, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, Snapshot};
use std::collections::BTreeMap;
use std::fmt;

/// Error from [`Snapshot::from_json`].
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
/// Covers the grammar our hand-rolled writers emit: objects, arrays,
/// strings and numbers (no booleans or nulls — in-tree schemas encode
/// flags as 0/1 numbers instead).
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
    /// Returns [`JsonParseError`] on malformed input or on grammar this
    /// reader does not support (`true`/`false`/`null`).
    pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        let root = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
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
        match self {
            JsonValue::Number(text) => text
                .parse::<u64>()
                .ok()
                .or_else(|| text.parse::<f64>().ok().map(|v| v as u64)),
            _ => None,
        }
    }

    /// The number as `i64`, if this is a number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Number(text) => text
                .parse::<i64>()
                .ok()
                .or_else(|| text.parse::<f64>().ok().map(|v| v as i64)),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(text) => text.parse::<f64>().ok(),
            _ => None,
        }
    }

    /// Member lookup, if this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|map| map.get(key))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
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
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
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
                        Some(b'u') => {
                            let hex =
                                self.bytes.get(self.pos + 1..self.pos + 5).ok_or_else(|| {
                                    JsonParseError {
                                        msg: "truncated \\u escape".into(),
                                        offset: self.pos,
                                    }
                                })?;
                            let hex = std::str::from_utf8(hex).map_err(|_| JsonParseError {
                                msg: "non-ASCII \\u escape".into(),
                                offset: self.pos,
                            })?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| JsonParseError {
                                    msg: "bad \\u escape".into(),
                                    offset: self.pos,
                                })?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return self.err("unknown escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is valid UTF-8: &str).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..end]).map_err(|_| {
                        JsonParseError {
                            msg: "invalid UTF-8".into(),
                            offset: start,
                        }
                    })?);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
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

impl Snapshot {
    /// Parses a snapshot previously written by
    /// [`JsonExporter`](crate::JsonExporter).
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] on malformed input or a missing field.
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
            snapshot.histograms.push(HistogramSnapshot {
                name: name(h)?,
                count: int(h, "count")?,
                sum_ns: int(h, "sum_ns")?,
                min_ns: int(h, "min_ns")?,
                max_ns: int(h, "max_ns")?,
                p50_ns: int(h, "p50_ns")?,
                p90_ns: int(h, "p90_ns")?,
                p99_ns: int(h, "p99_ns")?,
                buckets,
            });
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JsonExporter, Registry};
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
        let json = JsonExporter::to_string(&snap);
        let back = Snapshot::from_json(&json).expect("parses own output");
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_round_trip() {
        let snap = Snapshot::default();
        let back = Snapshot::from_json(&JsonExporter::to_string(&snap)).unwrap();
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
    fn escaped_names_survive() {
        let r = Registry::new();
        r.counter("tab\there\nnewline").inc();
        let snap = r.snapshot();
        let back = Snapshot::from_json(&JsonExporter::to_string(&snap)).unwrap();
        assert_eq!(back.counters[0].name, "tab\there\nnewline");
    }
}
