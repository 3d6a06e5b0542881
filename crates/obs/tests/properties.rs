//! Property tests for the histogram estimator, the JSON writer and reader
//! and the flight-recorder ring buffer: the invariants the rest of the workspace
//! leans on (percentile bounds, bucket accounting, lossless export,
//! newest-events-retained wrap-around) must hold for arbitrary inputs.

use dronet_obs::{
    ChromeTrace, JsonValue, JsonWriter, Registry, RollingWindow, Snapshot, TraceKind, Tracer,
};
use proptest::prelude::*;

/// Names stressing the JSON escaper: quotes, backslashes, control bytes.
fn metric_name() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..8, 1..12).prop_map(|picks| {
        const ALPHABET: [char; 8] = ['a', 'Z', '.', '_', '"', '\\', '\n', '\t'];
        picks.into_iter().map(|i| ALPHABET[i]).collect()
    })
}

proptest! {
    /// Recorded samples must be bounded by the exact min/max, percentiles
    /// must be monotone and stay inside `[min, max]`, and the bucket counts
    /// must account for every sample under strictly increasing bounds.
    #[test]
    fn histogram_invariants(ns in prop::collection::vec(1u64..5_000_000_000u64, 1..200)) {
        let registry = Registry::new();
        let hist = registry.histogram("h");
        for &v in &ns {
            hist.record_ns(v);
        }

        let min = *ns.iter().min().unwrap();
        let max = *ns.iter().max().unwrap();
        let snap = registry.snapshot();
        let h = snap.histogram("h").unwrap();

        prop_assert_eq!(h.count, ns.len() as u64);
        prop_assert_eq!(h.sum_ns, ns.iter().copied().map(u128::from).sum::<u128>() as u64);
        prop_assert_eq!(h.min_ns, min);
        prop_assert_eq!(h.max_ns, max);

        let [p50, p90, p99] = [0.5, 0.9, 0.99].map(|q| h.quantile_ns(q));
        prop_assert!(p50 >= min && p50 <= max);
        prop_assert!(p50 <= p90 && p90 <= p99);
        prop_assert!(p99 <= max);

        let bucket_total: u64 = h.buckets.iter().map(|b| b.count).sum();
        prop_assert_eq!(bucket_total, ns.len() as u64);
        for pair in h.buckets.windows(2) {
            prop_assert!(pair[0].le_ns < pair[1].le_ns, "bucket bounds must increase");
        }
    }

    /// Clamping: any `p`, including NaN and out-of-range, yields a value
    /// inside `[min, max]` of the recorded samples.
    #[test]
    fn percentile_is_always_in_range(
        ns in prop::collection::vec(1u64..10_000_000u64, 1..50),
        p in -50.0f64..150.0,
    ) {
        let registry = Registry::new();
        let hist = registry.histogram("h");
        for &v in &ns {
            hist.record_ns(v);
        }
        let min = *ns.iter().min().unwrap();
        let max = *ns.iter().max().unwrap();
        for q in [p / 100.0, f64::NAN] {
            let v = hist.quantile(q).as_nanos() as u64;
            prop_assert!(v >= min && v <= max, "p={} gave {} outside [{}, {}]", q, v, min, max);
        }
    }

    /// The JSON export is lossless for arbitrary metric names (including
    /// characters that need escaping) and values.
    #[test]
    fn json_export_round_trips(
        counters in prop::collection::vec((metric_name(), 0u64..u64::MAX / 2), 0..6),
        gauges in prop::collection::vec((metric_name(), -1.0e12f64..1.0e12), 0..6),
        samples in prop::collection::vec((metric_name(), prop::collection::vec(1u64..1_000_000_000u64, 1..20)), 0..4),
    ) {
        let registry = Registry::new();
        for (name, v) in &counters {
            registry.counter(name).add(*v);
        }
        for (name, v) in &gauges {
            registry.gauge(name).set(*v);
        }
        for (name, values) in &samples {
            let hist = registry.histogram(name);
            for &v in values {
                hist.record_ns(v);
            }
        }

        let snap = registry.snapshot();
        let json = snap.to_json();
        let parsed = Snapshot::from_json(&json)
            .map_err(|e| TestCaseError::Fail(format!("parse failed: {e}\n{json}")))?;
        prop_assert_eq!(parsed, snap);
    }

    /// Ring wrap-around keeps exactly the newest `capacity` events (or all
    /// of them when fewer were written), in order, and accounts for every
    /// overwritten event in `dropped`.
    #[test]
    fn trace_ring_retains_newest_events(
        capacity in 2usize..64,
        writes in 0u64..300,
    ) {
        let tracer = Tracer::with_capacity(capacity);
        for i in 0..writes {
            tracer.instant_frame("tick", i);
        }
        let snap = tracer.snapshot();
        let retained = (writes as usize).min(capacity);
        prop_assert_eq!(snap.events.len(), retained);
        prop_assert_eq!(snap.dropped, writes.saturating_sub(capacity as u64));
        let expect_first = writes - retained as u64;
        for (offset, event) in snap.events.iter().enumerate() {
            prop_assert_eq!(event.frame_id, expect_first + offset as u64);
            prop_assert_eq!(event.kind, TraceKind::Instant);
        }
    }

    /// Interleaved spans and instants survive wrap: the merged snapshot is
    /// sequence-ordered, every `End` is newer than the events before it,
    /// and the Chrome export of a wrapped ring still parses.
    #[test]
    fn trace_ring_wrap_preserves_order_and_exports(
        capacity in 4usize..32,
        frames in 1u64..60,
    ) {
        let tracer = Tracer::with_capacity(capacity);
        for frame in 0..frames {
            let span = tracer.frame_span("frame", frame);
            tracer.instant("mid");
            span.stop();
        }
        let snap = tracer.snapshot();
        prop_assert!(snap.events.len() <= capacity);
        prop_assert_eq!(snap.events.len() as u64 + snap.dropped, frames * 3);
        for pair in snap.events.windows(2) {
            prop_assert!(pair[0].seq < pair[1].seq, "sequence-ordered");
            prop_assert!(pair[0].ts_ns <= pair[1].ts_ns, "single thread: time-ordered");
        }
        let parsed = ChromeTrace::parse(&ChromeTrace::to_string(&snap))
            .map_err(|e| TestCaseError::Fail(format!("chrome parse failed: {e}")))?;
        // Every End in the ring yields an X event even when its Begin was
        // overwritten (the End carries the duration).
        let ends = snap.events.iter().filter(|e| e.kind == TraceKind::End).count();
        prop_assert_eq!(parsed.iter().filter(|e| e.ph == 'X').count(), ends);
    }
}

/// Any `char`, drawn evenly from ASCII control bytes, printable ASCII
/// (quote and backslash among them), the rest of the BMP and the astral
/// planes. A surrogate code point, which is no `char`, becomes U+FFFD.
fn any_char() -> impl Strategy<Value = char> {
    (0u32..4, any::<u32>()).prop_map(|(range, bits)| {
        let code = match range {
            0 => bits % 0x20,
            1 => 0x20 + bits % 0x60,
            2 => bits % 0x1_0000,
            _ => 0x1_0000 + bits % 0x10_0000,
        };
        char::from_u32(code).unwrap_or('\u{FFFD}')
    })
}

/// The number text of a parsed value.
fn number(v: &JsonValue) -> Result<&str, TestCaseError> {
    match v {
        JsonValue::Number(text) => Ok(text),
        other => Err(TestCaseError::Fail(format!("not a number: {other:?}"))),
    }
}

proptest! {
    /// The writer↔reader contract: whatever `JsonWriter` emits,
    /// `JsonValue::parse` reads back to the value written — any string
    /// (as a value and as a key), any `u64`, any flag, and any `f32` or
    /// `f64` bit pattern, non-finite ones as `0.0` (`format_f64`'s rule).
    #[test]
    fn writer_output_parses_back_to_the_written_values(
        chars in prop::collection::vec(any_char(), 0..24),
        int in any::<u64>(),
        flag in any::<bool>(),
        single in any::<u32>().prop_map(f32::from_bits),
        double in any::<u64>().prop_map(f64::from_bits),
    ) {
        let text: String = chars.into_iter().collect();
        let json = JsonWriter::render(|w| {
            w.array(|w| {
                w.value(&text[..]).value(int).value(flag).value(single).value(double);
                w.object(|w| {
                    w.field(&text, 0u64);
                });
            });
        });
        let parsed = JsonValue::parse(&json)
            .map_err(|e| TestCaseError::Fail(format!("parse failed: {e}\n{json}")))?;
        let items = parsed.as_array().expect("an array");
        prop_assert_eq!(items.len(), 6);
        prop_assert_eq!(items[0].as_str(), Some(text.as_str()));
        prop_assert_eq!(number(&items[1])?.parse::<u64>().ok(), Some(int));
        prop_assert_eq!(items[2].as_u64(), Some(u64::from(flag)));
        let single_back: f32 = number(&items[3])?.parse().expect("an f32");
        let double_back: f64 = number(&items[4])?.parse().expect("an f64");
        if single.is_finite() {
            prop_assert_eq!(single_back.to_bits(), single.to_bits());
        } else {
            prop_assert_eq!(single_back.to_bits(), 0.0f32.to_bits());
        }
        if double.is_finite() {
            prop_assert_eq!(double_back.to_bits(), double.to_bits());
        } else {
            prop_assert_eq!(double_back.to_bits(), 0.0f64.to_bits());
        }
        let keys: Vec<&String> = items[5].as_object().expect("an object").keys().collect();
        prop_assert_eq!(keys, vec![&text]);
    }
}

/// Brute-force model of the rolling window's documented semantics: a map
/// from ring slot to the (newest epoch, samples) pair it holds. Records
/// for an older epoch than the slot's current occupant are dropped.
fn window_oracle(
    sub_buckets: u64,
    bucket_ns: u64,
    records: &[(u64, u64)],
    query_ns: u64,
) -> (u64, u64) {
    use std::collections::BTreeMap;
    let mut slots: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new(); // slot -> (epoch, count, sum)
    for &(t, v) in records {
        let epoch = t / bucket_ns;
        let slot = epoch % sub_buckets;
        let e = slots.entry(slot).or_insert((epoch, 0, 0));
        if epoch < e.0 {
            continue; // older than the slot's occupant: dropped
        }
        if epoch > e.0 {
            *e = (epoch, 0, 0); // recycled in place
        }
        e.1 += 1;
        e.2 += v;
    }
    let now_epoch = query_ns / bucket_ns;
    let oldest = now_epoch.saturating_sub(sub_buckets - 1);
    let mut count = 0;
    let mut sum = 0;
    for (epoch, c, s) in slots.values() {
        if *epoch >= oldest && *epoch <= now_epoch {
            count += c;
            sum += s;
        }
    }
    (count, sum)
}

proptest! {
    /// Bucket rotation under arbitrary monotone clocks — including skips
    /// far past the window and multiple ring wraps — agrees with the
    /// brute-force oracle on windowed count and sum, and the percentile
    /// estimates stay inside the window's [min, max].
    #[test]
    fn rolling_window_rotation_matches_oracle(
        sub_buckets in 1usize..12,
        steps in prop::collection::vec((0u64..3_000_000_000u64, 1u64..1_000_000u64), 1..60),
    ) {
        let w = RollingWindow::new(std::time::Duration::from_secs(10), sub_buckets);
        let b = w.bucket_ns();
        // Cumulative deltas give a monotone clock; deltas up to 3s on a
        // 10s/N-bucket window exercise skips and wraps.
        let mut t = 0u64;
        let mut records = Vec::with_capacity(steps.len());
        for &(dt, v) in &steps {
            t += dt;
            records.push((t, v));
            w.record_at(t, v);
        }
        let s = w.stats_at(t);
        let (count, sum) = window_oracle(sub_buckets as u64, b, &records, t);
        prop_assert_eq!(s.count, count);
        prop_assert_eq!(s.sum, sum);
        prop_assert_eq!(s.window_ns, w.window_ns());

        if count == 0 {
            prop_assert_eq!(s.p50_ns, 0);
            prop_assert_eq!(s.p99_ns, 0);
        } else {
            let oldest = (t / b).saturating_sub(sub_buckets as u64 - 1) * b;
            let live: Vec<u64> = records
                .iter()
                .filter(|(rt, _)| *rt >= oldest)
                .map(|&(_, v)| v)
                .collect();
            let min = *live.iter().min().unwrap();
            let max = *live.iter().max().unwrap();
            prop_assert!(s.p50_ns >= min && s.p50_ns <= max);
            prop_assert!(s.p50_ns <= s.p99_ns && s.p99_ns <= max);
        }
    }

    /// Out-of-order and stale writers: records older than what their ring
    /// slot holds are dropped, never resurrected — the oracle models the
    /// same rule, and a query never counts more than was recorded.
    #[test]
    fn rolling_window_drops_stale_records_like_the_oracle(
        sub_buckets in 1usize..10,
        records in prop::collection::vec((0u64..40_000_000_000u64, 1u64..1_000u64), 1..60),
    ) {
        let w = RollingWindow::new(std::time::Duration::from_secs(10), sub_buckets);
        let b = w.bucket_ns();
        for &(t, v) in &records {
            w.record_at(t, v);
        }
        let query = records.iter().map(|&(t, _)| t).max().unwrap();
        let s = w.stats_at(query);
        let (count, sum) = window_oracle(sub_buckets as u64, b, &records, query);
        prop_assert_eq!(s.count, count);
        prop_assert_eq!(s.sum, sum);
        prop_assert!(s.count <= records.len() as u64);
    }

    /// Concurrent writers all land: when every record carries an in-window
    /// timestamp, the merged stats equal the sequential sum regardless of
    /// thread interleaving.
    #[test]
    fn rolling_window_concurrent_writers_agree_with_sequential(
        per_thread in prop::collection::vec(
            prop::collection::vec((0u64..10_000_000_000u64, 1u64..1_000_000u64), 1..20),
            1..4,
        ),
    ) {
        let w = std::sync::Arc::new(RollingWindow::new(std::time::Duration::from_secs(10), 10));
        // All timestamps fall inside one window span ending at `end`, so
        // nothing can age out or be recycled mid-test.
        let end = w.window_ns() - 1;
        let handles: Vec<_> = per_thread
            .iter()
            .map(|recs| {
                let w = std::sync::Arc::clone(&w);
                let recs: Vec<(u64, u64)> =
                    recs.iter().map(|&(t, v)| (t.min(end), v)).collect();
                std::thread::spawn(move || {
                    for (t, v) in recs {
                        w.record_at(t, v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer thread");
        }
        let s = w.stats_at(end);
        let expect_count: u64 = per_thread.iter().map(|r| r.len() as u64).sum();
        let expect_sum: u64 = per_thread.iter().flatten().map(|&(_, v)| v).sum();
        prop_assert_eq!(s.count, expect_count);
        prop_assert_eq!(s.sum, expect_sum);
    }
}
