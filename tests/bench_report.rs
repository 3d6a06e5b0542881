//! The committed grid reports (`BENCH_PR8.json` and `BENCH_PR10.json`,
//! written by the `--serve-grid` and `--replica-grid` modes of `cargo run
//! --release -p dronet-bench --bin bench_report`) must stay parseable by
//! the in-tree JSON reader and schema-stable, and must keep the claims
//! they were committed for.

use dronet::obs::JsonValue;
use std::path::Path;

fn load_named(name: &str) -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()));
    JsonValue::parse(&text)
        .unwrap_or_else(|e| panic!("{name} does not parse with the in-tree reader: {e:?}"))
}

/// The header every report of the shared writer carries.
fn assert_header(report: &JsonValue, pr: &str) {
    assert_eq!(
        report.get("schema").and_then(JsonValue::as_str),
        Some("dronet-bench-report")
    );
    assert_eq!(report.get("version").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(report.get("pr").and_then(JsonValue::as_str), Some(pr));
}

fn load_serve_report() -> JsonValue {
    load_named("BENCH_PR8.json")
}

#[test]
fn serve_report_is_schema_stable() {
    let report = load_serve_report();
    assert_header(&report, "PR8");
    assert!(
        report
            .get("secs_per_row")
            .and_then(JsonValue::as_f64)
            .unwrap()
            > 0.0
    );
    assert!(
        report
            .get("connections")
            .and_then(JsonValue::as_u64)
            .unwrap()
            >= 1
    );
}

#[test]
fn serve_grid_covers_loads_and_stays_consistent() {
    let report = load_serve_report();
    let rows = report
        .get("serve_grid")
        .and_then(JsonValue::as_array)
        .expect("serve_grid array");
    let mut loads = std::collections::BTreeSet::new();
    let mut rates = std::collections::BTreeSet::new();
    for row in rows {
        assert_eq!(row.get("model").and_then(JsonValue::as_str), Some("DroNet"));
        let input = row.get("input").and_then(JsonValue::as_u64).unwrap();
        let batch = row.get("max_batch").and_then(JsonValue::as_u64).unwrap();
        let load = row.get("load").and_then(JsonValue::as_str).unwrap();
        loads.insert(load.to_string());
        rates.insert(format!(
            "{}",
            row.get("rate_hz").and_then(JsonValue::as_f64).unwrap()
        ));
        let ctx = format!("@{input}/batch{batch}/{load}");
        // Conservation: every scheduled arrival is accounted for once.
        let offered = row.get("offered").and_then(JsonValue::as_u64).unwrap();
        let ok = row.get("ok").and_then(JsonValue::as_u64).unwrap();
        let shed = row.get("shed").and_then(JsonValue::as_u64).unwrap();
        let errors = row.get("errors").and_then(JsonValue::as_u64).unwrap();
        let timeouts = row.get("timeouts").and_then(JsonValue::as_u64).unwrap();
        let dropped = row.get("dropped").and_then(JsonValue::as_u64).unwrap();
        assert_eq!(
            ok + shed + errors + timeouts + dropped,
            offered,
            "{ctx}: outcome counts must partition the offered load"
        );
        assert!(ok > 0, "{ctx}: no successful responses");
        // Quantiles are ordered and flags are 0/1 (the in-tree JSON
        // subset has no booleans).
        let p50 = row.get("ok_p50_ms").and_then(JsonValue::as_f64).unwrap();
        let p99 = row.get("ok_p99_ms").and_then(JsonValue::as_f64).unwrap();
        let p999 = row.get("ok_p999_ms").and_then(JsonValue::as_f64).unwrap();
        assert!(p50 > 0.0 && p50 <= p99 && p99 <= p999, "{ctx}: quantiles");
        for flag in ["slo_latency_breached", "slo_availability_breached"] {
            let v = row.get(flag).and_then(JsonValue::as_u64).unwrap();
            assert!(v <= 1, "{ctx}: {flag} must be 0/1, got {v}");
        }
        if load == "overload" {
            assert!(shed > 0, "{ctx}: overload must shed, not just queue");
            assert_eq!(
                row.get("slo_availability_breached")
                    .and_then(JsonValue::as_u64),
                Some(1),
                "{ctx}: sustained shedding must breach the availability SLO"
            );
        }
        if load == "low" {
            assert_eq!(shed, 0, "{ctx}: comfortable load must not shed");
        }
    }
    for load in ["low", "mid", "overload"] {
        assert!(loads.contains(load), "missing {load} rows");
    }
    assert!(
        rates.len() >= 3,
        "the grid needs at least three distinct arrival rates: {rates:?}"
    );
}

fn load_replica_report() -> JsonValue {
    load_named("BENCH_PR10.json")
}

#[test]
fn replica_report_is_schema_stable() {
    let report = load_replica_report();
    assert_header(&report, "PR10");
    assert!(
        report
            .get("secs_per_row")
            .and_then(JsonValue::as_f64)
            .unwrap()
            > 0.0
    );
    assert!(
        report
            .get("connections")
            .and_then(JsonValue::as_u64)
            .unwrap()
            >= 1
    );
    // The kill schedule is reproducible from this seed alone.
    assert!(report.get("seed").and_then(JsonValue::as_u64).is_some());
    assert!(report.get("rate_hz").and_then(JsonValue::as_f64).unwrap() > 0.0);
}

#[test]
fn replica_grid_covers_scenarios_and_stays_consistent() {
    let report = load_replica_report();
    let rows = report
        .get("replica_grid")
        .and_then(JsonValue::as_array)
        .expect("replica_grid array");
    assert_eq!(rows.len(), 3, "single, baseline, kill_one");
    let mut scenarios = std::collections::BTreeSet::new();
    for row in rows {
        let scenario = row.get("scenario").and_then(JsonValue::as_str).unwrap();
        scenarios.insert(scenario.to_string());
        let replicas = row.get("replicas").and_then(JsonValue::as_u64).unwrap();
        assert_eq!(
            replicas,
            if scenario == "single" { 1 } else { 3 },
            "{scenario}: replica count"
        );
        // Conservation: every scheduled arrival is accounted for once
        // (the replica grid reports mid-stream resets separately).
        let offered = row.get("offered").and_then(JsonValue::as_u64).unwrap();
        let ok = row.get("ok").and_then(JsonValue::as_u64).unwrap();
        let shed = row.get("shed").and_then(JsonValue::as_u64).unwrap();
        let errors = row.get("errors").and_then(JsonValue::as_u64).unwrap();
        let timeouts = row.get("timeouts").and_then(JsonValue::as_u64).unwrap();
        let dropped = row.get("dropped").and_then(JsonValue::as_u64).unwrap();
        let reset = row.get("reset").and_then(JsonValue::as_u64).unwrap();
        assert_eq!(
            ok + shed + errors + timeouts + dropped + reset,
            offered,
            "{scenario}: outcome counts must partition the offered load"
        );
        assert!(ok > 0, "{scenario}: no successful responses");
        assert!(
            row.get("goodput_rps").and_then(JsonValue::as_f64).unwrap() > 0.0,
            "{scenario}: goodput"
        );
        let p50 = row.get("ok_p50_ms").and_then(JsonValue::as_f64).unwrap();
        let p99 = row.get("ok_p99_ms").and_then(JsonValue::as_f64).unwrap();
        assert!(p50 > 0.0 && p50 <= p99, "{scenario}: quantiles");
        let worst = row.get("worst_health").and_then(JsonValue::as_u64).unwrap();
        assert!(worst <= 2, "{scenario}: worst_health is a Health metric");
        if scenario != "kill_one" {
            for c in [
                "quarantine_entered",
                "quarantine_readmitted",
                "canary_failed",
            ] {
                assert_eq!(
                    row.get(c).and_then(JsonValue::as_u64),
                    Some(0),
                    "{scenario}: {c} without a kill"
                );
            }
        }
    }
    for s in ["single", "baseline", "kill_one"] {
        assert!(scenarios.contains(s), "missing {s} row");
    }
}

#[test]
fn replica_kill_holds_goodput_and_readmits_through_the_canary() {
    let report = load_replica_report();
    let rows = report
        .get("replica_grid")
        .and_then(JsonValue::as_array)
        .expect("replica_grid array");
    let row = |name: &str| {
        rows.iter()
            .find(|r| r.get("scenario").and_then(JsonValue::as_str) == Some(name))
            .unwrap_or_else(|| panic!("{name} row"))
    };
    let baseline = row("baseline");
    let killed = row("kill_one");
    let claims = report.get("claims").expect("claims object");

    // The headline claim: killing 1 of 3 replicas mid-storm holds
    // goodput at >= the locked fraction of the unkilled baseline.
    let ratio = claims
        .get("goodput_ratio_kill_vs_baseline")
        .and_then(JsonValue::as_f64)
        .unwrap();
    let floor = claims
        .get("goodput_ratio_min")
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert!(floor >= 0.6, "the locked floor must be at least 0.6");
    assert!(
        ratio >= floor,
        "kill-one goodput ratio {ratio} fell below the locked floor {floor}"
    );
    // And the claim must match the rows it summarizes.
    let recomputed = killed
        .get("goodput_rps")
        .and_then(JsonValue::as_f64)
        .unwrap()
        / baseline
            .get("goodput_rps")
            .and_then(JsonValue::as_f64)
            .unwrap();
    assert!(
        (ratio - recomputed).abs() < 1e-3,
        "claimed ratio {ratio} disagrees with the rows ({recomputed})"
    );

    // Losing a replica degrades, never halts.
    assert_eq!(
        claims
            .get("kill_halted_observed")
            .and_then(JsonValue::as_u64),
        Some(0)
    );
    assert!(
        killed
            .get("worst_health")
            .and_then(JsonValue::as_u64)
            .unwrap()
            <= 1,
        "the kill row must never observe Halted"
    );

    // The killed replica went through quarantine and came back through
    // the canary gate — including the one forced canary failure.
    for (counter, min) in [
        ("quarantine_entered", 1),
        ("quarantine_readmitted", 1),
        ("canary_failed", 1),
        ("hedge_issued", 1),
    ] {
        assert!(
            killed.get(counter).and_then(JsonValue::as_u64).unwrap() >= min,
            "kill row {counter} must be >= {min}"
        );
    }
}
