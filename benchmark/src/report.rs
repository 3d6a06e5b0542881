//! Metric names and units (the same lists `BENCHMARK.json` declares — a
//! test holds them together) and the result line the driver reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by the runner (`--trace 0`).
pub fn end_to_end() -> Vec<(String, &'static str)> {
    [
        ("setup_s", "s"),
        ("images_per_s", "1/s"),
        ("latency_ms_p5", "ms"),
        ("peak_rss_mb", "MiB"),
    ]
    .map(|(name, unit)| (name.to_string(), unit))
    .to_vec()
}

/// DroNet has nine convolutions; the per-conv metrics are numbered 1–9.
pub const CONVS: usize = 9;

/// Per-layer metrics of the traced run, outside-in; the per-conv ones are
/// spliced in where `nn.conv` and `tensor.conv` stand.
const PER_LAYER: &[(&str, &str)] = &[
    ("bench.samples", "count"),
    ("bench.attempted", "count"),
    ("bench.failed", "count"),
    ("bench.latency_ms_p5", "ms"),
    ("bench.latency_ms_p50", "ms"),
    ("bench.latency_ms_p90", "ms"),
    ("bench.latency_ms_p99", "ms"),
    ("bench.trace_overhead_share", "share"),
    ("obs.detect_overhead_share", "share"),
    ("serve.request_ms_p5", "ms"),
    ("serve.residual_ms", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.http_parse_ms", "ms"),
    ("serve.json_ms", "ms"),
    ("serve.write_ms", "ms"),
    ("serve.request_bytes", "B"),
    ("serve.response_bytes", "B"),
    ("data.ppm_read_ms", "ms"),
    ("data.to_tensor_ms", "ms"),
    ("data.ppm_bytes", "B"),
    ("data.scene_gen_ms", "ms"),
    ("core.build_ms", "ms"),
    ("tile.select_ms", "ms"),
    ("tile.extract_ms", "ms"),
    ("tile.run_tiles_ms", "ms"),
    ("tile.merge_ms", "ms"),
    ("tile.ms_per_tile", "ms"),
    ("tile.tiles_per_frame", "count"),
    ("tile.selected_share", "share"),
    ("detect.detect_ms", "ms"),
    ("detect.decode_ms", "ms"),
    ("detect.nms_ms", "ms"),
    ("detect.candidates_per_image", "count"),
    ("detect.kept_per_image", "count"),
    ("nn.forward_ms", "ms"),
    ("nn.batch_ms_per_image", "ms"),
    ("nn.conv", ""),
    ("nn.maxpool_ms", "ms"),
    ("nn.region_ms", "ms"),
    ("nn.epilogue_ms", "ms"),
    ("tensor.im2col_ms", "ms"),
    ("tensor.sgemm_ms", "ms"),
    ("tensor.sgemm_gflops", "GFLOP/s"),
    ("tensor.im2col_gbps", "GB/s"),
    ("tensor.flops_per_image", "count"),
    ("tensor.col_bytes_per_image", "B"),
    ("tensor.worker_count", "count"),
    ("tensor.conv", ""),
];

/// Per-layer metrics, printed by the trace binary (`--trace 1`).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut metrics = Vec::new();
    for &(name, unit) in PER_LAYER {
        match name {
            "nn.conv" => metrics.extend((1..=CONVS).map(|n| (format!("nn.conv{n}_ms"), "ms"))),
            "tensor.conv" => {
                for n in 1..=CONVS {
                    metrics.push((format!("tensor.conv{n}.im2col_ms"), "ms"));
                    metrics.push((format!("tensor.conv{n}.sgemm_ms"), "ms"));
                    metrics.push((format!("tensor.conv{n}.gflops"), "GFLOP/s"));
                }
            }
            _ => metrics.push((name.to_string(), unit)),
        }
    }
    metrics
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Prints every metric by name with its unit, then — as the last line of
/// standard output — the JSON object the driver reads. `order` fixes which
/// metrics are due and in which order. The run is correct when nothing
/// failed; a missing or non-finite value is a bug in the benchmark (or a
/// run without one correct frame) and also clears `correct`.
pub fn print_result(
    order: &[(String, &'static str)],
    values: &BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
) {
    let mut correct = failed == 0 && attempted >= 1;
    let mut json = String::new();
    for (i, (name, unit)) in order.iter().enumerate() {
        let value = match values.get(name) {
            Some(v) if v.is_finite() => *v,
            other => {
                eprintln!("benchmark bug: metric {name} is {other:?}");
                correct = false;
                -1.0
            }
        };
        println!("{name:<34} {value:>16.6} {unit}");
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dronet_obs::JsonValue;

    #[test]
    fn per_layer_names_are_unique_and_within_the_contract() {
        let names = per_layer();
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in &names {
            assert!(seen.insert(name.clone()), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
        }
        assert!(names.len() <= 128, "{} per-layer metrics", names.len());
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(JsonValue::as_array)
                .unwrap_or_else(|| panic!("{key} array"))
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: Vec<(String, &'static str)>| -> Vec<(String, String)> {
            list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), own(end_to_end()));
        assert_eq!(declared("per_layer"), own(per_layer()));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        let own_names: Vec<String> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, own_names);
        assert_eq!(
            json.get("run_seconds").and_then(JsonValue::as_f64),
            Some(crate::args::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn vm_hwm_is_readable_here() {
        assert!(peak_rss_mib() > 1.0);
    }
}
