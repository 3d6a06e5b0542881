//! Bench-report harness: three measurement grids that each write one
//! schema-stable JSON report the in-tree JSON reader
//! ([`dronet_obs::JsonValue`]) parses back and `tests/bench_report.rs`
//! locks. How fast a forward is is not measured here: that is the repo
//! benchmark's job (`bash benchmark/run.sh`, see `BENCHMARK.json`).
//!
//! ```text
//! cargo run --release -p dronet-bench --bin bench_report -- \
//!     --serve-grid [BENCH_PR8.json]
//! cargo run --release -p dronet-bench --bin bench_report -- \
//!     --tile-grid [BENCH_PR9.json]
//! cargo run --release -p dronet-bench --bin bench_report -- \
//!     --replica-grid [BENCH_PR10.json]
//! ```
//!
//! Run with no mode, the binary prints this usage and exits non-zero. The
//! schema deliberately uses only objects, arrays, strings, and numbers —
//! the subset the in-tree reader supports.
//!
//! `--serve-grid` runs the serving-SLO grid (`BENCH_PR8.json`): for each
//! input size × `max_batch`, an in-process server is driven by the
//! open-loop load generator at three offered-load levels (fractions and
//! multiples of the measured forward capacity), reporting
//! coordinated-omission-corrected latency quantiles, goodput, the
//! shed/timeout/drop breakdown, and the server's own SLO verdicts from
//! `GET /debug/slo`. `DRONET_LOADGEN_SECS` / `DRONET_LOADGEN_CONNS`
//! shrink rows for CI smoke runs.
//!
//! `--replica-grid` runs the replica-kill chaos grid (`BENCH_PR10.json`):
//! the same storm of open-loop load is driven at a single-replica server,
//! a 3-replica server, and a 3-replica server whose seeded
//! [`ReplicaChaosPlan`] kills one replica mid-storm (panic or wedge
//! injection, healed in the second half). Each row reports goodput, the
//! hedge and quarantine counters, and the worst service health observed
//! by an in-process sampler. The grid self-asserts its headline claims —
//! the kill row holds ≥ [`REPLICA_GOODPUT_MIN_RATIO`] of baseline
//! goodput, degrades without ever halting, and re-admits the killed
//! replica through the canary gate (one forced canary failure first) —
//! and `tests/bench_report.rs` locks the committed report. Seeded end to
//! end ([`REPLICA_SEED`]): the same kill schedule and arrival plan every
//! run. `DRONET_REPLICA_SECS` / `DRONET_REPLICA_CONNS` shrink rows for CI
//! smoke runs.
//!
//! `--tile-grid` runs the selective-tiling accuracy-vs-FLOPs grid
//! (`BENCH_PR9.json`): synthetic large aerial frames are processed three
//! ways — selective tiling (the `dronet-tile` pipeline), exhaustive
//! all-tiles, and whole-frame downscale to the detector input — and each
//! mode reports IoU/sensitivity/precision against ground truth plus FLOPs
//! and ms/frame. Accuracy uses a geometric detectability oracle (vehicles
//! below [`MIN_DETECT_PX`] apparent pixels are invisible to the network,
//! per the paper's small-object argument) run through the *real* selector,
//! merger and tracker; timing replays the recorded tile sets through the
//! real CNN. `DRONET_TILE_SIZES` / `DRONET_TILE_FRAMES` shrink the grid
//! for CI smoke runs.

use dronet_bench::loadgen::{frame_corpus, run_plan, ArrivalPlan, LoadgenConfig, Phase};
use dronet_bench::{input_image, model};
use dronet_core::ModelId;
use dronet_data::scene::{LargeSceneConfig, LargeSceneGenerator};
use dronet_detect::track::{Tracker, TrackerConfig};
use dronet_detect::{resize_frame_bilinear, Detection, DetectorBuilder};
use dronet_metrics::matching::{match_detections, MatchResult, DEFAULT_IOU_THRESHOLD};
use dronet_metrics::BBox;
use dronet_obs::{JsonValue, Registry, Tracer};
use dronet_serve::{DetectorFactory, ReplicaChaosPlan, ServeConfig, Server};
use dronet_tile::{
    MergeConfig, SelectorConfig, TileGrid, TileMerger, TileSelector, TiledDetector,
    TiledDetectorConfig,
};
use rand::rngs::SplitMix64;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The schema version stamped into the report; bump when a field changes
/// meaning so regression tooling can refuse to compare across versions.
const SCHEMA_VERSION: u64 = 1;

/// One value of a report field.
enum Val {
    Int(u64),
    /// Written as a plain four-decimal number the in-tree reader
    /// round-trips (Rust's `f64` Display never emits scientific notation).
    Num(f64),
    Str(&'static str),
}
use Val::{Int, Num, Str};

/// The ordered `key: value` pairs of a report header, grid row or claims
/// block.
type Fields = Vec<(&'static str, Val)>;

/// The one report writer of the three grids: stamps the schema header,
/// then `header`, the `grid` array with one line per row and, when there
/// are any, a trailing `claims` object; parses the text back with the
/// in-tree reader, checks the grid holds `expected_rows`, and only then
/// writes `path`.
///
/// # Panics
///
/// On a non-finite [`Num`], naming the field: `NaN` and `inf` come from a
/// broken row (a zero-duration division, an empty quantile) and must not
/// reach a committed file looking like a measurement.
fn write_report(
    path: &str,
    pr: &'static str,
    header: Fields,
    grid: &str,
    rows: Vec<Fields>,
    expected_rows: usize,
    claims: Fields,
) {
    fn join(out: &mut String, fields: &Fields, indent: &str, sep: &str) {
        for (i, (key, val)) in fields.iter().enumerate() {
            let _ = write!(out, "{}{indent}\"{key}\": ", if i > 0 { sep } else { "" });
            let _ = match val {
                Int(v) => write!(out, "{v}"),
                Num(v) => {
                    assert!(v.is_finite(), "report field `{key}` is not finite: {v}");
                    write!(out, "{v:.4}")
                }
                Str(v) => write!(out, "\"{v}\""),
            };
        }
    }
    let mut top: Fields = vec![
        ("schema", Str("dronet-bench-report")),
        ("version", Int(SCHEMA_VERSION)),
        ("pr", Str(pr)),
    ];
    top.extend(header);
    let mut out = String::from("{\n");
    join(&mut out, &top, "  ", ",\n");
    let _ = writeln!(out, ",\n  \"{grid}\": [");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {");
        join(&mut out, row, "", ", ");
        out.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]");
    if !claims.is_empty() {
        out.push_str(",\n  \"claims\": {\n");
        join(&mut out, &claims, "    ", ",\n");
        out.push_str("\n  }");
    }
    out.push_str("\n}\n");

    let parsed = JsonValue::parse(&out).expect("report parses with the in-tree reader");
    let parsed_rows = parsed
        .get(grid)
        .and_then(JsonValue::as_array)
        .expect("grid array");
    assert_eq!(parsed_rows.len(), expected_rows, "{grid} row count");

    std::fs::write(path, &out).expect("write report");
    eprintln!("wrote {path} ({} {grid} rows)", rows.len());
}

/// The serving grid (`BENCH_PR8.json`): input sizes × batch configs ×
/// offered-load levels, each row driven by the open-loop load generator.
const SERVE_INPUTS: [usize; 2] = [64, 96];
const SERVE_BATCHES: [usize; 2] = [1, 8];
/// Offered load as a multiple of the measured single-worker forward
/// capacity: comfortable, busy, and deliberately impossible. 6× (not 2×)
/// because max_batch=8 coalescing can amortize most of the per-forward
/// cost — the overload row must overwhelm the *batched* service rate.
const SERVE_LOADS: [(&str, f64); 3] = [("low", 0.2), ("mid", 0.6), ("overload", 6.0)];

struct ServeGridRow {
    input: usize,
    max_batch: usize,
    load: &'static str,
    rate_hz: f64,
    offered: u64,
    ok: u64,
    shed: u64,
    errors: u64,
    timeouts: u64,
    dropped: u64,
    goodput_rps: f64,
    ok_p50_ms: f64,
    ok_p99_ms: f64,
    ok_p999_ms: f64,
    slo_latency_breached: u8,
    slo_availability_breached: u8,
}

/// One-shot `GET` against the spawned server; returns the body.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect for GET");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let head = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    stream.write_all(head.as_bytes()).expect("write GET");
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .expect("read GET response");
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head terminator");
    String::from_utf8_lossy(&response[split + 4..]).into_owned()
}

/// Measures one worker's un-batched service capacity at `input`, in
/// forwards per second — the grid's load levels are multiples of this.
fn measure_capacity_rps(input: usize, iters: usize) -> f64 {
    let mut net = model(ModelId::DroNet, input);
    let x = input_image(input, 42);
    net.forward(&x).expect("warmup forward");
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(net.forward(&x).expect("timed forward").len());
    }
    iters as f64 / t0.elapsed().as_secs_f64()
}

fn serve_grid_main(path: &str) {
    let secs: f64 = std::env::var("DRONET_LOADGEN_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(4.0);
    let connections: usize = std::env::var("DRONET_LOADGEN_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&c| c > 0)
        .unwrap_or(128);

    let mut rows: Vec<ServeGridRow> = Vec::new();
    for (ii, &input) in SERVE_INPUTS.iter().enumerate() {
        let capacity = measure_capacity_rps(input, 10);
        eprintln!("DroNet @{input}: ~{capacity:.0} forwards/s single-worker capacity");
        let frames = frame_corpus(input);
        for (bi, &max_batch) in SERVE_BATCHES.iter().enumerate() {
            for (li, &(load, factor)) in SERVE_LOADS.iter().enumerate() {
                let rate_hz = (capacity * factor).max(5.0);
                let factory: DetectorFactory = Arc::new(move || {
                    let net = dronet_core::zoo::build(dronet_core::ModelId::DroNet, input)?;
                    DetectorBuilder::new(net).confidence_threshold(0.3).build()
                });
                let config = ServeConfig {
                    workers: 1,
                    max_batch,
                    // Must sit below the connection count: the server
                    // admits at most one in-flight request per connection,
                    // so with queue_capacity >= connections the queue can
                    // never overflow and overload would show up only as
                    // latency, never as 503s.
                    queue_capacity: (connections / 2).max(8),
                    // Loadgen connections live for the whole row: no
                    // request budget, no idle reaping mid-run.
                    max_requests_per_connection: 1_000_000,
                    keep_alive_timeout: Duration::from_secs(30),
                    max_connections: 2048,
                    response_timeout: Duration::from_secs(10),
                    ..ServeConfig::default()
                };
                let server = Server::start(factory, config, &Registry::new(), &Tracer::noop())
                    .expect("spawn grid server");
                // One deterministic seed per row: replayable, and distinct
                // rows see distinct (but fixed) arrival noise.
                let seed = 0xC0FFEE + (ii * 100 + bi * 10 + li) as u64;
                let cfg = LoadgenConfig {
                    seed,
                    connections,
                    phases: vec![Phase::new(rate_hz, secs)],
                    frames: frames.clone(),
                    drain_timeout: Duration::from_secs(15),
                };
                let plan = ArrivalPlan::generate(cfg.seed, &cfg.phases);
                let report = run_plan(server.addr(), &cfg, &plan);
                let slo_body = http_get(server.addr(), "/debug/slo");
                let _ = server.shutdown();

                let slo = JsonValue::parse(&slo_body).expect("/debug/slo parses");
                let breached = |name: &str| -> u8 {
                    slo.get("slos")
                        .and_then(JsonValue::as_array)
                        .and_then(|slos| {
                            slos.iter()
                                .find(|s| s.get("name").and_then(JsonValue::as_str) == Some(name))
                        })
                        .and_then(|s| s.get("breached"))
                        .and_then(JsonValue::as_u64)
                        .map_or(0, |b| (b != 0) as u8)
                };
                let row = ServeGridRow {
                    input,
                    max_batch,
                    load,
                    rate_hz,
                    offered: report.offered,
                    ok: report.ok,
                    shed: report.shed,
                    errors: report.errors,
                    timeouts: report.timeouts,
                    // Schema stability: the serve grid predates the
                    // distinct mid-stream `reset` class, so fold it back
                    // into `dropped` here. The replica grid reports it
                    // separately.
                    dropped: report.dropped + report.reset,
                    goodput_rps: report.goodput(),
                    ok_p50_ms: report.ok_quantile_ns(0.50) as f64 / 1e6,
                    ok_p99_ms: report.ok_quantile_ns(0.99) as f64 / 1e6,
                    ok_p999_ms: report.ok_quantile_ns(0.999) as f64 / 1e6,
                    slo_latency_breached: breached("detect_latency"),
                    slo_availability_breached: breached("detect_availability"),
                };
                eprintln!(
                    "  @{input} batch {max_batch} {load} ({rate_hz:.0} Hz): \
                     ok={} shed={} timeouts={} dropped={} goodput={:.1}/s p99={:.1}ms \
                     slo_lat={} slo_avail={}",
                    row.ok,
                    row.shed,
                    row.timeouts,
                    row.dropped,
                    row.goodput_rps,
                    row.ok_p99_ms,
                    row.slo_latency_breached,
                    row.slo_availability_breached,
                );
                // The grid's headline claims, self-asserted: every row
                // keeps serving, and overload sheds instead of collapsing.
                assert!(row.ok > 0, "row @{input}/{max_batch}/{load} served nothing");
                if load == "overload" {
                    assert!(
                        row.shed > 0,
                        "overload row @{input}/{max_batch} shed nothing — raise the factor"
                    );
                }
                rows.push(row);
            }
        }
    }

    let rows = rows
        .iter()
        .map(|r| {
            vec![
                ("model", Str("DroNet")),
                ("input", Int(r.input as u64)),
                ("max_batch", Int(r.max_batch as u64)),
                ("load", Str(r.load)),
                ("rate_hz", Num(r.rate_hz)),
                ("offered", Int(r.offered)),
                ("ok", Int(r.ok)),
                ("shed", Int(r.shed)),
                ("errors", Int(r.errors)),
                ("timeouts", Int(r.timeouts)),
                ("dropped", Int(r.dropped)),
                ("goodput_rps", Num(r.goodput_rps)),
                ("ok_p50_ms", Num(r.ok_p50_ms)),
                ("ok_p99_ms", Num(r.ok_p99_ms)),
                ("ok_p999_ms", Num(r.ok_p999_ms)),
                ("slo_latency_breached", Int(r.slo_latency_breached.into())),
                (
                    "slo_availability_breached",
                    Int(r.slo_availability_breached.into()),
                ),
            ]
        })
        .collect();
    write_report(
        path,
        "PR8",
        vec![
            ("secs_per_row", Num(secs)),
            ("connections", Int(connections as u64)),
        ],
        "serve_grid",
        rows,
        SERVE_INPUTS.len() * SERVE_BATCHES.len() * SERVE_LOADS.len(),
        Vec::new(),
    );
}

/// The replica grid's detector input: small enough that a 3-replica
/// server plus the load generator fit comfortably in a CI runner.
const REPLICA_INPUT: usize = 64;
/// Offered load as a multiple of single-worker forward capacity: above
/// what one replica can serve alone, well under the 3-replica aggregate,
/// so losing one replica hurts but must not collapse goodput.
const REPLICA_LOAD_FACTOR: f64 = 1.5;
/// Seed of the kill schedule and of the arrival plan.
const REPLICA_SEED: u64 = 0xD0_0DCA4A;
/// The headline claim: killing 1 of 3 replicas mid-storm keeps goodput
/// at or above this fraction of the unkilled 3-replica baseline.
const REPLICA_GOODPUT_MIN_RATIO: f64 = 0.6;

/// One row of the replica-kill grid.
struct ReplicaRow {
    scenario: &'static str,
    replicas: usize,
    rate_hz: f64,
    offered: u64,
    ok: u64,
    shed: u64,
    errors: u64,
    timeouts: u64,
    dropped: u64,
    reset: u64,
    goodput_rps: f64,
    ok_p50_ms: f64,
    ok_p99_ms: f64,
    /// Worst service health the sampler saw: 0 Healthy, 1 Degraded,
    /// 2 Halted.
    worst_health: u8,
    hedge_issued: u64,
    hedge_won: u64,
    hedge_wasted: u64,
    quarantine_entered: u64,
    quarantine_readmitted: u64,
    canary_failed: u64,
}

/// The storm every replica-grid scenario shares: one seeded open-loop
/// arrival schedule, replayed identically against each server shape.
struct ReplicaStorm<'a> {
    rate_hz: f64,
    secs: f64,
    connections: usize,
    frames: &'a [Vec<u8>],
    seed: u64,
}

/// Drives one replica-grid scenario: spawns a server (`replicas`
/// replicas, optional seeded kill schedule), storms it with the open-loop
/// load generator, and samples service health throughout.
fn run_replica_row(
    scenario: &'static str,
    replicas: usize,
    chaos: Option<ReplicaChaosPlan>,
    canary_chaos_failures: usize,
    storm: &ReplicaStorm,
) -> ReplicaRow {
    let &ReplicaStorm {
        rate_hz,
        secs,
        connections,
        frames,
        seed,
    } = storm;
    let factory: DetectorFactory = Arc::new(move || {
        let net = dronet_core::zoo::build(dronet_core::ModelId::DroNet, REPLICA_INPUT)?;
        DetectorBuilder::new(net).confidence_threshold(0.3).build()
    });
    let config = ServeConfig {
        replicas,
        workers: 1,
        max_batch: 4,
        queue_capacity: (connections / 2).max(8),
        max_requests_per_connection: 1_000_000,
        keep_alive_timeout: Duration::from_secs(30),
        max_connections: 2048,
        response_timeout: Duration::from_secs(5),
        // Hedge stranded requests quickly: far above healthy p99 at this
        // input size, far below the wedge timeout.
        hedge_delay: (replicas > 1).then_some(Duration::from_millis(100)),
        // Tight supervision so kill → quarantine → canary → readmission
        // all complete within a CI-smoke-sized storm.
        watchdog_interval: Duration::from_millis(50),
        wedge_timeout: Duration::from_millis(250),
        chaos_wedge_hold: Duration::from_secs(2),
        quarantine_faults: 3,
        canary_chaos_failures,
        replica_chaos: chaos,
        ..ServeConfig::default()
    };
    let obs = Registry::new();
    let server =
        Server::start(factory, config, &obs, &Tracer::noop()).expect("spawn replica grid server");
    let cfg = LoadgenConfig {
        seed,
        connections,
        phases: vec![Phase::new(rate_hz, secs)],
        frames: frames.to_vec(),
        drain_timeout: Duration::from_secs(15),
    };
    let plan = ArrivalPlan::generate(cfg.seed, &cfg.phases);

    // Sample service health while the storm runs: the claim is about the
    // worst state ever reached, not the final state.
    let done = std::sync::atomic::AtomicBool::new(false);
    let (report, worst_health) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut worst = 0u8;
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                worst = worst.max(server.health() as u8);
                std::thread::sleep(Duration::from_millis(20));
            }
            worst
        });
        let report = run_plan(server.addr(), &cfg, &plan);
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        (report, sampler.join().expect("health sampler"))
    });
    let _ = server.shutdown();

    let counter = |name: &str| obs.counter(name).get();
    ReplicaRow {
        scenario,
        replicas,
        rate_hz,
        offered: report.offered,
        ok: report.ok,
        shed: report.shed,
        errors: report.errors,
        timeouts: report.timeouts,
        dropped: report.dropped,
        reset: report.reset,
        goodput_rps: report.goodput(),
        ok_p50_ms: report.ok_quantile_ns(0.50) as f64 / 1e6,
        ok_p99_ms: report.ok_quantile_ns(0.99) as f64 / 1e6,
        worst_health,
        hedge_issued: counter("serve.hedge.issued"),
        hedge_won: counter("serve.hedge.won"),
        hedge_wasted: counter("serve.hedge.wasted"),
        quarantine_entered: counter("serve.quarantine.entered"),
        quarantine_readmitted: counter("serve.quarantine.readmitted"),
        canary_failed: counter("serve.quarantine.canary_failed"),
    }
}

fn replica_grid_main(path: &str) {
    let secs: f64 = std::env::var("DRONET_REPLICA_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(6.0);
    let connections: usize = std::env::var("DRONET_REPLICA_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&c| c > 0)
        .unwrap_or(64);
    let capacity = measure_capacity_rps(REPLICA_INPUT, 10);
    let rate_hz = (capacity * REPLICA_LOAD_FACTOR).max(10.0);
    eprintln!(
        "DroNet @{REPLICA_INPUT}: ~{capacity:.0} forwards/s single-worker capacity, \
         storming at {rate_hz:.0} Hz for {secs}s per row"
    );
    let frames = frame_corpus(REPLICA_INPUT);

    // One kill (wedge or panic, seed's choice) in the storm's first half,
    // healed in the second half — the replica must quarantine, pass the
    // canary (after one forced failure), and rejoin.
    let window = Duration::from_secs_f64(secs * 0.9);
    let kill_plan = ReplicaChaosPlan::generate(REPLICA_SEED, 3, 1, window);
    for k in &kill_plan.kills {
        eprintln!(
            "  kill plan: {:?} replica {} at {:?}",
            k.kind, k.replica, k.at
        );
    }

    let storm = ReplicaStorm {
        rate_hz,
        secs,
        connections,
        frames: &frames,
        seed: REPLICA_SEED,
    };
    let rows = [
        run_replica_row("single", 1, None, 0, &storm),
        run_replica_row("baseline", 3, None, 0, &storm),
        run_replica_row("kill_one", 3, Some(kill_plan), 1, &storm),
    ];
    for r in &rows {
        eprintln!(
            "  {} (replicas={}): ok={} shed={} errors={} timeouts={} goodput={:.1}/s \
             p99={:.1}ms worst_health={} hedge={}({}won/{}wasted) quarantine={}:{}readmit \
             canary_failed={}",
            r.scenario,
            r.replicas,
            r.ok,
            r.shed,
            r.errors,
            r.timeouts,
            r.goodput_rps,
            r.ok_p99_ms,
            r.worst_health,
            r.hedge_issued,
            r.hedge_won,
            r.hedge_wasted,
            r.quarantine_entered,
            r.quarantine_readmitted,
            r.canary_failed,
        );
    }

    let baseline = &rows[1];
    let killed = &rows[2];
    let goodput_ratio = if baseline.goodput_rps > 0.0 {
        killed.goodput_rps / baseline.goodput_rps
    } else {
        0.0
    };

    // The grid's headline claims, self-asserted before anything is
    // written: a report that fails its own claims must not exist.
    for r in &rows {
        assert!(r.ok > 0, "replica row {} served nothing", r.scenario);
    }
    assert!(
        goodput_ratio >= REPLICA_GOODPUT_MIN_RATIO,
        "kill row goodput {:.1}/s is below {REPLICA_GOODPUT_MIN_RATIO} of baseline {:.1}/s",
        killed.goodput_rps,
        baseline.goodput_rps,
    );
    assert!(
        killed.worst_health <= 1,
        "kill row reached Halted — losing 1 of 3 replicas must only degrade"
    );
    assert!(
        killed.quarantine_entered >= 1 && killed.quarantine_readmitted >= 1,
        "kill row must quarantine the killed replica and re-admit it \
         (entered={}, readmitted={})",
        killed.quarantine_entered,
        killed.quarantine_readmitted,
    );
    assert!(
        killed.canary_failed >= 1,
        "kill row forced one canary failure; the counter must show it"
    );

    let claims = vec![
        ("goodput_ratio_kill_vs_baseline", Num(goodput_ratio)),
        ("goodput_ratio_min", Num(REPLICA_GOODPUT_MIN_RATIO)),
        ("kill_halted_observed", Int(0)),
        ("kill_quarantine_entered", Int(killed.quarantine_entered)),
        (
            "kill_quarantine_readmitted",
            Int(killed.quarantine_readmitted),
        ),
        ("kill_canary_failed", Int(killed.canary_failed)),
    ];
    let rows = rows
        .iter()
        .map(|r| {
            vec![
                ("scenario", Str(r.scenario)),
                ("replicas", Int(r.replicas as u64)),
                ("rate_hz", Num(r.rate_hz)),
                ("offered", Int(r.offered)),
                ("ok", Int(r.ok)),
                ("shed", Int(r.shed)),
                ("errors", Int(r.errors)),
                ("timeouts", Int(r.timeouts)),
                ("dropped", Int(r.dropped)),
                ("reset", Int(r.reset)),
                ("goodput_rps", Num(r.goodput_rps)),
                ("ok_p50_ms", Num(r.ok_p50_ms)),
                ("ok_p99_ms", Num(r.ok_p99_ms)),
                ("worst_health", Int(r.worst_health.into())),
                ("hedge_issued", Int(r.hedge_issued)),
                ("hedge_won", Int(r.hedge_won)),
                ("hedge_wasted", Int(r.hedge_wasted)),
                ("quarantine_entered", Int(r.quarantine_entered)),
                ("quarantine_readmitted", Int(r.quarantine_readmitted)),
                ("canary_failed", Int(r.canary_failed)),
            ]
        })
        .collect();
    write_report(
        path,
        "PR10",
        vec![
            ("secs_per_row", Num(secs)),
            ("connections", Int(connections as u64)),
            ("seed", Int(REPLICA_SEED)),
            ("input", Int(REPLICA_INPUT as u64)),
            ("rate_hz", Num(rate_hz)),
        ],
        "replica_grid",
        rows,
        3,
        claims,
    );
}

/// The selective-tiling grid (`BENCH_PR9.json`): frame sizes × processing
/// modes, accuracy from a geometric detectability oracle and cost from the
/// real CNN.
///
/// The detector tile is the paper's real-time input size; the overlap
/// exceeds the largest rotated vehicle footprint (≈40 px) so every object
/// is whole in at least one tile and the merge's stitch path is a safety
/// net rather than a crutch.
const TILE_INPUT: usize = 352;
const TILE_OVERLAP: usize = 48;
/// Minimum apparent size (pixels at detector input scale) for the oracle
/// to consider an object detectable. DroNet's receptive field loses
/// vehicles below ~8 px — the reason whole-frame downscale fails on large
/// frames and the quantity this grid varies.
const MIN_DETECT_PX: f32 = 8.0;
/// Minimum fraction of an object's area that must fall inside a tile for
/// the oracle to emit a detection from that tile (mirrors the dataset's
/// half-visible annotation rule, relaxed for clipped fragments).
const ORACLE_MIN_VISIBLE: f32 = 0.25;

/// One row of the tile grid.
struct TileRow {
    frame_size: usize,
    mode: &'static str,
    frames: usize,
    /// Tiles in the grid (1 for the downscale mode's single forward).
    tiles_per_frame: usize,
    /// Total tiles actually run across all frames.
    tiles_run: usize,
    gflops: f64,
    ms_per_frame: f64,
    mean_iou: f64,
    sensitivity: f64,
    precision: f64,
}

/// Deterministic sub-pixel jitter and score noise for one (frame, object,
/// tile) triple: `(dx_px, dy_px, unit)` with `dx/dy` in ±0.5 px.
fn oracle_jitter(frame: u64, object: usize, tile: usize) -> (f32, f32, f32) {
    let h = SplitMix64::mix(frame ^ ((object as u64) << 20) ^ ((tile as u64) << 42));
    let u = |shift: u32| ((h >> shift) & 0xFFFF) as f32 / 65535.0;
    (u(0) - 0.5, u(16) - 0.5, u(32))
}

/// What the network would report for one tile, per the detectability
/// model: every ground-truth fragment inside the tile that is at least
/// [`ORACLE_MIN_VISIBLE`] of its object and at least [`MIN_DETECT_PX`]
/// apparent pixels long. Tiles run at native resolution, so apparent size
/// equals true pixel size. Boxes come back in tile-local normalised
/// coordinates — exactly the shape `TileMerger` consumes — so seam
/// clipping, duplicate suppression and re-projection are exercised by the
/// real merge code, not simulated.
fn oracle_tile_detections(
    grid: &TileGrid,
    tile_index: usize,
    gt: &[BBox],
    frame_id: u64,
) -> Vec<Detection> {
    let (fw, fh) = (grid.frame_width() as f32, grid.frame_height() as f32);
    let t = grid.tile_size() as f32;
    let tile = grid.tile(tile_index);
    let (tx0, ty0) = (tile.x0 as f32, tile.y0 as f32);
    let mut out = Vec::new();
    for (oi, b) in gt.iter().enumerate() {
        let (bx0, bx1) = (b.x0() * fw, b.x1() * fw);
        let (by0, by1) = (b.y0() * fh, b.y1() * fh);
        let (cx0, cx1) = (bx0.max(tx0), bx1.min(tx0 + t));
        let (cy0, cy1) = (by0.max(ty0), by1.min(ty0 + t));
        if cx1 <= cx0 || cy1 <= cy0 {
            continue;
        }
        let (cw, ch) = (cx1 - cx0, cy1 - cy0);
        let area = (bx1 - bx0) * (by1 - by0);
        let visible = if area > 0.0 { cw * ch / area } else { 0.0 };
        if visible < ORACLE_MIN_VISIBLE || cw.max(ch) < MIN_DETECT_PX {
            continue;
        }
        let (jx, jy, ju) = oracle_jitter(frame_id, oi, tile_index);
        // Fragments score below whole objects so containment suppression
        // keeps the complete box, as a trained network's confidences do.
        let score = (0.80 + 0.15 * ju) * (0.6 + 0.4 * visible.min(1.0));
        out.push(Detection {
            bbox: BBox::new(
                ((cx0 + cx1) * 0.5 + jx - tx0) / t,
                ((cy0 + cy1) * 0.5 + jy - ty0) / t,
                cw / t,
                ch / t,
            ),
            objectness: score.clamp(0.05, 0.999),
            class: 0,
            class_prob: 1.0,
        });
    }
    out
}

/// What the network would report after downscaling the whole frame to
/// [`TILE_INPUT`]: the same oracle, but apparent size shrinks by the
/// downscale factor, so small vehicles fall below [`MIN_DETECT_PX`] and
/// vanish — the failure mode selective tiling exists to avoid.
fn oracle_downscale_detections(gt: &[BBox], frame_id: u64) -> Vec<(BBox, f32)> {
    let scale = TILE_INPUT as f32;
    let mut out = Vec::new();
    for (oi, b) in gt.iter().enumerate() {
        let apparent = (b.w * scale).max(b.h * scale);
        if apparent < MIN_DETECT_PX {
            continue;
        }
        let (jx, jy, ju) = oracle_jitter(frame_id, oi, usize::MAX);
        out.push((
            BBox::new(b.cx + jx / scale, b.cy + jy / scale, b.w, b.h),
            0.80 + 0.15 * ju,
        ));
    }
    out
}

/// The large-frame scene the grid renders, shared by the accuracy and
/// timing passes so replayed tile sets line up with their frames.
fn tile_scene_config(frame_size: usize) -> LargeSceneConfig {
    LargeSceneConfig {
        width: frame_size,
        height: frame_size,
        // Wider length spread than the default so whole-frame downscale
        // keeps *some* of the largest vehicles at the smaller frame sizes
        // — the comparison stays a gradient, not a cliff.
        vehicle_len_px: (11.0, 34.0),
        ..LargeSceneConfig::default()
    }
}

/// The tiled-pipeline configuration under test. Thresholds are tuned for
/// the synthetic scenes: the static background makes frame differencing
/// near-noiseless, so the motion gate sits just above float dust.
fn tile_pipeline_config() -> TiledDetectorConfig {
    TiledDetectorConfig {
        overlap: TILE_OVERLAP,
        selector: SelectorConfig {
            diff_threshold: 1e-4,
            max_tiles: 5,
            revisit_period: 16,
            seed: 9,
            ..SelectorConfig::default()
        },
        merge: MergeConfig::default(),
        tracker: TrackerConfig {
            // Clipped cluster boxes at frame edges churn IDs without the
            // boundary slack; dust below ~3 px² is never a vehicle.
            boundary_slack: 0.25,
            min_box_area: 1e-5,
            ..TrackerConfig::default()
        },
    }
}

/// Accuracy results for one frame size: per-mode matching totals, the
/// selective tile sets chosen per frame (for timing replay), and the
/// selective/exhaustive tile counts.
struct TileAccuracy {
    selective: MatchResult,
    exhaustive: MatchResult,
    downscale: MatchResult,
    selective_tiles: Vec<Vec<usize>>,
    tiles_run_selective: usize,
    tiles_per_frame: usize,
}

/// Accuracy pass: runs the real selector → oracle → real merger → real
/// tracker loop over a generated sequence, plus the exhaustive and
/// downscale baselines on identical frames and ground truth.
fn tile_accuracy_pass(frame_size: usize, frames: usize) -> TileAccuracy {
    let config = tile_pipeline_config();
    let grid = TileGrid::new(TILE_INPUT, config.overlap, frame_size, frame_size)
        .expect("bench grid geometry is valid");
    let mut selector = TileSelector::new(config.selector).expect("selector config");
    let merger = TileMerger::new(config.merge).expect("merge config");
    let mut tracker = Tracker::new(config.tracker);
    let mut gen =
        LargeSceneGenerator::new(tile_scene_config(frame_size), 42).expect("scene config");
    let all_tiles: Vec<usize> = (0..grid.len()).collect();

    let mut acc = TileAccuracy {
        selective: MatchResult::default(),
        exhaustive: MatchResult::default(),
        downscale: MatchResult::default(),
        selective_tiles: Vec::with_capacity(frames),
        tiles_run_selective: 0,
        tiles_per_frame: grid.len(),
    };
    for frame_id in 0..frames as u64 {
        let scene = gen.next_frame();
        let tensor = scene.image.to_tensor();
        let gt: Vec<BBox> = scene.annotations.iter().map(|a| a.bbox).collect();

        // Selective: the attention loop picks tiles, the oracle stands in
        // for the per-tile network, and merged detections feed the
        // tracker, closing the loop for the next frame's hot tiles.
        let hot: Vec<BBox> = tracker.confirmed_tracks().map(|t| t.bbox).collect();
        let selection = selector.select(&grid, &tensor, &hot).expect("select");
        let per_tile: Vec<(usize, Vec<Detection>)> = selection
            .tiles
            .iter()
            .map(|&ti| (ti, oracle_tile_detections(&grid, ti, &gt, frame_id)))
            .collect();
        let merged = merger.merge(&grid, &per_tile);
        tracker.update(&merged);
        let dets: Vec<(BBox, f32)> = merged.iter().map(|d| (d.bbox, d.score())).collect();
        acc.selective
            .merge(&match_detections(&dets, &gt, DEFAULT_IOU_THRESHOLD));
        acc.tiles_run_selective += selection.tiles.len();
        acc.selective_tiles.push(selection.tiles);

        // Exhaustive: every tile, same oracle, same merge.
        let per_tile: Vec<(usize, Vec<Detection>)> = all_tiles
            .iter()
            .map(|&ti| (ti, oracle_tile_detections(&grid, ti, &gt, frame_id)))
            .collect();
        let merged = merger.merge(&grid, &per_tile);
        let dets: Vec<(BBox, f32)> = merged.iter().map(|d| (d.bbox, d.score())).collect();
        acc.exhaustive
            .merge(&match_detections(&dets, &gt, DEFAULT_IOU_THRESHOLD));

        // Downscale: one whole-frame forward at the detector input size.
        let dets = oracle_downscale_detections(&gt, frame_id);
        acc.downscale
            .merge(&match_detections(&dets, &gt, DEFAULT_IOU_THRESHOLD));
    }
    acc
}

/// Timing pass: replays the recorded selective tile sets (and the
/// all-tiles baseline) through the real CNN via `run_tiles`, and times
/// bilinear downscale + single forward for the whole-frame mode. Returns
/// `(selective_ms, exhaustive_ms, downscale_ms)` per frame, plus the
/// per-tile FLOPs of one forward.
fn tile_timing_pass(frame_size: usize, selective_tiles: &[Vec<usize>]) -> (f64, f64, f64, f64) {
    let config = tile_pipeline_config();
    let detector = DetectorBuilder::new(model(ModelId::DroNet, TILE_INPUT))
        // Random-init logits hover near the decode threshold; a high bar
        // keeps decode/NMS box counts realistic so the forward dominates
        // the measurement, as it does with trained weights.
        .confidence_threshold(0.95)
        .build()
        .expect("tile detector builds");
    let mut tiled =
        TiledDetector::new(detector, (frame_size, frame_size), config).expect("tiled detector");
    let per_tile_flops = tiled.per_tile_flops();
    let mut downscale_detector = DetectorBuilder::new(model(ModelId::DroNet, TILE_INPUT))
        .confidence_threshold(0.95)
        .build()
        .expect("downscale detector builds");
    let all_tiles: Vec<usize> = (0..tiled.grid().len()).collect();
    let mut gen =
        LargeSceneGenerator::new(tile_scene_config(frame_size), 42).expect("scene config");

    let frames = selective_tiles.len();
    let (mut sel_ms, mut exh_ms, mut down_ms) = (0.0f64, 0.0f64, 0.0f64);
    for (frame_id, tiles) in selective_tiles.iter().enumerate() {
        let tensor = gen.next_frame().image.to_tensor();

        let start = Instant::now();
        tiled
            .run_tiles(&tensor, tiles, frame_id as u64)
            .expect("selective replay");
        sel_ms += start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        tiled
            .run_tiles(&tensor, &all_tiles, frame_id as u64)
            .expect("exhaustive replay");
        exh_ms += start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let small = resize_frame_bilinear(&tensor, TILE_INPUT, TILE_INPUT);
        downscale_detector.detect(&small).expect("downscale detect");
        down_ms += start.elapsed().as_secs_f64() * 1e3;
    }
    let n = frames.max(1) as f64;
    (sel_ms / n, exh_ms / n, down_ms / n, per_tile_flops)
}

/// Writes the accuracy-vs-FLOPs tile grid.
fn tile_grid_main(path: &str) {
    let frame_sizes: Vec<usize> = std::env::var("DRONET_TILE_SIZES")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1408, 2112]);
    let frames: usize = std::env::var("DRONET_TILE_FRAMES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(6);

    let mut rows: Vec<TileRow> = Vec::new();
    for &frame_size in &frame_sizes {
        eprintln!("tile grid @{frame_size}²: accuracy pass ({frames} frames)...");
        let acc = tile_accuracy_pass(frame_size, frames);
        eprintln!(
            "  selective ran {}/{} tile-forwards",
            acc.tiles_run_selective,
            acc.tiles_per_frame * frames
        );
        eprintln!("tile grid @{frame_size}²: timing pass (real CNN replay)...");
        let (sel_ms, exh_ms, down_ms, per_tile_flops) =
            tile_timing_pass(frame_size, &acc.selective_tiles);
        let gflop = per_tile_flops / 1e9;

        let mut push = |mode: &'static str,
                        result: &MatchResult,
                        tiles_per_frame: usize,
                        tiles_run: usize,
                        ms_per_frame: f64| {
            let stats = result.stats();
            eprintln!(
                "  {mode:>10}: sens {:.3}, prec {:.3}, iou {:.3}, {:.1} GFLOP, {:.1} ms/frame",
                stats.sensitivity,
                stats.precision,
                result.mean_iou(),
                tiles_run as f64 * gflop,
                ms_per_frame
            );
            rows.push(TileRow {
                frame_size,
                mode,
                frames,
                tiles_per_frame,
                tiles_run,
                gflops: tiles_run as f64 * gflop,
                ms_per_frame,
                mean_iou: result.mean_iou() as f64,
                sensitivity: stats.sensitivity as f64,
                precision: stats.precision as f64,
            });
        };
        push(
            "selective",
            &acc.selective,
            acc.tiles_per_frame,
            acc.tiles_run_selective,
            sel_ms,
        );
        push(
            "exhaustive",
            &acc.exhaustive,
            acc.tiles_per_frame,
            acc.tiles_per_frame * frames,
            exh_ms,
        );
        push("downscale", &acc.downscale, 1, frames, down_ms);

        // The headline claims, asserted at generation time so a tuning
        // regression can never write a report that contradicts them.
        let sel = &rows[rows.len() - 3];
        let exh = &rows[rows.len() - 2];
        let down = &rows[rows.len() - 1];
        assert!(
            sel.gflops <= 0.5 * exh.gflops,
            "@{frame_size}: selective spent {:.1} GFLOP, over half of exhaustive's {:.1}",
            sel.gflops,
            exh.gflops
        );
        assert!(
            sel.sensitivity >= down.sensitivity,
            "@{frame_size}: selective sensitivity {:.3} below downscale's {:.3}",
            sel.sensitivity,
            down.sensitivity
        );
        assert!(
            sel.sensitivity > 0.5,
            "@{frame_size}: selective sensitivity {:.3} — attention loop is losing vehicles",
            sel.sensitivity
        );
    }

    let rows = rows
        .iter()
        .map(|r| {
            vec![
                ("model", Str("DroNet")),
                ("frame_size", Int(r.frame_size as u64)),
                ("mode", Str(r.mode)),
                ("frames", Int(r.frames as u64)),
                ("tiles_per_frame", Int(r.tiles_per_frame as u64)),
                ("tiles_run", Int(r.tiles_run as u64)),
                ("gflops", Num(r.gflops)),
                ("ms_per_frame", Num(r.ms_per_frame)),
                ("mean_iou", Num(r.mean_iou)),
                ("sensitivity", Num(r.sensitivity)),
                ("precision", Num(r.precision)),
            ]
        })
        .collect();
    write_report(
        path,
        "PR9",
        vec![
            ("tile", Int(TILE_INPUT as u64)),
            ("overlap", Int(TILE_OVERLAP as u64)),
            ("min_detect_px", Num(MIN_DETECT_PX as f64)),
            ("frames_per_size", Int(frames as u64)),
        ],
        "tile_grid",
        rows,
        frame_sizes.len() * 3,
        Vec::new(),
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (grid, default_path): (fn(&str), &str) = match args.next().as_deref() {
        Some("--serve-grid") => (serve_grid_main, "BENCH_PR8.json"),
        Some("--tile-grid") => (tile_grid_main, "BENCH_PR9.json"),
        Some("--replica-grid") => (replica_grid_main, "BENCH_PR10.json"),
        _ => {
            eprintln!(
                "usage: bench_report --serve-grid [BENCH_PR8.json]\n       \
                 bench_report --tile-grid [BENCH_PR9.json]\n       \
                 bench_report --replica-grid [BENCH_PR10.json]\n\
                 (a forward is timed by `bash benchmark/run.sh`, not here)"
            );
            std::process::exit(2);
        }
    };
    grid(&args.next().unwrap_or_else(|| default_path.to_string()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> String {
        let path = std::env::temp_dir().join(format!("{name}.{}.json", std::process::id()));
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn report_layout_is_byte_stable() {
        let path = temp_path("bench_report_layout");
        write_report(
            &path,
            "PR0",
            vec![("secs_per_row", Num(4.0)), ("connections", Int(128))],
            "some_grid",
            vec![
                vec![("mode", Str("a")), ("ok", Int(3)), ("ms", Num(1.23456))],
                vec![("mode", Str("b")), ("ok", Int(0)), ("ms", Num(0.5))],
            ],
            2,
            vec![("ratio", Num(0.98134)), ("halted", Int(0))],
        );
        let text = std::fs::read_to_string(&path).expect("report written");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            text,
            "{\n  \"schema\": \"dronet-bench-report\",\n  \"version\": 1,\n  \"pr\": \"PR0\",\n  \
             \"secs_per_row\": 4.0000,\n  \"connections\": 128,\n  \"some_grid\": [\n    \
             {\"mode\": \"a\", \"ok\": 3, \"ms\": 1.2346},\n    \
             {\"mode\": \"b\", \"ok\": 0, \"ms\": 0.5000}\n  ],\n  \"claims\": {\n    \
             \"ratio\": 0.9813,\n    \"halted\": 0\n  }\n}\n"
        );
    }

    #[test]
    #[should_panic(expected = "report field `goodput_rps` is not finite")]
    fn report_refuses_a_non_finite_number() {
        let path = temp_path("bench_report_non_finite");
        write_report(
            &path,
            "PR0",
            Vec::new(),
            "some_grid",
            vec![vec![("ok", Int(0)), ("goodput_rps", Num(f64::NAN))]],
            1,
            Vec::new(),
        );
    }
}
