//! Bench-report harness: two serving grids that each write one
//! schema-stable JSON report the in-tree JSON reader
//! ([`dronet_obs::JsonValue`]) parses back and `tests/bench_report.rs`
//! locks. How fast a forward is is not measured here: that is the repo
//! benchmark's job (`bash benchmark/run.sh`, see `BENCHMARK.json`).
//!
//! ```text
//! cargo run --release -p dronet-bench --bin bench_report -- \
//!     --serve-grid [BENCH_PR8.json]
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
//! [`FaultSchedule`] kills one replica mid-storm (panic or stall
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

use dronet_bench::loadgen::{frame_corpus, run_plan, ArrivalPlan, LoadgenConfig, Phase};
use dronet_bench::{input_image, model};
use dronet_core::ModelId;
use dronet_detect::DetectorBuilder;
use dronet_obs::{JsonValue, Registry, Tracer};
use dronet_serve::{DetectorFactory, Fault, FaultEvent, FaultSchedule, ServeConfig, Server};
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

/// The one report writer of the two grids: stamps the schema header,
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
/// replicas, seeded fault plan), storms it with the open-loop load
/// generator, and samples service health throughout.
fn run_replica_row(
    scenario: &'static str,
    replicas: usize,
    faults: FaultSchedule,
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
        quarantine_faults: 3,
        faults,
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

    // One kill (2 s stall or panic, seed's choice) in the storm's first
    // half, healed in the second half — the replica must quarantine, pass
    // the canary (after one forced failure), and rejoin.
    let window = Duration::from_secs_f64(secs * 0.9);
    let hold = Duration::from_secs(2);
    let kills = FaultSchedule::generate(REPLICA_SEED, 3, 1, window, hold);
    let killed = kills.events()[0].replica;
    let canary = FaultEvent::at(Duration::ZERO, killed, Fault::FailCanary(1));
    let kill_plan = FaultSchedule::new([kills.events(), &[canary]].concat());
    for e in kill_plan.events() {
        eprintln!(
            "  kill plan: {:?} replica {} at {:?}",
            e.fault, e.replica, e.at
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
        run_replica_row("single", 1, FaultSchedule::default(), &storm),
        run_replica_row("baseline", 3, FaultSchedule::default(), &storm),
        run_replica_row("kill_one", 3, kill_plan, &storm),
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

fn main() {
    let mut args = std::env::args().skip(1);
    let (grid, default_path): (fn(&str), &str) = match args.next().as_deref() {
        Some("--serve-grid") => (serve_grid_main, "BENCH_PR8.json"),
        Some("--replica-grid") => (replica_grid_main, "BENCH_PR10.json"),
        _ => {
            eprintln!(
                "usage: bench_report --serve-grid [BENCH_PR8.json]\n       \
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
