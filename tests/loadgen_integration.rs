//! End-to-end tests for the open-loop load generator against a real
//! server: the arrival schedule is seed-deterministic, a comfortable
//! load completes cleanly with every request accounted for, and an
//! overloaded server sheds with `503`s (breaching its availability SLO)
//! instead of silently queueing.

use dronet::detect::DetectorBuilder;
use dronet::obs::{JsonValue, Registry, Tracer};
use dronet::serve::{DetectorFactory, Fault, FaultEvent, FaultSchedule, ServeConfig, Server};
use dronet_bench::loadgen::{frame_corpus, run_plan, ArrivalPlan, LoadgenConfig, Phase};
use dronet_core::{zoo, ModelId};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn factory() -> DetectorFactory {
    Arc::new(|| {
        let net = zoo::build(ModelId::DroNet, 64)?;
        DetectorBuilder::new(net).confidence_threshold(0.3).build()
    })
}

/// A server tuned for loadgen runs: long-lived connections, no request
/// budget churn mid-test.
fn loadgen_server(queue_capacity: usize, faults: FaultSchedule) -> Server {
    let config = ServeConfig {
        workers: 1,
        max_batch: 1,
        queue_capacity,
        faults,
        max_requests_per_connection: 1_000_000,
        keep_alive_timeout: Duration::from_secs(30),
        response_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    Server::start(factory(), config, &Registry::new(), &Tracer::noop()).expect("server starts")
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let head = format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
    stream.write_all(head.as_bytes()).expect("write GET");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("head terminator");
    String::from_utf8_lossy(&response[split + 4..]).into_owned()
}

#[test]
fn same_seed_reproduces_the_arrival_schedule_exactly() {
    let phases = vec![Phase::new(120.0, 1.0), Phase::new(600.0, 0.5)];
    let a = ArrivalPlan::generate(0xDEAD, &phases);
    let b = ArrivalPlan::generate(0xDEAD, &phases);
    assert_eq!(a, b, "same seed must reproduce the schedule bit-for-bit");
    assert!(!a.offsets_ns.is_empty());
    let c = ArrivalPlan::generate(0xBEEF, &phases);
    assert_ne!(a, c, "a different seed must draw different arrivals");
    // The burst phase is visibly denser: more arrivals in its half-second
    // than in the whole steady second before it.
    let steady = a.offsets_ns.iter().filter(|&&t| t < 1_000_000_000).count();
    let burst = a.offsets_ns.len() - steady;
    assert!(
        burst > steady,
        "burst phase ({burst}) should out-arrive the steady phase ({steady})"
    );
}

#[test]
fn comfortable_load_completes_cleanly_and_balances_the_books() {
    let server = loadgen_server(64, FaultSchedule::default());
    let cfg = LoadgenConfig {
        seed: 7,
        connections: 8,
        phases: vec![Phase::new(25.0, 1.5)],
        frames: frame_corpus(64),
        drain_timeout: Duration::from_secs(10),
    };
    let plan = ArrivalPlan::generate(cfg.seed, &cfg.phases);
    let report = run_plan(server.addr(), &cfg, &plan);
    let _ = server.shutdown();

    assert_eq!(report.offered, plan.offsets_ns.len() as u64);
    assert_eq!(
        report.completed + report.timeouts + report.dropped,
        report.offered,
        "every scheduled arrival must be accounted for exactly once"
    );
    assert_eq!(report.dropped, 0, "no connection churn at 25 Hz");
    assert_eq!(report.timeouts, 0);
    assert_eq!(report.ok, report.offered, "everything admitted and served");
    assert_eq!(report.shed, 0);
    assert_eq!(
        report.ok_latencies_ns.len() as u64,
        report.ok,
        "one CO-corrected sample per success"
    );
    assert!(report.ok_quantile_ns(0.99) >= report.ok_quantile_ns(0.50));
}

#[test]
fn overload_sheds_instead_of_collapsing() {
    // One worker, a 5 ms artificial service floor (≈ ≤200/s capacity) and
    // a shallow queue, offered ~600 Hz: the server must answer with 503s,
    // keep serving the admitted stream, and its own availability SLO must
    // flag the outage while the latency SLO (admitted requests only)
    // stays green — queue wait is bounded by the shallow queue.
    let stall = FaultEvent::at(Duration::ZERO, 0, Fault::Stall(Duration::from_millis(5)));
    let server = loadgen_server(4, FaultSchedule::new(vec![stall]));
    let cfg = LoadgenConfig {
        seed: 21,
        connections: 16,
        phases: vec![Phase::new(600.0, 1.5)],
        frames: frame_corpus(64),
        drain_timeout: Duration::from_secs(10),
    };
    let plan = ArrivalPlan::generate(cfg.seed, &cfg.phases);
    let report = run_plan(server.addr(), &cfg, &plan);
    let vars_body = http_get(server.addr(), "/debug/vars");
    let _ = server.shutdown();

    assert_eq!(
        report.completed + report.timeouts + report.dropped,
        report.offered
    );
    assert!(report.shed > 0, "overload must produce 503s");
    assert!(report.ok > 0, "the admitted stream must keep flowing");
    assert_eq!(report.errors, 0, "sheds are 503s, not 5xx chaos");

    let vars = JsonValue::parse(&vars_body).expect("/debug/vars parses");
    let breached = |name: &str| -> u64 {
        vars.get("slo")
            .and_then(|slo| slo.get("slos"))
            .and_then(JsonValue::as_array)
            .and_then(|slos| {
                slos.iter()
                    .find(|s| s.get("name").and_then(JsonValue::as_str) == Some(name))
            })
            .and_then(|s| s.get("breached"))
            .and_then(JsonValue::as_u64)
            .expect("breached flag")
    };
    assert_eq!(
        breached("detect_availability"),
        1,
        "sustained 503s must burn the availability budget in both windows"
    );
    assert_eq!(
        breached("detect_latency"),
        0,
        "admitted requests stay fast — shedding protected the latency SLO"
    );
}
