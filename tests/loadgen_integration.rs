//! End-to-end tests for the open-loop load generator against a real
//! server: the arrival schedule is seed-deterministic, a comfortable
//! load completes cleanly with every request accounted for, and an
//! overloaded server sheds with `503`s instead of silently queueing,
//! while the requests it admits stay fast.

use dronet::detect::DetectorBuilder;
use dronet::obs::{Registry, Tracer};
use dronet::serve::{DetectorFactory, Fault, FaultEvent, FaultSchedule, ServeConfig, Server};
use dronet_bench::loadgen::{frame_corpus, run_plan, ArrivalPlan, LoadgenConfig, Phase};
use dronet_core::{zoo, ModelId};
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
    // keep serving the admitted stream, shed well past a 99.9 %
    // availability budget, and keep admitted requests fast — queue wait
    // is bounded by the shallow queue.
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
    let _ = server.shutdown();

    assert_eq!(
        report.completed + report.timeouts + report.dropped,
        report.offered
    );
    assert!(report.shed > 0, "overload must produce 503s");
    assert!(report.ok > 0, "the admitted stream must keep flowing");
    assert_eq!(report.errors, 0, "sheds are 503s, not 5xx chaos");

    // Availability: a 99.9 % objective leaves a 0.1 % error budget, and an
    // outage worth flagging burns it at least twice as fast, so at least
    // 0.2 % of completed requests must be 503s.
    let shed_share = report.shed as f64 / report.completed as f64;
    assert!(
        shed_share >= 2.0 * 0.001,
        "sustained overload must shed ≥ 0.2 % of requests, shed {shed_share:.4}"
    );
    // Latency: the report's p99 of admitted (2xx) requests. It is measured
    // at the client from each request's intended send time, so it charges
    // the server for queueing, the write path and head-of-line waits on
    // the pipelined connection alike: the strictest admitted latency
    // either side reports, where `serve.queue_wait` would see only the
    // queue and `serve.request` mixes in the fast 503s.
    let p99 = Duration::from_nanos(report.ok_quantile_ns(0.99));
    assert!(
        p99 < Duration::from_millis(250),
        "admitted requests stay fast — shedding protected their latency, p99 {p99:?}"
    );
}
