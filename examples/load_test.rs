//! Load-test tour: spawn the detection server in-process, drive it with
//! the seeded open-loop generator (steady phase, then a burst), and print
//! the coordinated-omission-corrected report: what was offered, what was
//! shed, and how fast the admitted requests were served.
//!
//! ```text
//! cargo run --release --example load_test [steady_hz [burst_hz]]
//! ```

use dronet::detect::DetectorBuilder;
use dronet::obs::{Registry, Tracer};
use dronet::serve::{DetectorFactory, ServeConfig, Server};
use dronet_bench::loadgen::{frame_corpus, run, LoadgenConfig, Phase};
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let steady_hz: f64 = args.next().and_then(|v| v.parse().ok()).unwrap_or(40.0);
    let burst_hz: f64 = args
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(steady_hz * 10.0);

    let factory: DetectorFactory = Arc::new(|| {
        let net = dronet::core::zoo::build(dronet::core::ModelId::DroNet, 64)?;
        DetectorBuilder::new(net).confidence_threshold(0.3).build()
    });
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 16,
        max_requests_per_connection: 1_000_000,
        keep_alive_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let server = Server::start(factory, config, &Registry::new(), &Tracer::noop())?;
    println!("server listening on {}", server.addr());

    let cfg = LoadgenConfig {
        seed: 42,
        connections: 64,
        phases: vec![
            Phase::new(steady_hz, 3.0),
            Phase::new(burst_hz, 1.0),
            Phase::new(steady_hz, 2.0),
        ],
        frames: frame_corpus(64),
        drain_timeout: Duration::from_secs(15),
    };
    println!(
        "offering {steady_hz} Hz steady with a {burst_hz} Hz burst (seed {}, {} connections)...",
        cfg.seed, cfg.connections
    );
    let report = run(server.addr(), &cfg);

    println!("\n=== loadgen report (CO-corrected latency) ===\n");
    println!(
        "offered {}  ok {}  shed {}  errors {}  timeouts {}  dropped {}",
        report.offered, report.ok, report.shed, report.errors, report.timeouts, report.dropped
    );
    let shed_share = report.shed as f64 / report.completed.max(1) as f64;
    println!(
        "shed share {:.2} %  goodput {:.1}/s",
        shed_share * 100.0,
        report.goodput()
    );
    println!(
        "admitted p50 {:.1} ms  p99 {:.1} ms  p99.9 {:.1} ms",
        report.ok_quantile_ns(0.50) as f64 / 1e6,
        report.ok_quantile_ns(0.99) as f64 / 1e6,
        report.ok_quantile_ns(0.999) as f64 / 1e6,
    );

    let drain = server.shutdown();
    println!("drained: {}", drain.drained);
    Ok(())
}
