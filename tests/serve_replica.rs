//! Replicated serving: health-aware dispatch across independent detector
//! replicas, hedged requests rescuing stranded frames, quarantine with
//! canary-gated re-admission, and per-replica brownout.
//!
//! The invariants: losing one replica of N degrades the service but never
//! halts it; a quarantined replica only rejoins after its rebuilt
//! detector reproduces the golden canary detections bit-exactly; one
//! overloaded replica browns out alone while its peer stays at full
//! resolution; and every seeded kill schedule replays exactly.

use dronet::detect::{DegradeConfig, DetectorBuilder, Health};
use dronet::obs::{JsonValue, Registry, Tracer};
use dronet::serve::{DetectorFactory, Fault, FaultEvent, FaultSchedule, ServeConfig, Server};
use dronet_core::{zoo, ModelId};
use dronet_data::{ppm, Image};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn factory(input: usize) -> DetectorFactory {
    Arc::new(move || {
        let net = zoo::build(ModelId::DroNet, input)?;
        DetectorBuilder::new(net).confidence_threshold(0.3).build()
    })
}

fn frame_bytes() -> Vec<u8> {
    let img = Image::new(8, 8, [0.4, 0.5, 0.6]);
    let mut bytes = Vec::new();
    ppm::write(&img, &mut bytes).expect("encode frame");
    bytes
}

/// One-shot well-behaved client.
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: replica\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8_lossy(&response).to_string();
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status in response: {text:?}"));
    (status, text)
}

fn post_detect(addr: SocketAddr) -> (u16, String) {
    http(addr, "POST", "/detect", &frame_bytes())
}

fn body_json(text: &str) -> JsonValue {
    let body = text.split("\r\n\r\n").nth(1).expect("response body");
    JsonValue::parse(body).expect("body parses")
}

/// Polls `pred` until it holds or `secs` elapse; returns whether it held.
fn poll_until(secs: f64, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        thread::sleep(Duration::from_millis(20));
    }
    false
}

#[test]
fn replicated_server_serves_and_reports_every_replica() {
    let obs = Registry::new();
    let config = ServeConfig {
        replicas: 2,
        workers: 1,
        max_batch: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(factory(32), config, &obs, &Tracer::noop()).expect("start");
    let addr = server.addr();

    for _ in 0..4 {
        let (status, _) = post_detect(addr);
        assert_eq!(status, 200, "replicated server must serve");
    }

    let (status, text) = http(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    let health = body_json(&text);
    assert_eq!(
        health.get("replicas_total").and_then(JsonValue::as_u64),
        Some(2)
    );
    assert_eq!(
        health.get("replicas_active").and_then(JsonValue::as_u64),
        Some(2)
    );

    let (status, text) = http(addr, "GET", "/debug/vars", b"");
    assert_eq!(status, 200);
    let debug = body_json(&text);
    let rows = debug
        .get("replicas")
        .and_then(JsonValue::as_array)
        .expect("replicas array");
    assert_eq!(rows.len(), 2, "one row per replica of replicas_total");
    for row in rows {
        assert_eq!(
            row.get("status").and_then(JsonValue::as_str),
            Some("active")
        );
        assert!(
            row.get("workers_alive")
                .and_then(JsonValue::as_u64)
                .unwrap()
                >= 1
        );
    }
    // The supervisor publishes the fleet gauge.
    assert!(poll_until(5.0, || {
        obs.snapshot().gauge("serve.replicas_active") == Some(2.0)
    }));

    let report = server.shutdown();
    assert!(report.drained);
}

#[test]
fn hedged_request_rescues_a_frame_stranded_on_a_wedged_replica() {
    // Replica 0's batches hang far past any deadline; the watchdog is
    // configured to never notice (huge wedge timeout) so the only rescue
    // is the hedge leg to replica 1.
    let stall = Fault::Stall(Duration::from_secs(120));
    let obs = Registry::new();
    let config = ServeConfig {
        replicas: 2,
        workers: 1,
        max_batch: 1,
        hedge_delay: Some(Duration::from_millis(50)),
        watchdog_interval: Duration::from_millis(10),
        wedge_timeout: Duration::from_secs(120),
        quarantine_faults: u64::MAX,
        faults: FaultSchedule::new(vec![FaultEvent::at(Duration::ZERO, 0, stall)]),
        response_timeout: Duration::from_secs(20),
        ..ServeConfig::default()
    };
    let server = Server::start(factory(32), config, &obs, &Tracer::noop()).expect("start");
    let addr = server.addr();

    let started = Instant::now();
    for _ in 0..3 {
        let (status, _) = post_detect(addr);
        assert_eq!(status, 200, "hedge must rescue every frame");
    }
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "hedged answers must not wait out the wedge hold"
    );

    let snap = obs.snapshot();
    let issued = snap.counter("serve.hedge.issued").unwrap_or(0);
    let won = snap.counter("serve.hedge.won").unwrap_or(0);
    assert!(issued >= 1, "at least the first frame must hedge");
    assert!(won >= 1, "the hedge leg must win for a wedged primary");
    // Hedging kept the service out of the failure path entirely.
    assert_eq!(snap.counter("serve.quarantine.entered"), Some(0));
    server.shutdown();
}

#[test]
fn killed_replica_quarantines_and_readmits_through_the_canary_gate() {
    // Replica 1's worker panics on every batch. Faults accumulate, the
    // supervisor quarantines it, the first re-admission canary is forced
    // to fail, and the second rebuild passes and rejoins the fleet. Its
    // first batch also wedges once, which leaves a black box behind.
    let at_start = |fault| FaultEvent::at(Duration::ZERO, 1, fault);
    let faults = FaultSchedule::new(vec![
        at_start(Fault::StallOnce(Duration::from_millis(400))),
        at_start(Fault::Panic),
        at_start(Fault::FailCanary(1)),
    ]);
    let obs = Registry::new();
    let config = ServeConfig {
        replicas: 2,
        workers: 1,
        max_batch: 1,
        watchdog_interval: Duration::from_millis(10),
        wedge_timeout: Duration::from_millis(100),
        quarantine_faults: 3,
        faults,
        ..ServeConfig::default()
    };
    let server = Server::start(factory(32), config, &obs, &Tracer::noop()).expect("start");
    let addr = server.addr();

    // Drive traffic so the poisoned replica keeps batching (and
    // panicking); clients on those frames get typed 500s, never hangs.
    let stop = Arc::new(AtomicBool::new(false));
    let degraded_seen = Arc::new(AtomicBool::new(false));
    let driver = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let (status, _) = post_detect(addr);
                assert!(
                    status == 200 || status == 500 || status == 503,
                    "unexpected status {status} during replica kill"
                );
            }
        })
    };
    let watcher = {
        let stop = Arc::clone(&stop);
        let degraded_seen = Arc::clone(&degraded_seen);
        let health_gauge = obs.gauge("serve.health");
        thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                assert_ne!(
                    health_gauge.get(),
                    Health::Halted.as_metric(),
                    "losing 1 of 2 replicas must never halt the service"
                );
                if health_gauge.get() == Health::Degraded.as_metric() {
                    degraded_seen.store(true, Ordering::SeqCst);
                }
                thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let counter = |name: &str| obs.counter(name).get();
    assert!(
        poll_until(20.0, || counter("serve.quarantine.entered") >= 1),
        "poisoned replica was never quarantined"
    );
    assert!(
        poll_until(20.0, || counter("serve.quarantine.canary_failed") >= 1),
        "forced canary failure never registered"
    );
    assert!(
        poll_until(20.0, || counter("serve.quarantine.readmitted") >= 1),
        "replica was never re-admitted after passing the canary"
    );
    stop.store(true, Ordering::SeqCst);
    driver.join().expect("driver");
    watcher.join().expect("watcher");
    assert!(
        degraded_seen.load(Ordering::SeqCst),
        "quarantine must surface as Degraded service health"
    );

    // The fleet is whole again: both replicas active, health recovered,
    // and the re-admitted slot advanced its generation.
    assert!(
        poll_until(10.0, || server.health() == Health::Healthy),
        "service must recover once the replica rejoins"
    );
    let (_, text) = http(addr, "GET", "/debug/vars", b"");
    let debug = body_json(&text);
    let rows = debug
        .get("replicas")
        .and_then(JsonValue::as_array)
        .expect("replicas array");
    let active = rows
        .iter()
        .filter(|r| r.get("status").and_then(JsonValue::as_str) == Some("active"))
        .count();
    assert_eq!(active, 2, "both replicas active");
    let readmitted = rows
        .iter()
        .find(|r| r.get("id").and_then(JsonValue::as_u64) == Some(1))
        .expect("replica 1 row");
    assert!(
        readmitted
            .get("generation")
            .and_then(JsonValue::as_u64)
            .unwrap()
            >= 1,
        "re-admission must advance the slot generation"
    );
    assert_eq!(
        readmitted
            .get("canary_failures")
            .and_then(JsonValue::as_u64),
        Some(1)
    );

    // The black box captured on the quarantined core outlived it (the
    // rebuilt core has not wedged once).
    assert!(
        server
            .black_boxes()
            .iter()
            .any(|b| b.trigger.contains("wedged")),
        "quarantine must not throw away the replica's black boxes"
    );
    let black_boxes = debug
        .get("black_boxes")
        .and_then(JsonValue::as_array)
        .expect("black_boxes array");
    assert!(
        black_boxes.iter().any(|b| b
            .get("trigger")
            .and_then(JsonValue::as_str)
            .is_some_and(|t| t.contains("wedged"))),
        "black boxes are still served: {text}"
    );

    // A rejoined fleet still serves.
    let (status, _) = post_detect(addr);
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn asymmetric_load_browns_out_one_replica_while_its_peer_holds_resolution() {
    // Replica 1 turns slow-but-alive: every batch holds 80 ms, well
    // under the wedge timeout, so the watchdog never fires — only its
    // own brownout controller sees the queue pressure. Replica 0 stays
    // an order of magnitude faster. Both walk their own ladders; the
    // storm must split them onto different rungs, and the heal must
    // bring both back to the top.
    let ladder = vec![32, 64, 96];
    let top = 96.0;
    let faults = FaultSchedule::new(vec![
        FaultEvent::at(Duration::ZERO, 1, Fault::Stall(Duration::from_millis(80))),
        FaultEvent::at(Duration::from_millis(1200), 1, Fault::Heal),
    ]);
    let obs = Registry::new();
    let config = ServeConfig {
        replicas: 2,
        workers: 1,
        max_batch: 1,
        queue_capacity: 2,
        watchdog_interval: Duration::from_millis(15),
        wedge_timeout: Duration::from_secs(120),
        quarantine_faults: u64::MAX,
        faults,
        brownout: Some(DegradeConfig {
            ladder: ladder.clone(),
            window_frames: 2,
            overload_windows: 1,
            calm_windows: 3,
            cooldown_windows: 1,
        }),
        ..ServeConfig::default()
    };
    let server = Server::start(factory(96), config, &obs, &Tracer::noop()).expect("start");
    let addr = server.addr();

    // Sample both per-replica resolution gauges while the storm runs,
    // looking for an instant where the rungs differ.
    let fast_gauge = obs.gauge("serve.replica.0.input_resolution");
    let slow_gauge = obs.gauge("serve.replica.1.input_resolution");
    let stop = Arc::new(AtomicBool::new(false));
    let slow_lowest = Arc::new(AtomicUsize::new(usize::MAX));
    let split_seen = Arc::new(AtomicBool::new(false));
    let watcher = {
        let stop = Arc::clone(&stop);
        let slow_lowest = Arc::clone(&slow_lowest);
        let split_seen = Arc::clone(&split_seen);
        let (fast_gauge, slow_gauge) = (fast_gauge.clone(), slow_gauge.clone());
        thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let (fast, slow) = (fast_gauge.get() as usize, slow_gauge.get() as usize);
                if slow > 0 {
                    slow_lowest.fetch_min(slow, Ordering::SeqCst);
                }
                if slow > 0 && fast > slow {
                    split_seen.store(true, Ordering::SeqCst);
                }
                thread::sleep(Duration::from_millis(5));
            }
        })
    };

    // Closed-loop posters: enough concurrency that the slow replica's
    // bounded queue stays pressured, running past the heal so the climb
    // back starts under live traffic.
    let deadline = Instant::now() + Duration::from_millis(2000);
    let posters: Vec<_> = (0..3)
        .map(|_| {
            thread::spawn(move || {
                while Instant::now() < deadline {
                    let _ = std::panic::catch_unwind(|| post_detect(addr));
                }
            })
        })
        .collect();
    for p in posters {
        let _ = p.join();
    }
    stop.store(true, Ordering::SeqCst);
    watcher.join().expect("watcher");

    assert!(
        slow_lowest.load(Ordering::SeqCst) < 96,
        "the slow replica must walk its ladder down"
    );
    assert!(
        split_seen.load(Ordering::SeqCst),
        "the two replicas must sit on different rungs at some point"
    );

    // After the heal, both replicas climb back to the ladder top and the
    // service recovers.
    assert!(
        poll_until(20.0, || {
            let snap = obs.snapshot();
            snap.gauge("serve.replica.0.input_resolution") == Some(top)
                && snap.gauge("serve.replica.1.input_resolution") == Some(top)
                && server.health() == Health::Healthy
        }),
        "both replicas must recover to full resolution after the storm"
    );
    let (status, _) = post_detect(addr);
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn replica_kill_schedules_replay_exactly_from_a_seed() {
    let window = Duration::from_secs(4);
    let generate = |seed| FaultSchedule::generate(seed, 3, 4, window, Duration::from_secs(2));
    let a = generate(0xD10);
    assert_eq!(
        a,
        generate(0xD10),
        "same seed must reproduce the exact kill schedule"
    );
    assert_ne!(a, generate(0xD11), "different seeds must differ");
    // Every kill lands in the first half and heals in the second, so a
    // storm always passes.
    for e in a.events() {
        match e.fault {
            Fault::Heal => assert!(e.at >= window / 2),
            _ => assert!(e.at < window / 2),
        }
        assert!(e.replica < 3);
    }
}
