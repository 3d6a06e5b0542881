//! Socket-level chaos for the detection server: seeded adversarial TCP
//! schedules against a live listener, plus deterministic worker-wedge and
//! brownout scenarios.
//!
//! The invariants under storm: the process never panics, every accepted
//! request is answered with a well-formed response or closed cleanly,
//! metrics stay consistent, and the server returns to Healthy once the
//! storm passes. Failures leave their evidence in `target/serve-chaos/`
//! (client outcomes + any captured black boxes) — CI uploads that
//! directory as an artifact.

use dronet::detect::{DegradeConfig, DetectorBuilder, Health};
use dronet::obs::{Registry, Tracer};
use dronet::serve::chaos::{run_script, ChaosPlan, ChaosPlanConfig, ClientOutcome};
use dronet::serve::{DetectorFactory, Fault, FaultEvent, FaultSchedule, ServeConfig, Server};
use dronet_core::{zoo, ModelId};
use dronet_data::{ppm, Image};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn factory(input: usize) -> DetectorFactory {
    Arc::new(move || {
        let net = zoo::build(ModelId::DroNet, input)?;
        DetectorBuilder::new(net).confidence_threshold(0.3).build()
    })
}

/// A small valid frame; the server conforms it to whatever rung the
/// brownout ladder currently sits on.
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
        "{method} {path} HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
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

/// The only replica's first batch holds for `hold`: one stuck forward.
fn wedge_first_batch(hold: Duration) -> FaultSchedule {
    let stuck = FaultEvent::at(Duration::ZERO, 0, Fault::StallOnce(hold));
    FaultSchedule::new(vec![stuck])
}

/// Writes chaos evidence where CI can pick it up on failure.
fn write_artifacts(name: &str, outcomes: &[ClientOutcome], server: &Server) {
    let dir = PathBuf::from("target/serve-chaos");
    let _ = std::fs::create_dir_all(&dir);
    let mut text = String::new();
    for o in outcomes {
        text.push_str(&format!(
            "{}: statuses={:?} bytes={} clean={} {}\n",
            o.name, o.statuses, o.bytes_read, o.clean, o.detail
        ));
    }
    let _ = std::fs::write(dir.join(format!("{name}-outcomes.txt")), text);
    let boxes = server.black_boxes();
    if !boxes.is_empty() {
        let mut text = String::new();
        for b in &boxes {
            text.push_str(&b.to_text());
            text.push('\n');
        }
        let _ = std::fs::write(dir.join(format!("{name}-blackbox.txt")), text);
    }
}

#[test]
fn chaos_plans_are_seed_deterministic() {
    let cfg = ChaosPlanConfig {
        frame: frame_bytes(),
        ..ChaosPlanConfig::default()
    };
    let a = ChaosPlan::generate(0xD20, &cfg);
    let b = ChaosPlan::generate(0xD20, &cfg);
    assert_eq!(a, b, "same seed must reproduce the exact schedule");
    assert_ne!(
        a,
        ChaosPlan::generate(0xD21, &cfg),
        "different seeds must differ"
    );
    // ISSUE 7 wants >= 6 distinct adversarial scenarios in the storm.
    let mut families: Vec<&str> = a
        .clients
        .iter()
        .map(|c| c.name.rsplit_once('_').map_or(c.name.as_str(), |(f, _)| f))
        .collect();
    families.sort_unstable();
    families.dedup();
    assert!(
        families.len() >= 6,
        "expected >= 6 scenario families, got {families:?}"
    );
}

#[test]
fn socket_chaos_storm_leaves_server_healthy_and_consistent() {
    let obs = Registry::new();
    let tracer = Tracer::new();
    let config = ServeConfig {
        workers: 2,
        // Tight deadlines so slowloris/stall scenarios resolve fast.
        header_timeout: Duration::from_millis(250),
        read_timeout: Duration::from_millis(250),
        keep_alive_timeout: Duration::from_millis(250),
        write_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    };
    let server = Server::start(factory(32), config, &obs, &tracer).expect("start");
    let addr = server.addr();

    let plan = ChaosPlan::generate(
        0xC4A05,
        &ChaosPlanConfig {
            clients_per_scenario: 2,
            frame: frame_bytes(),
            drip_pause: Duration::from_millis(2),
            body_stall: Duration::from_millis(600),
            hold: Duration::from_millis(300),
            read_timeout: Duration::from_secs(5),
            burst: 4,
        },
    );
    let handles: Vec<_> = plan
        .clients
        .iter()
        .cloned()
        .map(|script| thread::spawn(move || run_script(addr, &script)))
        .collect();
    let outcomes: Vec<ClientOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("chaos client thread"))
        .collect();
    write_artifacts("storm", &outcomes, &server);

    // Every byte the server sent parsed as complete, framed responses.
    for o in &outcomes {
        assert!(
            o.clean,
            "client {} read a torn/garbled response: {}",
            o.name, o.detail
        );
        for s in &o.statuses {
            assert!(
                [200, 400, 408, 503].contains(s),
                "client {} got unexpected status {s}",
                o.name
            );
        }
    }
    // Pipelined bursts must see every request answered.
    for o in outcomes.iter().filter(|o| o.name.starts_with("pipelined")) {
        assert_eq!(o.statuses, vec![200, 200, 200, 200], "burst {}", o.name);
    }

    // The storm must not have hurt the pool: no panics, no deaths, and
    // the server still serves.
    let snap = obs.snapshot();
    assert_eq!(snap.counter("serve.worker_panics").unwrap_or(0), 0);
    assert_eq!(snap.counter("serve.worker_deaths").unwrap_or(0), 0);
    let (status, _) = post_detect(addr);
    assert_eq!(status, 200, "server must serve normally after the storm");
    let (status, metrics) = http(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    assert!(metrics.contains("serve_health 0"), "healthy after storm");
    assert!(matches!(server.health(), Health::Healthy));
    assert!(server.shutdown().drained);
}

#[test]
fn wedged_worker_is_detected_failed_and_replaced() {
    let obs = Registry::new();
    let tracer = Tracer::new();
    let config = ServeConfig {
        workers: 1,
        watchdog_interval: Duration::from_millis(20),
        wedge_timeout: Duration::from_millis(150),
        recovery_ticks: 5,
        // The first batch wedges its worker for far longer than the
        // wedge deadline.
        faults: wedge_first_batch(Duration::from_millis(1500)),
        ..ServeConfig::default()
    };
    let server = Server::start(factory(32), config, &obs, &tracer).expect("start");
    let addr = server.addr();

    // The wedged request fails with a typed 500, not a hang.
    let started = Instant::now();
    let (status, text) = post_detect(addr);
    assert_eq!(status, 500, "wedged job must fail typed: {text}");
    assert!(text.contains("wedged"), "typed wedge error: {text}");
    assert!(
        started.elapsed() < Duration::from_millis(1200),
        "the watchdog, not the wedge, must answer (took {:?})",
        started.elapsed()
    );

    // A replacement worker serves subsequent traffic.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, _) = post_detect(addr);
        if status == 200 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replacement worker never served (last status {status})"
        );
        thread::sleep(Duration::from_millis(50));
    }

    // Evidence: a black box with the wedge trigger, counted restarts.
    let boxes = server.black_boxes();
    assert!(!boxes.is_empty(), "wedge must capture a black box");
    assert!(
        boxes.iter().any(|b| b.trigger.contains("wedged")),
        "black-box trigger names the wedge: {:?}",
        boxes.iter().map(|b| &b.trigger).collect::<Vec<_>>()
    );
    assert!(boxes[0].frame_ids.contains(&1), "frame 1 was in flight");
    let snap = obs.snapshot();
    assert!(snap.counter("serve.worker_wedges").unwrap_or(0) >= 1);
    assert!(snap.counter("serve.worker_restarts").unwrap_or(0) >= 1);
    assert!(snap.counter("serve.black_box_captures").unwrap_or(0) >= 1);

    // Health: Degraded during the incident, Healthy after quiet ticks.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !matches!(server.health(), Health::Healthy) {
        assert!(
            Instant::now() < deadline,
            "server never recovered to Healthy (stuck at {:?})",
            server.health()
        );
        thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(
        obs.snapshot().gauge("serve.health"),
        Some(0.0),
        "the gauge agrees"
    );
    write_artifacts("wedge", &[], &server);
    server.shutdown();
}

#[test]
fn exhausted_restart_budget_halts_instead_of_hanging() {
    let obs = Registry::new();
    let config = ServeConfig {
        workers: 1,
        watchdog_interval: Duration::from_millis(20),
        wedge_timeout: Duration::from_millis(150),
        // No restart budget: losing the only worker is terminal.
        max_worker_restarts: 0,
        faults: wedge_first_batch(Duration::from_millis(1200)),
        ..ServeConfig::default()
    };
    let server = Server::start(factory(32), config, &obs, &Tracer::noop()).expect("start");
    let addr = server.addr();

    let (status, text) = post_detect(addr);
    assert_eq!(status, 500, "wedged job fails typed: {text}");

    // With no workers left the server flips to Halted...
    let deadline = Instant::now() + Duration::from_secs(3);
    while !matches!(server.health(), Health::Halted) {
        assert!(Instant::now() < deadline, "never halted");
        thread::sleep(Duration::from_millis(25));
    }
    // ...and says so on every surface: healthz 503 + typed detect 503.
    let (status, text) = http(addr, "GET", "/healthz", b"");
    assert_eq!(status, 503, "halted healthz: {text}");
    assert!(text.contains("\"halted\""));
    let (_, body) = text.split_once("\r\n\r\n").expect("a body");
    let health = dronet::obs::JsonValue::parse(body).expect("healthz JSON");
    assert_eq!(
        health.get("workers_alive").and_then(|v| v.as_u64()),
        Some(0)
    );
    let (status, text) = post_detect(addr);
    assert_eq!(status, 503, "halted detect is a typed 503: {text}");
    assert!(text.contains("halted"));
    assert_eq!(obs.snapshot().gauge("serve.health"), Some(2.0));
    server.shutdown();
}

#[test]
fn brownout_walks_the_ladder_down_under_load_and_recovers() {
    let ladder = vec![32, 64, 96];
    let top = 96.0;
    let brownout_cfg = |brownout: Option<DegradeConfig>| ServeConfig {
        workers: 1,
        max_batch: 1,
        queue_capacity: 2,
        watchdog_interval: Duration::from_millis(15),
        brownout,
        ..ServeConfig::default()
    };

    // Closed-loop posters for a fixed wall-time window; goodput = 200s.
    let storm = |addr: SocketAddr, secs: f64| -> usize {
        let goodput = Arc::new(AtomicUsize::new(0));
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let posters: Vec<_> = (0..4)
            .map(|_| {
                let goodput = Arc::clone(&goodput);
                thread::spawn(move || {
                    while Instant::now() < deadline {
                        let mut ok = false;
                        let outcome = std::panic::catch_unwind(|| post_detect(addr));
                        if let Ok((200, _)) = outcome {
                            ok = true;
                        }
                        if ok {
                            goodput.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for p in posters {
            let _ = p.join();
        }
        goodput.load(Ordering::SeqCst)
    };

    // Baseline: fixed at the ladder top, overload can only shed.
    let obs_fixed = Registry::new();
    let fixed = Server::start(factory(96), brownout_cfg(None), &obs_fixed, &Tracer::noop())
        .expect("start fixed");
    let fixed_goodput = storm(fixed.addr(), 2.0);
    fixed.shutdown();

    // Brownout: same knobs plus the ladder.
    let obs = Registry::new();
    let server = Server::start(
        factory(96),
        brownout_cfg(Some(DegradeConfig {
            ladder: ladder.clone(),
            window_frames: 2,
            overload_windows: 1,
            calm_windows: 3,
            cooldown_windows: 1,
        })),
        &obs,
        &Tracer::noop(),
    )
    .expect("start brownout");
    let addr = server.addr();
    assert_eq!(obs.snapshot().gauge("serve.input_resolution"), Some(top));

    // Watch the resolution gauge while the storm runs.
    let gauge = obs.gauge("serve.input_resolution");
    let lowest = Arc::new(AtomicUsize::new(usize::MAX));
    let watcher = {
        let lowest = Arc::clone(&lowest);
        let gauge = gauge.clone();
        thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_millis(2100);
            while Instant::now() < deadline {
                let v = gauge.get() as usize;
                if v > 0 {
                    lowest.fetch_min(v, Ordering::SeqCst);
                }
                thread::sleep(Duration::from_millis(10));
            }
        })
    };
    let brownout_goodput = storm(addr, 2.0);
    watcher.join().unwrap();

    let lowest = lowest.load(Ordering::SeqCst);
    assert!(
        lowest < 96,
        "sustained overload must walk the ladder down (lowest seen: {lowest})"
    );
    assert!(
        obs.snapshot()
            .counter("serve.brownout_downshifts")
            .unwrap_or(0)
            >= 1
    );
    assert!(
        brownout_goodput >= fixed_goodput,
        "brownout goodput ({brownout_goodput}) must not lose to hard-shed-only \
         baseline ({fixed_goodput})"
    );

    // Calm: the ladder walks back to the top and health recovers.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let restored = obs.snapshot().gauge("serve.input_resolution") == Some(top)
            && matches!(server.health(), Health::Healthy);
        if restored {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "never recovered: resolution {:?}, health {:?}",
            obs.snapshot().gauge("serve.input_resolution"),
            server.health()
        );
        thread::sleep(Duration::from_millis(50));
    }
    assert!(
        obs.snapshot()
            .counter("serve.brownout_upshifts")
            .unwrap_or(0)
            >= 1
    );
    // Still serving, at full resolution, after the whole episode.
    let (status, _) = post_detect(addr);
    assert_eq!(status, 200);
    server.shutdown();
}
