//! End-to-end integration tests for the detection server: a real
//! `TcpListener` on an ephemeral port, driven by plain `TcpStream` clients.
//!
//! Covers the four serving guarantees: concurrent requests coalesce into
//! one forward batch (observed via the batch-size histogram), a full
//! admission queue sheds load with `503` + `Retry-After`, `/metrics` emits
//! valid Prometheus text, and graceful drain completes in-flight requests.

use dronet::detect::DetectorBuilder;
use dronet::obs::{ChromeTrace, JsonValue, Registry, Snapshot, Tracer};
use dronet::serve::{DetectorFactory, Fault, FaultEvent, FaultSchedule, ServeConfig, Server};
use dronet_core::{zoo, ModelId};
use dronet_data::{ppm, Image};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn factory() -> DetectorFactory {
    Arc::new(|| {
        let net = zoo::build(ModelId::DroNet, 64)?;
        DetectorBuilder::new(net).confidence_threshold(0.3).build()
    })
}

/// Holds the only worker 300 ms before every forward.
fn slow_worker() -> FaultSchedule {
    let stall = Fault::Stall(Duration::from_millis(300));
    FaultSchedule::new(vec![FaultEvent::at(Duration::ZERO, 0, stall)])
}

/// Polls `obs` until `witness` holds on its snapshot, for at most 10 s: the
/// metric that witnesses the event a test orders itself after.
fn wait_for(obs: &Registry, what: &str, witness: impl Fn(&Snapshot) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !witness(&obs.snapshot()) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(1));
    }
}

fn frame_bytes() -> Vec<u8> {
    let img = Image::new(64, 64, [0.4, 0.5, 0.6]);
    let mut bytes = Vec::new();
    ppm::write(&img, &mut bytes).expect("encode frame");
    bytes
}

/// Minimal one-shot HTTP client (`Connection: close` — the server keeps
/// connections alive by default): returns (status, head, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head terminator");
    let head = String::from_utf8_lossy(&response[..split]).to_string();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head, response[split + 4..].to_vec())
}

/// Reads exactly one `Content-Length`-framed response off a keep-alive
/// stream: returns (status, head, body).
fn read_one_response(stream: &mut TcpStream) -> (u16, String, Vec<u8>) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "connection closed before a full response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length header");
    while buf.len() < head_end + 4 + content_length {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "connection closed before a full response body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = buf[head_end + 4..head_end + 4 + content_length].to_vec();
    (status, head, body)
}

fn post_detect(addr: SocketAddr) -> (u16, String, Vec<u8>) {
    http(addr, "POST", "/detect", &frame_bytes())
}

#[test]
fn concurrent_requests_coalesce_into_batches() {
    let obs = Registry::new();
    let tracer = Tracer::new();
    // The batcher never waits for stragglers, so hold the only worker on
    // its first batch: the other clients' frames queue up behind it and
    // ride the next batch together, even on a loaded CI box.
    let hold = Fault::StallOnce(Duration::from_millis(500));
    let config = ServeConfig {
        max_batch: 8,
        faults: FaultSchedule::new(vec![FaultEvent::at(Duration::ZERO, 0, hold)]),
        ..ServeConfig::default()
    };
    let server = Server::start(factory(), config, &obs, &tracer).expect("start");
    let addr = server.addr();

    let clients: Vec<_> = (0..8)
        .map(|_| thread::spawn(move || post_detect(addr)))
        .collect();
    for c in clients {
        let (status, _head, body) = c.join().expect("client thread");
        assert_eq!(status, 200);
        let v = JsonValue::parse(&String::from_utf8_lossy(&body)).expect("JSON body");
        assert!(v.get("frame_id").and_then(JsonValue::as_f64).unwrap() >= 1.0);
        let count = v.get("count").and_then(JsonValue::as_f64).unwrap() as usize;
        let dets = v.get("detections").and_then(JsonValue::as_array).unwrap();
        assert_eq!(dets.len(), count);
    }

    // The batch-size histogram encodes batch sizes as nanoseconds; max_ns
    // is exact, so coalescing means at least one forward saw >= 2 frames.
    let snap = obs.snapshot();
    let sizes = snap.histogram("serve.batch_size").expect("batch histogram");
    assert!(sizes.count >= 1, "at least one forward batch");
    assert!(
        sizes.max_ns >= 2,
        "8 concurrent requests never coalesced (largest batch {})",
        sizes.max_ns
    );
    assert_eq!(snap.counter("serve.requests"), Some(8));

    // Every frame shows its serving spans in the flight recorder.
    let trace = tracer.snapshot();
    for name in ["serve.parse", "serve.queue", "serve.batch", "detect.decode"] {
        assert!(
            trace.events.iter().any(|e| e.name == name),
            "missing span {name}"
        );
    }

    assert!(server.shutdown().drained);
}

#[test]
fn full_queue_sheds_load_with_503_and_retry_after() {
    let obs = Registry::new();
    let config = ServeConfig {
        workers: 1,
        max_batch: 1,
        queue_capacity: 1,
        // Hold the only worker busy so the queue stays full.
        faults: slow_worker(),
        ..ServeConfig::default()
    };
    let server = Server::start(factory(), config, &obs, &Tracer::noop()).expect("start");
    let addr = server.addr();

    let clients: Vec<_> = (0..4)
        .map(|_| thread::spawn(move || post_detect(addr)))
        .collect();
    let mut ok = 0usize;
    let mut shed = 0usize;
    for c in clients {
        let (status, head, _body) = c.join().expect("client thread");
        match status {
            200 => ok += 1,
            503 => {
                shed += 1;
                assert!(head.contains("Retry-After:"), "503 without Retry-After");
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(ok >= 1, "some requests must still be served");
    assert!(
        shed >= 1,
        "a 1-deep queue behind a stalled worker must shed"
    );
    let drops = obs.snapshot().counter("serve.admission_drops").unwrap_or(0);
    assert!(drops >= shed as u64);
    server.shutdown();
}

#[test]
fn metrics_endpoint_serves_valid_prometheus_text() {
    let obs = Registry::new();
    let server =
        Server::start(factory(), ServeConfig::default(), &obs, &Tracer::noop()).expect("start");
    let addr = server.addr();
    let (status, _, _) = post_detect(addr);
    assert_eq!(status, 200);

    let (status, head, body) = http(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: text/plain; version=0.0.4"));
    let text = String::from_utf8(body).expect("utf-8 exposition");
    for metric in [
        "serve_queue_depth",
        "serve_batch_size_seconds_bucket",
        "serve_admission_drops",
        "serve_request_seconds_count",
        "serve_health",
        // Rolling-window gauges ride alongside the cumulative series.
        "serve_queue_wait_window_rate",
        "serve_queue_wait_window_p99_seconds",
        "serve_request_window_rate",
        // The server registers HELP text for its scrape-facing metrics.
        "# HELP serve_queue_wait_seconds ",
        "# HELP serve_health ",
    ] {
        assert!(text.contains(metric), "missing metric {metric}");
    }
    // Structural validation: every line is a comment or `name[{labels}] value`.
    for line in text.lines() {
        if line.starts_with("# TYPE ") || line.starts_with("# HELP ") {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample line");
        assert!(!name.is_empty());
        let bare = name.split('{').next().unwrap();
        assert!(
            bare.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            }),
            "illegal metric name {bare:?}"
        );
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value {value:?} in {line:?}"
        );
    }
    server.shutdown();
}

#[test]
fn graceful_drain_completes_in_flight_requests() {
    let obs = Registry::new();
    let config = ServeConfig {
        workers: 1,
        // Slow the worker so the request is provably in flight when the
        // drain begins.
        faults: slow_worker(),
        ..ServeConfig::default()
    };
    let server = Server::start(factory(), config, &obs, &Tracer::noop()).expect("start");
    let addr = server.addr();

    let inflight = thread::spawn(move || post_detect(addr));
    // Drain once the worker holds the request's batch.
    wait_for(&obs, "the request's batch", |s| {
        s.histogram("serve.batch_size")
            .is_some_and(|h| h.count == 1)
    });
    let report = server.shutdown();
    let (status, _, body) = inflight.join().expect("client thread");
    assert_eq!(status, 200, "in-flight request must complete during drain");
    JsonValue::parse(&String::from_utf8_lossy(&body)).expect("JSON body");
    assert!(report.drained, "drain must finish inside the timeout");
    assert_eq!(report.abandoned_connections, 0);
}

#[test]
fn routing_health_and_error_paths() {
    let obs = Registry::new();
    let server =
        Server::start(factory(), ServeConfig::default(), &obs, &Tracer::noop()).expect("start");
    let addr = server.addr();

    let (status, head, body) = http(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: application/json"));
    let v = JsonValue::parse(&String::from_utf8_lossy(&body)).expect("healthz JSON");
    assert_eq!(v.get("health").and_then(JsonValue::as_str), Some("healthy"));
    let depth = v.get("queue_depth").and_then(JsonValue::as_f64).unwrap();
    assert!(depth >= 0.0);

    let (status, _, _) = http(addr, "GET", "/nope", b"");
    assert_eq!(status, 404);

    // The 405 list names the live paths and only them: the retired debug
    // endpoints are gone whatever the method.
    let (status, _, _) = http(addr, "GET", "/detect", b"");
    assert_eq!(status, 405);
    for path in ["/metrics", "/healthz", "/debug/vars", "/debug/trace"] {
        let (status, _, _) = http(addr, "POST", path, b"");
        assert_eq!(status, 405, "POST {path}");
    }
    for path in [
        "/debug/slo",
        "/debug/alloc",
        "/debug/replicas",
        "/debug/blackbox",
    ] {
        for method in ["GET", "POST"] {
            let (status, _, _) = http(addr, method, path, b"");
            assert_eq!(status, 404, "{method} {path} is retired");
        }
    }

    // A non-PPM body is a typed 400, not a hang or a crash.
    let (status, _, body) = http(addr, "POST", "/detect", b"this is not a ppm");
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("bad PPM body"));

    // Malformed HTTP is a typed 400 too.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"BROKEN\r\n\r\n").expect("write");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    assert!(String::from_utf8_lossy(&response).starts_with("HTTP/1.1 400"));

    server.shutdown();
}

#[test]
fn debug_vars_and_alloc_expose_registry_and_allocator() {
    let obs = Registry::new();
    let server =
        Server::start(factory(), ServeConfig::default(), &obs, &Tracer::noop()).expect("start");
    let addr = server.addr();
    let (status, _, _) = post_detect(addr);
    assert_eq!(status, 200);

    // /debug/vars: the one debug document — metrics with their windows,
    // replica rows and black boxes.
    let (status, head, body) = http(addr, "GET", "/debug/vars", b"");
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: application/json"));
    let v = JsonValue::parse(&String::from_utf8_lossy(&body)).expect("vars JSON");
    let metrics = v.get("metrics").expect("metrics key");
    let counters = metrics
        .get("counters")
        .and_then(JsonValue::as_array)
        .expect("counters array");
    assert!(
        counters
            .iter()
            .any(|c| { c.get("name").and_then(JsonValue::as_str) == Some("serve.requests") }),
        "serve.requests missing from /debug/vars metrics"
    );
    let histograms = metrics
        .get("histograms")
        .and_then(JsonValue::as_array)
        .expect("histograms array");
    assert!(!histograms.is_empty());
    // The server windows every counter and histogram, so each carries its
    // window in the one snapshot.
    for (metric, keys) in [
        (counters, &["window_ns", "increment", "rate_per_sec"][..]),
        (
            histograms,
            &[
                "window_ns",
                "count",
                "sum_ns",
                "rate_per_sec",
                "p50_ns",
                "p99_ns",
            ][..],
        ),
    ] {
        for m in metric {
            let name = m.get("name").and_then(JsonValue::as_str).unwrap();
            let window = m
                .get("window")
                .unwrap_or_else(|| panic!("{name}: no window"));
            assert_eq!(
                window.get("window_ns").and_then(JsonValue::as_u64),
                Some(10_000_000_000),
                "{name}: 10 s window"
            );
            for key in keys {
                assert!(window.get(key).is_some(), "{name}: window lacks {key}");
            }
        }
    }
    let requests = counters
        .iter()
        .find(|c| c.get("name").and_then(JsonValue::as_str) == Some("serve.requests"))
        .unwrap();
    assert!(
        requests
            .get("window")
            .and_then(|w| w.get("increment"))
            .and_then(JsonValue::as_u64)
            .unwrap()
            >= 1,
        "the POST just served lies inside the window"
    );
    // Request outcomes are aggregated once, by the registry's windowed
    // counters above; there is no separate objective layer to report.
    assert!(v.get("slo").is_none(), "/debug/vars has no slo member");
    // Allocation counting belongs to the test binary that installs the
    // counting allocator; a server has no allocator member to report.
    assert!(v.get("alloc").is_none(), "/debug/vars has no alloc member");
    let replicas = v
        .get("replicas")
        .and_then(JsonValue::as_array)
        .expect("replicas array");
    assert_eq!(replicas.len(), 1);
    assert_eq!(
        replicas[0].get("status").and_then(JsonValue::as_str),
        Some("active")
    );
    let black_boxes = v
        .get("black_boxes")
        .and_then(JsonValue::as_array)
        .expect("black_boxes array");
    assert!(black_boxes.is_empty(), "a healthy server captured nothing");

    server.shutdown();
}

#[test]
fn debug_trace_returns_parseable_chrome_trace_with_serving_spans() {
    let obs = Registry::new();
    let tracer = Tracer::new();
    let server = Server::start(factory(), ServeConfig::default(), &obs, &tracer).expect("start");
    let addr = server.addr();
    let (status, _, _) = post_detect(addr);
    assert_eq!(status, 200);

    let (status, head, body) = http(addr, "GET", "/debug/trace?ms=50", b"");
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: application/json"));
    let events =
        ChromeTrace::parse(&String::from_utf8_lossy(&body)).expect("parseable Chrome trace");
    for name in ["serve.parse", "serve.queue", "detect.decode", "detect.nms"] {
        assert!(
            events.iter().any(|e| e.name == name),
            "missing span {name} in /debug/trace output"
        );
    }
    // Worker threads announce themselves via metadata events.
    assert!(
        events.iter().any(|e| {
            e.ph == 'M'
                && e.name == "thread_name"
                && e.arg_name.as_deref() == Some("serve-worker-0")
        }),
        "missing serve-worker-0 thread_name metadata event"
    );

    // A bad ms value is a typed 400; a missing tracer is exercised in the
    // noop-server test below.
    let (status, _, _) = http(addr, "GET", "/debug/trace?ms=abc", b"");
    assert_eq!(status, 400);

    server.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_then_reaps_idle_connections() {
    let obs = Registry::new();
    let config = ServeConfig {
        keep_alive_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let server = Server::start(factory(), config, &obs, &Tracer::noop()).expect("start");
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Three requests down one connection.
    for _ in 0..3 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            .expect("write request");
        let (status, head, _) = read_one_response(&mut stream);
        assert_eq!(status, 200);
        assert!(
            head.contains("Connection: keep-alive"),
            "keep-alive must persist: {head}"
        );
    }
    // Now go idle: the server reaps the connection at its deadline.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read after idle");
    assert!(
        rest.is_empty(),
        "idle reap is a silent close, not a response"
    );
    let snap = obs.snapshot();
    assert_eq!(snap.counter("serve.requests"), Some(3));
    assert!(
        snap.counter("serve.keepalive_reaped").unwrap_or(0) >= 1,
        "the reap must be counted"
    );

    // An explicit `Connection: close` still closes immediately.
    let (status, head, _) = http(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"));

    assert!(server.shutdown().drained);
}

#[test]
fn a_first_request_sent_after_the_header_timeout_is_still_served() {
    // Until its first byte, a request waits on the keep-alive idle
    // deadline, a connection's first request included: the header
    // deadline runs from the first byte, not from accept. The sleep is
    // real time: each wait on the server's deadline ladder is a socket
    // read timeout, so the ladder reads `Instant`, not a manual clock.
    let obs = Registry::new();
    let config = ServeConfig {
        header_timeout: Duration::from_millis(200),
        keep_alive_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let server = Server::start(factory(), config, &obs, &Tracer::noop()).expect("start");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    thread::sleep(Duration::from_millis(500));
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        .expect("write request");
    let (status, _, _) = read_one_response(&mut stream);
    assert_eq!(status, 200, "a late first request is served, not timed out");
    let timeouts = obs.snapshot().counter("serve.timeout.request");
    assert_eq!(timeouts.unwrap_or(0), 0);
    drop(stream);
    assert!(server.shutdown().drained);
}

#[test]
fn connection_cap_sheds_at_accept_with_503_and_retry_after() {
    let obs = Registry::new();
    let config = ServeConfig {
        max_connections: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(factory(), config, &obs, &Tracer::noop()).expect("start");
    let addr = server.addr();

    // Two idle connections occupy the whole budget.
    let _idle_a = TcpStream::connect(addr).expect("connect a");
    let _idle_b = TcpStream::connect(addr).expect("connect b");
    wait_for(&obs, "both connections", |s| {
        s.gauge("serve.connections") == Some(2.0)
    });

    // The third is shed at accept time: 503 + Retry-After, then close.
    let mut third = TcpStream::connect(addr).expect("connect c");
    third
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut response = Vec::new();
    third
        .read_to_end(&mut response)
        .expect("read shed response");
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 503"), "got: {text}");
    assert!(text.contains("Retry-After:"), "503 without Retry-After");
    assert!(
        obs.snapshot().counter("serve.conn_rejected").unwrap_or(0) >= 1,
        "the shed must be counted"
    );

    // Freeing a slot restores service.
    drop(_idle_a);
    wait_for(&obs, "the freed slot", |s| {
        s.gauge("serve.connections") == Some(1.0)
    });
    let (status, _, _) = http(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);

    server.shutdown();
}

#[test]
fn slow_reading_client_does_not_stall_other_connections() {
    let obs = Registry::new();
    let config = ServeConfig {
        write_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    };
    let server = Server::start(factory(), config, &obs, &Tracer::noop()).expect("start");
    let addr = server.addr();

    // A client that posts a frame and then never reads its response.
    let mut never_reader = TcpStream::connect(addr).expect("connect slow");
    let body = frame_bytes();
    let head = format!(
        "POST /detect HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    never_reader.write_all(head.as_bytes()).expect("write head");
    never_reader.write_all(&body).expect("write body");

    // Meanwhile a well-behaved client must be served promptly.
    let start = std::time::Instant::now();
    let (status, _, _) = post_detect(addr);
    assert_eq!(status, 200);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "slow reader stalled an unrelated connection for {:?}",
        start.elapsed()
    );
    drop(never_reader);
    server.shutdown();
}

#[test]
fn debug_trace_without_tracer_is_a_typed_503() {
    let obs = Registry::new();
    let server =
        Server::start(factory(), ServeConfig::default(), &obs, &Tracer::noop()).expect("start");
    let addr = server.addr();
    let (status, _, body) = http(addr, "GET", "/debug/trace", b"");
    assert_eq!(status, 503);
    assert!(String::from_utf8_lossy(&body).contains("tracing is not enabled"));
    server.shutdown();
}

#[test]
fn metrics_count_outcomes_by_endpoint_and_status_class() {
    let obs = Registry::new();
    let server =
        Server::start(factory(), ServeConfig::default(), &obs, &Tracer::noop()).expect("start");
    let addr = server.addr();
    for _ in 0..3 {
        let (status, _, _) = post_detect(addr);
        assert_eq!(status, 200);
    }
    let (status, _, _) = http(addr, "GET", "/debug/vars", b"");
    assert_eq!(status, 200);

    // /metrics: the per-endpoint and status-class counters from this very
    // traffic, each with its window, and no second aggregation of the
    // same outcomes as objective gauges.
    let (status, _, body) = http(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let text = String::from_utf8_lossy(&body);
    for counter in ["serve_endpoint_detect_2xx", "serve_responses_2xx"] {
        assert!(
            text.lines().any(|l| l.starts_with(&format!("{counter} "))),
            "missing sample for {counter}"
        );
        assert!(
            text.lines()
                .any(|l| l.starts_with(&format!("{counter}_window_rate{{"))),
            "missing window rate for {counter}"
        );
    }
    assert!(
        !text.lines().any(|l| l.contains("slo_")),
        "/metrics carries no slo_ series"
    );
    let snap = obs.snapshot();
    assert!(snap.counter("serve.responses.2xx").unwrap_or(0) >= 3);
    assert!(snap.counter("serve.endpoint.detect.2xx").unwrap_or(0) >= 3);
    assert!(snap.counter("serve.endpoint.debug.2xx").unwrap_or(0) >= 1);
    assert!(
        snap.histogram("serve.write").map_or(0, |h| h.count) >= 3,
        "serialization+write latency must be measured"
    );
    server.shutdown();
}

#[test]
fn retry_after_hint_tracks_queue_drain_rate() {
    // One worker with a 300 ms artificial service time and a 3-deep
    // queue. After ~1 s of draining, the drain-rate window knows service
    // is slow; a shed request must then be told to come back when the
    // backlog will plausibly have cleared (depth / drain rate), not the
    // constant 1 s floor.
    let obs = Registry::new();
    let config = ServeConfig {
        workers: 1,
        max_batch: 1,
        queue_capacity: 3,
        faults: slow_worker(),
        ..ServeConfig::default()
    };
    let server = Server::start(factory(), config, &obs, &Tracer::noop()).expect("start");
    let addr = server.addr();

    // Wave A: fill service + queue, then let the worker drain for ~1 s so
    // the drain-rate window has samples.
    let wave_a: Vec<_> = (0..4)
        .map(|_| thread::spawn(move || post_detect(addr)))
        .collect();
    thread::sleep(Duration::from_secs(1));

    // Wave B: refill past capacity; the overflow must carry a load-aware
    // Retry-After strictly above the floor.
    let wave_b: Vec<_> = (0..6)
        .map(|_| thread::spawn(move || post_detect(addr)))
        .collect();
    let mut hints = Vec::new();
    for c in wave_b.into_iter().chain(wave_a) {
        let (status, head, _body) = c.join().expect("client thread");
        if status == 503 {
            let hint: u64 = head
                .lines()
                .find_map(|l| l.strip_prefix("Retry-After: "))
                .and_then(|v| v.trim().parse().ok())
                .expect("503 without a parseable Retry-After");
            hints.push(hint);
        }
    }
    assert!(!hints.is_empty(), "overflow wave produced no 503s");
    assert!(
        hints.iter().any(|&h| h >= 2),
        "a drained-for-1s backlog at ~3 jobs/s must hint above the 1 s floor: {hints:?}"
    );
    assert!(
        hints.iter().all(|&h| (1..=30).contains(&h)),
        "hints must stay clamped to the 1-30 s range: {hints:?}"
    );
    server.shutdown();
}
