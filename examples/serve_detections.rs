//! Serve detections over HTTP with dynamic micro-batching.
//!
//! Starts the zero-dependency detection server on an ephemeral port, fires
//! eight concurrent `POST /detect` requests (PPM frames in, JSON detections
//! out), shows how the frames that queue while the worker is busy share
//! forward batches, scrapes the live `/metrics` endpoint, and drains
//! gracefully.
//!
//! ```text
//! cargo run --release --example serve_detections
//! ```

use dronet::detect::DetectorBuilder;
use dronet::obs::{JsonValue, Registry, Tracer};
use dronet::serve::{DetectorFactory, ServeConfig, Server};
use dronet_core::{zoo, ModelId};
use dronet_data::{ppm, Image};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    // `Connection: close` — the server defaults to keep-alive, and this
    // client reads to EOF.
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: example\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("head terminator");
    let status: u16 = String::from_utf8_lossy(&response[..split])
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (
        status,
        String::from_utf8_lossy(&response[split + 4..]).to_string(),
    )
}

fn main() {
    // One detector per worker, built from a factory so a crashed worker can
    // be replaced. DroNet at 64x64 keeps the example quick.
    let factory: DetectorFactory = Arc::new(|| {
        let net = zoo::build(ModelId::DroNet, 64)?;
        DetectorBuilder::new(net).confidence_threshold(0.3).build()
    });

    let obs = Registry::new();
    let tracer = Tracer::new();
    let config = ServeConfig {
        max_batch: 8,
        ..ServeConfig::default()
    };
    let server = Server::start(factory, config, &obs, &tracer).expect("start server");
    let addr = server.addr();
    println!("serving on http://{addr}");
    println!("try: curl --data-binary @frame.ppm http://{addr}/detect\n");

    // Eight concurrent clients, each posting one PPM frame.
    let frame = {
        let img = Image::new(64, 64, [0.4, 0.5, 0.6]);
        let mut bytes = Vec::new();
        ppm::write(&img, &mut bytes).expect("encode PPM");
        bytes
    };
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let body = frame.clone();
            thread::spawn(move || request(addr, "POST", "/detect", &body))
        })
        .collect();
    for (i, c) in clients.into_iter().enumerate() {
        let (status, body) = c.join().expect("client");
        let line = body.lines().next().unwrap_or_default();
        let snippet: String = line.chars().take(72).collect();
        println!("client {i}: {status} {snippet}");
    }

    // The batch-size histogram stores batch sizes as nanosecond samples:
    // max_ns is the largest coalesced batch any forward pass carried.
    let snap = obs.snapshot();
    if let Some(sizes) = snap.histogram("serve.batch_size") {
        println!(
            "\n{} forward batches, largest carried {} frames",
            sizes.count, sizes.max_ns
        );
    }

    let (status, metrics) = request(addr, "GET", "/metrics", &[]);
    println!("\n/metrics ({status}):");
    for line in metrics
        .lines()
        .filter(|l| l.starts_with("serve_") && !l.contains("bucket"))
        .take(10)
    {
        println!("  {line}");
    }

    let (status, health) = request(addr, "GET", "/healthz", &[]);
    println!("\n/healthz ({status}): {}", health.trim());
    println!("server health: {:?}", server.health());

    // The live debug surface: the one debug document (registry with its
    // windows, replicas, black boxes) and a short Chrome-trace capture
    // ready for https://ui.perfetto.dev.
    let (status, vars) = request(addr, "GET", "/debug/vars", &[]);
    let snippet: String = vars.chars().take(96).collect();
    println!("/debug/vars ({status}): {snippet}...");
    JsonValue::parse(&vars).expect("parse /debug/vars");
    let (status, trace) = request(addr, "GET", "/debug/trace?ms=50", &[]);
    let events = dronet::obs::ChromeTrace::parse(&trace).expect("parse trace");
    println!(
        "/debug/trace?ms=50 ({status}): {} events, worker threads {:?}",
        events.len(),
        events
            .iter()
            .filter(|e| e.ph == 'M' && e.name == "thread_name")
            .filter_map(|e| e.arg_name.as_deref())
            .collect::<Vec<_>>()
    );

    let report = server.shutdown();
    println!("\ndrained cleanly: {}", report.drained);
}
