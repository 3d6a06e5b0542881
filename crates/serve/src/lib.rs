//! # dronet-serve
//!
//! A zero-dependency (std-only) HTTP/1.1 detection server, turning the
//! in-process [`dronet_detect::Detector`] into a network service — the
//! ROADMAP's "heavy traffic" deployment story for the paper's detector.
//!
//! Four layers, bottom up:
//!
//! * [`http`] — a hand-rolled, hardened HTTP parser: bounded head/body
//!   sizes, typed [`HttpError`]s, incremental feeding, the same
//!   hostile-input discipline as `data::ppm`. No input may panic.
//! * admission control — a strictly bounded queue ([`batcher::BatchQueue`]);
//!   when it is full the server sheds load with `503` + `Retry-After`
//!   instead of queueing unbounded latency, and every connection carries
//!   read/write deadlines.
//! * dynamic micro-batching — a free worker takes every queued frame, up
//!   to `max_batch`, as one NCHW batch the moment one is there (it never
//!   waits for stragglers), runs a single shared `Network::forward`, and
//!   de-multiplexes per-image decode + NMS back to each waiting
//!   connection. At 352² the forward's per-image cost is flat in batch
//!   size (the repo benchmark's `nn.batch_ms_per_image` on `tile_1408`
//!   against `stream_352`): a batch saves no per-image work, it only
//!   means fewer forwards once a backlog has formed
//!   (`serve.batch_size_mean`).
//! * endpoints — `POST /detect` (binary P6 PPM body → JSON detections),
//!   `GET /metrics` (Prometheus text exposition — `# HELP`/`# TYPE`,
//!   cumulative series, and rolling 10-second `_window_rate` /
//!   `_window_p99_seconds` gauges), `GET /healthz` (JSON body with the
//!   supervisor's Healthy/Degraded/Halted state and live queue depth;
//!   `503` when halted), plus graceful drain on [`Server::shutdown`].
//!
//! A live debug surface rides alongside, bounded by its own admission
//! budget (at most 2 in flight, excess shed with `503` + `Retry-After`):
//!
//! * `GET /debug/vars` — the server's one debug document, written in one
//!   pass: `metrics` (the full registry, each counter and histogram with
//!   its rolling 10-second window), `replicas` (one row per replica
//!   slot) and `black_boxes` (every retained crash capture, oldest
//!   first).
//! * `GET /debug/trace?ms=N` — arm the flight recorder for `N` ms
//!   (default 100, capped at 2000) and return Chrome `trace.json`,
//!   ready for Perfetto / `chrome://tracing`. Worker threads are
//!   labelled `serve-worker-N` via trace metadata events.
//!
//! Requests are traced end to end when a `Tracer` is attached: each frame
//! shows up as `serve.parse → serve.queue → serve.batch(n) → nn.forward →
//! detect.decode → detect.nms` spans under its own frame id.
//!
//! # Self-healing
//!
//! The serve path supervises itself the way the detect pipeline does:
//!
//! * **Connection hardening** — keep-alive with idle reaping (a request's
//!   first byte, a connection's first request's included, is waited for
//!   on the idle deadline), a header deadline from that first byte
//!   (slowloris defense), a body deadline, write timeouts, and a global
//!   connection cap shedding `503` + `Retry-After` at accept.
//! * **One supervisor tick** — a single thread, whatever the replica
//!   count, makes every supervisory decision once per `watchdog_interval`.
//!   Workers stamp heartbeats around each batch; a worker stuck past
//!   `wedge_timeout` has its jobs failed with typed `500`s, its trace tail
//!   captured as a [`dronet_obs::BlackBox`] (also served in
//!   `GET /debug/vars`), and a replacement spawned under a bounded
//!   restart budget. Losing the last worker flips health to Halted and
//!   fails the backlog — never a hang, never a panic.
//! * **Brownout** ([`dronet_detect::DegradeConfig`] in
//!   [`ServeConfig::brownout`]) — sustained queue pressure walks the
//!   input-resolution ladder down (the paper's 608→352 accuracy-vs-FPS
//!   sweep as a runtime knob) and back up after calm, tracked by the
//!   `serve.input_resolution` gauge. A shift rebuilds nothing: frames are
//!   conformed to the new rung, and the fully convolutional detector runs
//!   at the size it is given.
//! * **Chaos harness** ([`chaos`]) — one [`FaultSchedule`] in
//!   [`ServeConfig::faults`] for every fault the server injects into its
//!   own replicas, and seeded, deterministic adversarial TCP clients for
//!   proving all of the above from the wire.
//!
//! # Load shedding
//!
//! Every response is counted once, by the registry, under its endpoint
//! and status class (`serve.endpoint.detect.2xx`, `.5xx`, …, beside
//! `serve.responses.<class>`), each counter with its rolling 10-second
//! window. `serve.request` times every request end to end and
//! `serve.queue_wait` each admitted frame's wait for a worker, both with
//! the same window. A shed share or an error-budget burn rate over that
//! window is a ratio of those counters, for a scraper to compute.
//!
//! Sheds are taxonomized (`serve.shed.queue_full` / `.draining` /
//! `.halted` / `.debug_busy`, plus `serve.timeout.*` and
//! `serve.error.worker`), and every `503` carries a *load-aware*
//! `Retry-After`: backlog depth over the queue's recent drain rate,
//! clamped to 1–30 s — clients are told to come back when the queue will
//! plausibly have space, not after a constant guess.
//!
//! # Example
//!
//! ```
//! use dronet_serve::{Server, ServeConfig};
//! use dronet_detect::DetectorBuilder;
//! use dronet_obs::{Registry, Tracer};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), dronet_serve::ServeError> {
//! let factory: dronet_serve::DetectorFactory = Arc::new(|| {
//!     let net = dronet_core::zoo::build(dronet_core::ModelId::DroNet, 96)?;
//!     DetectorBuilder::new(net).build()
//! });
//! let server = Server::start(
//!     factory,
//!     ServeConfig::default(),
//!     &Registry::new(),
//!     &Tracer::noop(),
//! )?;
//! println!("listening on {}", server.addr());
//! let report = server.shutdown();
//! assert!(report.drained);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod chaos;
mod error;
pub mod http;
pub mod json;
mod replica;
mod server;

pub use batcher::{HedgeState, HEDGE_LEG, PRIMARY_LEG};
pub use chaos::{Fault, FaultEvent, FaultSchedule};
pub use error::ServeError;
pub use http::{HttpError, HttpLimits, Method, Request, Response, Version};
pub use server::{DetectorFactory, DrainReport, ServeConfig, Server};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, ServeError>;
