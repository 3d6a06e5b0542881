//! The HTTP front end: accept loop, admission control, routing, drain.
//!
//! Threading model — deliberately boring: one accept thread, one OS thread
//! per connection (keep-alive, bounded requests per connection), a small
//! worker pool per replica that owns the detectors, and one supervisor
//! thread ticking over all of them (`crate::replica`). Connections never
//! touch a detector; they parse, enqueue, and block on a reply channel.
//! All batching cleverness lives in the [`crate::batcher`].
//!
//! The front door defends itself: a global connection cap sheds at accept
//! time with `503` + `Retry-After`, per-connection deadlines bound the
//! header crawl (slowloris), the body read, and keep-alive idleness, and
//! write timeouts stop a never-reading client from pinning a thread.

use crate::batcher::{HedgeState, Job, HEDGE_LEG, PRIMARY_LEG};
use crate::chaos::FaultSchedule;
use crate::error::ServeError;
use crate::http::{parse_request, HttpError, HttpLimits, Method, Request, Response};
use crate::json::detections_json;
use crate::replica::{spawn_supervisor, BlackBoxStore, ReplicaBuilder, ReplicaCore, ReplicaSet};
use dronet_detect::{conform_frame, DegradeConfig, DegradeController, Detection, Detector};
use dronet_obs::{
    json_object, BlackBox, ChromeTrace, Health, JsonWriter, PromExporter, Registry, SloSet,
    SloSpec, Tracer,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// A detector constructor: each worker builds (and after a panic, rebuilds)
/// its own [`Detector`] from this.
pub type DetectorFactory = Arc<dyn Fn() -> dronet_detect::Result<Detector> + Send + Sync>;

/// A resolution-aware detector constructor: builds a detector at the given
/// square input size. Required for brownout, which rebuilds workers at
/// smaller ladder rungs under sustained load.
pub type SizedDetectorFactory = Arc<dyn Fn(usize) -> dronet_detect::Result<Detector> + Send + Sync>;

/// Server tuning knobs. The defaults favour a small embedded host: tight
/// limits, a short coalescing window, shallow queue.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads (each owns one detector).
    pub workers: usize,
    /// Largest batch a single forward pass may carry.
    pub max_batch: usize,
    /// How long a batch head waits for stragglers before dispatch.
    pub max_wait: Duration,
    /// Admission queue capacity; beyond it requests are shed with `503`.
    pub queue_capacity: usize,
    /// Deadline for completing a request's body once its header is in.
    pub read_timeout: Duration,
    /// Per-connection socket write deadline (slow-reader defense).
    pub write_timeout: Duration,
    /// Deadline for receiving a complete request *header* (slowloris
    /// defense: a drip-feeding client gets `408`, not a parked thread).
    pub header_timeout: Duration,
    /// How long an idle keep-alive connection is held before reaping.
    pub keep_alive_timeout: Duration,
    /// Requests served per connection before `Connection: close`.
    pub max_requests_per_connection: usize,
    /// Simultaneous connections; beyond this, accept sheds with `503` +
    /// `Retry-After` before spawning a thread.
    pub max_connections: usize,
    /// How long a connection waits for its detections before giving up.
    pub response_timeout: Duration,
    /// Floor (and cold-start fallback) for the `Retry-After` advertised
    /// when shedding load. The actual hint is load-aware: derived from the
    /// queue's recent drain rate and backlog depth, clamped to
    /// `[retry_after_secs, retry_after_max_secs]`.
    pub retry_after_secs: u64,
    /// Upper bound for the load-aware `Retry-After` hint.
    pub retry_after_max_secs: u64,
    /// Service-level objectives evaluated over `POST /detect` outcomes and
    /// surfaced on `/metrics` (burn-rate gauges) and `GET /debug/slo`.
    /// Empty disables the SLO layer.
    pub slos: Vec<SloSpec>,
    /// HTTP parser limits.
    pub limits: HttpLimits,
    /// Upper bound on waiting for in-flight connections during shutdown.
    pub drain_timeout: Duration,
    /// Watchdog tick period; must be non-zero.
    pub watchdog_interval: Duration,
    /// A worker busy past this is declared wedged: its jobs fail with
    /// typed `500`s and a replacement is spawned.
    pub wedge_timeout: Duration,
    /// Replacement workers the watchdog may spawn over the server's life;
    /// exhausting the budget with no worker left halts the server.
    pub max_worker_restarts: usize,
    /// Quiet watchdog ticks before Degraded health recovers to Healthy.
    pub recovery_ticks: u32,
    /// Adaptive-resolution brownout; requires [`Server::start_scalable`].
    /// The ladder is the paper's 352–608 sweep: under sustained queue
    /// pressure a replica walks down one rung at a time — answering every
    /// request a little coarser beats shedding them — and back up after a
    /// calm cooldown. One observation is one supervisor tick, so
    /// `window_frames` counts ticks per window. With multiple replicas,
    /// each runs its *own* controller — an overloaded replica browns out
    /// alone.
    pub brownout: Option<DegradeConfig>,
    /// Independent detector replicas. `1` (the default) keeps the
    /// original single-pool behaviour exactly; more adds health-aware
    /// dispatch, hedging, and quarantine with canary re-admission.
    pub replicas: usize,
    /// Hedged dispatch: when a `/detect` reply is still outstanding
    /// after this long, the frame is re-enqueued on the least-loaded
    /// healthy peer and the first success wins. `None` disables hedging.
    pub hedge_delay: Option<Duration>,
    /// Fault events (panics + deaths + wedges) accumulated over
    /// consecutive supervisor ticks at which a replica is quarantined.
    pub quarantine_faults: u64,
    /// The faults the server injects into its own replicas, by time since
    /// start: the one chaos and test plan (stalls that hold the queue or
    /// wedge a worker, panics, forced canary failures, heals). Empty by
    /// default.
    pub faults: FaultSchedule,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            queue_capacity: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            header_timeout: Duration::from_secs(2),
            keep_alive_timeout: Duration::from_secs(2),
            max_requests_per_connection: 64,
            max_connections: 256,
            response_timeout: Duration::from_secs(30),
            retry_after_secs: 1,
            retry_after_max_secs: 30,
            slos: vec![
                SloSpec::latency("detect_latency", Duration::from_millis(250), 0.99),
                SloSpec::availability("detect_availability", 0.999),
            ],
            limits: HttpLimits::default(),
            drain_timeout: Duration::from_secs(10),
            watchdog_interval: Duration::from_millis(25),
            wedge_timeout: Duration::from_secs(10),
            max_worker_restarts: 4,
            recovery_ticks: 20,
            brownout: None,
            replicas: 1,
            hedge_delay: None,
            quarantine_faults: 3,
            faults: FaultSchedule::default(),
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), ServeError> {
        for (name, v) in [
            ("workers", self.workers),
            ("max_batch", self.max_batch),
            ("queue_capacity", self.queue_capacity),
            ("max_connections", self.max_connections),
            (
                "max_requests_per_connection",
                self.max_requests_per_connection,
            ),
            ("replicas", self.replicas),
        ] {
            if v == 0 {
                return Err(ServeError::Config(format!("{name} must be >= 1")));
            }
        }
        if self.watchdog_interval.is_zero() {
            return Err(ServeError::Config(
                "watchdog_interval must be > 0".to_string(),
            ));
        }
        if let Some(b) = &self.brownout {
            DegradeController::new(b.clone()).map_err(|e| ServeError::Config(e.to_string()))?;
        }
        let n = self.replicas;
        if let Some(e) = self.faults.events().iter().find(|e| e.replica >= n) {
            let msg = format!("{e:?} targets replica {} of {n}", e.replica);
            return Err(ServeError::Config(msg));
        }
        Ok(())
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    /// The replicated detector pools and their supervisor-facing state.
    replicas: Arc<ReplicaSet>,
    shutdown: Arc<AtomicBool>,
    active_connections: AtomicUsize,
    next_frame_id: AtomicU64,
    obs: Registry,
    tracer: Tracer,
    config: Arc<ServeConfig>,
    /// Declared objectives, fed from `POST /detect` outcomes.
    slo: SloSet,
    /// In-flight `/debug/*` requests; bounded so a slow trace capture
    /// cannot pile up connection threads.
    debug_inflight: AtomicUsize,
}

impl Shared {
    /// Load-aware `Retry-After` for every 503 this server hands out.
    fn retry_after(&self) -> u64 {
        self.replicas.retry_after_hint(
            self.config.retry_after_secs,
            self.config.retry_after_max_secs,
        )
    }
}

/// Most `/debug/*` requests served concurrently; the rest are shed with
/// `503` + `Retry-After` like any other overload.
const DEBUG_MAX_INFLIGHT: usize = 2;

/// Longest `/debug/trace` capture window accepted, milliseconds.
const DEBUG_TRACE_MAX_MS: u64 = 2_000;

/// RAII slot in the debug-endpoint admission budget.
struct DebugPermit<'a>(&'a AtomicUsize);

impl Drop for DebugPermit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn acquire_debug(shared: &Shared) -> Option<DebugPermit<'_>> {
    if shared.debug_inflight.fetch_add(1, Ordering::SeqCst) < DEBUG_MAX_INFLIGHT {
        Some(DebugPermit(&shared.debug_inflight))
    } else {
        shared.debug_inflight.fetch_sub(1, Ordering::SeqCst);
        None
    }
}

/// Handle to a running server; dropping it does NOT stop the server — call
/// [`Server::shutdown`] for a graceful drain.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_handle: thread::JoinHandle<()>,
    supervisor_handle: thread::JoinHandle<()>,
}

/// What a graceful shutdown accomplished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether every in-flight connection completed inside the timeout.
    pub drained: bool,
    /// Connections still open when the drain timed out (0 when `drained`).
    pub abandoned_connections: usize,
}

impl Server {
    /// Binds, builds one detector per worker (failing fast on a broken
    /// factory), and starts the accept loop, worker pools, and supervisor.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for nonsensical knobs (including a brownout
    /// config, which needs [`Server::start_scalable`]),
    /// [`ServeError::Detect`] when the factory cannot build a detector, and
    /// [`ServeError::Io`] when the address cannot be bound.
    pub fn start(
        factory: DetectorFactory,
        config: ServeConfig,
        obs: &Registry,
        tracer: &Tracer,
    ) -> Result<Server, ServeError> {
        if config.brownout.is_some() {
            return Err(ServeError::Config(
                "brownout requires a resolution-aware factory; start the server with \
                 Server::start_scalable"
                    .to_string(),
            ));
        }
        config.validate()?;
        let first = factory()?;
        Server::start_inner(Arc::new(move |_| factory()), first, config, obs, tracer)
    }

    /// Like [`Server::start`], but with a resolution-aware factory so the
    /// brownout controller can rebuild workers at smaller ladder rungs
    /// under load. Requires `config.brownout`; serving starts at the
    /// ladder's top rung.
    ///
    /// # Errors
    ///
    /// Everything [`Server::start`] returns, plus [`ServeError::Config`]
    /// when `config.brownout` is missing or its ladder is invalid.
    pub fn start_scalable(
        sized: SizedDetectorFactory,
        config: ServeConfig,
        obs: &Registry,
        tracer: &Tracer,
    ) -> Result<Server, ServeError> {
        config.validate()?;
        let top = config.brownout.as_ref().and_then(|b| b.ladder.last());
        let Some(&top) = top else {
            return Err(ServeError::Config(
                "start_scalable requires ServeConfig::brownout".to_string(),
            ));
        };
        let first = sized(top)?;
        Server::start_inner(sized, first, config, obs, tracer)
    }

    /// `first` is the factory's build at the size serving starts at.
    fn start_inner(
        factory: SizedDetectorFactory,
        first: Detector,
        config: ServeConfig,
        obs: &Registry,
        tracer: &Tracer,
    ) -> Result<Server, ServeError> {
        if obs.is_enabled() {
            // Rolling 10-second windows next to every cumulative series
            // (`/metrics` gains `_window_rate` / `_window_p99_seconds`
            // gauges), and `# HELP` text for the scrape-facing metrics.
            obs.enable_windows(Duration::from_secs(10), 10);
            for (name, help) in [
                ("serve.requests", "HTTP requests accepted since start"),
                ("serve.request", "End-to-end request latency"),
                ("serve.queue_wait", "Time jobs spend in the admission queue"),
                ("serve.queue_depth", "Jobs waiting in the admission queue"),
                (
                    "serve.batch_size",
                    "Coalesced batch sizes (count encoded as ns)",
                ),
                (
                    "serve.admission_drops",
                    "Requests shed because the queue was full",
                ),
                (
                    "serve.worker_panics",
                    "Worker panics survived by detector rebuild",
                ),
                (
                    "serve.worker_wedges",
                    "Workers declared stuck by the watchdog",
                ),
                (
                    "serve.worker_restarts",
                    "Replacement workers spawned by the watchdog",
                ),
                (
                    "serve.worker_deaths",
                    "Workers retired after unrecoverable failures",
                ),
                (
                    "serve.health",
                    "Server health: 0 healthy, 1 degraded, 2 halted",
                ),
                ("serve.connections", "Connections currently open"),
                (
                    "serve.conn_rejected",
                    "Connections shed at accept by the connection cap",
                ),
                (
                    "serve.keepalive_reaped",
                    "Idle keep-alive connections reaped by their deadline",
                ),
                (
                    "serve.input_resolution",
                    "Current detector input size (brownout ladder rung)",
                ),
                (
                    "serve.brownout_downshifts",
                    "Brownout resolution downshifts under load",
                ),
                (
                    "serve.brownout_upshifts",
                    "Brownout resolution recoveries after calm",
                ),
                (
                    "serve.black_box_captures",
                    "Crash black boxes captured by the watchdog",
                ),
                ("serve.http_errors", "Malformed or oversized HTTP requests"),
                (
                    "serve.forward",
                    "Batch forward wall time, recorded per request",
                ),
                (
                    "serve.write",
                    "Response serialization + socket write latency",
                ),
                (
                    "serve.shed.queue_full",
                    "Detect requests shed with 503: admission queue full",
                ),
                (
                    "serve.shed.draining",
                    "Detect requests shed with 503: replica queue already closed",
                ),
                (
                    "serve.shed.halted",
                    "Detect requests shed with 503: no workers left",
                ),
                (
                    "serve.shed.debug_busy",
                    "Debug requests shed with 503: debug budget exhausted",
                ),
                (
                    "serve.timeout.response",
                    "Detect requests that timed out waiting for a worker (504)",
                ),
                (
                    "serve.timeout.request",
                    "Requests that missed a header/body deadline (408)",
                ),
                (
                    "serve.error.worker",
                    "Detect requests failed by a worker error (500)",
                ),
                ("serve.responses.2xx", "Responses by status class: success"),
                ("serve.responses.3xx", "Responses by status class: redirect"),
                (
                    "serve.responses.4xx",
                    "Responses by status class: client error",
                ),
                (
                    "serve.responses.5xx",
                    "Responses by status class: server error",
                ),
                (
                    "serve.replicas_active",
                    "Replicas currently in rotation and serviceable",
                ),
                (
                    "serve.hedge.issued",
                    "Hedged dispatches issued to a peer replica",
                ),
                (
                    "serve.hedge.won",
                    "Hedged dispatches whose hedge leg answered first",
                ),
                (
                    "serve.hedge.wasted",
                    "Hedged dispatches whose primary leg still won",
                ),
                (
                    "serve.quarantine.entered",
                    "Replicas pulled out of rotation by the supervisor",
                ),
                (
                    "serve.quarantine.readmitted",
                    "Replicas re-admitted after passing the canary",
                ),
                (
                    "serve.quarantine.canary_failed",
                    "Rebuilt replicas rejected by the canary gate",
                ),
                ("detect.forward", "Network forward-pass latency"),
                ("detect.decode", "Region decode latency per image"),
                ("detect.nms", "Non-max-suppression latency per image"),
            ] {
                obs.describe(name, help);
            }
        }
        let config = Arc::new(config);
        let builder = ReplicaBuilder {
            factory,
            config: Arc::clone(&config),
            obs: obs.clone(),
            tracer: tracer.clone(),
            black_box: BlackBoxStore::new(obs.counter("serve.black_box_captures"), tracer.clone()),
        };
        let replicas = ReplicaSet::new(builder, first)?;

        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let supervisor_handle = spawn_supervisor(Arc::clone(&replicas), Arc::clone(&shutdown));

        let slo = SloSet::new(config.slos.clone());
        let shared = Arc::new(Shared {
            replicas,
            shutdown,
            active_connections: AtomicUsize::new(0),
            next_frame_id: AtomicU64::new(0),
            obs: obs.clone(),
            tracer: tracer.clone(),
            config,
            slo,
            debug_inflight: AtomicUsize::new(0),
        });

        let accept_shared = Arc::clone(&shared);
        let accept_handle = thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");

        Ok(Server {
            shared,
            local_addr,
            accept_handle,
            supervisor_handle,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current service health (the `serve.health` gauge's source of
    /// truth). With replicas this is the *service* view: replica loss
    /// reads Degraded, total loss Halted.
    pub fn health(&self) -> Health {
        self.shared.replicas.service_health.get()
    }

    /// Crash black boxes captured so far by any replica, oldest first
    /// (the newest 16 per server; a quarantined replica's stay).
    pub fn black_boxes(&self) -> Vec<BlackBox> {
        self.shared.replicas.black_boxes()
    }

    /// Graceful drain: stop accepting, let every in-flight connection
    /// finish (bounded by `drain_timeout`), flush the queue through the
    /// workers, then join them.
    pub fn shutdown(self) -> DrainReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = self.accept_handle.join();

        // In-flight connections may still be enqueueing; keep the queue
        // open for them and wait for the connection count to hit zero.
        let deadline = Instant::now() + self.shared.config.drain_timeout;
        while self.shared.active_connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline
        {
            thread::sleep(Duration::from_millis(1));
        }
        let abandoned = self.shared.active_connections.load(Ordering::SeqCst);

        // Stop the replica supervisor before tearing down the cores so it
        // cannot quarantine or rebuild mid-teardown.
        let _ = self.supervisor_handle.join();

        // No connection can enqueue any more (or we stopped waiting for
        // it): drain every replica's backlog and retire its workers.
        self.shared.replicas.shutdown();
        DrainReport {
            drained: abandoned == 0,
            abandoned_connections: abandoned,
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let connections = shared.obs.gauge("serve.connections");
    let rejected = shared.obs.counter("serve.conn_rejected");
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // drops the listener → port closes
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.active_connections.load(Ordering::SeqCst) >= shared.config.max_connections
                {
                    rejected.inc();
                    shed_connection(stream, &shared);
                    continue;
                }
                shared.active_connections.fetch_add(1, Ordering::SeqCst);
                connections.set(shared.active_connections.load(Ordering::SeqCst) as f64);
                let conn_shared = Arc::clone(&shared);
                let conn_gauge = connections.clone();
                let spawned =
                    thread::Builder::new()
                        .name("serve-conn".to_string())
                        .spawn(move || {
                            handle_connection(stream, &conn_shared);
                            conn_shared
                                .active_connections
                                .fetch_sub(1, Ordering::SeqCst);
                            conn_gauge
                                .set(conn_shared.active_connections.load(Ordering::SeqCst) as f64);
                        });
                if spawned.is_err() {
                    shared.active_connections.fetch_sub(1, Ordering::SeqCst);
                    connections.set(shared.active_connections.load(Ordering::SeqCst) as f64);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Sheds a connection at accept time: best-effort `503` + `Retry-After`
/// written without blocking the accept loop, then close.
fn shed_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let response = Response::overloaded(shared.retry_after());
    let _ = response.write_to(&mut stream);
}

/// What one attempt to read a request off the wire produced.
enum ReadOutcome {
    /// A complete, well-formed request.
    Request(Box<Request>),
    /// The peer closed (or errored) — nothing to answer.
    Closed,
    /// An idle keep-alive connection outlived its deadline.
    IdleReaped,
    /// Malformed/oversized/slow input, with the response to send.
    Error(Box<Response>),
}

/// Reads requests off the socket in a keep-alive loop: parse, route,
/// respond, repeat — until the peer closes, a deadline fires, the
/// request budget is spent, or the client asks to close.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let cfg = &shared.config;
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    // Residual buffer across requests: pipelined bytes after one request
    // are the start of the next.
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut served = 0usize;
    loop {
        let request = match read_request(&mut stream, shared, &mut buf, served == 0) {
            ReadOutcome::Request(req) => req,
            ReadOutcome::Closed => return,
            ReadOutcome::IdleReaped => {
                shared.obs.counter("serve.keepalive_reaped").inc();
                return;
            }
            ReadOutcome::Error(response) => {
                shared.obs.counter("serve.http_errors").inc();
                if response.status == 408 {
                    shared.obs.counter("serve.timeout.request").inc();
                }
                let _ = response.write_to(&mut stream);
                return;
            }
        };
        let started = Instant::now();
        shared.obs.counter("serve.requests").inc();
        served += 1;
        let mut response = route(&request, shared);
        let close = request.wants_close()
            || served >= cfg.max_requests_per_connection
            || shared.shutdown.load(Ordering::SeqCst);
        response.close = close;
        let status = response.status;
        let write_started = Instant::now();
        if response.write_to(&mut stream).is_err() {
            return;
        }
        let _ = stream.flush();
        shared
            .obs
            .histogram("serve.write")
            .record(write_started.elapsed());
        let latency = started.elapsed();
        shared.obs.histogram("serve.request").record(latency);
        record_outcome(shared, &request.target, status, latency);
        if close {
            return;
        }
    }
}

/// Per-endpoint and per-status-class response accounting, plus the SLO
/// feed. Only `/detect` outcomes count against the declared objectives;
/// a shed (`503`) or worker failure burns availability budget, while
/// client errors (`4xx`) do not — a malformed PPM is not our outage.
fn record_outcome(shared: &Shared, target: &str, status: u16, latency: Duration) {
    let class = match status {
        200..=299 => "2xx",
        300..=399 => "3xx",
        400..=499 => "4xx",
        _ => "5xx",
    };
    let endpoint = endpoint_label(target);
    shared
        .obs
        .counter(&format!("serve.responses.{class}"))
        .inc();
    shared
        .obs
        .counter(&format!("serve.endpoint.{endpoint}.{class}"))
        .inc();
    if endpoint == "detect" {
        shared.slo.record(latency, status < 500);
    }
}

/// Collapses a request target into a bounded endpoint label so the
/// per-endpoint counter space cannot be grown by arbitrary paths.
fn endpoint_label(target: &str) -> &'static str {
    let path = target.split('?').next().unwrap_or(target);
    match path {
        "/detect" => "detect",
        "/metrics" => "metrics",
        "/healthz" => "healthz",
        p if p.starts_with("/debug/") => "debug",
        _ => "other",
    }
}

/// Drives the incremental parser against the socket under the deadline
/// ladder: keep-alive idle → reap; header crawl → `408` after
/// `header_timeout`; body crawl → `408` after `read_timeout` past the
/// header. Reads poll in short slices so shutdown is noticed promptly.
fn read_request(
    stream: &mut TcpStream,
    shared: &Shared,
    buf: &mut Vec<u8>,
    first: bool,
) -> ReadOutcome {
    let cfg = &shared.config;
    let conn_start = Instant::now();
    let mut first_byte_at: Option<Instant> = if buf.is_empty() {
        None
    } else {
        Some(conn_start)
    };
    let mut head_done_at: Option<Instant> = None;
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match parse_request(buf, &cfg.limits) {
            Ok(Some((req, consumed))) => {
                buf.drain(..consumed);
                return ReadOutcome::Request(Box::new(req));
            }
            Ok(None) => {}
            Err(e) => {
                // Transfer-Encoding is a capability we genuinely lack, not
                // a malformed request: RFC 9112 §6.1 says an origin server
                // that does not understand the transfer coding responds
                // 501, which also tells smugglers the framing is dead on
                // arrival rather than inviting a reformatted retry.
                let (status, reason) = match e {
                    HttpError::UnsupportedTransferEncoding => (501, "Not Implemented"),
                    _ => (400, "Bad Request"),
                };
                return ReadOutcome::Error(Box::new(Response::text(
                    status,
                    reason,
                    format!("{e}\n"),
                )));
            }
        }
        if head_done_at.is_none() && buf.windows(4).any(|w| w == b"\r\n\r\n") {
            head_done_at = Some(Instant::now());
        }
        // The deadline ladder, most-advanced state first.
        let (deadline, idle) = if let Some(t) = head_done_at {
            (t + cfg.read_timeout, false)
        } else if let Some(t) = first_byte_at {
            (t + cfg.header_timeout, false)
        } else if first {
            (conn_start + cfg.header_timeout, false)
        } else {
            (conn_start + cfg.keep_alive_timeout, true)
        };
        let now = Instant::now();
        if now >= deadline {
            return if idle {
                ReadOutcome::IdleReaped
            } else {
                ReadOutcome::Error(Box::new(Response::text(
                    408,
                    "Request Timeout",
                    "request not completed in time\n".to_string(),
                )))
            };
        }
        if idle && shared.shutdown.load(Ordering::SeqCst) {
            // Drain in progress and nothing started on this connection.
            return ReadOutcome::Closed;
        }
        let slice = (deadline - now).min(Duration::from_millis(100));
        let _ = stream.set_read_timeout(Some(slice.max(Duration::from_millis(1))));
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Closed,
            Ok(n) => {
                if first_byte_at.is_none() {
                    first_byte_at = Some(Instant::now());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Poll slice elapsed; loop re-checks deadlines/shutdown.
            }
            Err(_) => return ReadOutcome::Closed,
        }
    }
}

fn route(request: &Request, shared: &Shared) -> Response {
    let (path, query) = match request.target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (request.target.as_str(), ""),
    };
    match (&request.method, path) {
        (Method::Post, "/detect") => handle_detect(request, shared),
        (Method::Get, "/metrics") => {
            // Burn-rate gauges are computed on demand: a scrape sees the
            // rolling windows as of this instant, not a stale publish.
            shared.slo.publish(&shared.obs);
            let text = PromExporter::render(
                &shared.obs.snapshot(),
                &shared.obs.descriptions(),
                &shared.obs.window_snapshot(),
            );
            Response::new(200, "OK", PromExporter::CONTENT_TYPE, &text)
        }
        (Method::Get, "/healthz") => handle_healthz(shared),
        (Method::Get, "/debug/vars") => handle_debug_vars(shared),
        (Method::Get, "/debug/slo") => handle_debug_slo(shared),
        (Method::Get, "/debug/alloc") => handle_debug_alloc(shared),
        (Method::Get, "/debug/trace") => handle_debug_trace(shared, query),
        (Method::Get, "/debug/blackbox") => handle_debug_blackbox(shared),
        (Method::Get, "/debug/replicas") => handle_debug_replicas(shared),
        (
            _,
            "/detect" | "/metrics" | "/healthz" | "/debug/vars" | "/debug/slo" | "/debug/alloc"
            | "/debug/trace" | "/debug/blackbox" | "/debug/replicas",
        ) => Response::text(
            405,
            "Method Not Allowed",
            "method not allowed\n".to_string(),
        ),
        _ => Response::text(404, "Not Found", "no such endpoint\n".to_string()),
    }
}

fn handle_healthz(shared: &Shared) -> Response {
    let (status, reason, state) = match shared.replicas.service_health.get() {
        Health::Healthy => (200, "OK", "healthy"),
        Health::Degraded => (200, "OK", "degraded"),
        Health::Halted => (503, "Service Unavailable", "halted"),
    };
    let r = &shared.replicas;
    let mut body = JsonWriter::render(|w| {
        json_object!(w, "health" => state, "queue_depth" => r.queue_depth_total(),
            "workers_alive" => r.workers_alive_total(), "input_resolution" => r.current_input(),
            "black_boxes" => r.black_boxes().len(), "replicas_active" => r.active_count(),
            "replicas_total" => shared.config.replicas);
    });
    body.push('\n');
    Response::new(status, reason, "application/json", &body)
}

/// `503` + `Retry-After` handed out when the debug admission budget
/// ([`DEBUG_MAX_INFLIGHT`]) is exhausted.
fn debug_busy(shared: &Shared) -> Response {
    shared.obs.counter("serve.shed.debug_busy").inc();
    let mut r = Response::text(
        503,
        "Service Unavailable",
        "too many debug requests in flight\n".to_string(),
    );
    r.retry_after = Some(shared.retry_after());
    r
}

/// `GET /debug/vars` — one JSON object with everything the process knows
/// about itself: the full metric registry, the rolling-window view, the
/// SLO verdicts and the allocator report, written in one pass.
fn handle_debug_vars(shared: &Shared) -> Response {
    let Some(_permit) = acquire_debug(shared) else {
        return debug_busy(shared);
    };
    shared.slo.publish(&shared.obs);
    let mut body = JsonWriter::render(|w| {
        json_object!(w, "metrics" => shared.obs.snapshot(),
            "windows" => shared.obs.window_snapshot(), "slo" => &shared.slo,
            "alloc" => dronet_obs::alloc::stats());
    });
    body.push('\n');
    Response::json(body)
}

/// `GET /debug/slo` — every declared objective with its target, error
/// budget, short/long burn-rate windows, and breach verdict as JSON
/// (booleans encoded as `0`/`1` — the in-tree parser has no literals).
/// Also refreshes the `slo.*` gauges so a scrape right after sees the
/// same numbers.
fn handle_debug_slo(shared: &Shared) -> Response {
    let Some(_permit) = acquire_debug(shared) else {
        return debug_busy(shared);
    };
    shared.slo.publish(&shared.obs);
    let mut body = shared.slo.to_json();
    body.push('\n');
    Response::json(body)
}

/// `GET /debug/alloc` — the instrumented allocator's human-readable
/// report (or a one-line note when the counting allocator is not
/// installed in this binary).
fn handle_debug_alloc(shared: &Shared) -> Response {
    let Some(_permit) = acquire_debug(shared) else {
        return debug_busy(shared);
    };
    Response::text(200, "OK", dronet_obs::alloc::report())
}

/// `GET /debug/blackbox` — every crash black box the watchdog has
/// captured, rendered as plain text (`404` when none exist — the happy
/// case).
fn handle_debug_blackbox(shared: &Shared) -> Response {
    let Some(_permit) = acquire_debug(shared) else {
        return debug_busy(shared);
    };
    let boxes = shared.replicas.black_boxes();
    if boxes.is_empty() {
        return Response::text(404, "Not Found", "no black boxes captured\n".to_string());
    }
    let mut body = String::new();
    for b in &boxes {
        body.push_str(&b.to_text());
        body.push('\n');
    }
    Response::text(200, "OK", body)
}

/// `GET /debug/replicas` — per-replica rotation status, health, queue
/// depth, rolling p99, and quarantine history as JSON.
fn handle_debug_replicas(shared: &Shared) -> Response {
    let Some(_permit) = acquire_debug(shared) else {
        return debug_busy(shared);
    };
    let mut body = shared.replicas.debug_json();
    body.push('\n');
    Response::json(body)
}

/// `GET /debug/trace?ms=N` — hold the connection for `N` milliseconds
/// (default 100, capped at [`DEBUG_TRACE_MAX_MS`]) while the flight
/// recorder keeps running, then return the tracer's ring as Chrome
/// `trace.json`. Requires the server to have been started with an
/// enabled [`Tracer`].
fn handle_debug_trace(shared: &Shared, query: &str) -> Response {
    let Some(_permit) = acquire_debug(shared) else {
        return debug_busy(shared);
    };
    if !shared.tracer.is_enabled() {
        return Response::text(
            503,
            "Service Unavailable",
            "tracing is not enabled on this server\n".to_string(),
        );
    }
    let mut ms: u64 = 100;
    for pair in query.split('&') {
        if let Some(v) = pair.strip_prefix("ms=") {
            match v.parse::<u64>() {
                Ok(n) => ms = n.min(DEBUG_TRACE_MAX_MS),
                Err(_) => {
                    return Response::text(400, "Bad Request", format!("bad ms value: {v:?}\n"));
                }
            }
        }
    }
    thread::sleep(Duration::from_millis(ms));
    Response::json(ChromeTrace::to_string(&shared.tracer.snapshot()))
}

/// The one answer to a `/detect` request the server cannot take — no
/// serviceable replica ([`ServeError::Halted`]), a full admission queue
/// ([`ServeError::Overloaded`]) or a drain ([`ServeError::Draining`]),
/// whether dispatch, admission or the reply found it: a
/// `serve.shed.{halted,queue_full,draining}` count and a `503` with
/// `Retry-After`, its body the reason's error text.
fn shed(shared: &Shared, reason: ServeError) -> Response {
    let counter = match reason {
        ServeError::Halted => "serve.shed.halted",
        ServeError::Overloaded => "serve.shed.queue_full",
        _ => "serve.shed.draining",
    };
    shared.obs.counter(counter).inc();
    let mut r = Response::text(503, "Service Unavailable", format!("{reason}\n"));
    r.retry_after = Some(shared.retry_after());
    r
}

fn handle_detect(request: &Request, shared: &Shared) -> Response {
    // Health-aware dispatch: shallowest active queue, p99 tie-break. No
    // serviceable replica at all means the service is down.
    let Some(primary) = shared.replicas.pick_primary() else {
        return shed(shared, ServeError::Halted);
    };
    let frame_id = shared.next_frame_id.fetch_add(1, Ordering::SeqCst) + 1;

    // serve.parse: body bytes → validated, conformed [1, c, h, w] frame.
    let parse_span = shared.tracer.frame_span("serve.parse", frame_id);
    let image = match dronet_data::ppm::read(request.body.as_slice()) {
        Ok(img) => img,
        Err(e) => {
            drop(parse_span);
            return Response::text(400, "Bad Request", format!("bad PPM body: {e}\n"));
        }
    };
    // Conform to the primary's brownout rung (workers re-resize
    // stragglers if the ladder moves between here and dispatch).
    let size = primary.current_input();
    let chw = (shared.replicas.base_chw.0, size, size);
    let frame = match conform_frame(image.to_tensor(), chw, frame_id as usize) {
        Ok(t) => t,
        Err(e) => {
            drop(parse_span);
            return Response::text(400, "Bad Request", format!("bad frame: {e}\n"));
        }
    };
    drop(parse_span);

    // Hedging is worth arming only when a peer exists to hedge onto.
    let can_hedge = shared.config.hedge_delay.is_some() && shared.replicas.active_count() > 1;
    let hedge_state = if can_hedge {
        Some(HedgeState::new())
    } else {
        None
    };
    let mut hedge_frame = if can_hedge { Some(frame.clone()) } else { None };

    // serve.queue: admission → detections handed back by a worker.
    let queue_span = shared.tracer.frame_span("serve.queue", frame_id);
    let (reply, receiver) = mpsc::channel();
    let started = Instant::now();
    let job = Job {
        frame_id,
        frame,
        enqueued: started,
        reply: reply.clone(),
        hedge: hedge_state.clone(),
        leg: PRIMARY_LEG,
    };
    if let Err(e) = primary.queue.push(job) {
        drop(queue_span);
        return shed(shared, e);
    }

    // Wait for the first winning answer, firing at most one hedge when
    // the primary is at deadline risk. The connection keeps one sender
    // alive, so the receiver never disconnects spuriously.
    let deadline = started + shared.config.response_timeout;
    let hedge_at = shared.config.hedge_delay.map(|d| started + d);
    let mut hedged_to: Option<Arc<ReplicaCore>> = None;
    let mut hedge_spent = !can_hedge;
    let mut errors: Vec<ServeError> = Vec::new();
    let mut outcome: Option<Result<Vec<Detection>, ServeError>> = None;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let wait_until = match hedge_at {
            Some(h) if !hedge_spent && h < deadline => h.max(now),
            _ => deadline,
        };
        match receiver.recv_timeout(wait_until - now) {
            Ok(Ok(dets)) => {
                outcome = Some(Ok(dets));
                break;
            }
            Ok(Err(e)) => {
                // A leg failed with a typed error. With another leg still
                // in flight, hold out for it; otherwise this is the
                // answer.
                errors.push(e);
                let legs = if hedged_to.is_some() { 2 } else { 1 };
                if errors.len() >= legs {
                    outcome = Some(Err(errors.swap_remove(0)));
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if !hedge_spent && hedge_at.is_some_and(|h| Instant::now() >= h) {
                    hedge_spent = true;
                    if let (Some(peer), Some(hf)) =
                        (shared.replicas.pick_hedge(primary.id), hedge_frame.take())
                    {
                        let hedge_job = Job {
                            frame_id,
                            frame: hf,
                            enqueued: Instant::now(),
                            reply: reply.clone(),
                            hedge: hedge_state.clone(),
                            leg: HEDGE_LEG,
                        };
                        if peer.queue.push(hedge_job).is_ok() {
                            shared.replicas.hedge_issued.inc();
                            hedged_to = Some(peer);
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                outcome = Some(Err(ServeError::Halted));
                break;
            }
        }
    }
    drop(queue_span);
    // Settle the request: a still-queued losing leg is dropped at the
    // batcher's door instead of burning a forward.
    if let Some(hs) = &hedge_state {
        hs.settle();
        if hedged_to.is_some() {
            if hs.winner() == HEDGE_LEG {
                shared.replicas.hedge_won.inc();
            } else {
                shared.replicas.hedge_wasted.inc();
            }
        }
    }
    let elapsed = started.elapsed();
    match outcome {
        Some(Ok(detections)) => {
            // Credit the leg that actually answered, so the dispatcher's
            // p99 view tracks per-replica reality.
            let winner = match (&hedge_state, &hedged_to) {
                (Some(hs), Some(peer)) if hs.winner() == HEDGE_LEG => peer,
                _ => &primary,
            };
            winner.latency.record(elapsed);
            Response::json(detections_json(frame_id, &detections))
        }
        Some(Err(e @ (ServeError::Halted | ServeError::Overloaded | ServeError::Draining))) => {
            shed(shared, e)
        }
        Some(Err(e)) => {
            shared.obs.counter("serve.error.worker").inc();
            Response::text(500, "Internal Server Error", format!("{e}\n"))
        }
        None => {
            // Deadline passed with no answer: charge the timeout to the
            // primary so routing steers away from it.
            primary.latency.record(elapsed);
            shared.obs.counter("serve.timeout.response").inc();
            Response::text(
                504,
                "Gateway Timeout",
                "detection did not complete in time\n".to_string(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{Fault, FaultEvent};
    use dronet_core::{zoo, ModelId};
    use dronet_detect::DetectorBuilder;

    fn dronet_32() -> DetectorFactory {
        Arc::new(|| DetectorBuilder::new(zoo::build(ModelId::DroNet, 32)?).build())
    }

    #[test]
    fn a_zero_watchdog_period_is_a_config_error() {
        let config = ServeConfig {
            watchdog_interval: Duration::ZERO,
            ..ServeConfig::default()
        };
        match Server::start(dronet_32(), config, &Registry::new(), &Tracer::noop()) {
            Err(ServeError::Config(m)) => assert!(m.contains("watchdog_interval"), "{m}"),
            Err(e) => panic!("expected a config error, got {e}"),
            Ok(server) => {
                server.shutdown();
                panic!("a zero watchdog period started a server");
            }
        }
    }

    #[test]
    fn every_shed_reason_gets_one_response() {
        let obs = Registry::new();
        let server = Server::start(dronet_32(), ServeConfig::default(), &obs, &Tracer::noop())
            .expect("start");
        for (reason, counter) in [
            (ServeError::Halted, "serve.shed.halted"),
            (ServeError::Overloaded, "serve.shed.queue_full"),
            (ServeError::Draining, "serve.shed.draining"),
        ] {
            let body = format!("{reason}\n");
            let r = shed(&server.shared, reason);
            assert_eq!((r.status, r.reason), (503, "Service Unavailable"));
            assert_eq!(r.retry_after, Some(1), "an idle queue hints the base");
            assert_eq!(String::from_utf8(r.body).unwrap(), body);
            assert_eq!(obs.snapshot().counter(counter), Some(1), "{counter}");
        }
        server.shutdown();
    }

    #[test]
    fn a_fault_aimed_past_the_last_replica_is_a_config_error() {
        let config = ServeConfig {
            replicas: 2,
            faults: FaultSchedule::new(vec![FaultEvent::at(Duration::ZERO, 2, Fault::Panic)]),
            ..ServeConfig::default()
        };
        let err = config.validate().unwrap_err();
        assert!(
            matches!(&err, ServeError::Config(m) if m.contains("replica 2")),
            "{err}"
        );
        let three = ServeConfig {
            replicas: 3,
            ..config
        };
        assert!(three.validate().is_ok());
    }
}
