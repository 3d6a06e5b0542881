//! Open-loop load generator for the detection server.
//!
//! "Heavy traffic" is a claim; this module is the instrument that
//! measures it. Unlike a closed-loop client (send → wait → send), the
//! generator draws a *schedule* of intended send times from a seeded
//! Poisson process and sticks to it: a slow server does not slow the
//! arrival rate down, it builds a backlog — exactly what real traffic
//! does. Latency is **coordinated-omission corrected**: every sample is
//! measured from the *intended* send time on the schedule, not from when
//! the socket write finally happened, so queueing delay the server caused
//! is charged to the server.
//!
//! Determinism: the schedule comes from the same SplitMix64 generator
//! ([`SplitMix64`]) the chaos harness uses, so a seed fully reproduces the
//! arrival process, and the integration tests assert same-seed schedules
//! are identical.
//!
//! The wire protocol is plain HTTP/1.1 keep-alive with pipelining:
//! requests go out on schedule even while earlier responses are pending,
//! and responses are matched FIFO using the chaos harness's incremental
//! [`parse_one_response`] framing.

use dronet_data::{ppm, Image};
use dronet_serve::chaos::{detect_request, parse_one_response};
use rand::rngs::SplitMix64;
use rand::RngCore;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// A small fixed PPM corpus for `POST /detect` bodies: same dimensions,
/// different pixel content, so batches are realistic but the offered
/// bytes are fully deterministic.
pub fn frame_corpus(size: usize) -> Vec<Vec<u8>> {
    [[0.4, 0.5, 0.6], [0.8, 0.3, 0.2], [0.1, 0.7, 0.4]]
        .iter()
        .map(|rgb| {
            let img = Image::new(size, size, *rgb);
            let mut bytes = Vec::new();
            ppm::write(&img, &mut bytes).expect("encode frame");
            bytes
        })
        .collect()
}

/// One segment of the arrival process: a Poisson stream at `rate_hz` for
/// `secs` seconds. Chaining phases models bursts (e.g. steady 50 Hz, then
/// a 10× spike, then steady again).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Mean arrival rate, requests per second.
    pub rate_hz: f64,
    /// Phase duration in seconds.
    pub secs: f64,
}

impl Phase {
    /// A steady phase.
    pub fn new(rate_hz: f64, secs: f64) -> Phase {
        Phase { rate_hz, secs }
    }
}

/// The full, deterministic arrival schedule: intended send offsets in
/// nanoseconds from the run's start, ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalPlan {
    /// Intended send times, nanoseconds from t=0, sorted ascending.
    pub offsets_ns: Vec<u64>,
}

/// `U(0,1)` from the top 53 bits, offset half a ulp so it is never 0 (a
/// zero would make the exponential gap infinite).
fn unit(rng: &mut SplitMix64) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

impl ArrivalPlan {
    /// Draws the schedule for `phases` from `seed`. Within each phase,
    /// inter-arrival gaps are exponential with mean `1/rate_hz` — a
    /// Poisson process, so genuine bursts and lulls occur even at a
    /// "steady" rate. Phases with a non-positive rate or duration
    /// contribute dead air (no arrivals) but still advance time.
    pub fn generate(seed: u64, phases: &[Phase]) -> ArrivalPlan {
        let mut rng = SplitMix64::new(seed);
        let mut offsets_ns = Vec::new();
        let mut phase_start = 0.0f64;
        for phase in phases {
            let secs = phase.secs.max(0.0);
            if phase.rate_hz > 0.0 {
                let mut t = -unit(&mut rng).ln() / phase.rate_hz;
                while t < secs {
                    offsets_ns.push(((phase_start + t) * 1e9) as u64);
                    t += -unit(&mut rng).ln() / phase.rate_hz;
                }
            }
            phase_start += secs;
        }
        ArrivalPlan { offsets_ns }
    }

    /// Total scheduled duration of `phases`, seconds.
    pub fn duration_secs(phases: &[Phase]) -> f64 {
        phases.iter().map(|p| p.secs.max(0.0)).sum()
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Schedule seed (SplitMix64); same seed → identical arrival times.
    pub seed: u64,
    /// Concurrent keep-alive connections; arrivals are dealt round-robin.
    pub connections: usize,
    /// The arrival process, phase by phase.
    pub phases: Vec<Phase>,
    /// PPM frame corpus for `POST /detect` bodies; request `i` uses frame
    /// `i % frames.len()`.
    pub frames: Vec<Vec<u8>>,
    /// After the last scheduled send, how long to wait for stragglers
    /// before counting the remainder as timeouts.
    pub drain_timeout: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            seed: 42,
            connections: 32,
            phases: vec![Phase::new(50.0, 2.0)],
            frames: Vec::new(),
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// What happened to the offered load.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Scheduled arrivals (every one was sent or accounted for).
    pub offered: u64,
    /// Requests that got a complete HTTP response.
    pub completed: u64,
    /// Completed with 2xx.
    pub ok: u64,
    /// Completed with 503 — load shed, the healthy overload outcome.
    pub shed: u64,
    /// Completed with any other non-2xx status.
    pub errors: u64,
    /// Requests still pending when the drain deadline fired.
    pub timeouts: u64,
    /// Requests lost to clean connection failures: EOF between responses,
    /// failed writes, or an unparseable stream.
    pub dropped: u64,
    /// Requests lost to a *mid-stream* connection reset: a hard read error
    /// (ECONNRESET and friends) or an EOF that tore a partially received
    /// response. Replica kills produce exactly these; keeping them apart
    /// from `dropped` tells a killed backend from an orderly keep-alive
    /// reap or parse bug.
    pub reset: u64,
    /// Wall-clock run duration, seconds.
    pub duration_secs: f64,
    /// Coordinated-omission-corrected latencies (completion − *intended*
    /// send time) of the 2xx responses (the "admitted" latency curve),
    /// sorted ascending, ns.
    pub ok_latencies_ns: Vec<u64>,
}

/// `q`-quantile of a sorted sample set: `sorted[ceil(q·n) − 1]`, the same
/// rank convention as `dronet_obs`' histograms — but exact, since the
/// generator keeps every sample.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

impl LoadgenReport {
    /// Exact `q`-quantile of admitted (2xx) latency, nanoseconds.
    pub fn ok_quantile_ns(&self, q: f64) -> u64 {
        quantile_sorted(&self.ok_latencies_ns, q)
    }

    /// Successful responses per second of wall-clock time.
    pub fn goodput(&self) -> f64 {
        if self.duration_secs <= 0.0 {
            return 0.0;
        }
        self.ok as f64 / self.duration_secs
    }
}

/// Per-connection tallies, merged into the report at the end.
#[derive(Debug, Default)]
struct ConnStats {
    completed: Vec<(u16, u64)>,
    timeouts: u64,
    dropped: u64,
    reset: u64,
}

/// Runs the configured load against `addr` and reports what happened.
///
/// Every scheduled arrival is accounted for exactly once:
/// `completed + timeouts + dropped + reset == offered`.
///
/// # Panics
///
/// Panics when `frames` is empty or no phase produces any arrival — a
/// load test that offers nothing is a harness bug, not a result.
pub fn run(addr: SocketAddr, cfg: &LoadgenConfig) -> LoadgenReport {
    assert!(!cfg.frames.is_empty(), "loadgen needs at least one frame");
    let plan = ArrivalPlan::generate(cfg.seed, &cfg.phases);
    assert!(
        !plan.offsets_ns.is_empty(),
        "arrival plan is empty; raise rate or duration"
    );
    run_plan(addr, cfg, &plan)
}

/// [`run`] with a pre-generated plan (lets tests reuse one schedule).
pub fn run_plan(addr: SocketAddr, cfg: &LoadgenConfig, plan: &ArrivalPlan) -> LoadgenReport {
    let connections = cfg.connections.max(1);
    // Round-robin deal: connection c sends arrivals c, c+N, c+2N, …
    // Each sub-schedule stays sorted, and frame choice follows the global
    // arrival index so the corpus mix is identical at any connection count.
    let mut schedules: Vec<Vec<(u64, usize)>> = vec![Vec::new(); connections];
    for (i, &off) in plan.offsets_ns.iter().enumerate() {
        schedules[i % connections].push((off, i % cfg.frames.len()));
    }
    let requests: Vec<Vec<u8>> = cfg
        .frames
        .iter()
        .map(|f| detect_request(f, false))
        .collect();

    // Anchor slightly in the future so offset 0 is not already late.
    let anchor = Instant::now() + Duration::from_millis(50);
    let started = Instant::now();
    let stats: Vec<ConnStats> = thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .map(|schedule| {
                let requests = &requests;
                scope.spawn(move || {
                    drive_connection(addr, requests, anchor, schedule, cfg.drain_timeout)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen connection thread panicked"))
            .collect()
    });
    let duration_secs = started.elapsed().as_secs_f64();

    let mut report = LoadgenReport {
        offered: plan.offsets_ns.len() as u64,
        duration_secs,
        ..LoadgenReport::default()
    };
    for s in stats {
        report.timeouts += s.timeouts;
        report.dropped += s.dropped;
        report.reset += s.reset;
        for (status, latency_ns) in s.completed {
            report.completed += 1;
            match status {
                200..=299 => {
                    report.ok += 1;
                    report.ok_latencies_ns.push(latency_ns);
                }
                503 => report.shed += 1,
                _ => report.errors += 1,
            }
        }
    }
    report.ok_latencies_ns.sort_unstable();
    debug_assert_eq!(
        report.completed + report.timeouts + report.dropped + report.reset,
        report.offered
    );
    report
}

fn connect(addr: SocketAddr) -> Option<TcpStream> {
    for _ in 0..3 {
        if let Ok(stream) = TcpStream::connect(addr) {
            let _ = stream.set_nodelay(true);
            return Some(stream);
        }
        thread::sleep(Duration::from_millis(10));
    }
    None
}

fn now_ns(anchor: Instant) -> u64 {
    u64::try_from(Instant::now().saturating_duration_since(anchor).as_nanos()).unwrap_or(u64::MAX)
}

/// Drives one keep-alive connection through its sub-schedule: send on
/// time (open loop — pending responses never delay a send), match
/// responses FIFO, reconnect on EOF/reset with pending requests counted
/// as dropped.
fn drive_connection(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    anchor: Instant,
    schedule: &[(u64, usize)],
    drain_timeout: Duration,
) -> ConnStats {
    let mut stats = ConnStats::default();
    if schedule.is_empty() {
        return stats;
    }
    let mut stream = match connect(addr) {
        Some(s) => s,
        None => {
            stats.dropped = schedule.len() as u64;
            return stats;
        }
    };
    let mut next = 0usize;
    // Intended offsets of requests written but not yet answered, FIFO.
    let mut pending: VecDeque<u64> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let mut drain_deadline: Option<Instant> = None;

    loop {
        if next >= schedule.len() && pending.is_empty() {
            return stats;
        }
        if next >= schedule.len() {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + drain_timeout);
            if Instant::now() >= deadline {
                stats.timeouts += pending.len() as u64;
                return stats;
            }
        }

        // Send everything that is due — open loop: lateness of earlier
        // responses must not throttle the offered rate.
        while next < schedule.len() && now_ns(anchor) >= schedule[next].0 {
            let (intended, frame_idx) = schedule[next];
            let mut wrote = stream.write_all(&requests[frame_idx]).is_ok();
            if !wrote {
                // The socket died with requests in flight: those are lost.
                stats.dropped += pending.len() as u64;
                pending.clear();
                buf.clear();
                if let Some(s) = connect(addr) {
                    stream = s;
                    wrote = stream.write_all(&requests[frame_idx]).is_ok();
                }
            }
            if wrote {
                pending.push_back(intended);
            } else {
                stats.dropped += 1;
            }
            next += 1;
        }

        // Wait for the earlier of "next send due" and a short poll slice,
        // reading whatever responses have landed.
        let wait = if next < schedule.len() {
            Duration::from_nanos(schedule[next].0.saturating_sub(now_ns(anchor)))
                .min(Duration::from_millis(5))
        } else {
            Duration::from_millis(5)
        };
        if pending.is_empty() {
            // Nothing to read; just sleep out the gap.
            thread::sleep(wait.max(Duration::from_micros(100)));
            continue;
        }
        let _ = stream.set_read_timeout(Some(wait.max(Duration::from_millis(1))));
        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF between whole responses is a clean close (keep-alive
                // reaped, request budget exhausted). EOF with a torn
                // response in the buffer is a mid-stream reset: the peer
                // died while answering.
                if buf.is_empty() {
                    stats.dropped += pending.len() as u64;
                } else {
                    stats.reset += pending.len() as u64;
                }
                pending.clear();
                buf.clear();
                if next >= schedule.len() {
                    return stats;
                }
                match connect(addr) {
                    Some(s) => stream = s,
                    None => {
                        stats.dropped += (schedule.len() - next) as u64;
                        return stats;
                    }
                }
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                loop {
                    match parse_one_response(&buf) {
                        Ok(Some((status, consumed))) => {
                            buf.drain(..consumed);
                            if let Some(intended) = pending.pop_front() {
                                // CO correction: latency from the schedule's
                                // intended send, not the actual write.
                                let latency = now_ns(anchor).saturating_sub(intended);
                                stats.completed.push((status, latency));
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Unparseable stream: everything in flight on
                            // this connection is unaccountable.
                            stats.dropped += pending.len() as u64;
                            pending.clear();
                            buf.clear();
                            if let Some(s) = connect(addr) {
                                stream = s;
                            }
                            break;
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => {
                // Hard read error (ECONNRESET and friends): everything in
                // flight was torn mid-stream.
                stats.reset += pending.len() as u64;
                pending.clear();
                buf.clear();
                match connect(addr) {
                    Some(s) => stream = s,
                    None => {
                        stats.dropped += (schedule.len() - next) as u64;
                        return stats;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let phases = [Phase::new(100.0, 2.0), Phase::new(400.0, 0.5)];
        let a = ArrivalPlan::generate(7, &phases);
        let b = ArrivalPlan::generate(7, &phases);
        assert_eq!(a, b);
        let c = ArrivalPlan::generate(8, &phases);
        assert_ne!(a, c, "different seeds must give different schedules");
        // Golden captured before the generator moved to the shared
        // `rand::rngs::SplitMix64`: an old seed still names its schedule.
        assert_eq!(
            ArrivalPlan::generate(7, &[Phase::new(100.0, 0.1)]).offsets_ns,
            [9420451, 50291185, 51336342, 56733219, 64664178, 78549886, 86143761, 97288838]
        );
    }

    #[test]
    fn schedule_is_sorted_and_bounded() {
        let phases = [Phase::new(200.0, 1.0), Phase::new(50.0, 1.0)];
        let plan = ArrivalPlan::generate(3, &phases);
        assert!(plan.offsets_ns.windows(2).all(|w| w[0] <= w[1]));
        let total_ns = (ArrivalPlan::duration_secs(&phases) * 1e9) as u64;
        assert!(plan.offsets_ns.iter().all(|&t| t < total_ns));
    }

    #[test]
    fn phase_rates_shape_the_schedule() {
        // 50 Hz for 2 s then 500 Hz for 2 s: the second phase should hold
        // roughly 10× the arrivals of the first (Poisson noise allowed).
        let phases = [Phase::new(50.0, 2.0), Phase::new(500.0, 2.0)];
        let plan = ArrivalPlan::generate(11, &phases);
        let split = 2_000_000_000u64;
        let first = plan.offsets_ns.iter().filter(|&&t| t < split).count();
        let second = plan.offsets_ns.len() - first;
        assert!((60..=140).contains(&first), "phase 1 count: {first}");
        assert!((800..=1200).contains(&second), "phase 2 count: {second}");
    }

    #[test]
    fn zero_rate_phases_are_dead_air() {
        let phases = [
            Phase::new(0.0, 1.0),
            Phase::new(100.0, 1.0),
            Phase::new(-5.0, 1.0),
        ];
        let plan = ArrivalPlan::generate(5, &phases);
        assert!(!plan.offsets_ns.is_empty());
        // All arrivals fall inside the middle phase's [1s, 2s) span.
        assert!(plan
            .offsets_ns
            .iter()
            .all(|&t| (1_000_000_000..2_000_000_000).contains(&t)));
    }

    #[test]
    fn exact_quantiles_use_ceil_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&sorted, 0.50), 50);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99);
        assert_eq!(quantile_sorted(&sorted, 1.0), 100);
        assert_eq!(quantile_sorted(&sorted, 0.0), 1);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn mid_stream_tears_are_classified_as_resets() {
        use std::net::TcpListener;

        // A rogue backend: answers the first request with a *partial*
        // response head, then slams the connection. The generator must
        // classify the in-flight request as `reset`, not `dropped`, and
        // still conserve the offered count.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let rogue = thread::spawn(move || {
            for _ in 0..2 {
                let (mut sock, _) = match listener.accept() {
                    Ok(x) => x,
                    Err(_) => return,
                };
                let mut chunk = [0u8; 4096];
                let _ = sock.read(&mut chunk);
                let _ = sock.write_all(b"HTTP/1.1 200 OK\r\nContent-Le");
                // Dropping the socket here tears the response mid-head.
            }
        });
        let cfg = LoadgenConfig {
            seed: 9,
            connections: 1,
            phases: vec![Phase::new(40.0, 0.25)],
            frames: frame_corpus(8),
            drain_timeout: Duration::from_millis(400),
        };
        let report = run(addr, &cfg);
        rogue.join().unwrap();
        assert!(report.reset >= 1, "torn response must count as reset");
        assert_eq!(
            report.completed + report.timeouts + report.dropped + report.reset,
            report.offered,
            "conservation must hold with resets"
        );
    }
}
