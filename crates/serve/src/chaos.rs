//! Seeded chaos at both ends of a live server: the faults it injects into
//! itself, and adversarial client schedules that hammer it over real TCP.
//!
//! A [`FaultSchedule`] ([`crate::ServeConfig::faults`]) is the one way a
//! server fails *inside* the process: one time-ordered list of
//! [`FaultEvent`]s (stalls, one-shot stuck forwards, panics, forced
//! canary failures, heals) that the supervisor's tick applies to its
//! replicas. The rest of this module attacks from the *wire*, the way a
//! hostile or broken network peer would: byte-at-a-time header drips
//! (slowloris), torn half-written bodies, mid-body disconnects, garbage
//! bytes, pipelined request bursts, and clients that send but never
//! read. A [`ChaosPlan`] is generated from a seed — same seed, same
//! plan, byte for byte — so a failing storm replays exactly under
//! `RUST_BACKTRACE=1`.
//!
//! The invariants the storm asserts live in `tests/serve_chaos.rs`: no
//! panic, every accepted request is answered with a well-formed response
//! or the connection is closed cleanly, metrics stay consistent, and the
//! server returns to Healthy once the storm passes.

use rand::rngs::SplitMix64;
use rand::RngCore;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Uniform value in `0..n` (`n > 0`). Spelled out rather than borrowed
/// from a range sampler: plans must stay byte-identical per seed.
fn below(rng: &mut SplitMix64, n: u64) -> u64 {
    rng.next_u64() % n.max(1)
}

/// One step of an adversarial client's schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOp {
    /// Write these bytes in one call.
    Send(Vec<u8>),
    /// Write these bytes one at a time, pausing between each.
    Drip {
        /// The bytes to drip.
        bytes: Vec<u8>,
        /// Pause between consecutive bytes.
        pause: Duration,
    },
    /// Do nothing for a while (mid-request stall).
    Sleep(Duration),
    /// Half-close: shut down the write side, leaving reads open.
    CloseWrite,
    /// Drain whatever the server sends until EOF or the timeout.
    ReadToEnd {
        /// Give up reading after this long.
        timeout: Duration,
    },
    /// Keep the socket open without reading or writing, then drop it.
    HoldOpen(Duration),
}

/// A named adversarial client: a connection plus its schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientScript {
    /// Scenario label (drives artifact naming and assertions).
    pub name: String,
    /// The steps, run in order over one TCP connection.
    pub ops: Vec<ChaosOp>,
}

/// Knobs for plan generation.
#[derive(Debug, Clone)]
pub struct ChaosPlanConfig {
    /// Clients generated per scenario.
    pub clients_per_scenario: usize,
    /// A valid PPM frame body for well-formed `POST /detect` requests.
    pub frame: Vec<u8>,
    /// Pause between dripped bytes (slowloris cadence).
    pub drip_pause: Duration,
    /// Mid-body stall length (should exceed the server's `read_timeout`
    /// to exercise the `408` path).
    pub body_stall: Duration,
    /// How long never-reading clients hold their socket open.
    pub hold: Duration,
    /// Read budget for clients that drain responses.
    pub read_timeout: Duration,
    /// Requests per pipelined burst.
    pub burst: usize,
}

impl Default for ChaosPlanConfig {
    fn default() -> Self {
        ChaosPlanConfig {
            clients_per_scenario: 2,
            frame: Vec::new(),
            drip_pause: Duration::from_millis(2),
            body_stall: Duration::from_millis(400),
            hold: Duration::from_millis(300),
            read_timeout: Duration::from_secs(5),
            burst: 4,
        }
    }
}

/// A full storm: every scenario's clients, generated deterministically
/// from `seed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The seed that produced this plan (replay key).
    pub seed: u64,
    /// Every client schedule in the storm.
    pub clients: Vec<ClientScript>,
}

/// A well-formed `POST /detect` request carrying `frame` as its body.
pub fn detect_request(frame: &[u8], close: bool) -> Vec<u8> {
    let connection = if close { "close" } else { "keep-alive" };
    let mut req = format!(
        "POST /detect HTTP/1.1\r\nHost: chaos\r\nConnection: {connection}\r\nContent-Length: {}\r\n\r\n",
        frame.len()
    )
    .into_bytes();
    req.extend_from_slice(frame);
    req
}

impl ChaosPlan {
    /// Generates the storm for `seed`: seven scenario families, each
    /// contributing `clients_per_scenario` clients with seeded
    /// per-client variation. Same seed + config → identical plan.
    pub fn generate(seed: u64, cfg: &ChaosPlanConfig) -> ChaosPlan {
        let mut rng = SplitMix64::new(seed);
        let mut clients = Vec::new();
        let request = detect_request(&cfg.frame, true);
        for i in 0..cfg.clients_per_scenario {
            // 1. Slowloris: drip the whole request one byte at a time.
            clients.push(ClientScript {
                name: format!("drip_header_{i}"),
                ops: vec![
                    ChaosOp::Drip {
                        bytes: request.clone(),
                        pause: cfg.drip_pause,
                    },
                    ChaosOp::ReadToEnd {
                        timeout: cfg.read_timeout,
                    },
                ],
            });
            // 2. Torn write: most of the body, then half-close.
            let keep =
                request.len() - 1 - below(&mut rng, cfg.frame.len().max(2) as u64 / 2) as usize;
            clients.push(ClientScript {
                name: format!("torn_write_{i}"),
                ops: vec![
                    ChaosOp::Send(request[..keep].to_vec()),
                    ChaosOp::CloseWrite,
                    ChaosOp::ReadToEnd {
                        timeout: cfg.read_timeout,
                    },
                ],
            });
            // 3. Mid-body disconnect: partial request, then vanish.
            let cut =
                request.len() / 2 + below(&mut rng, (request.len() / 4).max(1) as u64) as usize;
            clients.push(ClientScript {
                name: format!("mid_body_disconnect_{i}"),
                ops: vec![ChaosOp::Send(request[..cut].to_vec())],
            });
            // 4. Garbage: random bytes that are not HTTP.
            let mut garbage = vec![0u8; 64 + below(&mut rng, 192) as usize];
            rng.fill_bytes(&mut garbage);
            garbage[0] = 0x01; // never a valid method byte
            clients.push(ClientScript {
                name: format!("garbage_{i}"),
                ops: vec![
                    ChaosOp::Send(garbage),
                    ChaosOp::ReadToEnd {
                        timeout: cfg.read_timeout,
                    },
                ],
            });
            // 5. Pipelined burst: back-to-back health checks on one
            // connection, last one asking to close.
            let mut burst = Vec::new();
            for k in 0..cfg.burst {
                let connection = if k + 1 == cfg.burst {
                    "close"
                } else {
                    "keep-alive"
                };
                burst.extend_from_slice(
                    format!(
                        "GET /healthz HTTP/1.1\r\nHost: chaos\r\nConnection: {connection}\r\n\r\n"
                    )
                    .as_bytes(),
                );
            }
            clients.push(ClientScript {
                name: format!("pipelined_burst_{i}"),
                ops: vec![
                    ChaosOp::Send(burst),
                    ChaosOp::ReadToEnd {
                        timeout: cfg.read_timeout,
                    },
                ],
            });
            // 6. Never-reading receiver: full request, then silence.
            clients.push(ClientScript {
                name: format!("never_read_{i}"),
                ops: vec![ChaosOp::Send(request.clone()), ChaosOp::HoldOpen(cfg.hold)],
            });
            // 7. Slow body: header fast, then stall past the body
            // deadline before finishing.
            let split = request.len() - cfg.frame.len().min(request.len()) / 2 - 1;
            clients.push(ClientScript {
                name: format!("slow_body_{i}"),
                ops: vec![
                    ChaosOp::Send(request[..split].to_vec()),
                    ChaosOp::Sleep(cfg.body_stall),
                    ChaosOp::Send(request[split..].to_vec()),
                    ChaosOp::ReadToEnd {
                        timeout: cfg.read_timeout,
                    },
                ],
            });
        }
        ChaosPlan { seed, clients }
    }
}

/// What one [`FaultEvent`] does to its replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Every batch on the replica holds this long before its forward: a
    /// slow kernel below `wedge_timeout`, a stuck one above it. Lasts
    /// until a `Heal`.
    Stall(Duration),
    /// Only the replica's next batch holds this long: one stuck forward.
    StallOnce(Duration),
    /// Every batch forward panics inside the worker's `catch_unwind`
    /// boundary (poisoned-detector model). Lasts until a `Heal`.
    Panic,
    /// The slot's next `n` canary probes fail whatever the rebuild
    /// produces, proving a bad rebuild cannot slip back into rotation.
    FailCanary(usize),
    /// Clears `Stall`, `StallOnce` and `Panic`, and ends a hold in
    /// progress (the storm passes).
    Heal,
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the event fires, measured from serving start. Events at
    /// `Duration::ZERO` are in force before the first request is
    /// accepted.
    pub at: Duration,
    /// Which replica it targets (`0` is the only one of a plain server).
    pub replica: usize,
    /// What it does.
    pub fault: Fault,
}

impl FaultEvent {
    /// `fault` on `replica`, `at` after serving start.
    pub fn at(at: Duration, replica: usize, fault: Fault) -> FaultEvent {
        FaultEvent { at, replica, fault }
    }
}

/// Every fault a server injects into itself, as one event list sorted by
/// fire time ([`crate::ServeConfig::faults`]). The supervisor's tick
/// applies each event once, to its slot's *current* core; a pool fault
/// aimed at a quarantined slot is dropped. Same seed → same schedule, so
/// a failing storm replays exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Sorted by fire time; ties keep their given order.
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// A fixed schedule (tests that need precise timing).
    pub fn new(mut events: Vec<FaultEvent>) -> FaultSchedule {
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }

    /// Generates `count` replica kills over `window`, targeting replicas
    /// `0..replicas` uniformly, each a `Stall(hold)` or a `Panic`
    /// followed by a `Heal` in the window's second half. Deterministic in
    /// `seed`.
    pub fn generate(
        seed: u64,
        replicas: usize,
        count: usize,
        window: Duration,
        hold: Duration,
    ) -> FaultSchedule {
        let mut rng = SplitMix64::new(seed);
        let mut events = Vec::with_capacity(count * 2);
        let window_ms = window.as_millis().max(2) as u64;
        for _ in 0..count {
            let at = Duration::from_millis(below(&mut rng, window_ms / 2));
            let replica = below(&mut rng, replicas.max(1) as u64) as usize;
            let fault = if below(&mut rng, 2) == 0 {
                Fault::Stall(hold)
            } else {
                Fault::Panic
            };
            events.push(FaultEvent::at(at, replica, fault));
            // Heal in the second half so the storm always passes.
            let heal = Duration::from_millis(window_ms / 2 + below(&mut rng, window_ms / 2));
            events.push(FaultEvent::at(heal, replica, Fault::Heal));
        }
        Self::new(events)
    }

    /// The events, sorted by fire time (ties keep their given order).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// What one chaos client observed.
#[derive(Debug, Clone)]
pub struct ClientOutcome {
    /// The scenario label.
    pub name: String,
    /// Status codes of every well-formed response received.
    pub statuses: Vec<u16>,
    /// Total bytes read off the socket.
    pub bytes_read: usize,
    /// Whether everything read parsed as complete HTTP responses (an
    /// empty read is clean: a close with no bytes is a legal outcome
    /// for a client that never completed a request).
    pub clean: bool,
    /// Parse failure or I/O note, for diagnostics.
    pub detail: String,
}

/// Runs one client schedule against `addr`, collecting everything the
/// server sent back. I/O errors mid-schedule are expected (the server
/// may close on us — that is the point) and end the schedule early.
pub fn run_script(addr: SocketAddr, script: &ClientScript) -> ClientOutcome {
    let mut received = Vec::new();
    let mut detail = String::new();
    match TcpStream::connect(addr) {
        Ok(mut stream) => {
            let _ = stream.set_nodelay(true);
            for op in &script.ops {
                match op {
                    ChaosOp::Send(bytes) => {
                        if let Err(e) = stream.write_all(bytes) {
                            detail = format!("send ended early: {e}");
                            break;
                        }
                    }
                    ChaosOp::Drip { bytes, pause } => {
                        let mut failed = false;
                        for b in bytes {
                            if stream.write_all(std::slice::from_ref(b)).is_err() {
                                detail = "drip ended early".to_string();
                                failed = true;
                                break;
                            }
                            thread::sleep(*pause);
                        }
                        if failed {
                            break;
                        }
                    }
                    ChaosOp::Sleep(d) => thread::sleep(*d),
                    ChaosOp::CloseWrite => {
                        let _ = stream.shutdown(Shutdown::Write);
                    }
                    ChaosOp::ReadToEnd { timeout } => {
                        read_until_close(&mut stream, *timeout, &mut received);
                    }
                    ChaosOp::HoldOpen(d) => thread::sleep(*d),
                }
            }
        }
        Err(e) => detail = format!("connect failed: {e}"),
    }
    let (statuses, clean) = match parse_responses(&received) {
        Ok(statuses) => (statuses, true),
        Err(e) => {
            detail = e;
            (Vec::new(), false)
        }
    };
    ClientOutcome {
        name: script.name.clone(),
        statuses,
        bytes_read: received.len(),
        clean,
        detail,
    }
}

fn read_until_close(stream: &mut TcpStream, timeout: Duration, out: &mut Vec<u8>) {
    let deadline = Instant::now() + timeout;
    let mut chunk = [0u8; 4096];
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let slice = (deadline - now).min(Duration::from_millis(100));
        let _ = stream.set_read_timeout(Some(slice));
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// Walks a byte stream of concatenated HTTP/1.1 responses, returning
/// their status codes. Responses must be `Content-Length`-framed (ours
/// always are).
///
/// # Errors
///
/// A human-readable description of the first framing violation: a
/// non-HTTP prefix, a missing `Content-Length`, or a truncated head or
/// body. A trailing *partial* response is an error too — the server
/// must never half-write.
pub fn parse_responses(bytes: &[u8]) -> Result<Vec<u16>, String> {
    let mut statuses = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        match parse_one_response(rest)? {
            Some((code, consumed)) => {
                statuses.push(code);
                rest = &rest[consumed..];
            }
            None => {
                // Incomplete trailing data: reconstruct the precise
                // truncation diagnosis for the report.
                return Err(match rest.windows(4).position(|w| w == b"\r\n\r\n") {
                    None => format!("truncated response head: {} bytes left", rest.len()),
                    Some(head_end) => {
                        let (_, len) = parse_response_head(&rest[..head_end])?;
                        format!(
                            "truncated response body: want {len}, have {}",
                            rest.len() - head_end - 4
                        )
                    }
                });
            }
        }
    }
    Ok(statuses)
}

/// Tries to split one complete `Content-Length`-framed HTTP/1.1 response
/// off the front of `bytes`.
///
/// Returns `Ok(Some((status, consumed)))` when a whole response (head +
/// body) is present, and `Ok(None)` when more bytes are needed — the
/// incremental counterpart of [`parse_responses`] for keep-alive readers
/// (the load generator) that harvest responses as they stream in.
///
/// # Errors
///
/// A human-readable description of a framing violation that no amount of
/// further bytes can repair: a non-HTTP prefix, a bad status code, or a
/// complete head without `Content-Length`.
pub fn parse_one_response(bytes: &[u8]) -> Result<Option<(u16, usize)>, String> {
    let Some(head_end) = bytes.windows(4).position(|w| w == b"\r\n\r\n") else {
        // Bytes that can no longer grow into an HTTP/1.1 head are a hard
        // error even before the terminator arrives.
        if !b"HTTP/1.1 ".starts_with(&bytes[..bytes.len().min(9)]) {
            let prefix = String::from_utf8_lossy(&bytes[..bytes.len().min(16)]).into_owned();
            return Err(format!("bad status line: {prefix:?}"));
        }
        return Ok(None);
    };
    let (code, len) = parse_response_head(&bytes[..head_end])?;
    let total = head_end + 4 + len;
    if bytes.len() < total {
        return Ok(None);
    }
    Ok(Some((code, total)))
}

/// Parses a complete response head (no trailing `\r\n\r\n`) into its
/// status code and `Content-Length`.
fn parse_response_head(head: &[u8]) -> Result<(u16, usize), String> {
    let head = std::str::from_utf8(head).map_err(|_| "response head is not UTF-8".to_string())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if version != "HTTP/1.1" {
        return Err(format!("bad status line: {status_line:?}"));
    }
    let code: u16 = parts
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| format!("bad status code in {status_line:?}"))?;
    let mut content_length: Option<usize> = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let len = content_length.ok_or_else(|| format!("response {code} without Content-Length"))?;
    Ok((code, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOLD: Duration = Duration::from_millis(80);

    #[test]
    fn plans_are_seed_deterministic() {
        let cfg = ChaosPlanConfig {
            frame: b"P6 2 2 255 0123456789ab".to_vec(),
            ..ChaosPlanConfig::default()
        };
        let a = ChaosPlan::generate(42, &cfg);
        let b = ChaosPlan::generate(42, &cfg);
        assert_eq!(a, b, "same seed, same plan");
        let c = ChaosPlan::generate(43, &cfg);
        assert_ne!(a, c, "different seed, different plan");
        assert_eq!(a.clients.len(), 7 * cfg.clients_per_scenario);
    }

    #[test]
    fn replica_kill_plans_are_seed_deterministic_and_sorted() {
        let generate = |seed| FaultSchedule::generate(seed, 3, 4, Duration::from_secs(2), HOLD);
        let a = generate(9);
        assert_eq!(a, generate(9), "same seed, same schedule");
        assert_ne!(a, generate(10), "different seed, different schedule");
        assert_eq!(a.events.len(), 8, "each kill pairs with a heal");
        assert!(a.events.windows(2).all(|w| w[0].at <= w[1].at), "sorted");
        assert!(a.events.iter().all(|e| e.replica < 3));
        let heals = a.events.iter().filter(|e| e.fault == Fault::Heal).count();
        assert_eq!(heals, 4);
    }

    #[test]
    fn a_fixed_schedule_sorts_by_time_and_keeps_ties_in_order() {
        let event = |ms, fault| FaultEvent::at(Duration::from_millis(ms), 0, fault);
        let schedule = FaultSchedule::new(vec![
            event(20, Fault::Heal),
            event(0, Fault::StallOnce(HOLD)),
            event(0, Fault::Panic),
        ]);
        let faults: Vec<Fault> = schedule.events.iter().map(|e| e.fault).collect();
        assert_eq!(faults, [Fault::StallOnce(HOLD), Fault::Panic, Fault::Heal]);
    }

    #[test]
    fn parse_responses_walks_framed_responses_and_rejects_torn_ones() {
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok\
                    HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(parse_responses(two).unwrap(), vec![200, 503]);
        assert_eq!(parse_responses(b"").unwrap(), Vec::<u16>::new());
        assert!(
            parse_responses(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nok")
                .unwrap_err()
                .contains("truncated response body")
        );
        assert!(parse_responses(b"garbage").is_err());
        assert!(parse_responses(b"HTTP/1.1 200 OK\r\n\r\n")
            .unwrap_err()
            .contains("without Content-Length"));
    }

    #[test]
    fn parse_one_response_is_incremental() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 503 X\r\nContent-Length: 0\r\n\r\n";
        // Feeding ever-longer prefixes: each must be "incomplete" until
        // the first response's final body byte arrives.
        let first_len = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok".len();
        for cut in 0..full.len() {
            let parsed = parse_one_response(&full[..cut]).expect("prefixes never hard-error");
            if cut < first_len {
                assert_eq!(parsed, None, "cut={cut} should be incomplete");
            } else {
                assert_eq!(parsed, Some((200, first_len)), "cut={cut}");
            }
        }
        // After consuming the first, the second parses from the remainder.
        let (_, consumed) = parse_one_response(full).unwrap().unwrap();
        assert_eq!(
            parse_one_response(&full[consumed..]).unwrap(),
            Some((503, full.len() - consumed))
        );
        // Non-HTTP bytes are a hard error even without a head terminator.
        assert!(parse_one_response(b"SPAM").is_err());
        assert_eq!(parse_one_response(b"HTTP/1.").unwrap(), None);
    }

    /// Goldens captured before the generator moved to the shared
    /// `rand::rngs::SplitMix64`: a chaos seed quoted in a bug report must
    /// keep replaying the same storm.
    #[test]
    fn plans_are_bit_stable_per_seed() {
        let cfg = ChaosPlanConfig {
            frame: b"P6\n2 2\n255\n0123456789ab".to_vec(),
            ..ChaosPlanConfig::default()
        };
        let plan = ChaosPlan::generate(7, &cfg);
        assert_eq!(plan.clients.len(), 14);
        assert_eq!(plan.clients.iter().map(|c| c.ops.len()).sum::<usize>(), 32);
        let first_send = |name: &str| {
            let client = plan.clients.iter().find(|c| c.name == name).unwrap();
            match &client.ops[0] {
                ChaosOp::Send(bytes) => bytes.clone(),
                other => panic!("{name} starts with {other:?}"),
            }
        };
        assert_eq!(first_send("torn_write_0").len(), 97);
        assert_eq!(first_send("mid_body_disconnect_0").len(), 54);
        assert_eq!(first_send("torn_write_1").len(), 96);
        assert_eq!(first_send("mid_body_disconnect_1").len(), 74);
        let garbage = first_send("garbage_0");
        assert_eq!(garbage.len(), 130);
        assert_eq!(
            garbage[..16],
            [1, 41, 62, 103, 112, 235, 58, 149, 218, 33, 30, 106, 102, 59, 211, 115]
        );
        assert_eq!(first_send("garbage_1").len(), 93);

        let kills = FaultSchedule::generate(7, 3, 2, Duration::from_secs(4), HOLD).events;
        let at_ms: Vec<u128> = kills.iter().map(|k| k.at.as_millis()).collect();
        assert_eq!(at_ms, [487, 1674, 2203, 3182]);
        assert!(kills.iter().all(|k| k.replica == 0));
        assert_eq!(kills[1].fault, Fault::Stall(HOLD));
    }
}
