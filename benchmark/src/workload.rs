//! The four closed-loop workloads: set-up (model, seeded weights, inputs,
//! server, warm-up), the timed loop, and the output check.
//!
//! Weights always come from [`WEIGHT_SEED`]; `--seed` drives only the
//! scenes and the frame order, so the program under test receives nothing
//! but generated inputs.

use crate::check::{dets, dets_from_reply, Det, Expected, Golden, NMS_VARIANTS};
use crate::http::{detect_request, round_trip, Reply};
use crate::spans::{maybe_time, SpanLog};
use dronet_core::{zoo, ModelId};
use dronet_data::scene::{
    LargeSceneConfig, LargeSceneGenerator, Scene, SceneConfig, SceneGenerator,
};
use dronet_data::{ppm, Image};
use dronet_detect::{Detector, DetectorBuilder};
use dronet_metrics::BBox;
use dronet_obs::{Registry, Tracer};
use dronet_serve::{DetectorFactory, ServeConfig, Server};
use dronet_tensor::Tensor;
use dronet_tile::{
    SelectorConfig, TileGrid, TileSelection, TileSelector, TiledDetector, TiledDetectorConfig,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the network weights, the same for every run.
pub const WEIGHT_SEED: u64 = 7;
/// NMS IoU threshold of every workload's detector (the builder default).
pub const NMS_THRESHOLD: f32 = 0.45;
/// Confidence thresholds, one per detector input size. The weights are
/// random, so objectness sits near 0.5 everywhere; these keep the
/// default-seed frames at 16.5 (352², range 0–45) and 6.1 (64², range
/// 5–8) detections per frame instead of hundreds.
pub const CONFIDENCE_352: f32 = 0.70;
pub const CONFIDENCE_64: f32 = 0.50;
/// Closed-loop HTTP clients of the `serve_*` workloads, one connection
/// each.
pub const CLIENTS: usize = 2;
/// Large-frame geometry of `tile_1408`.
pub const TILE_FRAME: usize = 1408;
pub const TILE_OVERLAP: usize = 32;
/// Tiles `tile_1408` runs per frame, whatever the selector chose (its
/// `max_tiles`). Where the clusters of a seed's scene fall decides how
/// many tiles are hot — 3 to 12 per frame across seeds — and the driver
/// compares runs of different seeds, so the amount of detector work is
/// fixed here while *which* tiles run still comes from `select`.
pub const TILE_BUDGET: usize = 5;
/// `tile_1408` ops checked against a second tiled detector (one pass over
/// the ring); every op gets the structural checks.
pub const TILE_REFERENCE_OPS: usize = 8;
/// Frames whose tile counts the `tile_1408` golden pins.
pub const TILE_GOLDEN_FRAMES: usize = 32;
/// Frames in each `detect_*` golden.
pub const GOLDEN_FRAMES: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Stream352,
    Tile1408,
    Serve352,
    Serve64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Stream352,
        Workload::Tile1408,
        Workload::Serve352,
        Workload::Serve64,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream352 => "stream_352",
            Workload::Tile1408 => "tile_1408",
            Workload::Serve352 => "serve_352",
            Workload::Serve64 => "serve_64",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Side of the detector's square input.
    pub fn detector_input(self) -> usize {
        match self {
            Workload::Serve64 => 64,
            _ => 352,
        }
    }

    pub fn threshold(self) -> f32 {
        match self.detector_input() {
            64 => CONFIDENCE_64,
            _ => CONFIDENCE_352,
        }
    }

    /// Distinct input frames the loop cycles through.
    pub fn ring_len(self) -> usize {
        match self {
            Workload::Tile1408 => 8,
            _ => 16,
        }
    }

    /// Warm-up operations per caller, part of set-up: enough for caches,
    /// pools and any lazy initialisation to settle, and few enough that one
    /// set-up is a third of a second — the shorter a set-up, the likelier
    /// that one of a run's [`SETUPS`] finds the machine quiet.
    pub fn warmup(self) -> usize {
        match self {
            Workload::Stream352 => 8,
            Workload::Tile1408 => 2,
            Workload::Serve352 => 4,
            Workload::Serve64 => 8,
        }
    }
}

/// Set-ups per run. `setup_s` is the fastest of them: the first is cold,
/// and whatever else the shared machine does only ever adds time.
pub const SETUPS: usize = 8;

/// One generated input frame with its ground-truth boxes.
pub struct Frame {
    pub image: Image,
    pub boxes: Vec<BBox>,
}

impl From<Scene> for Frame {
    fn from(scene: Scene) -> Frame {
        Frame {
            boxes: scene.annotations.iter().map(|a| a.bbox).collect(),
            image: scene.image,
        }
    }
}

/// Renders seeded `size`² scene frames, one at a time.
pub fn scene_frames(size: usize, seed: u64) -> impl Iterator<Item = Frame> {
    let config = SceneConfig {
        width: size,
        height: size,
        ..SceneConfig::default()
    };
    let mut generator = SceneGenerator::new(config, seed);
    std::iter::repeat_with(move || Frame::from(generator.generate()))
}

/// The workload's own input frames for `seed`, rendered one at a time so
/// that a caller who converts as it goes never holds two copies of a
/// large ring.
pub fn frames(workload: Workload, seed: u64) -> Box<dyn Iterator<Item = Frame>> {
    let n = workload.ring_len();
    if workload != Workload::Tile1408 {
        return Box::new(scene_frames(workload.detector_input(), seed).take(n));
    }
    let config = LargeSceneConfig {
        width: TILE_FRAME,
        height: TILE_FRAME,
        ..LargeSceneConfig::default()
    };
    let mut generator = LargeSceneGenerator::new(config, seed).expect("large-scene config");
    Box::new(std::iter::repeat_with(move || Frame::from(generator.next_frame())).take(n))
}

/// The workload's detector: DroNet at its input size with the fixed seeded
/// weights and its confidence threshold. `nms` is [`NMS_THRESHOLD`] except
/// in the checks' reference variants.
pub fn build_detector(workload: Workload, nms: f32) -> dronet_detect::Result<Detector> {
    let mut network = zoo::build(ModelId::DroNet, workload.detector_input())?;
    network.init_weights(&mut rand::rngs::StdRng::seed_from_u64(WEIGHT_SEED));
    DetectorBuilder::new(network)
        .confidence_threshold(workload.threshold())
        .nms_threshold(nms)
        .build()
}

/// The tiled pipeline of `tile_1408`: BENCH_PR9's selector settings
/// (motion gate just above float dust, 5 salient tiles, full revisit
/// sweep every 16 frames) on a 352/32 grid.
pub fn tile_config() -> TiledDetectorConfig {
    TiledDetectorConfig {
        overlap: TILE_OVERLAP,
        selector: SelectorConfig {
            diff_threshold: 1e-4,
            max_tiles: 5,
            revisit_period: 16,
            seed: 9,
            ..SelectorConfig::default()
        },
        ..TiledDetectorConfig::default()
    }
}

fn build_tiled(workload: Workload) -> TiledDetector {
    let detector = build_detector(workload, NMS_THRESHOLD).expect("tile detector builds");
    TiledDetector::new(detector, (TILE_FRAME, TILE_FRAME), tile_config()).expect("tiled detector")
}

/// A seeded permutation of `0..len`: the order a caller walks the ring in.
fn frame_order(len: usize, seed: u64, caller: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (caller + 1).wrapping_mul(0x9E37_79B9));
    order.shuffle(&mut rng);
    order
}

/// One end-to-end call or request of the timed window.
pub struct Op<O> {
    /// Which caller made it (0 unless the workload has several clients).
    pub caller: usize,
    /// Ring index of the input frame.
    pub frame: usize,
    /// Call → return (or first request byte written → last response byte
    /// read), seconds since the window started.
    pub start_s: f64,
    pub end_s: f64,
    /// What came back; `Err` for a call or connection that failed.
    pub output: Result<O, String>,
}

/// Latencies (ms, ascending) of the operations that were judged correct;
/// a failed operation gives no sample.
pub fn latencies_ms<O>(ops: &[Op<O>], verdicts: &[bool]) -> Vec<f64> {
    let mut latencies: Vec<f64> = ops
        .iter()
        .zip(verdicts)
        .filter(|(_, correct)| **correct)
        .map(|(op, _)| (op.end_s - op.start_s) * 1e3)
        .collect();
    crate::stats::sort(&mut latencies);
    latencies
}

/// Every caller's completions `(end_s, correct?)` in one window, in order:
/// what [`crate::stats::quiet_rate`] takes.
pub fn completions<O>(ops: &[Op<O>], verdicts: &[bool]) -> Vec<Vec<(f64, bool)>> {
    let mut callers: Vec<Vec<(f64, bool)>> = Vec::new();
    for (op, correct) in ops.iter().zip(verdicts) {
        if callers.len() <= op.caller {
            callers.resize(op.caller + 1, Vec::new());
        }
        callers[op.caller].push((op.end_s, *correct));
    }
    callers
}

/// One set-up instance of a workload.
pub trait Runner: Sized {
    type Output;

    /// Model build + seeded weights, input generation and encoding, server
    /// start + connect, and the workload's fixed warm-up.
    fn setup(workload: Workload, seed: u64) -> Self;

    /// Runs the closed loop for `seconds`; the operation in flight at the
    /// deadline completes and counts. With a log, every operation is also
    /// recorded as a span (`log`'s thread for the caller, or one merged
    /// log per client).
    /// Returns the window's operations, each caller's in completion order.
    fn run(&mut self, seconds: f64, log: Option<&mut SpanLog>) -> Vec<Op<Self::Output>>;

    /// Judges every operation of a window, outside the timed window.
    fn check(&mut self, ops: &[Op<Self::Output>]) -> Vec<bool>;

    /// The registry handed to the server, on workloads that start one.
    fn registry(&self) -> Option<&Registry> {
        None
    }

    /// Stops whatever set-up started.
    fn finish(self) {}
}

/// Reference outputs for `frames` from fresh detectors, one per NMS
/// variant (see [`crate::check`]).
pub fn reference(workload: Workload, frames: &[Tensor]) -> Vec<Expected> {
    let threshold = workload.threshold();
    let variants: Vec<Vec<Vec<Det>>> = NMS_VARIANTS
        .iter()
        .map(|&nms| {
            let mut detector = build_detector(workload, nms).expect("reference detector builds");
            frames
                .iter()
                .map(|f| dets(&detector.detect(f).expect("reference detect")))
                .collect()
        })
        .collect();
    (0..frames.len())
        .map(|i| {
            let per_frame: Vec<Vec<Det>> = variants.iter().map(|v| v[i].clone()).collect();
            Expected::from_variants(&per_frame, threshold)
        })
        .collect()
}

// ---------------------------------------------------------------- stream

/// `stream_352`: one caller, `Detector::detect`, batch 1.
pub struct Stream {
    workload: Workload,
    detector: Detector,
    ring: Vec<Tensor>,
    order: Vec<usize>,
    cursor: usize,
}

impl Stream {
    fn next_frame(&mut self) -> usize {
        let frame = self.order[self.cursor % self.order.len()];
        self.cursor += 1;
        frame
    }
}

impl Runner for Stream {
    type Output = Vec<Det>;

    fn setup(workload: Workload, seed: u64) -> Self {
        let detector = build_detector(workload, NMS_THRESHOLD).expect("detector builds");
        let ring: Vec<Tensor> = frames(workload, seed)
            .map(|f| f.image.to_tensor())
            .collect();
        let mut stream = Stream {
            workload,
            detector,
            order: frame_order(ring.len(), seed, 0),
            ring,
            cursor: 0,
        };
        for _ in 0..workload.warmup() {
            let frame = stream.next_frame();
            stream
                .detector
                .detect(&stream.ring[frame])
                .expect("warm-up detect");
        }
        stream
    }

    fn run(&mut self, seconds: f64, mut log: Option<&mut SpanLog>) -> Vec<Op<Vec<Det>>> {
        let mut ops = Vec::new();
        let start = Instant::now();
        loop {
            let frame = self.next_frame();
            let span = log
                .as_deref_mut()
                .map(|l| l.begin("stream.detect", None, ops.len() as u64));
            let start_s = start.elapsed().as_secs_f64();
            let result = self.detector.detect(&self.ring[frame]);
            let end_s = start.elapsed().as_secs_f64();
            if let (Some(l), Some(s)) = (log.as_deref_mut(), span) {
                l.end(s);
            }
            ops.push(Op {
                caller: 0,
                frame,
                start_s,
                end_s,
                output: result.map(|d| dets(&d)).map_err(|e| e.to_string()),
            });
            if end_s >= seconds {
                return ops;
            }
        }
    }

    fn check(&mut self, ops: &[Op<Vec<Det>>]) -> Vec<bool> {
        let expected = reference(self.workload, &self.ring);
        let threshold = self.workload.threshold();
        ops.iter()
            .map(|op| {
                op.output
                    .as_ref()
                    .is_ok_and(|d| expected[op.frame].accepts(d, threshold))
            })
            .collect()
    }
}

// ------------------------------------------------------------------ tile

/// What `tile_1408` keeps of one frame.
pub struct TileOutput {
    /// Frames this set-up had run before this one, warm-up included.
    pub seq: u64,
    /// How many tiles `TileSelector::select` chose, and the set it became
    /// under [`TILE_BUDGET`].
    pub selected: usize,
    pub given: Vec<usize>,
    /// The tile set `run_tiles` reports having run, and the grid size.
    pub ran: Vec<usize>,
    pub total: usize,
    pub dets: Vec<Det>,
}

/// `tile_1408`: one caller; per frame `TileSelector::select` (hot boxes =
/// the previous frame's ground truth, so the tile set never depends on
/// network numerics) then `TiledDetector::run_tiles`.
pub struct Tiled {
    workload: Workload,
    seed: u64,
    tiled: TiledDetector,
    selector: TileSelector,
    grid: TileGrid,
    ring: Vec<Tensor>,
    hot: Vec<Vec<BBox>>,
    frame_id: u64,
}

/// Cuts or tops up a selection to exactly `budget` tiles: tracked tiles
/// first, then salient, then revisited, then — when the selector chose
/// fewer — the tiles after a cursor that moves with the frame. Ascending,
/// like the selector's own list (it is the micro-batch order).
pub fn budgeted(
    selection: &TileSelection,
    total: usize,
    budget: usize,
    frame_id: u64,
) -> Vec<usize> {
    let budget = budget.min(total);
    let cursor = (frame_id as usize).wrapping_mul(7) % total;
    let fill = (0..total).map(|k| (cursor + k) % total);
    let mut tiles = Vec::with_capacity(budget);
    let chosen = selection
        .hot
        .iter()
        .chain(&selection.salient)
        .chain(&selection.revisited)
        .copied();
    for tile in chosen.chain(fill) {
        if tiles.len() == budget {
            break;
        }
        if !tiles.contains(&tile) {
            tiles.push(tile);
        }
    }
    tiles.sort_unstable();
    tiles
}

impl Tiled {
    fn step(
        &mut self,
        mut log: Option<&mut SpanLog>,
        op: u64,
    ) -> (usize, f64, Result<TileOutput, String>) {
        let frame = (self.frame_id % self.ring.len() as u64) as usize;
        let frame_id = self.frame_id;
        self.frame_id += 1;
        let image = &self.ring[frame];
        let root = log.as_deref_mut().map(|l| l.begin("tile.frame", None, op));
        let started = Instant::now();
        let selection = maybe_time(log.as_deref_mut(), "tile.frame.select", root, op, || {
            self.selector.select(&self.grid, image, &self.hot[frame])
        });
        let result = selection.map_err(|e| e.to_string()).and_then(|sel| {
            let given = budgeted(&sel, self.grid.len(), TILE_BUDGET, frame_id);
            maybe_time(log.as_deref_mut(), "tile.frame.run_tiles", root, op, || {
                self.tiled.run_tiles(image, &given, frame_id)
            })
            .map_err(|e| e.to_string())
            .map(|out| TileOutput {
                seq: frame_id,
                selected: sel.tiles.len(),
                given,
                ran: out.tiles_selected,
                total: out.tiles_total,
                dets: dets(&out.detections),
            })
        });
        let took = started.elapsed().as_secs_f64();
        if let (Some(l), Some(r)) = (log, root) {
            l.end(r);
        }
        (frame, took, result)
    }

    /// Tile counts of the next `n` frames (golden writing).
    fn tile_counts(&mut self, n: usize) -> Vec<usize> {
        (0..n)
            .map(|_| {
                let (_, _, out) = self.step(None, 0);
                out.expect("tile frame").selected
            })
            .collect()
    }
}

impl Runner for Tiled {
    type Output = TileOutput;

    fn setup(workload: Workload, seed: u64) -> Self {
        let tiled = build_tiled(workload);
        let grid = tiled.grid().clone();
        let selector = TileSelector::new(tile_config().selector).expect("selector config");
        let (ring, boxes): (Vec<Tensor>, Vec<Vec<BBox>>) = frames(workload, seed)
            .map(|f| (f.image.to_tensor(), f.boxes))
            .unzip();
        let n = ring.len();
        let hot = (0..n).map(|i| boxes[(i + n - 1) % n].clone()).collect();
        let mut this = Tiled {
            workload,
            seed,
            tiled,
            selector,
            grid,
            ring,
            hot,
            frame_id: 0,
        };
        for _ in 0..workload.warmup() {
            this.step(None, 0).2.expect("warm-up frame");
        }
        this
    }

    fn run(&mut self, seconds: f64, mut log: Option<&mut SpanLog>) -> Vec<Op<TileOutput>> {
        let mut ops = Vec::new();
        let start = Instant::now();
        loop {
            let start_s = start.elapsed().as_secs_f64();
            let (frame, took, output) = self.step(log.as_deref_mut(), ops.len() as u64);
            let end_s = start_s + took;
            ops.push(Op {
                caller: 0,
                frame,
                start_s,
                end_s,
                output,
            });
            if end_s >= seconds {
                return ops;
            }
        }
    }

    fn check(&mut self, ops: &[Op<TileOutput>]) -> Vec<bool> {
        let threshold = self.workload.threshold();
        let mut reference = build_tiled(self.workload);
        // The tile set is a function of the seed alone; the golden pins
        // the default seed's first frames after warm-up.
        let golden_counts = if self.seed == crate::args::DEFAULT_SEED {
            load_golden(&golden_path(self.workload.name())).tiles_per_frame
        } else {
            Vec::new()
        };
        let warmup = self.workload.warmup() as u64;
        ops.iter()
            .enumerate()
            .map(|(i, op)| {
                let Ok(out) = &op.output else { return false };
                // Ran exactly the tile set it was given, on this grid.
                if out.ran != out.given
                    || out.given.len() != TILE_BUDGET
                    || out.total != self.grid.len()
                {
                    return false;
                }
                let pinned = golden_counts.get((out.seq - warmup) as usize);
                if pinned.is_some_and(|&n| n != out.selected) {
                    return false;
                }
                if i >= TILE_REFERENCE_OPS {
                    return out.dets.iter().all(Det::is_sane);
                }
                // `run_tiles` output is a function of (frame, tiles) only.
                reference
                    .run_tiles(&self.ring[op.frame], &out.given, i as u64)
                    .is_ok_and(|r| {
                        Expected::from_variants(&[dets(&r.detections)], threshold)
                            .accepts(&out.dets, threshold)
                    })
            })
            .collect()
    }
}

// ----------------------------------------------------------------- serve

struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    order: Vec<usize>,
    cursor: usize,
}

impl Client {
    /// One closed-loop request: first request byte written → last response
    /// byte read.
    fn request(
        &mut self,
        caller: usize,
        requests: &[Vec<u8>],
        since: Instant,
        log: Option<(&mut SpanLog, u64)>,
    ) -> Op<Reply> {
        let frame = self.order[self.cursor % self.order.len()];
        self.cursor += 1;
        let mut log = log;
        let span = log
            .as_mut()
            .map(|(l, id)| l.begin("serve.request", None, *id));
        let start_s = since.elapsed().as_secs_f64();
        let result = round_trip(&mut self.stream, &requests[frame], &mut self.buf);
        let end_s = since.elapsed().as_secs_f64();
        if let (Some((l, _)), Some(s)) = (log, span) {
            l.end(s);
        }
        Op {
            caller,
            frame,
            start_s,
            end_s,
            output: result.map_err(|e| e.to_string()),
        }
    }
}

/// `serve_352` / `serve_64`: [`CLIENTS`] keep-alive connections, each
/// POSTing a PPM scene frame to `/detect` and waiting for the reply before
/// sending the next, against an in-process `Server::start`.
pub struct Serve {
    workload: Workload,
    server: Server,
    /// The registry handed to `Server::start`; the trace binary reads the
    /// server's batch-size and queue-wait histograms from it.
    registry: Registry,
    clients: Vec<Client>,
    /// PPM bodies and full requests, per ring frame.
    ppm: Vec<Vec<u8>>,
    requests: Arc<Vec<Vec<u8>>>,
}

/// Encodes an image the way a client would send it.
pub fn encode_ppm(image: &Image) -> Vec<u8> {
    let mut bytes = Vec::new();
    ppm::write(image, &mut bytes).expect("writing to a Vec cannot fail");
    bytes
}

impl Serve {
    /// Starts the server and connects the clients for the given frames,
    /// then runs `warmup` requests per client.
    pub fn start(workload: Workload, images: &[Image], seed: u64, warmup: usize) -> Self {
        let ppm: Vec<Vec<u8>> = images.iter().map(encode_ppm).collect();
        let requests: Arc<Vec<Vec<u8>>> = Arc::new(ppm.iter().map(|p| detect_request(p)).collect());
        let factory: DetectorFactory = Arc::new(move || build_detector(workload, NMS_THRESHOLD));
        // Defaults, except that connections live for the whole run.
        let config = ServeConfig {
            max_requests_per_connection: usize::MAX,
            keep_alive_timeout: Duration::from_secs(120),
            ..ServeConfig::default()
        };
        let registry = Registry::new();
        let server =
            Server::start(factory, config, &registry, &Tracer::noop()).expect("server starts");
        let clients = (0..CLIENTS)
            .map(|c| {
                let stream = TcpStream::connect(server.addr()).expect("client connects");
                // Nagle on the *client* would only add benchmark-made
                // stalls; the server's response path is left as it is.
                stream.set_nodelay(true).expect("set_nodelay");
                // A wedged server fails the request instead of the run.
                stream
                    .set_read_timeout(Some(Duration::from_secs(20)))
                    .expect("set_read_timeout");
                Client {
                    stream,
                    buf: Vec::new(),
                    order: frame_order(images.len(), seed, c as u64),
                    cursor: 0,
                }
            })
            .collect();
        let mut this = Serve {
            workload,
            server,
            registry,
            clients,
            ppm,
            requests,
        };
        let warm = this.drive(|_, done| done >= warmup, None);
        for op in &warm {
            let reply = op.output.as_ref().expect("warm-up request");
            assert_eq!(reply.status, 200, "warm-up reply status");
        }
        this
    }

    /// Runs every client's closed loop on its own thread until `stop`
    /// (seconds since start, requests done) says so.
    fn drive(
        &mut self,
        stop: impl Fn(f64, usize) -> bool + Sync,
        log: Option<&mut SpanLog>,
    ) -> Vec<Op<Reply>> {
        let requests = &self.requests;
        let stop = &stop;
        let epoch = log.as_ref().map(|l| l.epoch());
        let start = Instant::now();
        let per_client: Vec<(Vec<Op<Reply>>, Option<SpanLog>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let mut own = epoch.map(|e| SpanLog::new(e, c as u32 + 1));
                        let mut ops: Vec<Op<Reply>> = Vec::new();
                        loop {
                            // Request ids: client in the low bit.
                            let id = (ops.len() * CLIENTS + c) as u64;
                            let op =
                                client.request(c, requests, start, own.as_mut().map(|l| (l, id)));
                            let (end_s, failed) = (op.end_s, op.output.is_err());
                            ops.push(op);
                            // A dead connection cannot be retried in a
                            // closed loop: its client stops, and the run
                            // reports the failure.
                            if failed || stop(end_s, ops.len()) {
                                return (ops, own);
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut ops = Vec::new();
        let mut log = log;
        for (client_ops, client_log) in per_client {
            ops.extend(client_ops);
            if let (Some(l), Some(c)) = (log.as_deref_mut(), client_log) {
                l.merge(c);
            }
        }
        ops
    }

    /// Requests per client of a fixed-count leg (the trace binary's serve
    /// leg on workloads that do not serve).
    pub fn run_requests(&mut self, per_client: usize, log: Option<&mut SpanLog>) -> Vec<Op<Reply>> {
        self.drive(|_, done| done >= per_client, log)
    }
}

impl Runner for Serve {
    type Output = Reply;

    fn setup(workload: Workload, seed: u64) -> Self {
        let images: Vec<Image> = frames(workload, seed).map(|f| f.image).collect();
        Serve::start(workload, &images, seed, workload.warmup())
    }

    fn run(&mut self, seconds: f64, log: Option<&mut SpanLog>) -> Vec<Op<Reply>> {
        self.drive(|end_s, _| end_s >= seconds, log)
    }

    fn check(&mut self, ops: &[Op<Reply>]) -> Vec<bool> {
        // A direct `Detector::detect` on the same decoded frame.
        let decoded: Vec<Tensor> = self
            .ppm
            .iter()
            .map(|p| {
                ppm::read(p.as_slice())
                    .expect("own PPM decodes")
                    .to_tensor()
            })
            .collect();
        let expected = reference(self.workload, &decoded);
        let threshold = self.workload.threshold();
        ops.iter()
            .map(|op| {
                op.output.as_ref().is_ok_and(|reply| {
                    reply.status == 200
                        && dets_from_reply(&reply.body)
                            .is_ok_and(|d| expected[op.frame].accepts(&d, threshold))
                })
            })
            .collect()
    }

    fn registry(&self) -> Option<&Registry> {
        Some(&self.registry)
    }

    fn finish(self) {
        // Close the connections first so the drain has nothing to wait for.
        drop(self.clients);
        let report = self.server.shutdown();
        assert!(report.drained, "server drained: {report:?}");
    }
}

// ---------------------------------------------------------------- golden

fn golden_path(name: &str) -> String {
    format!("{}/golden/{name}.json", env!("CARGO_MANIFEST_DIR"))
}

fn detect_golden_path(workload: Workload) -> String {
    golden_path(&format!("detect_{}", workload.detector_input()))
}

fn load_golden(path: &str) -> Golden {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (run with --write-golden first)"));
    Golden::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The frames every `detect_*` golden is about: default-seed scene frames
/// at the detector's input size, whatever `--seed` the run has.
fn golden_frames(workload: Workload) -> Vec<Tensor> {
    scene_frames(workload.detector_input(), crate::args::DEFAULT_SEED)
        .take(GOLDEN_FRAMES)
        .map(|f| f.image.to_tensor())
        .collect()
}

/// Runs the workload's detector over the golden frames and compares with
/// the committed file. Returns `(frames checked, frames failed)`.
pub fn check_golden(workload: Workload) -> (u64, u64) {
    let golden = load_golden(&detect_golden_path(workload));
    let threshold = workload.threshold();
    assert_eq!(
        golden.threshold, threshold,
        "golden written at another threshold"
    );
    let mut detector = build_detector(workload, NMS_THRESHOLD).expect("detector builds");
    let frames = golden_frames(workload);
    assert_eq!(golden.frames.len(), frames.len(), "golden frame count");
    let failed = frames
        .iter()
        .zip(&golden.frames)
        .filter(|(frame, expected)| {
            !detector
                .detect(frame)
                .is_ok_and(|d| expected.accepts(&dets(&d), threshold))
        })
        .count() as u64;
    (frames.len() as u64, failed)
}

/// Rewrites the golden file(s) this workload is checked against.
pub fn write_golden(workload: Workload) {
    let mut files = vec![(
        detect_golden_path(workload),
        Golden {
            threshold: workload.threshold(),
            frames: reference(workload, &golden_frames(workload)),
            tiles_per_frame: Vec::new(),
        },
    )];
    if workload == Workload::Tile1408 {
        files.push((
            golden_path(workload.name()),
            Golden {
                threshold: workload.threshold(),
                frames: Vec::new(),
                tiles_per_frame: Tiled::setup(workload, crate::args::DEFAULT_SEED)
                    .tile_counts(TILE_GOLDEN_FRAMES),
            },
        ));
    }
    for (path, golden) in files {
        std::fs::write(&path, golden.to_json()).unwrap_or_else(|e| panic!("{path}: {e}"));
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selection(hot: &[usize], salient: &[usize], revisited: &[usize]) -> TileSelection {
        let mut tiles: Vec<usize> = [hot, salient, revisited].concat();
        tiles.sort_unstable();
        tiles.dedup();
        TileSelection {
            tiles,
            hot: hot.to_vec(),
            salient: salient.to_vec(),
            revisited: revisited.to_vec(),
        }
    }

    #[test]
    fn budget_cuts_by_priority_and_tops_up_from_the_cursor() {
        // Too many: tracked tiles first, then salient, then revisited.
        let many = selection(&[20, 3], &[3, 7, 9, 11], &[0, 1]);
        assert_eq!(budgeted(&many, 25, 5, 0), vec![3, 7, 9, 11, 20]);
        // Too few: filled from a cursor that moves with the frame.
        let few = selection(&[], &[4], &[5]);
        assert_eq!(budgeted(&few, 25, 5, 0), vec![0, 1, 2, 4, 5]);
        assert_eq!(budgeted(&few, 25, 5, 1), vec![4, 5, 7, 8, 9]);
        // A grid smaller than the budget runs whole.
        assert_eq!(budgeted(&selection(&[], &[], &[0]), 1, 5, 9), vec![0]);
    }

    #[test]
    fn frame_orders_are_seeded_permutations() {
        let a = frame_order(16, 7, 0);
        assert_eq!(a, frame_order(16, 7, 0));
        assert_ne!(a, frame_order(16, 8, 0));
        assert_ne!(a, frame_order(16, 7, 1));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }
}
