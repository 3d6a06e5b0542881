//! The traced run (`--trace 1`): repeats the workload with the benchmark's
//! own spans on, then replays the whole stack stage by stage and prints
//! the per-layer metrics. Every call into a kernel-level API of the
//! product (`im2col_into`, `sgemm`, `Layer::forward_pooled`, `decode`,
//! `non_max_suppression`, `parse_request`, `TileMerger::merge`, …) is in
//! this file; the gated end-to-end numbers never come from here.
//!
//! Three phases, all recorded in one span log and written as one Chrome
//! trace to `benchmark/out/<workload>.trace.json`:
//!
//! 1. **window** — the workload's closed loop for `--seconds`, in slices
//!    that alternate spans off / spans on, so drift cancels in
//!    `bench.trace_overhead_share`;
//! 2. **stage replay** — over [`REPLAY_FRAMES`] of the workload's own
//!    frames, each layer's public function in turn under child spans of
//!    one `replay.frame` span. The replay walks the *whole* stack on every
//!    workload (a layer the workload's loop bypasses is measured at the
//!    workload's frame size anyway; README.md says which are on its path);
//! 3. **serve leg** — on workloads that do not serve, a short closed-loop
//!    run against an in-process server, for the four server-side metrics.

use dronet_benchmark::args::{self, Args};
use dronet_benchmark::http::detect_request;
use dronet_benchmark::report::{self, CONVS};
use dronet_benchmark::spans::SpanLog;
use dronet_benchmark::stats;
use dronet_benchmark::workload::{
    self, budgeted, build_detector, completions, encode_ppm, frames, latencies_ms, tile_config,
    Frame, Op, Runner, Serve, Stream, Tiled, Workload, CLIENTS, NMS_THRESHOLD, TILE_BUDGET,
    TILE_FRAME,
};
use dronet_data::{ppm, Image};
use dronet_detect::decode::decode;
use dronet_detect::nms::non_max_suppression;
use dronet_detect::{Detection, DetectorBuilder};
use dronet_nn::{ActivationPool, Layer};
use dronet_obs::{Registry, Tracer};
use dronet_serve::http::parse_request;
use dronet_serve::json::detections_json;
use dronet_serve::{HttpLimits, Response};
use dronet_tensor::gemm::sgemm;
use dronet_tensor::im2col::{im2col_into, ConvGeometry};
use dronet_tensor::{Shape, Tensor};
use dronet_tile::{TileGrid, TileMerger, TileSelector, TiledDetector, TiledDetectorConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Frames of the stage replay (ISSUE: 32 of the workload's own inputs).
const REPLAY_FRAMES: usize = 32;
/// Window slices; even ones run with spans off, odd ones with spans on.
const SLICES: usize = 10;
/// Requests per client of the serve leg.
const SERVE_LEG_REQUESTS: usize = 16;
/// Rounds of the observability-overhead comparison.
const OBS_ROUNDS: usize = 40;

type Metrics = BTreeMap<String, f64>;

/// Per-frame totals (ms) of the spans called `name`: spans sharing a frame
/// id are summed (a batched conv records one span per batch item).
fn per_frame_ms(log: &SpanLog, name: &str, first: usize) -> Vec<f64> {
    let mut by_frame: BTreeMap<u64, f64> = BTreeMap::new();
    for s in log.spans()[first..].iter().filter(|s| s.name == name) {
        *by_frame.entry(s.id).or_default() += s.duration_ms();
    }
    by_frame.into_values().collect()
}

/// A stage's time per frame: [`per_frame_ms`] at the benchmark's quiet
/// percentile, like the end-to-end timings it is meant to explain.
fn frame_quiet_ms(log: &SpanLog, name: &str, first: usize) -> f64 {
    stats::quiet(per_frame_ms(log, name, first))
}

// ---------------------------------------------------------------- window

/// Phase 1. Returns the verdict counts and fills the `bench.*` metrics.
fn window_phase<R: Runner>(
    args: &Args,
    runner: &mut R,
    log: &mut SpanLog,
    m: &mut Metrics,
) -> (u64, u64) {
    let slices = if args.smoke { 2 } else { SLICES };
    let mut ops: Vec<Op<R::Output>> = Vec::new();
    // Where each slice's ops start; odd slices ran with spans on.
    let mut starts = Vec::new();
    for slice in 0..slices {
        let traced = slice % 2 == 1;
        starts.push(ops.len());
        ops.extend(runner.run(args.seconds / slices as f64, traced.then_some(&mut *log)));
    }
    starts.push(ops.len());
    let verdicts = runner.check(&ops);
    let latencies_ms = latencies_ms(&ops, &verdicts);
    let attempted = ops.len() as u64;
    let failed = attempted - latencies_ms.len() as u64;
    m.insert("bench.samples".into(), latencies_ms.len() as f64);
    m.insert("bench.attempted".into(), attempted as f64);
    m.insert("bench.failed".into(), failed as f64);
    for (name, p) in [
        ("bench.latency_ms_p5", stats::QUIET_PERCENTILE),
        ("bench.latency_ms_p50", 50.0),
        ("bench.latency_ms_p90", 90.0),
        ("bench.latency_ms_p99", 99.0),
    ] {
        m.insert(name.into(), stats::percentile(&latencies_ms, p));
    }

    // images_per_s as the runner computes it, per slice kind.
    let rate = |traced: bool| {
        let mut sequences = Vec::new();
        let mut callers = 1;
        for (slice, range) in starts.windows(2).enumerate() {
            if (slice % 2 == 1) == traced {
                let range = range[0]..range[1];
                let own = completions(&ops[range.clone()], &verdicts[range]);
                callers = callers.max(own.len());
                sequences.extend(own);
            }
        }
        stats::quiet_rate(&sequences, callers)
    };
    let (plain, traced) = (rate(false), rate(true));
    m.insert("bench.trace_overhead_share".into(), 1.0 - traced / plain);
    println!(
        "window: {attempted} frames, {failed} failed; {plain:.3} img/s spans off, \
         {traced:.3} img/s spans on"
    );
    (attempted, failed)
}

// ---------------------------------------------------------------- replay

/// Everything the stage replay calls, built once.
struct Stack {
    workload: Workload,
    grid: TileGrid,
    selector: TileSelector,
    merger: TileMerger,
    tiled: TiledDetector,
    detector: dronet_detect::Detector,
    /// A bare network with the same weights, for `Network::forward` and
    /// the layer-by-layer chain.
    network: dronet_nn::Network,
    pool: ActivationPool,
    /// Column and output scratch per conv, allocated on first use.
    scratch: Vec<Option<(Tensor, Tensor)>>,
    limits: HttpLimits,
}

/// The frame geometry the tile stage runs on: the large frame on
/// `tile_1408`, a single detector-sized tile elsewhere.
fn tiling(workload: Workload) -> (usize, TiledDetectorConfig) {
    if workload == Workload::Tile1408 {
        (TILE_FRAME, tile_config())
    } else {
        let config = TiledDetectorConfig {
            overlap: 0,
            ..tile_config()
        };
        (workload.detector_input(), config)
    }
}

impl Stack {
    /// Builds the stack under `core.build` spans (one per detector).
    fn build(workload: Workload, log: &mut SpanLog) -> Stack {
        let build = |log: &mut SpanLog, id: u64| {
            log.time("core.build", None, id, || {
                build_detector(workload, NMS_THRESHOLD).expect("detector builds")
            })
        };
        let detector = build(log, 0);
        let network = build(log, 1).network().clone();
        let (side, config) = tiling(workload);
        let grid =
            TileGrid::new(workload.detector_input(), config.overlap, side, side).expect("grid");
        Stack {
            workload,
            selector: TileSelector::new(config.selector).expect("selector"),
            merger: TileMerger::new(config.merge).expect("merger"),
            tiled: TiledDetector::new(build(log, 2), (side, side), config).expect("tiled detector"),
            grid,
            detector,
            network,
            pool: ActivationPool::default(),
            scratch: (0..CONVS).map(|_| None).collect(),
            limits: HttpLimits::default(),
        }
    }

    /// Replays one frame through every stage. `full` is the workload's
    /// frame as a tensor, `hot` the previous frame's ground truth.
    /// Returns the detector-sized image the request stages ran on.
    fn replay_frame(
        &mut self,
        log: &mut SpanLog,
        id: u64,
        frame: &Frame,
        full: &Tensor,
        hot: &[dronet_metrics::BBox],
        counts: &mut Counts,
    ) -> Image {
        let frame_span = log.begin("replay.frame", None, id);
        let root = Some(frame_span);
        let size = self.workload.detector_input();
        let threshold = self.workload.threshold();

        // tile front end: select, extract into one batch tensor
        let selection = log
            .time("tile.select", root, id, || {
                self.selector.select(&self.grid, full, hot)
            })
            .expect("select");
        counts.selected += selection.tiles.len();
        let tiles = budgeted(&selection, self.grid.len(), TILE_BUDGET, id);
        let n = tiles.len();
        let plane = 3 * size * size;
        let mut batch = Tensor::zeros(Shape::nchw(n, 3, size, size));
        let mut one = Tensor::zeros(Shape::nchw(1, 3, size, size));
        log.time("tile.extract", root, id, || {
            for (slot, &index) in tiles.iter().enumerate() {
                self.grid
                    .extract_into(full, &self.grid.tile(index), &mut one)
                    .expect("extract");
                batch.as_mut_slice()[slot * plane..(slot + 1) * plane]
                    .copy_from_slice(one.as_slice());
            }
        });

        // The detector-sized frame a client would send: the frame itself,
        // or (tile_1408) the first selected tile. Encoding is input prep.
        let unit = if self.workload == Workload::Tile1408 {
            Image::from_tensor(&batch.batch_item(0).expect("a first tile"))
        } else {
            frame.image.clone()
        };
        let body = encode_ppm(&unit);
        let request = detect_request(&body);

        // request pipeline, as `serve` runs it
        let (parsed, _) = log
            .time("serve.http_parse", root, id, || {
                parse_request(&request, &self.limits)
            })
            .expect("own request parses")
            .expect("own request is complete");
        let image = log
            .time("data.ppm_read", root, id, || {
                ppm::read(parsed.body.as_slice())
            })
            .expect("own PPM decodes");
        let tensor = log.time("data.to_tensor", root, id, || image.to_tensor());
        let detections = log
            .time("detect.detect", root, id, || self.detector.detect(&tensor))
            .expect("detect");
        let json = log.time("serve.json", root, id, || detections_json(id, &detections));
        let response = Response::json(json);
        let mut wire = Vec::new();
        log.time("serve.write", root, id, || response.write_to(&mut wire))
            .expect("writing to a Vec cannot fail");
        counts.request_bytes += request.len();
        counts.ppm_bytes += body.len();
        counts.response_bytes += wire.len();

        // tile back end: the driver's own call, then its parts
        log.time("tile.run_tiles", root, id, || {
            self.tiled.run_tiles(full, &tiles, id)
        })
        .expect("run_tiles");
        let per_tile: Vec<Vec<Detection>> = log
            .time("nn.batch", root, id, || self.detector.detect_batch(&batch))
            .expect("detect_batch");
        let per_tile: Vec<(usize, Vec<Detection>)> = tiles.iter().copied().zip(per_tile).collect();
        log.time("tile.merge", root, id, || {
            self.merger.merge(&self.grid, &per_tile)
        });

        // detect, unbundled: forward, decode, NMS
        let region = self.detector.region().clone();
        let output = log
            .time("nn.forward", root, id, || self.network.forward(&batch))
            .expect("forward");
        let candidates: Vec<Vec<Detection>> = log.time("detect.decode", root, id, || {
            (0..n)
                .map(|b| decode(&output, &region, b, threshold).expect("decode"))
                .collect()
        });
        counts.candidates += candidates.iter().map(Vec::len).sum::<usize>();
        let kept: Vec<Vec<Detection>> = log.time("detect.nms", root, id, || {
            candidates
                .into_iter()
                .map(|c| non_max_suppression(c, NMS_THRESHOLD))
                .collect()
        });
        counts.kept += kept.iter().map(Vec::len).sum::<usize>();
        self.network.recycle(output);
        counts.images += n;
        counts.frames += 1;
        counts.tiles_total += self.grid.len();

        // nn, layer by layer through the recycled pool (as
        // `Network::forward` runs them); activations are kept for the
        // tensor replay below
        let chain_span = log.begin("nn.layers", root, id);
        let chain = Some(chain_span);
        let mut acts: Vec<Tensor> = vec![batch];
        let mut conv = 0;
        let pool = &mut self.pool;
        for layer in self.network.layers_mut() {
            let name: std::borrow::Cow<'static, str> = match layer {
                Layer::Conv(_) => {
                    conv += 1;
                    format!("nn.conv{conv}").into()
                }
                Layer::MaxPool(_) => "nn.maxpool".into(),
                Layer::Region(_) => "nn.region".into(),
            };
            let input = acts.last().expect("chain starts with the batch");
            let out = log
                .time(name, chain, id, || layer.forward_pooled(input, pool))
                .expect("layer forward");
            acts.push(out);
        }
        log.end(chain_span);

        // tensor: each conv's geometry through im2col_into + sgemm
        let replay_span = log.begin("tensor.replay", root, id);
        let replay = Some(replay_span);
        let mut conv = 0;
        for (layer, input) in self.network.layers().iter().zip(&acts) {
            let Layer::Conv(c) = layer else { continue };
            let s = input.shape();
            let geom = ConvGeometry {
                channels: c.in_channels(),
                height: s.height(),
                width: s.width(),
                kernel: c.kernel(),
                stride: c.stride(),
                pad: c.pad(),
            };
            let (rows, cols) = (geom.col_rows(), geom.col_cols());
            let (col, out) = self.scratch[conv].get_or_insert_with(|| {
                (
                    Tensor::zeros(Shape::matrix(rows, cols)),
                    Tensor::zeros(Shape::matrix(c.out_channels(), cols)),
                )
            });
            conv += 1;
            for b in 0..n {
                log.time(format!("tensor.conv{conv}.im2col"), replay, id, || {
                    im2col_into(input, b, &geom, col.as_mut_slice())
                })
                .expect("im2col");
                log.time(format!("tensor.conv{conv}.sgemm"), replay, id, || {
                    sgemm(false, false, 1.0, c.weights(), &*col, 0.0, out)
                })
                .expect("sgemm");
            }
            // Sizes are the same on every frame: note them on the first.
            if counts.frames == 1 {
                counts
                    .conv_flops
                    .push(2.0 * (c.out_channels() * rows * cols) as f64);
                counts
                    .conv_bytes
                    .push(4.0 * (input.len() / n + rows * cols) as f64);
                counts.col_bytes.push(4.0 * (rows * cols) as f64);
            }
        }
        log.end(replay_span);
        for t in acts {
            self.pool.give(t.into_vec());
        }
        log.end(frame_span);
        unit
    }
}

/// Counts taken beside the replay's spans.
#[derive(Default)]
struct Counts {
    frames: usize,
    /// Tiles the selector chose, tiles run under the budget (= images
    /// through the detector), tiles in the grid — summed over frames.
    selected: usize,
    images: usize,
    tiles_total: usize,
    candidates: usize,
    kept: usize,
    request_bytes: usize,
    ppm_bytes: usize,
    response_bytes: usize,
    /// Per conv, for one image: FLOPs of the GEMM, bytes im2col reads and
    /// writes, bytes of the column matrix — all computed from tensor sizes.
    conv_flops: Vec<f64>,
    conv_bytes: Vec<f64>,
    col_bytes: Vec<f64>,
}

/// Phase 2. Returns the detector-sized images the request stages used
/// (the serve leg sends the same ones).
fn replay_phase(args: &Args, log: &mut SpanLog, m: &mut Metrics) -> Vec<Image> {
    let first = log.spans().len();
    let workload = args.workload;
    let mut stack = Stack::build(workload, log);

    // The workload's own frames, generated under spans.
    let mut generator = frames(workload, args.seed);
    let ring: Vec<Frame> = (0..workload.ring_len())
        .map(|i| {
            log.time("data.scene_gen", None, i as u64, || generator.next())
                .expect("ring frame")
        })
        .collect();
    let tensors: Vec<Tensor> = ring.iter().map(|f| f.image.to_tensor()).collect();

    let n_frames = if args.smoke { 2 } else { REPLAY_FRAMES };
    let mut counts = Counts::default();
    let mut units = Vec::new();
    for i in 0..n_frames {
        let at = i % ring.len();
        let hot = &ring[(at + ring.len() - 1) % ring.len()].boxes;
        let unit = stack.replay_frame(log, i as u64, &ring[at], &tensors[at], hot, &mut counts);
        units.push(unit);
    }

    let quiet = |name: &str| frame_quiet_ms(log, name, first);
    for (metric, span) in [
        ("serve.http_parse_ms", "serve.http_parse"),
        ("serve.json_ms", "serve.json"),
        ("serve.write_ms", "serve.write"),
        ("data.ppm_read_ms", "data.ppm_read"),
        ("data.to_tensor_ms", "data.to_tensor"),
        ("data.scene_gen_ms", "data.scene_gen"),
        ("core.build_ms", "core.build"),
        ("tile.select_ms", "tile.select"),
        ("tile.extract_ms", "tile.extract"),
        ("tile.run_tiles_ms", "tile.run_tiles"),
        ("tile.merge_ms", "tile.merge"),
        ("detect.detect_ms", "detect.detect"),
        ("detect.decode_ms", "detect.decode"),
        ("detect.nms_ms", "detect.nms"),
        ("nn.forward_ms", "nn.forward"),
        ("nn.maxpool_ms", "nn.maxpool"),
        ("nn.region_ms", "nn.region"),
    ] {
        m.insert(metric.into(), quiet(span));
    }
    let frames_f = counts.frames as f64;
    let images_f = counts.images as f64;
    m.insert(
        "tile.tiles_per_frame".into(),
        counts.selected as f64 / frames_f,
    );
    m.insert(
        "tile.selected_share".into(),
        counts.selected as f64 / counts.tiles_total as f64,
    );
    // The tile budget makes every frame's batch the same size.
    let batch = images_f / frames_f;
    m.insert("tile.ms_per_tile".into(), quiet("tile.run_tiles") / batch);
    m.insert("nn.batch_ms_per_image".into(), quiet("nn.batch") / batch);
    m.insert(
        "detect.candidates_per_image".into(),
        counts.candidates as f64 / images_f,
    );
    m.insert(
        "detect.kept_per_image".into(),
        counts.kept as f64 / images_f,
    );
    m.insert(
        "serve.request_bytes".into(),
        counts.request_bytes as f64 / frames_f,
    );
    m.insert(
        "serve.response_bytes".into(),
        counts.response_bytes as f64 / frames_f,
    );
    m.insert("data.ppm_bytes".into(), counts.ppm_bytes as f64 / frames_f);

    // Per conv, per replay frame (a batch of 5 images on tile_1408, one
    // image elsewhere); the rates are work over those same quiet times.
    let (mut conv_sum, mut im2col_sum, mut sgemm_sum) = (0.0, 0.0, 0.0);
    for k in 1..=CONVS {
        let conv_ms = quiet(&format!("nn.conv{k}"));
        let im2col_ms = quiet(&format!("tensor.conv{k}.im2col"));
        let sgemm_ms = quiet(&format!("tensor.conv{k}.sgemm"));
        m.insert(format!("nn.conv{k}_ms"), conv_ms);
        m.insert(format!("tensor.conv{k}.im2col_ms"), im2col_ms);
        m.insert(format!("tensor.conv{k}.sgemm_ms"), sgemm_ms);
        m.insert(
            format!("tensor.conv{k}.gflops"),
            counts.conv_flops[k - 1] * batch / (sgemm_ms * 1e6),
        );
        conv_sum += conv_ms;
        im2col_sum += im2col_ms;
        sgemm_sum += sgemm_ms;
    }
    let flops: f64 = counts.conv_flops.iter().sum();
    let bytes: f64 = counts.conv_bytes.iter().sum();
    m.insert("tensor.im2col_ms".into(), im2col_sum);
    m.insert("tensor.sgemm_ms".into(), sgemm_sum);
    m.insert("nn.epilogue_ms".into(), conv_sum - im2col_sum - sgemm_sum);
    m.insert(
        "tensor.sgemm_gflops".into(),
        flops * batch / (sgemm_sum * 1e6),
    );
    m.insert(
        "tensor.im2col_gbps".into(),
        bytes * batch / (im2col_sum * 1e6),
    );
    m.insert("tensor.flops_per_image".into(), flops);
    m.insert(
        "tensor.col_bytes_per_image".into(),
        counts.col_bytes.iter().sum(),
    );
    m.insert(
        "tensor.worker_count".into(),
        dronet_tensor::parallel::worker_count() as f64,
    );
    units
}

// ------------------------------------------------------- obs + serve leg

/// `obs.detect_overhead_share`: the same detector with a live registry and
/// tracer attached against one without, alternating frame by frame.
fn obs_overhead(args: &Args, units: &[Image], m: &mut Metrics) {
    let workload = args.workload;
    let mut plain = build_detector(workload, NMS_THRESHOLD).expect("detector builds");
    let network = plain.network().clone();
    let mut observed = DetectorBuilder::new(network)
        .confidence_threshold(workload.threshold())
        .nms_threshold(NMS_THRESHOLD)
        .observability(&Registry::new())
        .tracing(&Tracer::new())
        .build()
        .expect("observed detector builds");
    let tensors: Vec<Tensor> = units.iter().map(Image::to_tensor).collect();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let rounds = if args.smoke { 4 } else { OBS_ROUNDS };
    for round in 0..rounds + 2 {
        let frame = &tensors[round % tensors.len()];
        let t = Instant::now();
        plain.detect(frame).expect("detect");
        let a = t.elapsed().as_secs_f64();
        let t = Instant::now();
        observed.detect(frame).expect("detect");
        let b = t.elapsed().as_secs_f64();
        if round >= 2 {
            off.push(a);
            on.push(b);
        }
    }
    m.insert(
        "obs.detect_overhead_share".into(),
        stats::quiet(on) / stats::quiet(off) - 1.0,
    );
}

/// The server-side metrics, from the request spans after `first` and the
/// registry that was handed to `Server::start`.
fn serve_metrics(log: &SpanLog, first: usize, registry: &Registry, m: &mut Metrics) {
    let requests: Vec<f64> = log.spans()[first..]
        .iter()
        .filter(|s| s.name == "serve.request")
        .map(|s| s.duration_ms())
        .collect();
    m.insert("serve.request_ms_p5".into(), stats::quiet(requests));
    let snapshot = registry.snapshot();
    let batch = snapshot
        .histogram("serve.batch_size")
        .expect("server records batch sizes");
    // Batch sizes are recorded as that many nanoseconds.
    m.insert(
        "serve.batch_size_mean".into(),
        batch.sum_ns as f64 / batch.count as f64,
    );
    let wait = snapshot
        .histogram("serve.queue_wait")
        .expect("server records queue waits");
    m.insert(
        "serve.queue_wait_ms_p50".into(),
        wait.quantile_ns(0.5) as f64 / 1e6,
    );
}

/// Phase 3, on workloads that do not serve themselves.
fn serve_leg(args: &Args, units: &[Image], log: &mut SpanLog, m: &mut Metrics) {
    let first = log.spans().len();
    let mut serve = Serve::start(args.workload, units, args.seed, 2);
    let requests = if args.smoke { 4 } else { SERVE_LEG_REQUESTS };
    let window = serve.run_requests(requests, Some(log));
    assert!(
        window
            .iter()
            .all(|op| op.output.as_ref().is_ok_and(|r| r.status == 200)),
        "serve leg: every request answers 200"
    );
    assert_eq!(window.len(), requests * CLIENTS);
    let registry = serve
        .registry()
        .expect("a serve set-up has a registry")
        .clone();
    serve_metrics(log, first, &registry, m);
    serve.finish();
}

// ------------------------------------------------------------------ main

/// Self time by span name, largest first: the waterfall a reader opens the
/// Chrome trace to see, as text.
fn print_self_times(log: &SpanLog) {
    let mut by_name: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    for (i, s) in log.spans().iter().enumerate() {
        let entry = by_name.entry(s.name.as_ref()).or_default();
        entry.0 += log.self_time_ns(i);
        entry.1 += 1;
    }
    let mut rows: Vec<(&str, (u64, usize))> = by_name.into_iter().collect();
    rows.sort_by_key(|(_, (ns, _))| std::cmp::Reverse(*ns));
    println!("self time by span (span minus its children), whole traced run:");
    for (name, (ns, count)) in rows.iter().take(24) {
        println!(
            "  {name:<28} {:>10.3} ms over {count} spans",
            *ns as f64 / 1e6
        );
    }
}

fn trace<R: Runner>(args: &Args) {
    let mut log = SpanLog::new(Instant::now(), 0);
    let mut m = Metrics::new();

    let mut runner = R::setup(args.workload, args.seed);
    let (attempted, failed) = window_phase(args, &mut runner, &mut log, &mut m);
    let served = runner.registry().cloned();
    if let Some(registry) = &served {
        serve_metrics(&log, 0, registry, &mut m);
    }
    runner.finish();

    let units = replay_phase(args, &mut log, &mut m);
    obs_overhead(args, &units, &mut m);
    if served.is_none() {
        serve_leg(args, &units, &mut log, &mut m);
    }
    // What a round trip costs beyond the stages timed directly: socket
    // I/O, queue and batch wait, thread hand-offs, kernel TCP timers.
    let staged: f64 = [
        "serve.http_parse_ms",
        "data.ppm_read_ms",
        "data.to_tensor_ms",
        "detect.detect_ms",
        "serve.json_ms",
        "serve.write_ms",
    ]
    .iter()
    .map(|k| m[*k])
    .sum();
    m.insert(
        "serve.residual_ms".into(),
        m["serve.request_ms_p5"] - staged,
    );

    let (golden_frames, golden_failed) = workload::check_golden(args.workload);

    let dir = format!("{}/out", env!("CARGO_MANIFEST_DIR"));
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    let path = format!("{dir}/{}.trace.json", args.workload.name());
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).expect("trace file"));
    log.write_chrome(&mut file).expect("write trace");
    std::io::Write::flush(&mut file).expect("flush trace");
    println!("wrote {path} ({} spans)", log.spans().len());
    print_self_times(&log);

    report::print_result(
        &report::per_layer(),
        &m,
        attempted + golden_frames,
        failed + golden_failed,
    );
}

fn main() {
    // The program under test runs its default thread policy.
    std::env::remove_var("DRONET_THREADS");
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-trace: {e}");
            std::process::exit(2);
        }
    };
    match args.workload {
        Workload::Stream352 => trace::<Stream>(&args),
        Workload::Tile1408 => trace::<Tiled>(&args),
        Workload::Serve352 | Workload::Serve64 => trace::<Serve>(&args),
    }
}
