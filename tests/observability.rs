//! Cross-crate observability integration: one registry threaded through
//! detector, pipeline and trainer must yield a self-consistent, exportable
//! profile — and instrumentation must not slow the network down.

use dronet::core::{zoo, ModelId};
use dronet::data::dataset::VehicleDataset;
use dronet::data::scene::SceneConfig;
use dronet::detect::{DetectStage, DetectorBuilder, IterSource, Result};
use dronet::detect::{Supervisor, SupervisorConfig, SupervisorReport};
use dronet::nn::profile::{forward_metric_name, NetworkProfile};
use dronet::nn::summary::NetworkSummary;
use dronet::obs::{ChromeTrace, Registry, Snapshot, TraceKind, Tracer};
use dronet::tensor::{Shape, Tensor};
use dronet::train::{LrSchedule, TrainConfig, Trainer};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// The tests in this binary run one at a time: a forward running beside
/// an overhead measurement takes a core from one side of it at random, and
/// on a two-core machine that swamps a 2 % bound.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `frames` through the supervisor's synchronous loop over a detector
/// on `net`, with `obs` and `tracer` on both the detector and the loop.
fn observed_run(
    net: dronet::nn::Network,
    frames: Vec<Tensor>,
    obs: &Registry,
    tracer: &Tracer,
) -> SupervisorReport {
    let mut factory = || -> Result<Box<dyn DetectStage>> {
        let detector = DetectorBuilder::new(net.clone())
            .observability(obs)
            .tracing(tracer)
            .build()?;
        Ok(Box::new(detector))
    };
    Supervisor::new(SupervisorConfig::default())
        .observability(obs)
        .tracing(tracer)
        .run_sync(IterSource::new(frames), &mut factory, None)
        .unwrap()
}

/// Detector + pipeline + trainer all recording into one registry, exported
/// to JSON and re-parsed: every expected metric family must be present.
#[test]
fn full_stack_profile_round_trips_through_json() {
    let _serial = serial();
    let obs = Registry::new();

    // Observed detection pipeline over a small DroNet.
    let net = zoo::build(ModelId::DroNet, 96).unwrap();
    let summary = NetworkSummary::of("DroNet-96", &net);
    let frames: Vec<_> = (0..3)
        .map(|_| Tensor::zeros(Shape::nchw(1, 3, 96, 96)))
        .collect();
    let report = observed_run(net, frames, &obs, &Tracer::noop());
    assert_eq!(report.processed(), 3);

    // Observed training on a micro model.
    let mut micro = zoo::micro_dronet(48, vec![(0.8, 0.8), (2.0, 2.0)]).unwrap();
    let dataset = VehicleDataset::generate(
        SceneConfig {
            width: 48,
            height: 48,
            ..SceneConfig::default()
        },
        8,
        0.75,
        7,
    );
    let train_report = Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: 4,
        augment: false,
        schedule: LrSchedule::Constant { lr: 1e-3 },
        ..TrainConfig::default()
    })
    .with_observability(&obs)
    .train(&mut micro, &dataset)
    .unwrap();

    let snap = obs.snapshot();
    let json = snap.to_json();

    // One forward histogram per DroNet layer, by exact metric name.
    for row in &summary.rows {
        let name = forward_metric_name(row.index, row.kind);
        let hist = snap
            .histogram(&name)
            .unwrap_or_else(|| panic!("missing per-layer histogram {name}"));
        assert_eq!(hist.count, 3, "{name} should time every frame");
        assert!(json.contains(&name), "{name} absent from JSON export");
    }

    // Pipeline stage histograms with sane percentiles.
    for stage in [
        "pipeline.preprocess",
        "pipeline.frame",
        "detect.forward",
        "detect.decode",
        "detect.nms",
    ] {
        let hist = snap
            .histogram(stage)
            .unwrap_or_else(|| panic!("missing stage histogram {stage}"));
        assert_eq!(hist.count, 3, "stage {stage}");
        let (p50, p99) = (hist.quantile_ns(0.5), hist.quantile_ns(0.99));
        assert!(p50 > 0 && p50 <= p99, "stage {stage}");
        assert!(p99 <= hist.max_ns, "stage {stage}");
    }

    // Training step metrics.
    assert_eq!(
        snap.counter("train.steps"),
        Some(train_report.batches as u64)
    );
    assert_eq!(
        snap.counter("train.images"),
        Some(train_report.images_seen as u64)
    );
    assert_eq!(
        snap.histogram("train.step").unwrap().count,
        train_report.batches as u64
    );
    assert!(snap.gauge("train.loss").unwrap() > 0.0);
    assert!(snap.gauge("train.lr").unwrap() > 0.0);
    assert!(snap.gauge("train.grad_norm").unwrap() >= 0.0);

    // The JSON export parses back to the identical snapshot.
    assert_eq!(Snapshot::from_json(&json).unwrap(), snap);

    // And the joined profile covers every layer with real timings.
    let profile = NetworkProfile::new(&summary, &snap);
    assert!(profile.rows.iter().all(|r| r.samples == 3));
    assert!(profile.achieved_gflops().unwrap() > 0.0);
}

/// Blocks of four runs behind each overhead measurement.
const OVERHEAD_BLOCKS: usize = 101;

/// The overhead bar: the observed side may take at most 2 % longer.
const MAX_TIME_RATIO: f64 = 1.02;

/// Wall time of `f`, seconds.
fn seconds(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Median over [`OVERHEAD_BLOCKS`] blocks of four back-to-back runs of the
/// time ratio of the side under test to the base. `timed(side)` prepares
/// one side (`true`: under test) and returns the seconds its run took.
///
/// A block runs base, side, side, base: each side runs once first and
/// once second, so a cost that falls on whichever runs first cancels
/// inside the block; a drift in machine speed lands on both sides of a
/// block; and the median drops the blocks a preemption split. The callers
/// time both sides on one network, so neither side keeps a luckier
/// placement of its buffers in memory for the whole measurement.
fn median_time_ratio(mut timed: impl FnMut(bool) -> f64) -> f64 {
    let mut ratios: Vec<f64> = (0..OVERHEAD_BLOCKS)
        .map(|_| {
            let base = timed(false);
            let side = timed(true) + timed(true);
            side / (base + timed(false))
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[OVERHEAD_BLOCKS / 2]
}

/// The overhead verdict: the median of three [`median_time_ratio`]
/// measurements, taking the third only when the first two fall on opposite
/// sides of [`MAX_TIME_RATIO`]. Load from outside the process comes in
/// bursts that can skew one measurement either way, rarely two.
fn overhead_ratio(mut timed: impl FnMut(bool) -> f64) -> f64 {
    let mut ratios = vec![median_time_ratio(&mut timed), median_time_ratio(&mut timed)];
    if (ratios[0] <= MAX_TIME_RATIO) != (ratios[1] <= MAX_TIME_RATIO) {
        ratios.push(median_time_ratio(&mut timed));
    }
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// The acceptance bar from the issue: observing a DroNet 352x352 forward
/// pass must cost < 2% over the uninstrumented network, judged on the
/// median of many interleaved single-forward blocks.
#[test]
fn instrumented_forward_overhead_under_two_percent() {
    let _serial = serial();
    let x = Tensor::zeros(Shape::nchw(1, 3, 352, 352));
    let mut net = zoo::build(ModelId::DroNet, 352).unwrap();
    let (plain, obs) = (Registry::noop(), Registry::new());

    // Warm caches and the allocator.
    net.forward(&x).unwrap();

    let ratio = overhead_ratio(|observed| {
        net.set_observability(if observed { &obs } else { &plain });
        seconds(|| drop(net.forward(&x).unwrap()))
    });
    assert!(
        ratio <= MAX_TIME_RATIO,
        "instrumented forward takes {ratio:.4}x the uninstrumented one"
    );
    assert!(obs.snapshot().histogram("nn.forward.total").unwrap().count > 0);
}

/// Same bar for the flight recorder's disabled path: a network carrying a
/// noop [`Tracer`] (one branch per would-be event) must stay within 2% of
/// one that never heard of tracing.
#[test]
fn disabled_tracer_overhead_under_two_percent() {
    let _serial = serial();
    let x = Tensor::zeros(Shape::nchw(1, 3, 352, 352));
    let mut net = zoo::build(ModelId::DroNet, 352).unwrap();
    let (plain, noop) = (net.tracing().clone(), Tracer::noop());

    net.forward(&x).unwrap();

    let ratio = overhead_ratio(|traced| {
        net.set_tracing(if traced { &noop } else { &plain });
        seconds(|| drop(net.forward(&x).unwrap()))
    });
    assert!(
        ratio <= MAX_TIME_RATIO,
        "noop-traced forward takes {ratio:.4}x the untraced one"
    );
}

/// The overhead check itself rejects a side doing 5 % more work than its
/// base.
#[test]
fn overhead_check_rejects_five_percent_more_work() {
    let _serial = serial();
    fn spin(rounds: u64) {
        let mut acc = 0u64;
        for i in 0..std::hint::black_box(rounds) {
            acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(acc);
    }
    const ROUNDS: u64 = 1_000_000;
    let more =
        overhead_ratio(|more| seconds(|| spin(if more { ROUNDS * 105 / 100 } else { ROUNDS })));
    assert!(more > MAX_TIME_RATIO, "5% more work judged {more:.4}x");
}

/// End-to-end flight recording: a traced pipeline run yields a Chrome
/// trace whose events nest camera → frame → stage → layer under each
/// frame id, and the export round-trips through the in-tree parser.
#[test]
fn traced_pipeline_chrome_trace_round_trips() {
    let _serial = serial();
    let obs = Registry::new();
    let tracer = Tracer::new();
    let frames: Vec<_> = (0..3)
        .map(|_| Tensor::zeros(Shape::nchw(1, 3, 96, 96)))
        .collect();
    let net = zoo::build(ModelId::DroNet, 96).unwrap();
    let report = observed_run(net, frames, &obs, &tracer);
    assert_eq!(report.processed(), 3);
    assert!(report
        .frames
        .iter()
        .all(|f| f.frame_id == f.frame_index as u64));

    let snap = tracer.snapshot();
    assert_eq!(snap.dropped, 0, "3 small frames fit the default ring");
    for frame_id in 0..3u64 {
        let events = snap.for_frame(frame_id);
        let instants = events
            .iter()
            .filter(|e| e.kind == TraceKind::Instant && e.name == "camera.frame")
            .count();
        assert_eq!(instants, 1, "frame {frame_id} acquisition instant");
        for name in ["frame", "detect.forward", "nn.forward", "conv"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.kind == TraceKind::End && e.name == name),
                "frame {frame_id} missing {name} span"
            );
        }
        // Nesting: the frame span brackets the detector stages.
        let frame_end = events
            .iter()
            .find(|e| e.kind == TraceKind::End && e.name == "frame")
            .unwrap();
        let forward_end = events
            .iter()
            .find(|e| e.kind == TraceKind::End && e.name == "detect.forward")
            .unwrap();
        assert!(frame_end.start_ns() <= forward_end.start_ns());
        assert!(frame_end.ts_ns >= forward_end.ts_ns);
    }

    // Chrome export parses back with one X event per closed span and one
    // i event per instant, frame ids preserved.
    let text = ChromeTrace::to_string(&snap);
    let events = ChromeTrace::parse(&text).unwrap();
    let ends = snap
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::End)
        .count();
    assert_eq!(events.iter().filter(|e| e.ph == 'X').count(), ends);
    assert_eq!(events.iter().filter(|e| e.ph == 'i').count(), 3);
    assert!(events.iter().all(|e| e.frame_id.is_some()));
}
