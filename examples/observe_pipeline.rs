//! Observability tour: run an instrumented DroNet detection pipeline and a
//! short training run, print the per-layer achieved-GFLOP/s breakdown, and
//! dump the whole telemetry snapshot as JSON and the flight recorder as a
//! Chrome/Perfetto trace (`trace.json`).
//!
//! ```text
//! cargo run --release --example observe_pipeline [profile.json [trace.json]]
//! ```
//!
//! Open the trace in <https://ui.perfetto.dev> (or `chrome://tracing`):
//! each frame id shows camera.frame → frame → detect.forward → per-layer
//! spans nested on their thread's track.

use dronet::core::{zoo, ModelId};
use dronet::data::dataset::VehicleDataset;
use dronet::data::scene::{SceneConfig, SceneGenerator};
use dronet::detect::{DetectStage, DetectorBuilder, IterSource, Supervisor, SupervisorConfig};
use dronet::nn::profile::NetworkProfile;
use dronet::nn::summary::NetworkSummary;
use dronet::obs::{ChromeTrace, Registry, Tracer};
use dronet::train::{LrSchedule, TrainConfig, Trainer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let obs = Registry::new();
    let tracer = Tracer::new();
    let input = 352;

    // 1. An observed, traced detector: per-layer network timings plus the
    //    forward/decode/NMS stage histograms, and a flight-recorder span
    //    for every stage under the current frame id.
    let net = zoo::build(ModelId::DroNet, input)?;
    let summary = NetworkSummary::of("DroNet-352", &net);
    let mut factory = |_: usize| -> dronet::detect::Result<Box<dyn DetectStage>> {
        let detector = DetectorBuilder::new(net.clone())
            .observability(&obs)
            .tracing(&tracer)
            .build()?;
        Ok(Box::new(detector))
    };

    // 2. Stream synthetic camera frames through both supervisor modes; the
    //    loop records camera, queue and per-frame telemetry into the same
    //    registry and tracer.
    let supervisor = Supervisor::new(SupervisorConfig {
        initial_input: input,
        ..SupervisorConfig::default()
    })
    .observability(&obs)
    .tracing(&tracer);
    let frames: Vec<_> = (0..6)
        .map(|i| {
            SceneGenerator::new(SceneConfig::default(), 100 + i)
                .generate()
                .image
                .resize(input, input)
                .to_tensor()
        })
        .collect();
    let report = supervisor.run_sync(IterSource::new(frames.clone()), &mut factory, None)?;
    println!(
        "synchronous pipeline: {} frames at {} ({:.1} ms mean)",
        report.processed(),
        report.fps(),
        report.mean_latency().as_secs_f64() * 1e3
    );
    let report = supervisor.run(IterSource::new(frames), &mut factory, None)?;
    println!(
        "threaded pipeline:    {} processed, {} dropped (ids {:?}, single-slot camera buffer)",
        report.processed(),
        report.dropped(),
        report.dropped_ids
    );

    // 3. Where do the milliseconds go? Join the recorded timings with the
    //    static FLOP accounting into the per-layer breakdown.
    let profile = NetworkProfile::new(&summary, &obs.snapshot());
    println!("\n{profile}");
    if let Some(&hottest) = profile.hotspots().first() {
        let row = &profile.rows[hottest];
        println!(
            "hottest layer: #{} ({}) at {:.1}% of the mean forward pass\n",
            row.index,
            row.kind.as_str(),
            row.forward_mean.as_secs_f64() / profile.forward_total.map_or(1.0, |t| t.as_secs_f64())
                * 100.0
        );
    }

    // 4. A short observed training run on a micro model (full DroNet
    //    training is a multi-hour job; the telemetry shape is identical).
    let mut micro = zoo::micro_dronet(48, vec![(0.8, 0.8), (2.0, 2.0)])?;
    let dataset = VehicleDataset::generate(
        SceneConfig {
            width: 48,
            height: 48,
            ..SceneConfig::default()
        },
        12,
        0.75,
        7,
    );
    let train_report = Trainer::new(TrainConfig {
        epochs: 2,
        batch_size: 4,
        augment: false,
        schedule: LrSchedule::Constant { lr: 2e-3 },
        ..TrainConfig::default()
    })
    .with_observability(&obs)
    .train(&mut micro, &dataset)?;
    println!(
        "observed training: {} steps, losses {:?}",
        train_report.batches, train_report.epoch_losses
    );

    // 5. Export everything.
    let snapshot = obs.snapshot();
    let json_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "observe_pipeline.profile.json".to_string());
    std::fs::write(&json_path, snapshot.to_json())?;
    println!(
        "\nwrote {} ({} counters, {} gauges, {} histograms)",
        json_path,
        snapshot.counters.len(),
        snapshot.gauges.len(),
        snapshot.histograms.len()
    );

    // 6. Flight recorder: Chrome/Perfetto trace of both pipeline runs
    //    (camera instants + nested frame → stage → layer spans per frame
    //    id) and a plain-text timeline tail for the terminal.
    let trace = tracer.snapshot();
    let trace_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "trace.json".to_string());
    std::fs::write(&trace_path, ChromeTrace::to_string(&trace))?;
    println!(
        "wrote {} ({} events, {} overwritten) — open in https://ui.perfetto.dev",
        trace_path,
        trace.events.len(),
        trace.dropped
    );
    let text = dronet::obs::TraceSnapshot {
        events: trace.tail(12).to_vec(),
        dropped: 0,
        thread_names: Vec::new(),
    }
    .to_text();
    println!("last 12 flight-recorder events:\n{text}");
    Ok(())
}
