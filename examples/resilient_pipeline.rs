//! Fault-tolerance tour: run the self-healing supervised pipeline through
//! a seeded chaos scenario — camera stalls, corrupt and NaN-poisoned
//! frames, transient detector errors, latency spikes and outright detector
//! panics — and watch it skip, retry, restart and degrade resolution
//! instead of dying.
//!
//! ```text
//! cargo run --release --example resilient_pipeline [seed]
//! ```

use dronet::core::zoo;
use dronet::data::scene::{SceneConfig, SceneGenerator};
use dronet::detect::supervisor::{Supervisor, SupervisorConfig};
use dronet::detect::{
    DegradeConfig, DegradeController, DetectStage, DetectorBuilder, FaultConfig, FaultPlan,
    FaultyDetector, FaultyFrameSource, IterSource,
};
use dronet::obs::Registry;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(42);

    // A chaos plan over 40 frames: every fault class enabled.
    let n = 40;
    let config = FaultConfig {
        stall_prob: 0.05,
        corrupt_prob: 0.08,
        nan_prob: 0.08,
        transient_prob: 0.08,
        slow_prob: 0.08,
        panic_prob: 0.04,
        stall: Duration::from_millis(10),
        slow: Duration::from_millis(30),
    };
    let plan = FaultPlan::generate(seed, n, &config);
    println!(
        "chaos plan (seed {seed}): {} faults over {n} frames",
        plan.injected()
    );

    // Synthetic camera frames at the degradation ladder's smallest rung.
    let input = 64;
    let frames: Vec<_> = (0..n)
        .map(|i| {
            SceneGenerator::new(SceneConfig::default(), 300 + i as u64)
                .generate()
                .image
                .resize(input, input)
                .to_tensor()
        })
        .collect();

    // Degradation ladder for MicroDroNet (multiples of 8 so the 3 maxpools
    // divide cleanly); the full-size zoo would use
    // `zoo::resolution_ladder()` (352..608) the same way.
    let ladder = vec![32, 48, 64];
    println!(
        "resolution ladder {ladder:?} (paper ladder: {:?})",
        zoo::resolution_ladder()
    );
    let controller = DegradeController::new(DegradeConfig {
        overload_windows: 1,
        calm_windows: 2,
        window_frames: 4,
        ..DegradeConfig::over_ladder(ladder)
    })?;

    // The stage factory: called at startup, after every crash or hang, and
    // at every resolution shift. The shared call counter keeps the fault
    // schedule marching forward across restarts.
    let calls = Arc::new(AtomicUsize::new(0));
    let stage_plan = plan.clone();
    let mut factory = move |size: usize| {
        println!("  [factory] building MicroDroNet at {size}x{size}");
        let net = zoo::micro_dronet(size, vec![(1.5, 1.5)])?;
        let detector = DetectorBuilder::new(net).build()?;
        let stage: Box<dyn DetectStage> = Box::new(FaultyDetector::with_counter(
            detector,
            stage_plan.clone(),
            Arc::clone(&calls),
        ));
        Ok(stage)
    };

    let obs = Registry::new();
    let supervisor = Supervisor::new(SupervisorConfig {
        source_timeout: Duration::from_millis(250),
        stage_timeout: Duration::from_millis(500),
        camera_fps: Some(30.0),
        recovery_frames: 4,
        initial_input: input,
        ..SupervisorConfig::default()
    })
    .observability(&obs);

    let source = FaultyFrameSource::new(IterSource::new(frames), plan);
    let report = supervisor.run_sync(source, &mut factory, Some(controller))?;

    println!("\n--- fault ledger ---");
    for fault in &report.faults {
        match fault.frame_index {
            Some(i) => println!("frame {i:>3} [{}] {}", fault.stage, fault.description),
            None => println!("      -- [{}] {}", fault.stage, fault.description),
        }
    }

    println!("\n--- supervised run report ---");
    println!("processed   : {}", report.processed());
    println!(
        "skipped     : {} (frame ids {:?})",
        report.skipped(),
        report.skipped_ids
    );
    println!("retries     : {}", report.retries);
    println!("restarts    : {}", report.restarts);
    println!("stalls      : {}", report.stalls);
    println!(
        "resolution  : {:?} ({} down / {} up)",
        report.resolution_history,
        report.downshifts(),
        report.upshifts()
    );
    println!("final health: {:?}", report.final_health);

    let snap = obs.snapshot();
    println!("\n--- telemetry ---");
    for name in [
        "supervisor.faults",
        "supervisor.retries",
        "supervisor.restarts",
        "supervisor.skipped",
        "pipeline.frames",
    ] {
        println!("{name:<20} {}", snap.counter(name).unwrap_or(0));
    }
    println!(
        "supervisor.health    {} (0 Healthy / 1 Degraded / 2 Halted)",
        snap.gauge("supervisor.health").unwrap_or(-1.0)
    );
    println!(
        "detect.input_size    {}",
        snap.gauge("detect.input_size").unwrap_or(-1.0)
    );
    Ok(())
}
