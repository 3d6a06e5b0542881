//! UAV patrol: the paper's Fig. 5 deployment scenario, end to end — a
//! simulated DJI-class flight over a road corridor, frame-by-frame
//! detection through the supervised frame loop, altitude-based size gating
//! (paper §III-D) and IoU tracking for the road-traffic-monitoring use
//! case that motivates the paper.
//!
//! Trains a MicroDroNet first (~1-2 minutes in release mode), then flies.
//!
//! ```text
//! cargo run --release --example uav_patrol
//! ```

use dronet::core::zoo;
use dronet::data::dataset::VehicleDataset;
use dronet::data::flight::{FlightSimulator, Waypoint, World, WorldConfig, WORLD_SIZE_M};
use dronet::data::scene::SceneConfig;
use dronet::detect::altitude::{AltitudeFilter, CameraModel};
use dronet::detect::track::{Tracker, TrackerConfig};
use dronet::detect::{DetectStage, DetectorBuilder, IterSource, Supervisor, SupervisorConfig};
use dronet::eval::realeval::estimate_anchors;
use dronet::metrics::matching::match_detections;
use dronet::metrics::BBox;
use dronet::train::{LrSchedule, TrainConfig, Trainer, YoloLossConfig};

const INPUT: usize = 64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Train the on-board detector on synthetic aerial scenes. ---
    let config = SceneConfig {
        width: INPUT,
        height: INPUT,
        min_vehicles: 2,
        max_vehicles: 6,
        vehicle_len_frac: (0.12, 0.22),
        occlusion_prob: 0.05,
        ..SceneConfig::default()
    };
    // The paper mixes satellite crops, web images and UAV footage; we mix
    // generator scenes with frames from a *training* flight over a
    // different world, so the detector sees the deployment domain.
    let mut scenes = VehicleDataset::generate(config, 70, 1.0, 42)
        .scenes()
        .to_vec();
    let training_world = World::generate(WorldConfig::default(), 77);
    let training_flight = FlightSimulator::new(
        training_world,
        vec![
            Waypoint {
                x: 30.0,
                y: 190.0,
                altitude_m: 23.0,
            },
            Waypoint {
                x: 370.0,
                y: 210.0,
                altitude_m: 28.0,
            },
        ],
        10.0,
        2.0,
        INPUT,
    );
    scenes.extend(training_flight.map(|f| f.into_scene()));
    let dataset = VehicleDataset::from_scenes(scenes, 0.94);
    println!(
        "training corpus: {} scenes/frames, {} vehicles",
        dataset.scenes().len(),
        dataset.total_vehicles()
    );
    let anchors = estimate_anchors(dataset.train(), INPUT / 8, 3);
    let mut net = zoo::micro_dronet_with_width(INPUT, anchors, 2)?;
    println!(
        "training the on-board detector ({} params)...",
        net.param_count()
    );
    Trainer::new(TrainConfig {
        epochs: 70,
        batch_size: 8,
        schedule: LrSchedule::Steps {
            lr: 1.2e-3,
            steps: vec![(600, 0.3)],
        },
        loss: YoloLossConfig { coord_scale: 2.5 },
        augment: false,
        seed: 1,
        ..TrainConfig::default()
    })
    .train(&mut net, &dataset)?;

    // --- 2. Plan the flight over a persistent world. ---
    let world = World::generate(WorldConfig::default(), 11);
    println!(
        "world: {} vehicles over {:.0}x{:.0} m",
        world.vehicles().len(),
        WORLD_SIZE_M,
        WORLD_SIZE_M
    );
    // Altitude chosen so ground sampling puts vehicles at the scale the
    // detector was trained on (~10 px at 64-px frames): footprint =
    // 2*25*tan(30 deg) = 28.9 m -> a 4.5 m car spans ~10 px.
    let altitude = 25.0;
    let flight = FlightSimulator::new(
        world,
        vec![
            Waypoint {
                x: 30.0,
                y: 200.0,
                altitude_m: altitude,
            },
            Waypoint {
                x: 370.0,
                y: 200.0,
                altitude_m: altitude,
            },
        ],
        12.0, // m/s ground speed
        3.0,  // camera FPS
        INPUT,
    );
    println!(
        "flight plan: {} frames along the road corridor",
        flight.total_frames()
    );

    // --- 3. Detector with altitude gating (paper section III-D). ---
    let camera = CameraModel::new(60f32.to_radians(), INPUT);
    let filter = AltitudeFilter::new(camera, altitude, (3.5, 5.5), 0.45)?;
    let mut factory = || -> dronet::detect::Result<Box<dyn DetectStage>> {
        let detector = DetectorBuilder::new(net.clone())
            .confidence_threshold(0.4)
            .nms_threshold(0.45)
            .altitude_filter(filter)
            .build()?;
        Ok(Box::new(detector))
    };

    // --- 4. Fly: supervised frame loop + tracking + live accuracy
    // accounting. A frame the supervisor skips has no result row, so rows
    // are matched to ground truth by arrival index, and a skipped frame's
    // vehicles count as misses. ---
    let mut tracker = Tracker::new(TrackerConfig::default());
    let frames: Vec<_> = flight.collect();
    let tensors: Vec<_> = frames.iter().map(|f| f.image.to_tensor()).collect();
    let supervisor = Supervisor::new(SupervisorConfig::default());
    let report = supervisor.run_sync(IterSource::new(tensors), &mut factory, None)?;

    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fn_ = 0usize;
    for result in &report.frames {
        let frame = &frames[result.frame_index];
        let dets: Vec<(BBox, f32)> = result
            .detections
            .iter()
            .map(|d| (d.bbox, d.score()))
            .collect();
        let gt: Vec<BBox> = frame.annotations.iter().map(|a| a.bbox).collect();
        let m = match_detections(&dets, &gt, 0.5);
        tp += m.true_positives;
        fp += m.false_positives;
        fn_ += m.false_negatives;
        tracker.update(&result.detections);
    }
    for &id in &report.skipped_ids {
        fn_ += frames[id as usize].annotations.len();
    }

    println!("\npatrol results:");
    println!("  frames processed      {}", report.processed());
    println!(
        "  mean latency          {:.1} ms",
        report.mean_latency().as_secs_f64() * 1e3
    );
    println!(
        "  sustained rate        {:.1} FPS (host hardware)",
        report.fps().0
    );
    println!(
        "  frames a 3-FPS camera would drop: {}",
        report.estimated_drops_at(3.0)
    );
    let sens = tp as f32 / (tp + fn_).max(1) as f32;
    let prec = tp as f32 / (tp + fp).max(1) as f32;
    println!("  in-flight sensitivity {sens:.3}");
    println!("  in-flight precision   {prec:.3}");
    println!(
        "  unique vehicles counted by the tracker: {}",
        tracker.total_count()
    );

    // --- 5. Project the same workload onto the paper's platforms. ---
    use dronet::platform::{Platform, PlatformId};
    let full = zoo::build(dronet::core::ModelId::DroNet, 512)?;
    println!("\nfull DroNet-512 projected on the paper's platforms:");
    for id in PlatformId::EVALUATION {
        let p = Platform::preset(id).project(&full);
        println!("  {:16} {:>6.2} FPS", id.name(), p.fps.0);
    }
    Ok(())
}
