//! Integration of the deployment-side components: flight simulation,
//! video pipeline, altitude gating and tracking — the plumbing of the
//! paper's Fig. 5 scenario, verified without the cost of training.

use dronet::core::zoo;
use dronet::data::flight::{Camera, FlightSimulator, Waypoint, World, WorldConfig};
use dronet::detect::altitude::{AltitudeFilter, CameraModel};
use dronet::detect::track::{Tracker, TrackerConfig};
use dronet::detect::{DetectStage, Detection, DetectorBuilder, IterSource, Result};
use dronet::detect::{Supervisor, SupervisorConfig, SupervisorReport};
use dronet::metrics::matching::{match_detections, MatchResult};
use dronet::metrics::BBox;
use dronet::nn::Network;
use dronet::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `frames` through the supervisor over a default detector on `net`.
fn run_pipeline(net: Network, frames: Vec<Tensor>) -> SupervisorReport {
    let sup = Supervisor::new(SupervisorConfig::default());
    let mut factory = || -> Result<Box<dyn DetectStage>> {
        Ok(Box::new(DetectorBuilder::new(net.clone()).build()?))
    };
    sup.run_sync(IterSource::new(frames), &mut factory, None)
        .unwrap()
}

fn flight(world_seed: u64, altitude: f32, px: usize) -> FlightSimulator {
    FlightSimulator::new(
        World::generate(WorldConfig::default(), world_seed),
        vec![
            Waypoint {
                x: 40.0,
                y: 200.0,
                altitude_m: altitude,
            },
            Waypoint {
                x: 360.0,
                y: 200.0,
                altitude_m: altitude,
            },
        ],
        16.0,
        2.0,
        px,
    )
}

#[test]
fn flight_frames_flow_through_the_pipeline() {
    let frames: Vec<_> = flight(5, 60.0, 64).collect();
    assert!(frames.len() > 20);
    let tensors: Vec<_> = frames.iter().map(|f| f.image.to_tensor()).collect();
    let net = zoo::micro_dronet(64, vec![(1.0, 1.0), (2.0, 2.0)]).unwrap();
    let report = run_pipeline(net, tensors);
    assert_eq!(report.processed(), frames.len());
    assert!(report.fps().0 > 0.0);
}

/// Ground-truth-driven check of the altitude filter: feed the pipeline's
/// tracker with the simulator's own annotations plus synthetic clutter,
/// and verify that §III-D gating removes exactly the infeasible boxes.
#[test]
fn altitude_gate_rejects_infeasible_sizes_only() {
    let altitude = 60.0f32;
    let px = 96usize;
    let camera = CameraModel::new(60f32.to_radians(), px);
    let filter = AltitudeFilter::new(camera, altitude, (3.5, 5.5), 0.45).unwrap();

    let frames: Vec<_> = flight(5, altitude, px).take(15).collect();
    let mut kept_real = 0usize;
    let mut total_real = 0usize;
    for frame in &frames {
        for ann in &frame.annotations {
            total_real += 1;
            if filter.is_feasible(&ann.bbox) {
                kept_real += 1;
            }
        }
    }
    assert!(total_real > 10, "flight saw only {total_real} vehicles");
    // Real vehicles at the filter's own altitude pass nearly always.
    assert!(
        kept_real as f32 / total_real as f32 > 0.9,
        "altitude gate rejected {} of {} real vehicles",
        total_real - kept_real,
        total_real
    );

    // Clutter: building-sized and speck-sized false detections are cut.
    let building = BBox::new(0.4, 0.4, 0.5, 0.4);
    let speck = BBox::new(0.6, 0.6, 0.005, 0.005);
    assert!(!filter.is_feasible(&building));
    assert!(!filter.is_feasible(&speck));

    // And at 4x the altitude the same physical boxes become infeasible.
    let high = AltitudeFilter::new(camera, altitude * 6.0, (3.5, 5.5), 0.45).unwrap();
    let sample = frames.iter().flat_map(|f| f.annotations.iter()).take(10);
    let mut rejected = 0;
    let mut seen = 0;
    for ann in sample {
        seen += 1;
        if !high.is_feasible(&ann.bbox) {
            rejected += 1;
        }
    }
    assert!(seen > 0 && rejected == seen, "rejected {rejected}/{seen}");
}

/// ABL-ALT, the §III-D ablation: a size-agnostic detector is stood in for
/// by the flight's ground truth plus three infeasible false positives per
/// frame (building-sized boxes and specks). The altitude gate removes all
/// the clutter and none of the vehicles: precision 0.711 → 1.000 at
/// sensitivity 1.000.
#[test]
fn altitude_gate_lifts_precision_at_no_sensitivity_cost() {
    let altitude = 60.0f32;
    let px = 96usize;
    let camera = CameraModel::new(60f32.to_radians(), px);
    let filter = AltitudeFilter::new(camera, altitude, (3.5, 5.5), 0.45).unwrap();

    let mut rng = StdRng::seed_from_u64(17);
    let stream: Vec<_> = flight(3, altitude, px)
        .map(|frame| {
            let gt: Vec<BBox> = frame.annotations.iter().map(|a| a.bbox).collect();
            let mut dets: Vec<(BBox, f32)> = gt.iter().map(|b| (*b, 0.9f32)).collect();
            for _ in 0..3 {
                let fp = if rng.gen() {
                    BBox::new(rng.gen(), rng.gen(), 0.3 + rng.gen::<f32>() * 0.3, 0.25)
                } else {
                    BBox::new(rng.gen(), rng.gen(), 0.004, 0.004)
                };
                dets.push((fp, 0.8));
            }
            (dets, gt)
        })
        .collect();
    assert_eq!(stream.len(), 41);

    let score = |gated: bool| {
        let mut total = MatchResult::default();
        for (dets, gt) in &stream {
            let kept: Vec<(BBox, f32)> = dets
                .iter()
                .filter(|(b, _)| !gated || filter.is_feasible(b))
                .copied()
                .collect();
            total.merge(&match_detections(&kept, gt, 0.5));
        }
        let stats = total.stats();
        (stats.sensitivity, stats.precision)
    };
    for (gated, want) in [(false, (1.000, 0.711)), (true, (1.000, 1.000))] {
        let got = score(gated);
        assert!(
            (got.0 - want.0).abs() < 5e-4 && (got.1 - want.1).abs() < 5e-4,
            "gate {gated}: (sensitivity, precision) {got:?}, expected {want:?}"
        );
    }
}

/// Oracle-tracker integration: feeding ground-truth boxes as detections
/// must track and count the overflown vehicles consistently.
#[test]
fn tracker_counts_vehicles_from_oracle_detections() {
    let frames: Vec<_> = flight(5, 60.0, 96).collect();
    let mut tracker = Tracker::new(TrackerConfig::default());
    for frame in &frames {
        let dets: Vec<Detection> = frame
            .annotations
            .iter()
            .map(|a| Detection {
                bbox: a.bbox,
                objectness: 0.9,
                class: 0,
                class_prob: 1.0,
            })
            .collect();
        tracker.update(&dets);
    }
    let unique = tracker.total_count() as usize;
    // The corridor flight overflies a subset of the world's 60 vehicles;
    // the count must be plausible: more than a handful, fewer than the
    // whole world, and (critically) far fewer than the raw detection
    // count, which double-counts across frames.
    let raw_detections: usize = frames.iter().map(|f| f.annotations.len()).sum();
    assert!(unique >= 5, "only {unique} vehicles tracked");
    assert!(unique <= 60, "{unique} tracks for a 60-vehicle world");
    assert!(
        raw_detections > 3 * unique,
        "tracker failed to deduplicate: {raw_detections} detections vs {unique} tracks"
    );
}

/// The paper's altitude/size coupling: the same vehicle is N times smaller
/// in pixels at N times the altitude (used by §III-D).
#[test]
fn ground_sampling_scales_inversely_with_altitude() {
    let base = Camera {
        x: 0.0,
        y: 0.0,
        altitude_m: 40.0,
        fov_rad: 1.0,
        frame_px: 128,
    };
    let double = Camera {
        altitude_m: 80.0,
        ..base
    };
    let ratio = base.expected_pixel_size(4.5) / double.expected_pixel_size(4.5);
    assert!((ratio - 2.0).abs() < 1e-4);
}
