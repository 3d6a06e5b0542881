//! End-to-end integration: synthetic data -> anchor estimation -> real
//! training with the YOLO loss -> detection -> measured metrics ->
//! checkpoint round-trip.
//!
//! This is the repository's "the whole pipeline actually works" test; it
//! trains a real (small) network and asserts real detection quality, so
//! it runs for about a minute in release mode (a few in debug).

use dronet::core::zoo;
use dronet::data::dataset::VehicleDataset;
use dronet::data::scene::SceneConfig;
use dronet::detect::DetectorBuilder;
use dronet::eval::realeval::{estimate_anchors, evaluate_detector};
use dronet::nn::weights;
use dronet::train::{LrSchedule, TrainConfig, Trainer, YoloLossConfig};

const INPUT: usize = 64;

fn dataset() -> VehicleDataset {
    VehicleDataset::generate(
        SceneConfig {
            width: INPUT,
            height: INPUT,
            min_vehicles: 2,
            max_vehicles: 6,
            vehicle_len_frac: (0.12, 0.22),
            occlusion_prob: 0.05,
            ..SceneConfig::default()
        },
        100,
        0.8,
        42,
    )
}

#[test]
fn train_detect_checkpoint() {
    let dataset = dataset();
    assert!(dataset.total_vehicles() > 100, "dataset too sparse");

    // Anchors estimated from the data (YOLOv2 practice).
    let anchors = estimate_anchors(dataset.train(), INPUT / 8, 3);
    let mut net = zoo::micro_dronet_with_width(INPUT, anchors.clone(), 2).unwrap();

    // --- Baseline: the untrained detector is useless. ---
    let mut untrained = DetectorBuilder::new(net.clone())
        .confidence_threshold(0.3)
        .build()
        .unwrap();
    let before = evaluate_detector(&mut untrained, dataset.test()).unwrap();

    // --- Train. ---
    let report = Trainer::new(TrainConfig {
        epochs: 80,
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
    .train(&mut net, &dataset)
    .unwrap();
    assert!(report.improved(), "loss curve: {:?}", report.epoch_losses);
    let first = report.epoch_losses[0];
    let last = *report.epoch_losses.last().unwrap();
    assert!(
        last < first / 5.0,
        "loss should drop at least 5x: {first} -> {last}"
    );

    // --- Detect: real measured quality on held-out scenes. ---
    let mut detector = DetectorBuilder::new(net.clone())
        .confidence_threshold(0.3)
        .build()
        .unwrap();
    let after = evaluate_detector(&mut detector, dataset.test()).unwrap();
    assert!(
        after.stats.sensitivity >= 0.30,
        "sensitivity {} too low (untrained was {})",
        after.stats.sensitivity,
        before.stats.sensitivity
    );
    assert!(
        after.stats.precision >= 0.25,
        "precision {} too low",
        after.stats.precision
    );
    assert!(
        after.stats.sensitivity > before.stats.sensitivity + 0.2,
        "training barely helped: {} -> {}",
        before.stats.sensitivity,
        after.stats.sensitivity
    );
    assert!(
        after.stats.mean_iou > 0.5,
        "mean IoU {}",
        after.stats.mean_iou
    );

    // --- Checkpoint round-trip preserves behaviour exactly. ---
    let mut buf = Vec::new();
    weights::save(&net, &mut buf).unwrap();
    let mut reloaded = zoo::micro_dronet_with_width(INPUT, anchors, 2).unwrap();
    weights::load(&mut reloaded, buf.as_slice()).unwrap();
    let sample = VehicleDataset::sample(&dataset.test()[0], INPUT);
    let a = net.forward(&sample.image).unwrap();
    let b = reloaded.forward(&sample.image).unwrap();
    assert_eq!(a, b, "reloaded checkpoint must be bit-identical");
}
