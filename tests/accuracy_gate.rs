//! The accuracy gate: trained weights in the tree, evaluated on every run.
//!
//! Every other detection check runs on random weights, whose objectness
//! sits near 0.5, so a change that keeps outputs close but moves detection
//! quality would pass them. This one loads a MicroDroNet trained once with
//! the seeded recipe of `examples/train_dronet.rs` (width 2, 96², 160
//! synthetic scenes, seed 42) and evaluates it on the recipe's 32 held-out
//! scenes with `realeval::evaluate_detector`, asserting the detection
//! counts, sensitivity, precision and mean IoU exactly.
//!
//! `tests/fixtures/microdronet-96.drnw` (332 312 bytes) was trained in the
//! Fused rounding family (one FMA per tap; an AVX-512F + FMA host).
//! Training is bit-deterministic within a family, so this regenerates it
//! byte for byte on any CPU of that family:
//!
//! ```text
//! cargo run --release --example train_dronet && cp "${TMPDIR:-/tmp}/microdronet.drnw" tests/fixtures/microdronet-96.drnw
//! ```
//!
//! The same weights are evaluated in either family; each has its own row
//! below, and the rows may differ by at most one detection per count.

use dronet::core::zoo;
use dronet::data::dataset::VehicleDataset;
use dronet::data::scene::SceneConfig;
use dronet::detect::DetectorBuilder;
use dronet::eval::realeval::{estimate_anchors, evaluate_detector};
use dronet::nn::weights;
use dronet::tensor::{rounding, Rounding};

/// What the fixture scores in one rounding family.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Score {
    true_positives: usize,
    false_positives: usize,
    false_negatives: usize,
    sensitivity: f32,
    precision: f32,
    mean_iou: f32,
}

/// The fixture's score in the Separate family (measured at the commit
/// before the kernel fused, on the host that trained it) and in the Fused
/// family. Only the last bits of the mean IoU differ.
const SCORES: [(Rounding, Score); 2] = [
    (
        Rounding::Separate,
        Score {
            true_positives: 85,
            false_positives: 41,
            false_negatives: 31,
            sensitivity: 0.732_758_64,
            precision: 0.674_603_16,
            mean_iou: 0.658_325_25,
        },
    ),
    (
        Rounding::Fused,
        Score {
            true_positives: 85,
            false_positives: 41,
            false_negatives: 31,
            sensitivity: 0.732_758_64,
            precision: 0.674_603_16,
            mean_iou: 0.658_325_2,
        },
    ),
];

#[test]
fn trained_micro_dronet_scores_its_golden_on_the_held_out_scenes() {
    // The dataset, anchors and network of `examples/train_dronet.rs`.
    let input = 96;
    let config = SceneConfig {
        width: input,
        height: input,
        min_vehicles: 2,
        max_vehicles: 6,
        vehicle_len_frac: (0.12, 0.22),
        occlusion_prob: 0.05,
        ..SceneConfig::default()
    };
    let dataset = VehicleDataset::generate(config, 160, 0.8, 42);
    assert_eq!(dataset.test().len(), 32);
    let anchors = estimate_anchors(dataset.train(), input / 8, 3);
    let mut net = zoo::micro_dronet_with_width(input, anchors, 2).unwrap();
    let fixture = include_bytes!("fixtures/microdronet-96.drnw");
    weights::load(&mut net, &fixture[..]).unwrap();
    let mut detector = DetectorBuilder::new(net)
        .confidence_threshold(0.4)
        .nms_threshold(0.45)
        .build()
        .unwrap();

    let stats = evaluate_detector(&mut detector, dataset.test())
        .unwrap()
        .stats;
    let got = Score {
        true_positives: stats.true_positives,
        false_positives: stats.false_positives,
        false_negatives: stats.false_negatives,
        sensitivity: stats.sensitivity,
        precision: stats.precision,
        mean_iou: stats.mean_iou,
    };
    let (_, want) = SCORES.iter().find(|(r, _)| *r == rounding()).unwrap();
    assert_eq!(&got, want, "{:?} family", rounding());
}

/// Rounding moves a trained network's detections by no more than one per
/// count: the families disagree in the last bits of a sum, not in what
/// the network has learnt.
#[test]
fn the_two_families_score_within_one_detection() {
    let [(_, separate), (_, fused)] = SCORES;
    for (name, s, f) in [
        ("TP", separate.true_positives, fused.true_positives),
        ("FP", separate.false_positives, fused.false_positives),
        ("FN", separate.false_negatives, fused.false_negatives),
    ] {
        assert!(s.abs_diff(f) <= 1, "{name}: {s} Separate, {f} Fused");
    }
}
