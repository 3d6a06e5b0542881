//! Bit goldens for the compute kernels, one column per rounding family of
//! the numeric contract (`dronet_tensor::packed`), and each test asserts
//! the column of the family this CPU runs (`rounding()`):
//!
//! * **Separate** (multiply and add rounded apart; the portable build) —
//!   captured at the commit *before* the packed implicit-GEMM convolution
//!   replaced the `im2col` + `i-k-j` GEMM lowering, and unchanged since;
//! * **Fused** (one fused multiply-add per tap; the AVX2 and AVX-512F
//!   builds, both with FMA) — captured once, on an AVX-512F host, when the
//!   kernel started fusing.
//!
//! A kernel change that keeps the contract (sum in ascending `(c, ky, kx)`
//! order from +0.0, each tap added in the family's rounding, BN → bias →
//! activation in that order, separately rounded) leaves every hash here
//! unchanged; one that reorders a sum or changes a family's rounding does
//! not. Training's bits differ between the families: the backward's
//! `dW = dY·colsᵀ` sums, like every product, a fused chain in ascending `k`
//! in the Fused family.

use dronet::core::{zoo, ModelId};
use dronet::metrics::BBox;
use dronet::tensor::{init, rounding, Rounding, Shape, Tensor};
use dronet::train::{Sgd, YoloLoss, YoloLossConfig};
use rand::SeedableRng;

/// FNV-1a over the little-endian bytes of every value's bit pattern.
fn fnv1a(values: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Every golden: its name, then its value in the Separate and in the
/// Fused family.
const GOLDENS: [(&str, u64, u64); 5] = [
    (
        "DroNet-96, batch 1",
        0x4cec_71d1_babd_73ab,
        0xe10f_6cfb_a7f2_db82,
    ),
    (
        "DroNet-96, batch 3",
        0x7c35_2853_04dc_c7c6,
        0x1535_c2b6_6c18_6a30,
    ),
    (
        "TinyYoloVoc-96",
        0xa920_aeef_ae49_aa5c,
        0x0fee_51ca_271c_dc4c,
    ),
    ("MicroDroNet loss after 2 steps", 0x41cc_eece, 0x41cc_eed3),
    (
        "MicroDroNet inference after 2 steps",
        0x1499_492c_91e1_d3ba,
        0x2a2d_b38c_bb33_ebb0,
    ),
];

/// Asserts that `got` is golden `name` in this CPU's rounding family.
fn assert_golden(name: &str, got: u64) {
    let &(_, separate, fused) = GOLDENS.iter().find(|g| g.0 == name).unwrap();
    let want = match rounding() {
        Rounding::Separate => separate,
        Rounding::Fused => fused,
    };
    assert_eq!(got, want, "{name}, {:?} family", rounding());
}

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Forward hash of a zoo model at 96² with weights from seed 7 and a
/// seeded input batch.
fn zoo_forward_hash(id: ModelId, batch: usize) -> u64 {
    let mut net = zoo::build(id, 96).unwrap();
    net.init_weights(&mut rng(7));
    let x = init::uniform(Shape::nchw(batch, 3, 96, 96), 0.0, 1.0, &mut rng(11));
    fnv1a(net.forward(&x).unwrap().as_slice())
}

#[test]
fn dronet_96_forward_bits_are_unchanged() {
    assert_golden("DroNet-96, batch 1", zoo_forward_hash(ModelId::DroNet, 1));
    assert_golden("DroNet-96, batch 3", zoo_forward_hash(ModelId::DroNet, 3));
}

/// TinyYoloVoc exercises what DroNet does not: the `size=2 stride=1`
/// "same" pool and the K = 9216 convolutions.
#[test]
fn tiny_yolo_voc_96_forward_bits_are_unchanged() {
    assert_golden("TinyYoloVoc-96", zoo_forward_hash(ModelId::TinyYoloVoc, 1));
}

/// Two SGD steps of MicroDroNet: `forward_train`, both backward GEMMs
/// (`dW = dY·colsᵀ` accumulating, `dCols = Wᵀ·dY`), the optimizer, then
/// the loss of a third forward — and an inference forward of the stepped
/// network, so a stale packed-weight cache would show here too.
#[test]
fn micro_dronet_training_bits_are_unchanged() {
    let mut net = zoo::micro_dronet(32, vec![(0.8, 0.8), (1.6, 1.6)]).unwrap();
    net.init_weights(&mut rng(7));
    let region = net.layers().last().unwrap().as_region().unwrap();
    let loss = YoloLoss::new(region.config().clone(), YoloLossConfig::default());
    let truths = vec![
        vec![
            BBox::new(0.31, 0.62, 0.22, 0.18),
            BBox::new(0.72, 0.28, 0.15, 0.20),
        ],
        vec![BBox::new(0.50, 0.45, 0.30, 0.25)],
    ];
    let x = init::uniform(Shape::nchw(2, 3, 32, 32), 0.05, 0.95, &mut rng(13));
    // Warm the inference path first so the packed weights exist before
    // the optimizer mutates them.
    net.forward(&x).unwrap();

    let mut sgd = Sgd::new(1e-3);
    for _ in 0..2 {
        let out = net.forward_train(&x).unwrap();
        let (_, grad) = loss.evaluate(&out, &truths).unwrap();
        net.backward(&grad).unwrap();
        sgd.step(&mut net, 2);
        net.zero_grads();
    }
    let out = net.forward_train(&x).unwrap();
    let (value, _) = loss.evaluate(&out, &truths).unwrap();
    let loss = u64::from(value.total().to_bits());
    assert_golden("MicroDroNet loss after 2 steps", loss);

    let infer: Tensor = net.forward(&x).unwrap();
    let infer = fnv1a(infer.as_slice());
    assert_golden("MicroDroNet inference after 2 steps", infer);
}

/// End to end: a detector whose convolutions have packed their weights
/// takes a training step through `network_mut()`; its next detections are
/// those of a network that loaded the stepped weights from a file and has
/// never packed anything — not those of the stale panels.
#[test]
fn detector_sees_weights_stepped_by_the_optimizer() {
    use dronet::detect::DetectorBuilder;
    use dronet::nn::weights;

    let anchors = vec![(0.8, 0.8), (1.6, 1.6)];
    let mut net = zoo::micro_dronet(32, anchors.clone()).unwrap();
    net.init_weights(&mut rng(7));
    let region = net.layers().last().unwrap().as_region().unwrap();
    let loss = YoloLoss::new(region.config().clone(), YoloLossConfig::default());
    let truths = vec![vec![BBox::new(0.4, 0.5, 0.3, 0.25)]];
    let image = init::uniform(Shape::nchw(1, 3, 32, 32), 0.05, 0.95, &mut rng(13));

    let mut detector = DetectorBuilder::new(net)
        .confidence_threshold(0.01)
        .build()
        .unwrap();
    let before = detector.detect(&image).unwrap();
    assert!(!before.is_empty(), "threshold low enough to see boxes");

    let net = detector.network_mut();
    let out = net.forward_train(&image).unwrap();
    let (_, grad) = loss.evaluate(&out, &truths).unwrap();
    net.backward(&grad).unwrap();
    Sgd::new(1e-2).step(net, 1);
    net.zero_grads();
    let mut file = Vec::new();
    weights::save(net, &mut file).unwrap();
    let after = detector.detect(&image).unwrap();
    assert_ne!(after, before, "the step moved the detections");

    let mut reloaded = zoo::micro_dronet(32, anchors).unwrap();
    weights::load(&mut reloaded, file.as_slice()).unwrap();
    let mut fresh = DetectorBuilder::new(reloaded)
        .confidence_threshold(0.01)
        .build()
        .unwrap();
    assert_eq!(after, fresh.detect(&image).unwrap());
}
