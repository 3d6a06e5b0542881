//! The detection-accuracy response model.
//!
//! **What this is.** The paper trains all four architectures on its
//! proprietary 350-image aerial dataset on a Titan Xp and reports their
//! IoU/Sensitivity/Precision. We cannot re-run that training on its data
//! (no dataset); training our own networks at scale is within reach — the
//! inference kernel measures ≈ 57 GFLOP/s per core — but the training path
//! does not use it yet (ROADMAP item 2), so until that measured sweep
//! exists the *figure-generation* pipeline uses this response model:
//! per-model accuracy anchors at the 416 reference resolution, taken from
//! the paper's own reported deltas, combined with resolution-response
//! curves whose exponents are fitted to the paper's two quantitative
//! resolution observations:
//!
//! * average sensitivity gain of ×1.28 going 352 → 608 (across models),
//! * TinyYoloVoc gains ~0.17 IoU over the same range.
//!
//! The *shape* of every figure (who wins, crossovers, how accuracy trades
//! against resolution) then follows from the model. Real, measured
//! accuracy — from actually training our networks on the synthetic data —
//! is produced separately by [`crate::realeval`] and reported alongside in
//! `EXPERIMENTS.md`.
//!
//! Error-space formulation: each metric `m` has a base error
//! `e = 1 - m(416)`; at input size `r` the error is
//! `e * (416 / r)^beta_m`, so accuracy saturates naturally instead of
//! exceeding 1.

use dronet_core::ModelId;
use dronet_metrics::MetricVector;

/// Reference input size at which the anchors are specified.
pub const REFERENCE_INPUT: usize = 416;

/// Resolution-response exponent for sensitivity (fitted to the paper's
/// x1.28 average sensitivity gain from 352 to 608).
pub const SENS_EXPONENT: f32 = 1.1;
/// Resolution-response exponent for IoU (fitted to TinyYoloVoc's +0.17
/// IoU gain over the same range).
pub const IOU_EXPONENT: f32 = 1.15;
/// Resolution-response exponent for precision (weak dependence).
pub const PREC_EXPONENT: f32 = 0.5;

/// Accuracy anchors of one model at [`REFERENCE_INPUT`], expressed as
/// errors (`1 - metric`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyAnchor {
    /// `1 - IoU` at the reference input.
    pub iou_err: f32,
    /// `1 - sensitivity` at the reference input.
    pub sens_err: f32,
    /// `1 - precision` at the reference input.
    pub prec_err: f32,
}

/// The paper-calibrated anchor for a model.
///
/// Derivation from the paper's Section IV-A numbers (all relative to
/// TinyYoloVoc at the same input size):
/// * TinyYoloVoc: the accuracy baseline — sens/prec ≈ 0.95, IoU ≈ 0.70,
///   reaching 97% accuracy at large inputs,
/// * TinyYoloNet: −20% sensitivity, −10% precision, −0.11 IoU,
/// * SmallYoloV3: −53% sensitivity (the paper's disqualifying drop),
/// * DroNet: −2% sensitivity, −6% precision, −0.08 IoU.
pub fn anchor(model: ModelId) -> AccuracyAnchor {
    match model {
        ModelId::TinyYoloVoc => AccuracyAnchor {
            iou_err: 0.30,
            sens_err: 0.05,
            prec_err: 0.05,
        },
        ModelId::TinyYoloNet => AccuracyAnchor {
            iou_err: 0.41,
            sens_err: 0.24,
            prec_err: 0.145,
        },
        ModelId::SmallYoloV3 => AccuracyAnchor {
            iou_err: 0.45,
            sens_err: 0.554,
            prec_err: 0.20,
        },
        ModelId::DroNet => AccuracyAnchor {
            iou_err: 0.38,
            sens_err: 0.07,
            prec_err: 0.107,
        },
    }
}

/// Predicted accuracy metrics for `model` at square input size `input`.
///
/// The FPS component of the returned [`MetricVector`] is zero; the sweep
/// fills it in from the platform projection.
///
/// # Panics
///
/// Panics when `input` is zero.
pub fn predict(model: ModelId, input: usize) -> MetricVector {
    assert!(input > 0, "input size must be positive");
    let a = anchor(model);
    let ratio = REFERENCE_INPUT as f32 / input as f32;
    let iou = 1.0 - a.iou_err * ratio.powf(IOU_EXPONENT);
    let sens = 1.0 - a.sens_err * ratio.powf(SENS_EXPONENT);
    let prec = 1.0 - a.prec_err * ratio.powf(PREC_EXPONENT);
    MetricVector {
        fps: 0.0,
        iou: iou.clamp(0.0, 0.95),
        sensitivity: sens.clamp(0.0, 0.99),
        precision: prec.clamp(0.0, 0.99),
    }
}

/// The combined detection accuracy (F1 of sensitivity and precision) that
/// corresponds to the paper's informal "accuracy" percentages.
pub fn combined_accuracy(m: &MetricVector) -> f32 {
    let s = m.sensitivity;
    let p = m.precision;
    if s + p <= 0.0 {
        0.0
    } else {
        2.0 * s * p / (s + p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_reproduce_paper_deltas_at_386() {
        // The paper quotes its model-vs-model deltas "with 386x386 as
        // image size" (Darknet's nearest canonical size is 384).
        let at = |m: ModelId| predict(m, 384);
        let voc = at(ModelId::TinyYoloVoc);
        let dronet = at(ModelId::DroNet);
        let tnet = at(ModelId::TinyYoloNet);
        let small = at(ModelId::SmallYoloV3);

        // DroNet: -2% sens, -6% prec, -0.08 IoU.
        assert!((voc.sensitivity - dronet.sensitivity - 0.02).abs() < 0.01);
        assert!((voc.precision - dronet.precision - 0.06).abs() < 0.015);
        assert!((voc.iou - dronet.iou - 0.08).abs() < 0.02);

        // TinyYoloNet: -20% sens, -10% prec, -0.11 IoU.
        assert!((voc.sensitivity - tnet.sensitivity - 0.20).abs() < 0.03);
        assert!((voc.precision - tnet.precision - 0.10).abs() < 0.02);
        assert!((voc.iou - tnet.iou - 0.11).abs() < 0.025);

        // SmallYoloV3: -53% sens.
        assert!((voc.sensitivity - small.sensitivity - 0.53).abs() < 0.04);
    }

    #[test]
    fn sensitivity_gain_352_to_608_averages_1_28() {
        let mut ratios = Vec::new();
        for m in ModelId::ALL {
            let lo = predict(m, 352).sensitivity;
            let hi = predict(m, 608).sensitivity;
            assert!(hi > lo, "{m}: sensitivity must grow with input size");
            ratios.push(hi / lo);
        }
        let avg: f32 = ratios.iter().sum::<f32>() / ratios.len() as f32;
        assert!(
            (avg - 1.28).abs() < 0.08,
            "average sensitivity gain {avg}, paper reports 1.28"
        );
    }

    #[test]
    fn tiny_yolo_voc_iou_gain_matches_paper() {
        let lo = predict(ModelId::TinyYoloVoc, 352).iou;
        let hi = predict(ModelId::TinyYoloVoc, 608).iou;
        assert!(
            ((hi - lo) - 0.17).abs() < 0.03,
            "IoU gain {} (paper: 0.17)",
            hi - lo
        );
    }

    #[test]
    fn tiny_yolo_voc_peaks_near_97_percent() {
        let m = predict(ModelId::TinyYoloVoc, 608);
        let acc = combined_accuracy(&m);
        assert!(
            (0.945..=0.985).contains(&acc),
            "TinyYoloVoc@608 combined accuracy {acc} (paper: 97%)"
        );
    }

    #[test]
    fn dronet_maintains_around_95_percent_sensitivity_at_512() {
        let m = predict(ModelId::DroNet, 512);
        assert!(
            (0.92..=0.97).contains(&m.sensitivity),
            "DroNet-512 sensitivity {}",
            m.sensitivity
        );
        let acc = combined_accuracy(&m);
        // The paper's "~95% accuracy"; our F1 formalisation gives ~0.92
        // (the paper's own -2%/-6% deltas imply the same, see
        // EXPERIMENTS.md discussion).
        assert!((0.90..=0.96).contains(&acc), "combined accuracy {acc}");
    }

    #[test]
    fn accuracy_ordering_is_stable_across_sizes() {
        for input in [352usize, 416, 512, 608] {
            let voc = predict(ModelId::TinyYoloVoc, input);
            let dronet = predict(ModelId::DroNet, input);
            let tnet = predict(ModelId::TinyYoloNet, input);
            let small = predict(ModelId::SmallYoloV3, input);
            assert!(voc.sensitivity > dronet.sensitivity);
            assert!(dronet.sensitivity > tnet.sensitivity);
            assert!(tnet.sensitivity > small.sensitivity);
            assert!(voc.iou > dronet.iou && dronet.iou > tnet.iou);
        }
    }

    #[test]
    fn metrics_stay_in_bounds_at_extremes() {
        for m in ModelId::ALL {
            for input in [64usize, 128, 2048] {
                let v = predict(m, input);
                assert!((0.0..=0.95).contains(&v.iou));
                assert!((0.0..=0.99).contains(&v.sensitivity));
                assert!((0.0..=0.99).contains(&v.precision));
            }
        }
    }

    #[test]
    #[should_panic(expected = "input size")]
    fn zero_input_panics() {
        predict(ModelId::DroNet, 0);
    }
}
