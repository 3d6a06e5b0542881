use dronet_metrics::BBox;
use dronet_nn::{NnError, RegionConfig};
use dronet_tensor::Tensor;

/// Weight on the objectness term of matched anchors.
const OBJECT_SCALE: f32 = 5.0;
/// Weight on the objectness suppression of unmatched anchors.
const NOOBJECT_SCALE: f32 = 1.0;
/// Weight on the classification term.
const CLASS_SCALE: f32 = 1.0;
/// Predicted boxes overlapping ground truth above this IoU are exempt from
/// no-object suppression.
const IGNORE_THRESH: f32 = 0.6;

/// Scales of the YOLO region loss.
///
/// The default is Darknet's region-layer default (`coord_scale=1`); the
/// other scales (`object_scale=5`, `noobject_scale=1`, `class_scale=1`,
/// ignore threshold 0.6) are fixed at Darknet's values, which is what the
/// paper's training used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YoloLossConfig {
    /// Weight on the coordinate regression terms.
    pub coord_scale: f32,
}

impl Default for YoloLossConfig {
    fn default() -> Self {
        YoloLossConfig { coord_scale: 1.0 }
    }
}

/// Loss value broken into its components (useful for training diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LossBreakdown {
    /// Coordinate regression loss.
    pub coord: f32,
    /// Objectness loss on matched anchors.
    pub object: f32,
    /// No-object suppression loss.
    pub noobject: f32,
    /// Classification cross-entropy.
    pub class: f32,
    /// Number of ground-truth boxes that were assigned an anchor.
    pub matched: usize,
}

impl LossBreakdown {
    /// Total scalar loss.
    pub fn total(&self) -> f32 {
        self.coord + self.object + self.noobject + self.class
    }
}

/// The YOLO detection loss over a region layer's transformed output.
///
/// The forward/gradient pair follows the region layer's gradient contract
/// (see [`dronet_nn::RegionLayer`]): gradients on x/y/objectness are with
/// respect to the post-logistic values, gradients on w/h are with respect
/// to the raw values, and gradients on classes are with respect to the
/// logits (`p - t`).
#[derive(Debug, Clone)]
pub struct YoloLoss {
    region: RegionConfig,
    config: YoloLossConfig,
}

impl YoloLoss {
    /// Creates the loss for a region head configuration.
    pub fn new(region: RegionConfig, config: YoloLossConfig) -> Self {
        YoloLoss { region, config }
    }

    /// The region configuration this loss was built for.
    pub fn region(&self) -> &RegionConfig {
        &self.region
    }

    /// Computes the loss and its gradient for a batch.
    ///
    /// `output` is the region layer's transformed output
    /// `[n, A*(5+C), H, W]`; `truths[b]` holds the ground-truth boxes of
    /// batch item `b` (class 0 is assumed for every truth, matching the
    /// paper's single-class task; multi-class truths use
    /// [`YoloLoss::evaluate_with_classes`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] on shape mismatch.
    pub fn evaluate(
        &self,
        output: &Tensor,
        truths: &[Vec<BBox>],
    ) -> Result<(LossBreakdown, Tensor), NnError> {
        let with_classes: Vec<Vec<(BBox, usize)>> = truths
            .iter()
            .map(|boxes| boxes.iter().map(|&b| (b, 0usize)).collect())
            .collect();
        self.evaluate_with_classes(output, &with_classes)
    }

    /// Multi-class variant of [`YoloLoss::evaluate`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] on shape mismatch or out-of-range
    /// class indices.
    pub fn evaluate_with_classes(
        &self,
        output: &Tensor,
        truths: &[Vec<(BBox, usize)>],
    ) -> Result<(LossBreakdown, Tensor), NnError> {
        let s = output.shape();
        let a = self.region.num_anchors();
        let classes = self.region.classes;
        let entries = 5 + classes;
        if s.rank() != 4 || s.channels() != a * entries {
            return Err(NnError::BadInput {
                expected: vec![truths.len(), a * entries, 0, 0],
                actual: s.dims().to_vec(),
            });
        }
        if s.batch() != truths.len() {
            return Err(NnError::BadInput {
                expected: vec![truths.len(), a * entries, 0, 0],
                actual: s.dims().to_vec(),
            });
        }
        let (n, gh, gw) = (s.batch(), s.height(), s.width());
        let plane = gh * gw;
        let out = output.as_slice();
        let mut grad = Tensor::zeros(*s);
        let g = grad.as_mut_slice();
        let mut breakdown = LossBreakdown::default();
        let cfg = &self.config;

        // Entry accessor: flat index of (batch, anchor, entry, cell).
        let at = |b: usize, anchor: usize, entry: usize, cell: usize| -> usize {
            ((b * a + anchor) * entries + entry) * plane + cell
        };

        #[allow(clippy::needless_range_loop)] // b also feeds the flat-index closure
        for b in 0..n {
            for truth in &truths[b] {
                let (_bbox, class) = truth;
                if *class >= classes {
                    return Err(NnError::BadInput {
                        expected: vec![classes],
                        actual: vec![*class],
                    });
                }
            }

            // 1. No-object suppression everywhere (matched cells are fixed
            //    up afterwards), skipping predictions that already overlap a
            //    truth well.
            for anchor in 0..a {
                let (aw, ah) = self.region.anchors[anchor];
                for cell in 0..plane {
                    let row = cell / gw;
                    let col = cell % gw;
                    let obj_idx = at(b, anchor, 4, cell);
                    let obj = out[obj_idx];
                    let pred = self.decode_box(out, &at, b, anchor, cell, col, row, gw, gh, aw, ah);
                    let best_iou = truths[b]
                        .iter()
                        .map(|(t, _)| pred.iou(t))
                        .fold(0.0f32, f32::max);
                    if best_iou < IGNORE_THRESH {
                        breakdown.noobject += NOOBJECT_SCALE * obj * obj;
                        g[obj_idx] += 2.0 * NOOBJECT_SCALE * obj;
                    }
                }
            }

            // 2. Matched anchors: coordinates, objectness, class.
            for (bbox, class) in &truths[b] {
                if bbox.w <= 0.0 || bbox.h <= 0.0 {
                    continue;
                }
                let col =
                    ((bbox.cx * gw as f32).floor() as isize).clamp(0, gw as isize - 1) as usize;
                let row =
                    ((bbox.cy * gh as f32).floor() as isize).clamp(0, gh as isize - 1) as usize;
                let cell = row * gw + col;

                // Best anchor by shape IoU (both centred at the origin).
                let tw_cells = bbox.w * gw as f32;
                let th_cells = bbox.h * gh as f32;
                let mut best_anchor = 0usize;
                let mut best_iou = -1.0f32;
                for (i, &(aw, ah)) in self.region.anchors.iter().enumerate() {
                    let iou = shape_iou(tw_cells, th_cells, aw, ah);
                    if iou > best_iou {
                        best_iou = iou;
                        best_anchor = i;
                    }
                }
                let (aw, ah) = self.region.anchors[best_anchor];

                // Coordinate targets.
                let tx = bbox.cx * gw as f32 - col as f32;
                let ty = bbox.cy * gh as f32 - row as f32;
                let tw = (tw_cells / aw).max(1e-9).ln();
                let th = (th_cells / ah).max(1e-9).ln();

                let xi = at(b, best_anchor, 0, cell);
                let yi = at(b, best_anchor, 1, cell);
                let wi = at(b, best_anchor, 2, cell);
                let hi = at(b, best_anchor, 3, cell);
                let oi = at(b, best_anchor, 4, cell);

                // Darknet scales the coord loss by (2 - w*h) to emphasise
                // small boxes; we keep that refinement.
                let size_scale = cfg.coord_scale * (2.0 - bbox.w * bbox.h);
                for (idx, target) in [(xi, tx), (yi, ty), (wi, tw), (hi, th)] {
                    let diff = out[idx] - target;
                    breakdown.coord += size_scale * diff * diff;
                    g[idx] += 2.0 * size_scale * diff;
                }

                // Objectness: replace whatever the no-object pass wrote.
                let obj = out[oi];
                let noobj_exempt = {
                    let pred =
                        self.decode_box(out, &at, b, best_anchor, cell, col, row, gw, gh, aw, ah);
                    let iou = pred.iou(bbox);
                    iou >= IGNORE_THRESH
                };
                if !noobj_exempt {
                    // Undo the suppression applied in pass 1.
                    breakdown.noobject -= NOOBJECT_SCALE * obj * obj;
                    g[oi] -= 2.0 * NOOBJECT_SCALE * obj;
                }
                let odiff = obj - 1.0;
                breakdown.object += OBJECT_SCALE * odiff * odiff;
                g[oi] += 2.0 * OBJECT_SCALE * odiff;
                breakdown.matched += 1;

                // Classification: cross-entropy on the softmax output; the
                // gradient on logits is (p - t).
                if classes > 1 {
                    for c in 0..classes {
                        let ci = at(b, best_anchor, 5 + c, cell);
                        let p = out[ci].clamp(1e-7, 1.0);
                        let t = if c == *class { 1.0 } else { 0.0 };
                        if c == *class {
                            breakdown.class += -CLASS_SCALE * p.ln();
                        }
                        g[ci] += CLASS_SCALE * (p - t);
                    }
                }
                // With a single class the softmax output is constant 1 and
                // contributes neither loss nor gradient.
            }
        }
        Ok((breakdown, grad))
    }

    /// Decodes the predicted box at (batch, anchor, cell) into normalised
    /// image coordinates.
    #[allow(clippy::too_many_arguments)]
    fn decode_box(
        &self,
        out: &[f32],
        at: &impl Fn(usize, usize, usize, usize) -> usize,
        b: usize,
        anchor: usize,
        cell: usize,
        col: usize,
        row: usize,
        gw: usize,
        gh: usize,
        aw: f32,
        ah: f32,
    ) -> BBox {
        let x = out[at(b, anchor, 0, cell)];
        let y = out[at(b, anchor, 1, cell)];
        // Clamp the raw extents so exp() cannot overflow early in training.
        let w_raw = out[at(b, anchor, 2, cell)].clamp(-8.0, 8.0);
        let h_raw = out[at(b, anchor, 3, cell)].clamp(-8.0, 8.0);
        BBox::new(
            (col as f32 + x) / gw as f32,
            (row as f32 + y) / gh as f32,
            aw * w_raw.exp() / gw as f32,
            ah * h_raw.exp() / gh as f32,
        )
    }
}

/// IoU of two boxes compared by shape only (both centred at the origin).
fn shape_iou(w1: f32, h1: f32, w2: f32, h2: f32) -> f32 {
    let inter = w1.min(w2) * h1.min(h2);
    let union = w1 * h1 + w2 * h2 - inter;
    if union <= 0.0 {
        0.0
    } else {
        inter / union
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dronet_nn::{ActivationPool, RegionLayer};
    use dronet_tensor::{init, Shape};
    use rand::SeedableRng;

    fn region_1class() -> RegionConfig {
        RegionConfig {
            anchors: vec![(1.0, 1.0), (3.0, 3.0)],
            classes: 1,
        }
    }

    fn loss_1class() -> YoloLoss {
        YoloLoss::new(region_1class(), YoloLossConfig::default())
    }

    /// Build a region output where one anchor/cell predicts `truth`
    /// perfectly with objectness `obj`, everything else silent.
    fn perfect_output(gw: usize, gh: usize, truth: &BBox, obj: f32) -> Tensor {
        let region = region_1class();
        let entries = 6;
        let a = region.num_anchors();
        let mut t = Tensor::zeros(Shape::nchw(1, a * entries, gh, gw));
        let col = (truth.cx * gw as f32).floor() as usize;
        let row = (truth.cy * gh as f32).floor() as usize;
        let cell = row * gw + col;
        let plane = gw * gh;
        // pick best anchor like the loss does
        let tw = truth.w * gw as f32;
        let th = truth.h * gh as f32;
        let anchor = if shape_iou(tw, th, 1.0, 1.0) >= shape_iou(tw, th, 3.0, 3.0) {
            0
        } else {
            1
        };
        let (aw, ah) = region.anchors[anchor];
        let base = anchor * entries * plane;
        let d = t.as_mut_slice();
        d[base + cell] = truth.cx * gw as f32 - col as f32;
        d[base + plane + cell] = truth.cy * gh as f32 - row as f32;
        d[base + 2 * plane + cell] = (tw / aw).ln();
        d[base + 3 * plane + cell] = (th / ah).ln();
        d[base + 4 * plane + cell] = obj;
        // class prob entry (softmax of one class) is 1 everywhere
        for a_i in 0..a {
            let cb = a_i * entries * plane + 5 * plane;
            for i in 0..plane {
                d[cb + i] = 1.0;
            }
        }
        t
    }

    #[test]
    fn perfect_prediction_has_near_zero_loss() {
        let truth = BBox::new(0.53, 0.48, 0.20, 0.15);
        let out = perfect_output(4, 4, &truth, 1.0);
        let loss = loss_1class();
        let (breakdown, grad) = loss.evaluate(&out, &[vec![truth]]).unwrap();
        assert_eq!(breakdown.matched, 1);
        assert!(breakdown.coord < 1e-8, "coord {}", breakdown.coord);
        assert!(breakdown.object < 1e-8, "object {}", breakdown.object);
        // The matched objectness entry has no gradient.
        assert!(grad.norm() < 1e-4, "grad norm {}", grad.norm());
    }

    #[test]
    fn zero_objectness_on_match_is_punished() {
        let truth = BBox::new(0.53, 0.48, 0.20, 0.15);
        let out = perfect_output(4, 4, &truth, 0.0);
        let (breakdown, grad) = loss_1class().evaluate(&out, &[vec![truth]]).unwrap();
        // object loss = 5 * (0 - 1)^2
        assert!((breakdown.object - 5.0).abs() < 1e-5);
        assert!(grad.norm() > 0.0);
    }

    #[test]
    fn spurious_objectness_is_suppressed() {
        let truth = BBox::new(0.53, 0.48, 0.20, 0.15);
        let mut out = perfect_output(4, 4, &truth, 1.0);
        // Light up a far-away cell on anchor 0.
        let plane = 16;
        let idx = 4 * plane + 2; // anchor 0, obj entry, cell 2
        out.as_mut_slice()[idx] = 0.9;
        let (breakdown, grad) = loss_1class().evaluate(&out, &[vec![truth]]).unwrap();
        assert!((breakdown.noobject - 0.81).abs() < 1e-4);
        assert!((grad.as_slice()[idx] - 1.8).abs() < 1e-4);
    }

    #[test]
    fn empty_truth_suppresses_everything() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let out = init::uniform(Shape::nchw(1, 12, 3, 3), 0.01, 0.99, &mut rng);
        let (breakdown, grad) = loss_1class().evaluate(&out, &[vec![]]).unwrap();
        assert_eq!(breakdown.matched, 0);
        assert_eq!(breakdown.coord, 0.0);
        assert!(breakdown.noobject > 0.0);
        // Only objectness entries carry gradient.
        let plane = 9;
        for anchor in 0..2 {
            for entry in 0..6 {
                for cell in 0..plane {
                    let idx = (anchor * 6 + entry) * plane + cell;
                    if entry == 4 {
                        assert!(grad.as_slice()[idx] != 0.0);
                    } else {
                        assert_eq!(grad.as_slice()[idx], 0.0, "entry {entry}");
                    }
                }
            }
        }
    }

    #[test]
    fn bad_shapes_are_rejected() {
        let out = Tensor::zeros(Shape::nchw(1, 10, 3, 3)); // wrong channels
        assert!(loss_1class().evaluate(&out, &[vec![]]).is_err());
        let out = Tensor::zeros(Shape::nchw(2, 12, 3, 3)); // batch mismatch
        assert!(loss_1class().evaluate(&out, &[vec![]]).is_err());
    }

    #[test]
    fn out_of_range_class_is_rejected() {
        let out = Tensor::zeros(Shape::nchw(1, 12, 3, 3));
        let truths = vec![vec![(BBox::new(0.5, 0.5, 0.2, 0.2), 1usize)]];
        assert!(loss_1class().evaluate_with_classes(&out, &truths).is_err());
    }

    #[test]
    fn big_box_picks_big_anchor() {
        // A nearly grid-sized box should match the (3,3) anchor, not (1,1).
        let truth = BBox::new(0.55, 0.55, 0.7, 0.7);
        let out = Tensor::zeros(Shape::nchw(1, 12, 4, 4));
        let (_, grad) = loss_1class().evaluate(&out, &[vec![truth]]).unwrap();
        let plane = 16;
        let cell = 2 * 4 + 2;
        // anchor 1 x-entry at the truth cell must have gradient
        let a1_x = (6) * plane + cell;
        assert!(grad.as_slice()[a1_x] != 0.0);
        // anchor 0 x-entry must not (only obj suppression there)
        let a0_x = cell;
        assert_eq!(grad.as_slice()[a0_x], 0.0);
    }

    /// End-to-end finite-difference check through the region layer: the
    /// loss gradient (which follows the region gradient contract) combined
    /// with `RegionLayer::backward` must match numeric differentiation of
    /// `loss(region(raw))` with respect to the raw input.
    #[test]
    fn gradient_matches_finite_differences_through_region() {
        let region_cfg = RegionConfig {
            anchors: vec![(1.2, 1.4), (3.0, 2.5)],
            classes: 3,
        };
        let loss = YoloLoss::new(region_cfg.clone(), YoloLossConfig::default());
        let truths = vec![vec![
            (BBox::new(0.42, 0.61, 0.25, 0.30), 1usize),
            (BBox::new(0.80, 0.20, 0.15, 0.12), 2usize),
        ]];
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let raw = init::uniform(
            Shape::nchw(1, region_cfg.channels(), 5, 5),
            -1.5,
            1.5,
            &mut rng,
        );

        let forward_loss = |raw: &Tensor| -> f32 {
            let mut layer = RegionLayer::new(region_cfg.clone()).unwrap();
            let out = layer
                .forward_pooled(raw, &mut ActivationPool::default())
                .unwrap();
            loss.evaluate_with_classes(&out, &truths).unwrap().0.total()
        };

        let mut layer = RegionLayer::new(region_cfg.clone()).unwrap();
        let out = layer.forward_train(&raw).unwrap();
        let (_, grad_out) = loss.evaluate_with_classes(&out, &truths).unwrap();
        let grad_raw = layer.backward(&grad_out).unwrap();

        let eps = 1e-3f32;
        let mut checked = 0;
        // Probe a spread of entries: coords, obj, class, on both anchors.
        for probe in (0..raw.len()).step_by(37) {
            let mut rp = raw.clone();
            rp.as_mut_slice()[probe] += eps;
            let mut rm = raw.clone();
            rm.as_mut_slice()[probe] -= eps;
            let numeric = (forward_loss(&rp) - forward_loss(&rm)) / (2.0 * eps);
            let analytic = grad_raw.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 5e-2 * numeric.abs().max(1.0),
                "probe {probe}: numeric {numeric} analytic {analytic}"
            );
            checked += 1;
        }
        assert!(checked > 10);
    }

    #[test]
    fn shape_iou_properties() {
        assert!((shape_iou(2.0, 2.0, 2.0, 2.0) - 1.0).abs() < 1e-6);
        assert!(shape_iou(1.0, 1.0, 3.0, 3.0) < 0.2);
        assert_eq!(shape_iou(0.0, 0.0, 0.0, 0.0), 0.0);
    }
}
