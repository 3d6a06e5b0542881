use crate::{ActivationPool, NnError, Result};
use dronet_tensor::{ops, Shape, Tensor};

/// Configuration of a YOLOv2-style region (detection) head.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionConfig {
    /// Anchor box priors `(w, h)` in grid-cell units, one per predicted box.
    pub anchors: Vec<(f32, f32)>,
    /// Number of object classes (1 for the paper's top-view vehicles).
    pub classes: usize,
}

impl RegionConfig {
    /// The paper's single-class vehicle configuration with the Tiny-YOLO-VOC
    /// anchor priors.
    pub fn vehicle() -> Self {
        RegionConfig {
            anchors: vec![
                (1.08, 1.19),
                (3.42, 4.41),
                (6.63, 11.38),
                (9.42, 5.11),
                (16.62, 10.52),
            ],
            classes: 1,
        }
    }

    /// Number of anchors (boxes predicted per cell).
    pub fn num_anchors(&self) -> usize {
        self.anchors.len()
    }

    /// Channels the head consumes: `anchors * (5 + classes)`.
    pub fn channels(&self) -> usize {
        self.anchors.len() * (5 + self.classes)
    }
}

/// The region layer: transforms raw network output into detection space.
///
/// For every grid cell and anchor the incoming feature map carries
/// `(tx, ty, tw, th, to, class logits...)`. The forward pass applies the
/// logistic function to `tx`, `ty` and `to`, leaves `tw`/`th` raw (the
/// exponential is applied at decode time) and softmaxes the class logits.
///
/// # Gradient contract
///
/// [`RegionLayer::backward`] expects the incoming gradient to be expressed
/// with respect to the **transformed** x/y/objectness values (it applies the
/// logistic derivative), with respect to the **raw** tw/th, and with respect
/// to the **class logits** directly (i.e. the caller supplies `p - t` for
/// softmax + cross-entropy, which is already the logit gradient). This
/// matches how Darknet's region layer computes its deltas and keeps the
/// softmax Jacobian out of the loss code.
#[derive(Debug, Clone)]
pub struct RegionLayer {
    config: RegionConfig,
    cache: Option<Tensor>,
}

impl RegionLayer {
    /// Creates a region layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadLayerConfig`] when no anchors are given.
    pub fn new(config: RegionConfig) -> Result<Self> {
        if config.anchors.is_empty() {
            return Err(NnError::BadLayerConfig {
                layer: "region",
                msg: "at least one anchor is required".to_string(),
            });
        }
        Ok(RegionLayer {
            config,
            cache: None,
        })
    }

    /// The layer configuration.
    pub fn config(&self) -> &RegionConfig {
        &self.config
    }

    /// Applies the region transform (see the type-level docs for layout),
    /// drawing the output buffer from a recycled [`ActivationPool`]: the
    /// input is copied into a pooled buffer and transformed in place, so the
    /// steady-state path performs no heap allocation once the pool is warm.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when the channel count is not
    /// `anchors * (5 + classes)`.
    pub fn forward_pooled(&mut self, x: &Tensor, pool: &mut ActivationPool) -> Result<Tensor> {
        self.cache = None;
        let shape = self.checked_shape(x)?;
        let mut out = Tensor::from_vec(pool.take(shape.len()), shape)?;
        out.as_mut_slice().copy_from_slice(x.as_slice());
        self.transform_in_place(out.as_mut_slice(), &shape);
        Ok(out)
    }

    /// Training-mode forward: caches the transformed output for
    /// [`RegionLayer::backward`].
    ///
    /// # Errors
    ///
    /// Same as [`RegionLayer::forward_pooled`].
    pub fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        let shape = self.checked_shape(x)?;
        let mut out = x.clone();
        self.transform_in_place(out.as_mut_slice(), &shape);
        self.cache = Some(out.clone());
        Ok(out)
    }

    fn checked_shape(&self, x: &Tensor) -> Result<Shape> {
        let s = x.shape();
        if s.rank() != 4 || s.channels() != self.config.channels() {
            return Err(NnError::BadInput {
                expected: vec![0, self.config.channels(), 0, 0],
                actual: s.dims().to_vec(),
            });
        }
        Ok(*s)
    }

    fn transform_in_place(&self, data: &mut [f32], s: &Shape) {
        let (n, h, w) = (s.batch(), s.height(), s.width());
        let plane = h * w;
        let entries = 5 + self.config.classes;
        let a = self.config.num_anchors();
        for b in 0..n {
            for anchor in 0..a {
                let base = (b * a * entries + anchor * entries) * plane;
                // x, y: logistic
                for entry in [0usize, 1] {
                    for i in 0..plane {
                        let idx = base + entry * plane + i;
                        data[idx] = ops::sigmoid(data[idx]);
                    }
                }
                // objectness: logistic
                for i in 0..plane {
                    let idx = base + 4 * plane + i;
                    data[idx] = ops::sigmoid(data[idx]);
                }
                // classes: softmax across the class entries per cell
                if self.config.classes > 1 {
                    let mut logits = vec![0.0f32; self.config.classes];
                    for i in 0..plane {
                        for (c, l) in logits.iter_mut().enumerate() {
                            *l = data[base + (5 + c) * plane + i];
                        }
                        let probs = ops::softmax(&logits);
                        for (c, p) in probs.iter().enumerate() {
                            data[base + (5 + c) * plane + i] = *p;
                        }
                    }
                } else if self.config.classes == 1 {
                    // Single class: softmax over one logit is identically 1.
                    for i in 0..plane {
                        data[base + 5 * plane + i] = 1.0;
                    }
                }
            }
        }
    }

    /// Backward pass under the gradient contract described on the type.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] without a prior training
    /// forward and [`NnError::BadInput`] on shape disagreement.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cached = self
            .cache
            .take()
            .ok_or(NnError::MissingForwardCache { layer_index: 0 })?;
        if grad_out.shape() != cached.shape() {
            return Err(NnError::BadInput {
                expected: cached.shape().dims().to_vec(),
                actual: grad_out.shape().dims().to_vec(),
            });
        }
        let s = cached.shape();
        let (n, h, w) = (s.batch(), s.height(), s.width());
        let plane = h * w;
        let entries = 5 + self.config.classes;
        let a = self.config.num_anchors();
        let mut dx = grad_out.clone();
        let d = dx.as_mut_slice();
        let y = cached.as_slice();
        for b in 0..n {
            for anchor in 0..a {
                let base = (b * a * entries + anchor * entries) * plane;
                for entry in [0usize, 1, 4] {
                    for i in 0..plane {
                        let idx = base + entry * plane + i;
                        d[idx] *= ops::sigmoid_grad_from_output(y[idx]);
                    }
                }
                // tw/th and class logits pass through unchanged.
            }
        }
        Ok(dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dronet_tensor::{init, Shape};
    use rand::SeedableRng;

    /// An inference forward on a throwaway pool.
    fn infer(layer: &mut RegionLayer, x: &Tensor) -> Tensor {
        layer
            .forward_pooled(x, &mut ActivationPool::default())
            .unwrap()
    }

    fn layer(classes: usize, anchors: usize) -> RegionLayer {
        RegionLayer::new(RegionConfig {
            anchors: (0..anchors).map(|i| (1.0 + i as f32, 2.0)).collect(),
            classes,
        })
        .unwrap()
    }

    #[test]
    fn vehicle_config_matches_paper() {
        let cfg = RegionConfig::vehicle();
        assert_eq!(cfg.classes, 1);
        assert_eq!(cfg.num_anchors(), 5);
        assert_eq!(cfg.channels(), 30);
    }

    #[test]
    fn rejects_empty_anchors_and_bad_channels() {
        assert!(RegionLayer::new(RegionConfig {
            anchors: vec![],
            classes: 1
        })
        .is_err());
        let mut l = layer(1, 2);
        let bad = Tensor::zeros(Shape::nchw(1, 5, 3, 3));
        let got = l.forward_pooled(&bad, &mut ActivationPool::default());
        assert!(matches!(got, Err(NnError::BadInput { .. })));
    }

    #[test]
    fn forward_applies_logistic_to_xy_and_obj() {
        let mut l = layer(1, 1);
        let x = Tensor::zeros(Shape::nchw(1, 6, 2, 2));
        let y = infer(&mut l, &x);
        // entries: x, y at sigmoid(0)=0.5; w,h raw 0; obj 0.5; class prob 1.
        let d = y.as_slice();
        let plane = 4;
        for i in 0..plane {
            assert_eq!(d[i], 0.5); // x
            assert_eq!(d[plane + i], 0.5); // y
            assert_eq!(d[2 * plane + i], 0.0); // w raw
            assert_eq!(d[3 * plane + i], 0.0); // h raw
            assert_eq!(d[4 * plane + i], 0.5); // obj
            assert_eq!(d[5 * plane + i], 1.0); // single-class prob
        }
    }

    #[test]
    fn multiclass_softmax_normalises() {
        let mut l = layer(3, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = init::uniform(Shape::nchw(2, 16, 3, 3), -2.0, 2.0, &mut rng);
        let y = infer(&mut l, &x);
        let d = y.as_slice();
        let plane = 9;
        let entries = 8;
        for b in 0..2 {
            for a in 0..2 {
                let base = (b * 2 * entries + a * entries) * plane;
                for i in 0..plane {
                    let sum: f32 = (0..3).map(|c| d[base + (5 + c) * plane + i]).sum();
                    assert!((sum - 1.0).abs() < 1e-5, "softmax sum {sum}");
                }
            }
        }
    }

    #[test]
    fn backward_applies_sigmoid_derivative_only_to_xy_obj() {
        let mut l = layer(1, 1);
        let x = Tensor::zeros(Shape::nchw(1, 6, 1, 1));
        l.forward_train(&x).unwrap();
        let g = Tensor::ones(Shape::nchw(1, 6, 1, 1));
        let dx = l.backward(&g).unwrap();
        let d = dx.as_slice();
        // sigmoid(0)=0.5 -> derivative 0.25 on x, y, obj; identity elsewhere.
        assert_eq!(d[0], 0.25);
        assert_eq!(d[1], 0.25);
        assert_eq!(d[2], 1.0);
        assert_eq!(d[3], 1.0);
        assert_eq!(d[4], 0.25);
        assert_eq!(d[5], 1.0);
    }

    #[test]
    fn backward_without_forward_is_error() {
        let mut l = layer(1, 1);
        assert!(matches!(
            l.backward(&Tensor::zeros(Shape::nchw(1, 6, 1, 1))),
            Err(NnError::MissingForwardCache { .. })
        ));
    }

    /// Finite-difference check of the logistic path through the region layer.
    #[test]
    fn xy_obj_gradient_matches_finite_differences() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let x0 = init::uniform(Shape::nchw(1, 6, 2, 2), -1.0, 1.0, &mut rng);
        let r = init::uniform(Shape::nchw(1, 6, 2, 2), -1.0, 1.0, &mut rng);
        let mut l = layer(1, 1);
        l.forward_train(&x0).unwrap();
        let dx = l.backward(&r).unwrap();
        let eps = 1e-3f32;
        // Probe an x entry (0), a w entry (8) and an obj entry (16).
        for probe in [0usize, 8, 16] {
            let mut xp = x0.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x0.clone();
            xm.as_mut_slice()[probe] -= eps;
            let mut lp = layer(1, 1);
            let mut lm = layer(1, 1);
            let fp = infer(&mut lp, &xp).dot(&r).unwrap();
            let fm = infer(&mut lm, &xm).dot(&r).unwrap();
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = dx.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 1e-2 * numeric.abs().max(1.0),
                "probe {probe}: numeric {numeric} analytic {analytic}"
            );
        }
    }
}
