use crate::{NnError, Result};
use dronet_tensor::{ops, Tensor};
use std::sync::OnceLock;

/// Per-channel batch normalisation, Darknet style.
///
/// Darknet's convolutional layers fold batch norm between the convolution
/// and the bias addition: `y = gamma * (x - mu) / sqrt(var + eps)`, with the
/// shift (beta) role played by the convolution bias that is added
/// afterwards. This struct follows the same split: it owns the `gamma`
/// scales and the rolling inference statistics, while the owning
/// [`crate::Conv2d`] owns the bias.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNorm {
    channels: usize,
    eps: f32,
    momentum: f32,
    scales: Vec<f32>,
    rolling_mean: Vec<f32>,
    rolling_var: Vec<f32>,
    scale_grad: Vec<f32>,
    cache: Option<BnCache>,
    infer_cache: InferCache,
}

/// Folded inference coefficients (`-mean`, `gamma / sqrt(var + eps)`),
/// computed lazily by [`BatchNorm::infer_coefficients`] and dropped by
/// every `&mut` path that can change them. Keeping them here makes the
/// steady-state inference forward allocation-free.
///
/// Derived data only, so cloning starts empty and all values compare equal —
/// two `BatchNorm`s with identical parameters are identical regardless of
/// which has warmed its cache.
#[derive(Debug, Default)]
struct InferCache(OnceLock<(Vec<f32>, Vec<f32>)>);

impl Clone for InferCache {
    fn clone(&self) -> Self {
        InferCache::default()
    }
}

impl PartialEq for InferCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

#[derive(Debug, Clone, PartialEq)]
struct BnCache {
    /// Input to the batch-norm (convolution output), saved for backward.
    x: Tensor,
    /// Normalised values `x_hat`.
    x_hat: Tensor,
    mean: Vec<f32>,
    var: Vec<f32>,
}

impl BatchNorm {
    /// Numerical stabiliser used by Darknet.
    pub const EPS: f32 = 1e-5;
    /// Rolling-average momentum used by Darknet (`0.99` old, `0.01` new).
    pub const MOMENTUM: f32 = 0.01;

    /// Creates a batch-norm over `channels` feature channels with unit
    /// scales and zero/unit rolling statistics.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadLayerConfig`] when `channels` is zero.
    pub fn new(channels: usize) -> Result<Self> {
        if channels == 0 {
            return Err(NnError::BadLayerConfig {
                layer: "batchnorm",
                msg: "channel count must be positive".to_string(),
            });
        }
        Ok(BatchNorm {
            channels,
            eps: Self::EPS,
            momentum: Self::MOMENTUM,
            scales: vec![1.0; channels],
            rolling_mean: vec![0.0; channels],
            rolling_var: vec![1.0; channels],
            scale_grad: vec![0.0; channels],
            cache: None,
            infer_cache: InferCache::default(),
        })
    }

    /// Number of normalised channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Gamma scales (trainable).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Mutable gamma scales, used by weight loading.
    pub fn scales_mut(&mut self) -> &mut [f32] {
        self.infer_cache.0.take();
        &mut self.scales
    }

    /// Rolling mean used at inference time.
    pub fn rolling_mean(&self) -> &[f32] {
        &self.rolling_mean
    }

    /// Mutable rolling mean, used by weight loading.
    pub fn rolling_mean_mut(&mut self) -> &mut [f32] {
        self.infer_cache.0.take();
        &mut self.rolling_mean
    }

    /// Rolling variance used at inference time.
    pub fn rolling_var(&self) -> &[f32] {
        &self.rolling_var
    }

    /// Mutable rolling variance, used by weight loading.
    pub fn rolling_var_mut(&mut self) -> &mut [f32] {
        self.infer_cache.0.take();
        &mut self.rolling_var
    }

    /// Gradient of the loss with respect to the gamma scales.
    pub fn scale_grad(&self) -> &[f32] {
        &self.scale_grad
    }

    /// Trainable parameters and their gradients as parallel mutable slices.
    pub fn params_and_grads_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        self.infer_cache.0.take();
        (&mut self.scales, &mut self.scale_grad)
    }

    /// Clears accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.scale_grad.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Drops the forward cache (e.g. when switching to inference).
    pub fn clear_cache(&mut self) {
        self.cache = None;
    }

    /// The folded inference coefficients `(−mean, gamma / sqrt(var + eps))`,
    /// one pair per channel: inference computes `(x + −mean) · scale`, as
    /// two separately rounded steps. Computed on first use and cached until
    /// a parameter changes.
    pub fn infer_coefficients(&self) -> (&[f32], &[f32]) {
        let (neg_mean, combined) = self.infer_cache.0.get_or_init(|| {
            let neg_mean = self.rolling_mean.iter().map(|&m| -m).collect();
            let combined = self
                .rolling_var
                .iter()
                .zip(&self.scales)
                .map(|(&v, &g)| g / (v + self.eps).sqrt())
                .collect();
            (neg_mean, combined)
        });
        (neg_mean, combined)
    }

    /// Inference-mode forward using rolling statistics, in place.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors when `x` is not NCHW with the
    /// configured channel count.
    pub fn forward_infer(&self, x: &mut Tensor) -> Result<()> {
        let (neg_mean, combined) = self.infer_coefficients();
        ops::add_channel_bias(x, neg_mean)?;
        ops::scale_channels(x, combined)?;
        Ok(())
    }

    /// Training-mode forward using batch statistics; updates the rolling
    /// statistics and stores a cache for [`BatchNorm::backward`].
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors when `x` is not NCHW with the
    /// configured channel count.
    pub fn forward_train(&mut self, x: &mut Tensor) -> Result<()> {
        self.infer_cache.0.take();
        let mean = ops::channel_mean(x)?;
        let var = ops::channel_variance(x, &mean)?;
        if mean.len() != self.channels {
            return Err(NnError::BadInput {
                expected: vec![self.channels],
                actual: vec![mean.len()],
            });
        }
        let pre = x.clone();
        // x_hat = (x - mean) / sqrt(var + eps)
        let neg_mean: Vec<f32> = mean.iter().map(|&m| -m).collect();
        ops::add_channel_bias(x, &neg_mean)?;
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        ops::scale_channels(x, &inv_std)?;
        let x_hat = x.clone();
        ops::scale_channels(x, &self.scales)?;

        for c in 0..self.channels {
            self.rolling_mean[c] =
                (1.0 - self.momentum) * self.rolling_mean[c] + self.momentum * mean[c];
            self.rolling_var[c] =
                (1.0 - self.momentum) * self.rolling_var[c] + self.momentum * var[c];
        }
        self.cache = Some(BnCache {
            x: pre,
            x_hat,
            mean,
            var,
        });
        Ok(())
    }

    /// Backward pass: consumes `grad` (dL/dy) and returns dL/dx, also
    /// accumulating the gamma gradient.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] when no training forward
    /// preceded this call (reported with layer index 0; the owning layer
    /// rewrites the index).
    pub fn backward(&mut self, grad: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .as_ref()
            .ok_or(NnError::MissingForwardCache { layer_index: 0 })?;
        let s = *grad.shape();
        let (n, c, h, w) = (s.batch(), s.channels(), s.height(), s.width());
        if c != self.channels {
            return Err(NnError::BadInput {
                expected: vec![self.channels],
                actual: vec![c],
            });
        }
        let plane = h * w;
        let count = (n * plane) as f32;
        let g = grad.as_slice();
        let x = cache.x.as_slice();
        let x_hat = cache.x_hat.as_slice();

        let mut dx = Tensor::zeros(s);
        // Accumulate the per-channel sums needed by the BN gradient.
        for ch in 0..c {
            let mean = cache.mean[ch];
            let inv_std = 1.0 / (cache.var[ch] + self.eps).sqrt();
            let gamma = self.scales[ch];

            let mut sum_dy = 0.0f64;
            let mut sum_dy_xhat = 0.0f64;
            for b in 0..n {
                let base = (b * c + ch) * plane;
                for i in base..base + plane {
                    sum_dy += g[i] as f64;
                    sum_dy_xhat += (g[i] * x_hat[i]) as f64;
                }
            }
            self.scale_grad[ch] += sum_dy_xhat as f32;

            let sum_dy = sum_dy as f32;
            let sum_dy_xhat = sum_dy_xhat as f32;
            let dxd = dx.as_mut_slice();
            for b in 0..n {
                let base = (b * c + ch) * plane;
                for i in base..base + plane {
                    // Standard fused BN backward:
                    // dx = gamma*inv_std/N * (N*dy - sum(dy) - x_hat*sum(dy*x_hat))
                    let xi_hat = (x[i] - mean) * inv_std;
                    dxd[i] =
                        gamma * inv_std / count * (count * g[i] - sum_dy - xi_hat * sum_dy_xhat);
                }
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

    #[test]
    fn rejects_zero_channels() {
        assert!(BatchNorm::new(0).is_err());
    }

    #[test]
    fn train_forward_normalises_batch() {
        let mut bn = BatchNorm::new(2).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut x = init::normal(Shape::nchw(4, 2, 8, 8), 3.0, 2.0, &mut rng);
        bn.forward_train(&mut x).unwrap();
        let means = ops::channel_mean(&x).unwrap();
        let vars = ops::channel_variance(&x, &means).unwrap();
        for c in 0..2 {
            assert!(means[c].abs() < 1e-4, "mean {}", means[c]);
            assert!((vars[c] - 1.0).abs() < 1e-2, "var {}", vars[c]);
        }
    }

    #[test]
    fn rolling_stats_converge_to_batch_stats() {
        let mut bn = BatchNorm::new(1).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for _ in 0..600 {
            let mut x = init::normal(Shape::nchw(8, 1, 4, 4), 5.0, 1.0, &mut rng);
            bn.forward_train(&mut x).unwrap();
        }
        assert!((bn.rolling_mean()[0] - 5.0).abs() < 0.3);
        assert!((bn.rolling_var()[0] - 1.0).abs() < 0.3);
    }

    #[test]
    fn infer_uses_rolling_stats() {
        let mut bn = BatchNorm::new(1).unwrap();
        bn.rolling_mean_mut()[0] = 2.0;
        bn.rolling_var_mut()[0] = 4.0;
        bn.scales_mut()[0] = 3.0;
        let mut x = Tensor::full(Shape::nchw(1, 1, 1, 2), 4.0);
        bn.forward_infer(&mut x).unwrap();
        // (4 - 2) / sqrt(4 + eps) * 3 ~= 3.0
        for &v in x.as_slice() {
            assert!((v - 3.0).abs() < 1e-3, "{v}");
        }
    }

    #[test]
    fn infer_cache_invalidates_on_stat_mutation() {
        let mut bn = BatchNorm::new(1).unwrap();
        let mut x = Tensor::full(Shape::nchw(1, 1, 1, 1), 4.0);
        bn.forward_infer(&mut x).unwrap(); // warms the folded-coefficient cache
        bn.rolling_mean_mut()[0] = 2.0;
        bn.rolling_var_mut()[0] = 4.0;
        bn.scales_mut()[0] = 3.0;
        let mut y = Tensor::full(Shape::nchw(1, 1, 1, 1), 4.0);
        bn.forward_infer(&mut y).unwrap();
        assert!(
            (y.as_slice()[0] - 3.0).abs() < 1e-3,
            "stale cache survived mutation: {}",
            y.as_slice()[0]
        );
    }

    #[test]
    fn backward_without_forward_is_error() {
        let mut bn = BatchNorm::new(1).unwrap();
        let g = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        assert!(matches!(
            bn.backward(&g),
            Err(NnError::MissingForwardCache { .. })
        ));
    }

    /// Finite-difference check of the full BN backward pass.
    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let x0 = init::normal(Shape::nchw(2, 2, 3, 3), 1.0, 1.5, &mut rng);
        // Loss: L = sum(y * r) for fixed random r, so dL/dy = r.
        let r = init::uniform(Shape::nchw(2, 2, 3, 3), -1.0, 1.0, &mut rng);

        let forward_loss = |bn: &mut BatchNorm, x: &Tensor| -> f32 {
            let mut y = x.clone();
            bn.forward_train(&mut y).unwrap();
            y.dot(&r).unwrap()
        };

        let mut bn = BatchNorm::new(2).unwrap();
        bn.scales_mut().copy_from_slice(&[1.3, 0.7]);
        let _ = forward_loss(&mut bn, &x0);
        let dx = bn.backward(&r).unwrap();

        let eps = 1e-2f32;
        for probe in [0usize, 5, 17, 35] {
            let mut xp = x0.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x0.clone();
            xm.as_mut_slice()[probe] -= eps;
            let mut bn_p = BatchNorm::new(2).unwrap();
            bn_p.scales_mut().copy_from_slice(&[1.3, 0.7]);
            let mut bn_m = BatchNorm::new(2).unwrap();
            bn_m.scales_mut().copy_from_slice(&[1.3, 0.7]);
            let numeric =
                (forward_loss(&mut bn_p, &xp) - forward_loss(&mut bn_m, &xm)) / (2.0 * eps);
            let analytic = dx.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 2e-2 * numeric.abs().max(1.0),
                "probe {probe}: numeric {numeric} analytic {analytic}"
            );
        }
    }

    /// Finite-difference check of the gamma gradient.
    #[test]
    fn scale_grad_matches_finite_differences() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let x0 = init::normal(Shape::nchw(2, 1, 4, 4), 0.5, 1.0, &mut rng);
        let r = init::uniform(Shape::nchw(2, 1, 4, 4), -1.0, 1.0, &mut rng);

        let loss_with_gamma = |gamma: f32| -> f32 {
            let mut bn = BatchNorm::new(1).unwrap();
            bn.scales_mut()[0] = gamma;
            let mut y = x0.clone();
            bn.forward_train(&mut y).unwrap();
            y.dot(&r).unwrap()
        };

        let mut bn = BatchNorm::new(1).unwrap();
        bn.scales_mut()[0] = 0.9;
        let mut y = x0.clone();
        bn.forward_train(&mut y).unwrap();
        bn.backward(&r).unwrap();
        let analytic = bn.scale_grad()[0];

        let eps = 1e-3;
        let numeric = (loss_with_gamma(0.9 + eps) - loss_with_gamma(0.9 - eps)) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() < 1e-2 * numeric.abs().max(1.0),
            "numeric {numeric} analytic {analytic}"
        );
    }
}
