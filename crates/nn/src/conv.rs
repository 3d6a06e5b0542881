use crate::{Activation, ActivationPool, BatchNorm, MaxPool2d, NnError, Result};
use dronet_tensor::im2col::{col2im, im2col_into, ConvGeometry};
use dronet_tensor::packed::{self, ChannelEpilogue, PackedMatrix, Views};
use dronet_tensor::{gemm, ops, Shape, Tensor};
use std::sync::OnceLock;

/// A 2-D convolution layer with optional batch normalisation, bias and
/// activation — the Darknet `[convolutional]` section.
///
/// Weights are stored as a `[out_c, in_c*k*k]` matrix. Every forward
/// multiplies a packed copy of it against taps read straight from the
/// activation ([`dronet_tensor::packed::conv2d`]). Inference applies batch
/// norm, bias and activation as each value is stored; training takes the
/// raw sums, applies batch norm with batch statistics, bias and activation
/// after them, and keeps the layer input for the backward pass, which
/// rebuilds one image's im2col column matrix at a time, like Darknet's CPU
/// path. Both forwards produce the same bits.
///
/// # Example
///
/// ```
/// use dronet_nn::{Activation, ActivationPool, Conv2d};
/// use dronet_tensor::{Shape, Tensor};
///
/// # fn main() -> Result<(), dronet_nn::NnError> {
/// let mut conv = Conv2d::new(3, 16, 3, 1, 1, Activation::Leaky, true)?;
/// let x = Tensor::zeros(Shape::nchw(1, 3, 8, 8));
/// let y = conv.forward_pooled(&x, &mut ActivationPool::default())?;
/// assert_eq!(y.shape().dims(), &[1, 16, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    activation: Activation,
    weights: Tensor,
    bias: Vec<f32>,
    batch_norm: Option<BatchNorm>,
    weight_grad: Tensor,
    bias_grad: Vec<f32>,
    cache: Option<ConvCache>,
    /// `weights` in the microkernel's panel order: built by the first
    /// forward, dropped by every `&mut` path to `weights`.
    packed: OnceLock<PackedMatrix>,
}

/// What a training forward keeps for [`Conv2d::backward`].
#[derive(Debug, Clone)]
struct ConvCache {
    /// The layer input: the backward pass rebuilds each image's column
    /// matrix from it, one image at a time.
    input: Tensor,
    /// Pre-activation output (after BN and bias), needed for activation grad.
    pre_activation: Tensor,
    /// Input spatial geometry used in the forward pass.
    geom: ConvGeometry,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-initialised weights.
    ///
    /// `pad` is the zero padding applied to every border. Darknet's `pad=1`
    /// cfg key means "pad by `size/2`"; the [`crate::cfg`] parser performs
    /// that translation before calling this constructor.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadLayerConfig`] for zero channels, kernel or
    /// stride.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        activation: Activation,
        batch_normalize: bool,
    ) -> Result<Self> {
        if in_channels == 0 || out_channels == 0 {
            return Err(NnError::BadLayerConfig {
                layer: "convolutional",
                msg: format!("channels must be positive (in={in_channels}, out={out_channels})"),
            });
        }
        if kernel == 0 || stride == 0 {
            return Err(NnError::BadLayerConfig {
                layer: "convolutional",
                msg: format!("kernel ({kernel}) and stride ({stride}) must be positive"),
            });
        }
        let fan = in_channels * kernel * kernel;
        // Deterministic construction: weights start at a fixed seed; model
        // builders re-randomise via `init_weights` when a seed is supplied.
        let mut rng = rand_seed_for(out_channels, in_channels, kernel);
        let weights = dronet_tensor::init::kaiming(
            Shape::new(&[out_channels, in_channels, kernel, kernel]),
            &mut rng,
        )
        .reshape(Shape::matrix(out_channels, fan))?;
        let batch_norm = if batch_normalize {
            Some(BatchNorm::new(out_channels)?)
        } else {
            None
        };
        Ok(Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            activation,
            weight_grad: Tensor::zeros(Shape::matrix(out_channels, fan)),
            weights,
            bias: vec![0.0; out_channels],
            batch_norm,
            bias_grad: vec![0.0; out_channels],
            cache: None,
            packed: OnceLock::new(),
        })
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count (number of filters).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Square kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Stride in both spatial dimensions.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding on each border.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Activation applied to the layer output.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Whether the layer uses batch normalisation.
    pub fn has_batch_norm(&self) -> bool {
        self.batch_norm.is_some()
    }

    /// The batch-norm block, when present.
    pub fn batch_norm(&self) -> Option<&BatchNorm> {
        self.batch_norm.as_ref()
    }

    /// Mutable access to the batch-norm block, used by weight loading.
    pub fn batch_norm_mut(&mut self) -> Option<&mut BatchNorm> {
        self.batch_norm.as_mut()
    }

    /// Weight matrix `[out_c, in_c*k*k]`.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// Mutable weight matrix, used by weight loading and optimizers.
    pub fn weights_mut(&mut self) -> &mut Tensor {
        self.packed.take();
        &mut self.weights
    }

    /// Bias (or BN beta) vector, one entry per filter.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable bias vector, used by weight loading.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// Accumulated weight gradient.
    pub fn weight_grad(&self) -> &Tensor {
        &self.weight_grad
    }

    /// Accumulated bias gradient.
    pub fn bias_grad(&self) -> &[f32] {
        &self.bias_grad
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        let bn = if self.batch_norm.is_some() {
            self.out_channels
        } else {
            0
        };
        self.weights.len() + self.bias.len() + bn
    }

    /// Re-initialises weights from the given RNG (Kaiming) and zeroes bias.
    pub fn init_weights(&mut self, rng: &mut impl rand::Rng) {
        self.packed.take();
        let fan = self.in_channels * self.kernel * self.kernel;
        self.weights = dronet_tensor::init::kaiming(
            Shape::new(&[
                self.out_channels,
                self.in_channels,
                self.kernel,
                self.kernel,
            ]),
            rng,
        )
        .reshape(Shape::matrix(self.out_channels, fan))
        .expect("kaiming tensor has exactly out_c*fan elements");
        self.bias.iter_mut().for_each(|b| *b = 0.0);
    }

    /// Output spatial size for a given input size.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let geom = self.geometry(h, w);
        (geom.out_height(), geom.out_width())
    }

    fn geometry(&self, h: usize, w: usize) -> ConvGeometry {
        ConvGeometry {
            channels: self.in_channels,
            height: h,
            width: w,
            kernel: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// Inference forward pass over an NCHW batch, its output drawn from a
    /// recycled [`ActivationPool`] instead of a fresh allocation — see the
    /// pool's docs for why that matters for batched serving throughput.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when the channel count disagrees and
    /// propagates tensor kernel errors.
    pub fn forward_pooled(&mut self, x: &Tensor, pool: &mut ActivationPool) -> Result<Tensor> {
        self.forward_views(Views::Batch(x), pool)
    }

    /// [`Conv2d::forward_pooled`] over a batch of [`Views`]: each image is
    /// read where it lies, a window into a larger frame included.
    pub(crate) fn forward_views(
        &mut self,
        x: Views<'_>,
        pool: &mut ActivationPool,
    ) -> Result<Tensor> {
        let (geom, batch) = self.checked_geometry(&x)?;
        let shape = self.output_shape(batch, &geom);
        // Pooled buffers arrive with stale contents; that is safe because
        // the fused kernel assigns every output position without reading it
        // (its sums start in registers).
        let mut out = Tensor::from_vec(pool.take(shape.len()), shape)?;
        self.cache = None;
        self.infer_into(x, &geom, false, out.as_mut_slice())?;
        Ok(out)
    }

    /// Training forward pass: the raw sums from the inference kernel, then
    /// batch norm with batch statistics, bias and activation as separate
    /// passes. Keeps the input and the pre-activation output for
    /// [`Conv2d::backward`].
    ///
    /// # Errors
    ///
    /// Same as [`Conv2d::forward_pooled`].
    pub fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        let (geom, batch) = self.checked_geometry(&Views::Batch(x))?;
        let mut out = Tensor::zeros(self.output_shape(batch, &geom));
        // `(v + -0.0) * 1.0 + -0.0` is `v` for every `v`: with no batch
        // norm, a `-0.0` bias and the identity the store leaves each sum as
        // it is — the bits of the im2col + GEMM lowering this replaced.
        let unchanged = vec![-0.0; self.out_channels];
        let sums = ChannelEpilogue {
            batch_norm: None,
            bias: &unchanged,
        };
        let weights = self.packed_weights(&geom);
        packed::conv2d(
            Views::Batch(x),
            &geom,
            weights,
            sums,
            |v| v,
            out.as_mut_slice(),
        )?;
        // Darknet order: batch-norm, then bias, then activation.
        if let Some(bn) = self.batch_norm.as_mut() {
            bn.forward_train(&mut out)?;
        }
        ops::add_channel_bias(&mut out, &self.bias)?;
        self.cache = Some(ConvCache {
            input: x.clone(),
            pre_activation: out.clone(),
            geom,
        });
        self.activation.apply_in_place(out.as_mut_slice());
        Ok(out)
    }

    /// Inference through this layer and the max pool `after` it as one
    /// kernel that never writes this layer's own output
    /// ([`packed::conv2d_pooled`]), or `None` — nothing done — when `after`
    /// is not the plain 2x2 stride-2 downsampling pool or
    /// [`packed::pools_in_store`] does not take the layer. The bits are
    /// those of the two layers run one after the other.
    ///
    /// # Errors
    ///
    /// Same as [`Conv2d::forward_pooled`].
    pub(crate) fn forward_pooled_through(
        &mut self,
        x: Views<'_>,
        after: &mut MaxPool2d,
        pool: &mut ActivationPool,
    ) -> Result<Option<Tensor>> {
        let (geom, batch) = self.checked_geometry(&x)?;
        if !self.pools_through(after, geom.height, geom.width) {
            return Ok(None);
        }
        let (oh, ow) = (geom.out_height(), geom.out_width());
        let shape = Shape::nchw(batch, self.out_channels, oh / 2, ow / 2);
        let mut out = Tensor::from_vec(pool.take(shape.len()), shape)?;
        self.infer_into(x, &geom, true, out.as_mut_slice())?;
        // Both layers have run an inference pass.
        self.cache = None;
        after.clear_cache();
        Ok(Some(out))
    }

    /// Whether inference takes the max pool `after` this layer in this
    /// layer's store over an `h x w` input: `after` is the plain 2x2
    /// stride-2 downsampling pool and [`packed::pools_in_store`] takes the
    /// layer. [`Conv2d::forward_pooled_through`] runs by this rule and
    /// [`NetworkSummary`](crate::summary::NetworkSummary) reports it.
    pub(crate) fn pools_through(&self, after: &MaxPool2d, h: usize, w: usize) -> bool {
        let geom = self.geometry(h, w);
        after.tiles_2x2(geom.out_height(), geom.out_width())
            && packed::pools_in_store(&geom, self.out_channels)
    }

    /// The geometry of this layer over the NCHW batch `x`, and its size.
    fn checked_geometry(&self, x: &Views<'_>) -> Result<(ConvGeometry, usize)> {
        let s = x.shape()?;
        if s.rank() != 4 || s.channels() != self.in_channels {
            return Err(NnError::BadInput {
                expected: vec![0, self.in_channels, 0, 0],
                actual: s.dims().to_vec(),
            });
        }
        let geom = self.geometry(s.height(), s.width());
        geom.validate().map_err(NnError::from)?;
        Ok((geom, s.batch()))
    }

    /// The shape this layer gives a batch of `batch` images of geometry
    /// `geom`.
    fn output_shape(&self, batch: usize, geom: &ConvGeometry) -> Shape {
        let (oh, ow) = (geom.out_height(), geom.out_width());
        Shape::nchw(batch, self.out_channels, oh, ow)
    }

    /// Inference: one fused implicit-GEMM call for the whole batch, straight
    /// from the input views into the output tensor. No column matrix, no
    /// separate batch-norm, bias or activation pass, and no scratch beyond
    /// the kernel's own stack panels. With `pooled`, `out` is the output of
    /// the 2x2 stride-2 max pool behind this layer, which
    /// [`packed::pools_in_store`] must take.
    fn infer_into(
        &self,
        x: Views<'_>,
        geom: &ConvGeometry,
        pooled: bool,
        out: &mut [f32],
    ) -> Result<()> {
        // One kernel instantiation per activation, each calling `apply` on
        // a constant so the `match` inside it folds away and the store loop
        // carries no per-element dispatch.
        use Activation::{Leaky, Linear, Logistic, Relu};
        match self.activation {
            Linear => self.infer_with(x, geom, pooled, out, |v| Linear.apply(v)),
            Leaky => self.infer_with(x, geom, pooled, out, |v| Leaky.apply(v)),
            Relu => self.infer_with(x, geom, pooled, out, |v| Relu.apply(v)),
            Logistic => self.infer_with(x, geom, pooled, out, |v| Logistic.apply(v)),
        }
    }

    fn infer_with(
        &self,
        x: Views<'_>,
        geom: &ConvGeometry,
        pooled: bool,
        out: &mut [f32],
        activation: impl Fn(f32) -> f32 + Copy + Send,
    ) -> Result<()> {
        let weights = self.packed_weights(geom);
        // Darknet order: batch-norm, then bias, then activation.
        let channels = ChannelEpilogue {
            batch_norm: self.batch_norm.as_ref().map(BatchNorm::infer_coefficients),
            bias: &self.bias,
        };
        if pooled {
            packed::conv2d_pooled(x, geom, weights, channels, activation, out)?;
        } else {
            packed::conv2d(x, geom, weights, channels, activation, out)?;
        }
        Ok(())
    }

    /// The weight matrix in the microkernel's panel order, packed by the
    /// first forward after a mutation.
    fn packed_weights(&self, geom: &ConvGeometry) -> &PackedMatrix {
        self.packed.get_or_init(|| {
            PackedMatrix::pack(self.weights.as_slice(), self.out_channels, geom.col_rows())
                .expect("the weight matrix is out_c x in_c*k*k")
        })
    }

    /// Backward pass: accumulates weight/bias/BN gradients and returns the
    /// gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] when no training forward
    /// preceded this call, [`NnError::BadInput`] on shape disagreement.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .take()
            .ok_or(NnError::MissingForwardCache { layer_index: 0 })?;
        if grad_out.shape() != cache.pre_activation.shape() {
            return Err(NnError::BadInput {
                expected: cache.pre_activation.shape().dims().to_vec(),
                actual: grad_out.shape().dims().to_vec(),
            });
        }

        // Through the activation: dL/dpre = dL/dy * act'(pre).
        let mut delta = grad_out.clone();
        {
            let pre = cache.pre_activation.as_slice();
            let d = delta.as_mut_slice();
            for (g, &p) in d.iter_mut().zip(pre) {
                *g *= self.activation.grad(p);
            }
        }

        // Bias gradient (after BN in forward order, so taken before BN here).
        let bias_sums = ops::sum_over_channels(&delta)?;
        for (bg, s) in self.bias_grad.iter_mut().zip(bias_sums) {
            *bg += s;
        }

        // Through batch norm.
        if let Some(bn) = self.batch_norm.as_mut() {
            delta = bn.backward(&delta)?;
        }

        // Through the convolution itself, per batch item.
        let s = *delta.shape();
        let n = s.batch();
        let plane = s.height() * s.width();
        let mut dx = Tensor::zeros(Shape::nchw(
            n,
            self.in_channels,
            cache.geom.height,
            cache.geom.width,
        ));
        let in_plane = cache.geom.height * cache.geom.width;
        let mut cols = Tensor::zeros(Shape::matrix(cache.geom.col_rows(), plane));
        for b in 0..n {
            let base = b * self.out_channels * plane;
            let dy_mat = Tensor::from_vec(
                delta.as_slice()[base..base + self.out_channels * plane].to_vec(),
                Shape::matrix(self.out_channels, plane),
            )?;
            // dW += dY x colsᵀ, the columns rebuilt from the saved input.
            im2col_into(&cache.input, b, &cache.geom, cols.as_mut_slice())?;
            gemm::sgemm(false, true, 1.0, &dy_mat, &cols, 1.0, &mut self.weight_grad)?;
            // dCols = Wᵀ x dY, then scatter back to image space.
            let mut dcols = Tensor::zeros(Shape::matrix(cache.geom.col_rows(), plane));
            gemm::sgemm(true, false, 1.0, &self.weights, &dy_mat, 0.0, &mut dcols)?;
            let dimg = col2im(&dcols, &cache.geom)?;
            let dst = &mut dx.as_mut_slice()
                [b * self.in_channels * in_plane..(b + 1) * self.in_channels * in_plane];
            dst.copy_from_slice(dimg.as_slice());
        }
        Ok(dx)
    }

    /// Clears accumulated gradients (weights, bias, BN scales).
    pub fn zero_grads(&mut self) {
        self.weight_grad.fill(0.0);
        self.bias_grad.iter_mut().for_each(|g| *g = 0.0);
        if let Some(bn) = self.batch_norm.as_mut() {
            bn.zero_grads();
        }
    }

    /// Visits every (parameter slice, gradient slice) pair of this layer.
    pub fn visit_params_mut(&mut self, mut f: impl FnMut(&mut [f32], &mut [f32])) {
        self.packed.take();
        f(self.weights.as_mut_slice(), self.weight_grad.as_mut_slice());
        f(&mut self.bias, &mut self.bias_grad);
        if let Some(bn) = self.batch_norm.as_mut() {
            let (p, g) = bn.params_and_grads_mut();
            f(p, g);
        }
    }
}

/// Deterministic default-seed RNG so freshly constructed layers are
/// reproducible; callers that want different weights use `init_weights`.
fn rand_seed_for(a: usize, b: usize, c: usize) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    let seed = 0x5eed_0000u64 ^ ((a as u64) << 24) ^ ((b as u64) << 8) ^ c as u64;
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dronet_tensor::init;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// An inference forward on a throwaway pool.
    fn infer(conv: &mut Conv2d, x: &Tensor) -> Tensor {
        conv.forward_pooled(x, &mut ActivationPool::default())
            .unwrap()
    }

    /// Direct (nested-loop) convolution used as the ground truth.
    fn reference_conv(x: &Tensor, conv: &Conv2d) -> Tensor {
        let s = x.shape();
        let (n, h, w) = (s.batch(), s.height(), s.width());
        let (oh, ow) = conv.output_hw(h, w);
        let mut out = Tensor::zeros(Shape::nchw(n, conv.out_channels, oh, ow));
        let wts = conv.weights.as_slice();
        let k = conv.kernel;
        let fan = conv.in_channels * k * k;
        for b in 0..n {
            for oc in 0..conv.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = conv.bias[oc];
                        for ic in 0..conv.in_channels {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = (oy * conv.stride + ky) as isize - conv.pad as isize;
                                    let ix = (ox * conv.stride + kx) as isize - conv.pad as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    let xv = x.get(&[b, ic, iy as usize, ix as usize]).unwrap();
                                    let wv = wts[oc * fan + (ic * k + ky) * k + kx];
                                    acc += xv * wv;
                                }
                            }
                        }
                        out.set(&[b, oc, oy, ox], conv.activation.apply(acc))
                            .unwrap();
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_reference_conv() {
        for &(cin, cout, k, s, p, hw) in &[
            (1usize, 2usize, 3usize, 1usize, 1usize, 6usize),
            (3, 4, 3, 2, 1, 8),
            (2, 3, 1, 1, 0, 5),
            (2, 2, 2, 2, 0, 6),
        ] {
            let mut conv = Conv2d::new(cin, cout, k, s, p, Activation::Leaky, false).unwrap();
            let mut r = rng(100 + k as u64);
            conv.init_weights(&mut r);
            for (i, b) in conv.bias_mut().iter_mut().enumerate() {
                *b = i as f32 * 0.1;
            }
            let x = init::uniform(Shape::nchw(2, cin, hw, hw), -1.0, 1.0, &mut r);
            let got = infer(&mut conv, &x);
            let want = reference_conv(&x, &conv);
            assert!(
                got.max_abs_diff(&want).unwrap() < 1e-4,
                "conv mismatch cin={cin} cout={cout} k={k} s={s} p={p}"
            );
        }
    }

    #[test]
    fn same_padding_preserves_spatial_size() {
        let conv = Conv2d::new(3, 8, 3, 1, 1, Activation::Leaky, true).unwrap();
        assert_eq!(conv.output_hw(416, 416), (416, 416));
        let conv2 = Conv2d::new(3, 8, 1, 1, 0, Activation::Linear, false).unwrap();
        assert_eq!(conv2.output_hw(13, 13), (13, 13));
    }

    #[test]
    fn rejects_bad_config_and_input() {
        assert!(Conv2d::new(0, 8, 3, 1, 1, Activation::Leaky, false).is_err());
        assert!(Conv2d::new(3, 0, 3, 1, 1, Activation::Leaky, false).is_err());
        assert!(Conv2d::new(3, 8, 0, 1, 1, Activation::Leaky, false).is_err());
        assert!(Conv2d::new(3, 8, 3, 0, 1, Activation::Leaky, false).is_err());
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, Activation::Leaky, false).unwrap();
        let bad = Tensor::zeros(Shape::nchw(1, 2, 8, 8));
        let got = conv.forward_pooled(&bad, &mut ActivationPool::default());
        assert!(matches!(got, Err(NnError::BadInput { .. })));
    }

    #[test]
    fn param_count_accounts_for_bn() {
        let plain = Conv2d::new(3, 8, 3, 1, 1, Activation::Leaky, false).unwrap();
        assert_eq!(plain.param_count(), 3 * 8 * 9 + 8);
        let bn = Conv2d::new(3, 8, 3, 1, 1, Activation::Leaky, true).unwrap();
        assert_eq!(bn.param_count(), 3 * 8 * 9 + 8 + 8);
    }

    #[test]
    fn backward_requires_training_forward() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, Activation::Linear, false).unwrap();
        let x = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        infer(&mut conv, &x); // inference does not cache
        let g = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        assert!(matches!(
            conv.backward(&g),
            Err(NnError::MissingForwardCache { .. })
        ));
    }

    /// Full finite-difference check of input, weight and bias gradients.
    ///
    /// Uses a linear activation so the finite-difference window never
    /// straddles an activation kink (a pre-activation near zero makes the
    /// leaky-ReLU numeric derivative arbitrarily wrong for any eps);
    /// activation gradients have their own FD test in `activation.rs`.
    #[test]
    fn gradients_match_finite_differences() {
        let mut r = rng(77);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, Activation::Linear, false).unwrap();
        conv.init_weights(&mut r);
        for b in conv.bias_mut() {
            *b = 0.05;
        }
        let x0 = init::uniform(Shape::nchw(2, 2, 5, 5), -1.0, 1.0, &mut r);
        let target = init::uniform(Shape::nchw(2, 3, 5, 5), -1.0, 1.0, &mut r);

        // L = sum(y * target)
        let y = conv.forward_train(&x0).unwrap();
        assert_eq!(y.shape(), target.shape());
        conv.zero_grads();
        // Need a fresh cache: forward_train again (zero_grads doesn't drop it).
        conv.forward_train(&x0).unwrap();
        let dx = conv.backward(&target).unwrap();

        let eps = 1e-2f32;
        let loss = |c: &mut Conv2d, x: &Tensor| -> f32 { infer(c, x).dot(&target).unwrap() };

        // dL/dx probes
        for probe in [0usize, 13, 49, 99] {
            let mut xp = x0.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x0.clone();
            xm.as_mut_slice()[probe] -= eps;
            let numeric =
                (loss(&mut conv.clone(), &xp) - loss(&mut conv.clone(), &xm)) / (2.0 * eps);
            let analytic = dx.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 3e-2 * numeric.abs().max(1.0),
                "dx probe {probe}: numeric {numeric} analytic {analytic}"
            );
        }

        // dL/dW probes
        for probe in [0usize, 7, 33] {
            let mut cp = conv.clone();
            cp.weights_mut().as_mut_slice()[probe] += eps;
            let mut cm = conv.clone();
            cm.weights_mut().as_mut_slice()[probe] -= eps;
            let numeric = (loss(&mut cp, &x0) - loss(&mut cm, &x0)) / (2.0 * eps);
            let analytic = conv.weight_grad.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 3e-2 * numeric.abs().max(1.0),
                "dW probe {probe}: numeric {numeric} analytic {analytic}"
            );
        }

        // dL/db probes
        for probe in 0..3usize {
            let mut cp = conv.clone();
            cp.bias_mut()[probe] += eps;
            let mut cm = conv.clone();
            cm.bias_mut()[probe] -= eps;
            let numeric = (loss(&mut cp, &x0) - loss(&mut cm, &x0)) / (2.0 * eps);
            let analytic = conv.bias_grad[probe];
            assert!(
                (numeric - analytic).abs() < 3e-2 * numeric.abs().max(1.0),
                "db probe {probe}: numeric {numeric} analytic {analytic}"
            );
        }
    }

    /// The fused inference path (shared cols buffer, in-place GEMM) must be
    /// bit-exact against per-image forwards: image `i` of a batched forward
    /// equals the forward of image `i` alone. This is the stride/offset
    /// contract the serving micro-batcher relies on.
    #[test]
    fn batched_inference_is_bit_exact_per_image() {
        let mut r = rng(17);
        for (bn, pad) in [(false, 1), (true, 0)] {
            let mut conv = Conv2d::new(3, 4, 3, 1, pad, Activation::Leaky, bn).unwrap();
            conv.init_weights(&mut r);
            let batch = init::uniform(Shape::nchw(4, 3, 6, 6), -1.0, 1.0, &mut r);
            let batched = infer(&mut conv, &batch);
            for b in 0..4 {
                let single = infer(&mut conv, &batch.batch_item(b).unwrap());
                assert_eq!(
                    batched.batch_item(b).unwrap().as_slice(),
                    single.as_slice(),
                    "bn={bn} pad={pad} image {b}"
                );
            }
        }
    }

    /// Inference and training forwards compute the same values (different
    /// buffer management, same math).
    #[test]
    fn inference_and_training_forward_agree() {
        let mut r = rng(18);
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, Activation::Linear, false).unwrap();
        conv.init_weights(&mut r);
        let x = init::uniform(Shape::nchw(3, 2, 7, 5), -1.0, 1.0, &mut r);
        let inferred = infer(&mut conv, &x);
        let trained = conv.forward_train(&x).unwrap();
        assert_eq!(inferred.as_slice(), trained.as_slice());
    }

    /// A layer of the same configuration that was handed `conv`'s parameters
    /// and has never run: whatever it computes, it packs afresh.
    fn fresh_copy(conv: &Conv2d) -> Conv2d {
        let mut fresh = Conv2d::new(
            conv.in_channels,
            conv.out_channels,
            conv.kernel,
            conv.stride,
            conv.pad,
            conv.activation,
            conv.has_batch_norm(),
        )
        .unwrap();
        fresh
            .weights_mut()
            .as_mut_slice()
            .copy_from_slice(conv.weights().as_slice());
        fresh.bias_mut().copy_from_slice(conv.bias());
        if let (Some(to), Some(from)) = (fresh.batch_norm_mut(), conv.batch_norm()) {
            to.scales_mut().copy_from_slice(from.scales());
            to.rolling_mean_mut().copy_from_slice(from.rolling_mean());
            to.rolling_var_mut().copy_from_slice(from.rolling_var());
        }
        assert!(fresh.packed.get().is_none());
        fresh
    }

    /// Stale packed weights would be a silent wrong answer: every `&mut`
    /// route to the weight matrix must drop them.
    #[test]
    fn every_weight_mutation_path_drops_the_packed_weights() {
        type Mutation = fn(&mut Conv2d);
        let paths: [(&str, Mutation); 3] = [
            ("weights_mut", |c| {
                c.weights_mut().as_mut_slice()[5] += 0.25;
            }),
            ("init_weights", |c| c.init_weights(&mut rng(99))),
            ("visit_params_mut", |c| {
                // What an optimizer step, a checkpoint restore and a
                // `.weights` load all do.
                c.visit_params_mut(|p, _| p.iter_mut().for_each(|v| *v *= 1.5));
            }),
        ];
        let x = init::uniform(Shape::nchw(2, 3, 7, 6), -1.0, 1.0, &mut rng(1));
        for (name, mutate) in paths {
            let mut conv = Conv2d::new(3, 5, 3, 1, 1, Activation::Leaky, true).unwrap();
            let before = infer(&mut conv, &x);
            assert!(conv.packed.get().is_some(), "{name}: forward packs");
            mutate(&mut conv);
            assert!(conv.packed.get().is_none(), "{name}: cache dropped");
            let after = infer(&mut conv, &x);
            assert_ne!(before, after, "{name}: the mutation is visible");
            let want = infer(&mut fresh_copy(&conv), &x);
            assert_eq!(after.as_slice(), want.as_slice(), "{name}");
        }
    }

    /// `Clone` is derived: a clone carries a copy of the packed weights,
    /// which match its copy of the weight matrix, and from there the two
    /// layers' caches live separate lives.
    #[test]
    fn a_clone_owns_its_packed_weights() {
        let x = init::uniform(Shape::nchw(1, 3, 6, 6), -1.0, 1.0, &mut rng(2));
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, Activation::Leaky, false).unwrap();
        let original = infer(&mut conv, &x);
        let mut clone = conv.clone();
        assert_eq!(infer(&mut clone, &x), original);
        clone.weights_mut().as_mut_slice()[0] += 1.0;
        let want = infer(&mut fresh_copy(&clone), &x);
        assert_eq!(infer(&mut clone, &x).as_slice(), want.as_slice());
        assert!(conv.packed.get().is_some(), "the original keeps its cache");
        assert_eq!(infer(&mut conv, &x), original);
    }

    /// Weights are packed at most once between mutations: a write that goes
    /// behind the accessors' backs (only code in this module can do that) is
    /// not seen until an accessor drops the cache — so the forwards in
    /// between ran on the panels packed the first time.
    #[test]
    fn weights_are_packed_once_between_mutations() {
        let x = init::uniform(Shape::nchw(1, 2, 5, 5), -1.0, 1.0, &mut rng(3));
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, Activation::Linear, false).unwrap();
        assert!(conv.packed.get().is_none(), "construction packs nothing");
        let first = infer(&mut conv, &x);
        conv.weights.as_mut_slice()[0] += 1.0;
        assert_eq!(infer(&mut conv, &x), first, "no repack");
        let _ = conv.weights_mut();
        assert_ne!(infer(&mut conv, &x), first, "repacked after a mutation");
        // Training packs through the same cache.
        let _ = conv.weights_mut();
        let trained = conv.forward_train(&x).unwrap();
        assert!(conv.packed.get().is_some(), "training packs");
        conv.weights.as_mut_slice()[0] += 1.0;
        assert_eq!(infer(&mut conv, &x), trained, "inference reuses the panels");
    }

    #[test]
    fn gradients_with_batchnorm_flow() {
        // Smoke check that BN-enabled layers produce finite gradients of the
        // right shapes; exact values are covered by the BN unit tests.
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, Activation::Leaky, true).unwrap();
        let mut r = rng(5);
        let x = init::uniform(Shape::nchw(4, 2, 6, 6), -1.0, 1.0, &mut r);
        let y = conv.forward_train(&x).unwrap();
        let g = Tensor::ones(*y.shape());
        let dx = conv.backward(&g).unwrap();
        assert_eq!(dx.shape(), x.shape());
        assert!(dx.as_slice().iter().all(|v| v.is_finite()));
        assert!(conv.weight_grad().as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn zero_grads_clears_everything() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, Activation::Leaky, true).unwrap();
        let x = Tensor::ones(Shape::nchw(1, 1, 4, 4));
        let y = conv.forward_train(&x).unwrap();
        conv.backward(&Tensor::ones(*y.shape())).unwrap();
        conv.zero_grads();
        assert!(conv.weight_grad().as_slice().iter().all(|&v| v == 0.0));
        assert!(conv.bias_grad().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn visit_params_covers_all_parameters() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, Activation::Leaky, true).unwrap();
        let mut total = 0usize;
        conv.visit_params_mut(|p, g| {
            assert_eq!(p.len(), g.len());
            total += p.len();
        });
        assert_eq!(total, conv.param_count());
    }
}
