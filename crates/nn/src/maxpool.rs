use crate::{ActivationPool, NnError, Result};
use dronet_tensor::{parallel, Shape, Tensor};

/// Max-pooling layer with Darknet's geometry semantics.
///
/// Darknet computes the output size as `(in + padding - size)/stride + 1`
/// with a default `padding = size - 1`, and offsets the window start by
/// `-padding/2`; out-of-bounds taps contribute `-inf`. These semantics make
/// the classic Tiny-YOLO "same" pool (`size=2, stride=1`) keep a 13×13 grid
/// at 13×13 input, which the paper's baseline models rely on.
///
/// # Example
///
/// ```
/// use dronet_nn::MaxPool2d;
/// # fn main() -> Result<(), dronet_nn::NnError> {
/// let pool = MaxPool2d::new(2, 2)?;
/// assert_eq!(pool.output_hw(416, 416), (208, 208));
/// let same = MaxPool2d::new(2, 1)?;
/// assert_eq!(same.output_hw(13, 13), (13, 13));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    size: usize,
    stride: usize,
    padding: usize,
    cache: Option<PoolCache>,
}

#[derive(Debug, Clone)]
struct PoolCache {
    /// For every output element, the flat index of the winning input
    /// element (usize::MAX when the whole window was padding).
    argmax: Vec<usize>,
    input_shape: Shape,
}

impl MaxPool2d {
    /// Creates a pool with Darknet's default padding of `size - 1`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadLayerConfig`] for zero size or stride.
    pub fn new(size: usize, stride: usize) -> Result<Self> {
        Self::with_padding(size, stride, size.saturating_sub(1))
    }

    /// Creates a pool with explicit total padding.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadLayerConfig`] for zero size or stride.
    pub fn with_padding(size: usize, stride: usize, padding: usize) -> Result<Self> {
        if size == 0 || stride == 0 {
            return Err(NnError::BadLayerConfig {
                layer: "maxpool",
                msg: format!("size ({size}) and stride ({stride}) must be positive"),
            });
        }
        Ok(MaxPool2d {
            size,
            stride,
            padding,
            cache: None,
        })
    }

    /// Window side length.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Stride in both dimensions.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Total padding (Darknet semantics; window offset is `-padding/2`).
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Output spatial size for an input of `h x w`.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + self.padding).saturating_sub(self.size) / self.stride + 1;
        let ow = (w + self.padding).saturating_sub(self.size) / self.stride + 1;
        (oh, ow)
    }

    /// Whether this is the zoo's downsampling pool over an `h x w` plane:
    /// aligned 2x2 stride-2 windows that tile a non-empty plane exactly.
    /// Such a pool has a fast kernel of its own at inference and can be
    /// taken in the store of the convolution ahead of it; everything else —
    /// the `size=2 stride=1` "same" pool, odd sizes — takes the generic
    /// loop.
    pub(crate) fn tiles_2x2(&self, h: usize, w: usize) -> bool {
        (self.size, self.stride) == (2, 2)
            && self.padding / 2 == 0
            && h * w > 0
            && h.is_multiple_of(2)
            && w.is_multiple_of(2)
    }

    /// Forgets the last training pass, as an inference pass does.
    pub(crate) fn clear_cache(&mut self) {
        self.cache = None;
    }

    /// Inference forward pass drawing the output buffer from a recycled
    /// [`ActivationPool`]. No cache is recorded and argmax tracking is
    /// skipped entirely, so the steady-state path performs no heap
    /// allocation once the pool is warm.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for non-NCHW input.
    pub fn forward_pooled(&mut self, x: &Tensor, pool: &mut ActivationPool) -> Result<Tensor> {
        self.cache = None;
        let out_shape = self.checked_output_shape(x)?;
        // Every output element is assigned below, so stale pool contents
        // are safe.
        let mut out = Tensor::from_vec(pool.take(out_shape.len()), out_shape)?;
        self.pool_into(x, out.as_mut_slice(), None);
        Ok(out)
    }

    /// Forward pass (training): records argmax indices for
    /// [`MaxPool2d::backward`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for non-NCHW input.
    pub fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        let out_shape = self.checked_output_shape(x)?;
        let mut out = Tensor::zeros(out_shape);
        let mut argmax = vec![usize::MAX; out_shape.len()];
        self.pool_into(x, out.as_mut_slice(), Some(&mut argmax));
        self.cache = Some(PoolCache {
            argmax,
            input_shape: *x.shape(),
        });
        Ok(out)
    }

    fn checked_output_shape(&self, x: &Tensor) -> Result<Shape> {
        let s = x.shape();
        if s.rank() != 4 {
            return Err(NnError::BadInput {
                expected: vec![0, 0, 0, 0],
                actual: s.dims().to_vec(),
            });
        }
        let (oh, ow) = self.output_hw(s.height(), s.width());
        Ok(Shape::nchw(s.batch(), s.channels(), oh, ow))
    }

    /// The pooling kernel: writes every element of `dst`, and the winning
    /// input index of every window into `argmax` when tracking for backward.
    fn pool_into(&self, x: &Tensor, dst: &mut [f32], mut argmax: Option<&mut [usize]>) {
        let s = x.shape();
        let (n, c, h, w) = (s.batch(), s.channels(), s.height(), s.width());
        let (oh, ow) = self.output_hw(h, w);
        let offset = -(self.padding as isize / 2);
        let src = x.as_slice();
        let in_plane = h * w;
        let out_plane = oh * ow;
        if argmax.is_none() && self.tiles_2x2(h, w) {
            parallel::par_chunks_mut(dst, n * c, out_plane, |planes, chunk| {
                let src = &src[planes.start * in_plane..planes.end * in_plane];
                pool_2x2_planes(src, w, chunk);
            });
            return;
        }
        for b in 0..n {
            for ch in 0..c {
                let in_base = (b * c + ch) * in_plane;
                let out_base = (b * c + ch) * out_plane;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = usize::MAX;
                        for ky in 0..self.size {
                            let iy = oy as isize * self.stride as isize + ky as isize + offset;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..self.size {
                                let ix = ox as isize * self.stride as isize + kx as isize + offset;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let idx = in_base + iy as usize * w + ix as usize;
                                if src[idx] > best {
                                    best = src[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let out_idx = out_base + oy * ow + ox;
                        // A window entirely inside padding yields 0 (cannot
                        // happen with Darknet's own geometries, but keep the
                        // kernel total).
                        dst[out_idx] = if best_idx == usize::MAX { 0.0 } else { best };
                        if let Some(a) = argmax.as_deref_mut() {
                            a[out_idx] = best_idx;
                        }
                    }
                }
            }
        }
    }

    /// Backward pass: routes each output gradient to the input element that
    /// won the max, accumulating on ties created by overlapping windows.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] when no training forward
    /// preceded this call and [`NnError::BadInput`] on gradient shape
    /// disagreement.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .take()
            .ok_or(NnError::MissingForwardCache { layer_index: 0 })?;
        if grad_out.len() != cache.argmax.len() {
            return Err(NnError::BadInput {
                expected: vec![cache.argmax.len()],
                actual: vec![grad_out.len()],
            });
        }
        let mut dx = Tensor::zeros(cache.input_shape);
        let d = dx.as_mut_slice();
        for (g, &idx) in grad_out.as_slice().iter().zip(&cache.argmax) {
            if idx != usize::MAX {
                d[idx] += g;
            }
        }
        Ok(dx)
    }
}

/// 2x2 stride-2 max pooling over whole planes of even width `w` and even
/// height: each pair of input rows becomes one output row.
///
/// Keeps the generic kernel's comparison order (`v > best` from −∞ over the
/// window in row-major order, so NaN never wins) and its rule that a window
/// in which nothing beat −∞ yields 0.0; the results are the same bits.
fn pool_2x2_planes(src: &[f32], w: usize, dst: &mut [f32]) {
    let row_pairs = src.chunks_exact(2 * w);
    for (pair, out_row) in row_pairs.zip(dst.chunks_exact_mut(w / 2)) {
        let (top, bottom) = pair.split_at(w);
        let windows = top.chunks_exact(2).zip(bottom.chunks_exact(2));
        for (out, (t, b)) in out_row.iter_mut().zip(windows) {
            let mut best = f32::NEG_INFINITY;
            for v in [t[0], t[1], b[0], b[1]] {
                if v > best {
                    best = v;
                }
            }
            *out = if best == f32::NEG_INFINITY { 0.0 } else { best };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An inference forward on a throwaway pool.
    fn infer(pool: &mut MaxPool2d, x: &Tensor) -> Tensor {
        pool.forward_pooled(x, &mut ActivationPool::default())
            .unwrap()
    }

    #[test]
    fn darknet_output_sizes() {
        let p22 = MaxPool2d::new(2, 2).unwrap();
        assert_eq!(p22.output_hw(416, 416), (208, 208));
        assert_eq!(p22.output_hw(13, 13), (7, 7)); // (13+1-2)/2+1
        let p21 = MaxPool2d::new(2, 1).unwrap();
        assert_eq!(p21.output_hw(13, 13), (13, 13));
    }

    #[test]
    fn forward_values_2x2_stride2() {
        // 4x4 single channel; 2x2/2 pooling picks the max of each quadrant.
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            Shape::nchw(1, 1, 4, 4),
        )
        .unwrap();
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        let y = infer(&mut pool, &x);
        // Darknet pad=1, offset=0: windows start at 0,2 -> plain 2x2 pooling.
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn same_pool_keeps_grid_and_takes_right_max() {
        // size=2 stride=1 on 3x3 keeps 3x3; last column/row pads right/bottom.
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            Shape::nchw(1, 1, 3, 3),
        )
        .unwrap();
        let mut pool = MaxPool2d::new(2, 1).unwrap();
        let y = infer(&mut pool, &x);
        assert_eq!(y.shape().dims(), &[1, 1, 3, 3]);
        assert_eq!(y.as_slice(), &[5.0, 6.0, 6.0, 8.0, 9.0, 9.0, 8.0, 9.0, 9.0]);
    }

    #[test]
    fn negative_inputs_survive_padding() {
        // All-negative input: padding must NOT leak zeros into the max.
        let x = Tensor::full(Shape::nchw(1, 1, 4, 4), -3.0);
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        let y = infer(&mut pool, &x);
        assert!(y.as_slice().iter().all(|&v| v == -3.0));
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The 2x2 fast path against the generic kernel, which the training
    /// forward always takes: the same bits, NaN and −∞ included. NaN never
    /// wins a comparison, and a window in which nothing beat −∞ is 0.0.
    #[test]
    fn fast_2x2_path_matches_the_generic_kernel_bit_for_bit() {
        use dronet_tensor::init;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        let mut x = init::uniform(Shape::nchw(2, 3, 6, 8), -2.0, 2.0, &mut rng);
        let special = [
            [nan, 1.0, -1.0, 0.5],    // NaN first: skipped
            [0.5, nan, nan, -3.0],    // NaN in the middle
            [nan, nan, nan, nan],     // all NaN: nothing beats −∞, so 0.0
            [ninf, ninf, ninf, ninf], // all −∞: likewise 0.0
            [ninf, nan, -7.0, ninf],  // one finite value among them
            [nan, ninf, f32::INFINITY, 2.0],
            [-0.0, 0.0, -0.0, -0.0], // signed zeros: first maximum wins
            [0.0, -0.0, 0.0, 0.0],
        ];
        for (i, window) in special.iter().enumerate() {
            let (oy, ox) = (i / 4, i % 4);
            for (t, &v) in window.iter().enumerate() {
                x.set(&[1, 2, 2 * oy + t / 2, 2 * ox + t % 2], v).unwrap();
            }
        }
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        assert!(pool.tiles_2x2(6, 8));
        let fast = infer(&mut pool, &x);
        let generic = pool.forward_train(&x).unwrap();
        assert_eq!(fast.shape().dims(), &[2, 3, 3, 4]);
        assert_eq!(bits(&fast), bits(&generic));
        assert_eq!(fast.get(&[1, 2, 0, 2]).unwrap().to_bits(), 0.0f32.to_bits());
        assert_eq!(fast.get(&[1, 2, 0, 3]).unwrap().to_bits(), 0.0f32.to_bits());
    }

    /// Geometries the fast path — and a convolution that would take the
    /// pool in its store — must leave alone: odd extents (the last window
    /// hangs over the edge), the stride-1 "same" pool, bigger windows,
    /// explicit padding that shifts the window origin, an empty plane.
    #[test]
    fn other_geometries_fall_back_to_the_generic_kernel() {
        use dronet_tensor::init;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for (size, stride, padding, h, w) in [
            (2, 2, 1, 7, 8),
            (2, 2, 1, 8, 7),
            (2, 1, 1, 6, 6),
            (3, 2, 2, 8, 8),
            (2, 2, 2, 8, 8),
            (2, 2, 3, 6, 6),
        ] {
            let x = init::uniform(Shape::nchw(1, 2, h, w), -1.0, 1.0, &mut rng);
            let mut pool = MaxPool2d::with_padding(size, stride, padding).unwrap();
            assert!(!pool.tiles_2x2(h, w));
            let inferred = infer(&mut pool, &x);
            let trained = pool.forward_train(&x).unwrap();
            let (oh, ow) = pool.output_hw(h, w);
            assert_eq!(inferred.shape().dims(), &[1, 2, oh, ow]);
            assert_eq!(
                bits(&inferred),
                bits(&trained),
                "size={size} stride={stride} pad={padding} {h}x{w}"
            );
        }
        assert!(!MaxPool2d::new(2, 2).unwrap().tiles_2x2(0, 8));
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::nchw(1, 1, 2, 2)).unwrap();
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        let y = pool.forward_train(&x).unwrap();
        assert_eq!(y.as_slice(), &[4.0]);
        let dx = pool
            .backward(&Tensor::full(Shape::nchw(1, 1, 1, 1), 2.5))
            .unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 0.0, 2.5]);
    }

    #[test]
    fn overlapping_windows_accumulate_gradient() {
        // size=2 stride=1 on 2x2: the max element (index 3) wins all windows.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 9.0], Shape::nchw(1, 1, 2, 2)).unwrap();
        let mut pool = MaxPool2d::new(2, 1).unwrap();
        let y = pool.forward_train(&x).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        let dx = pool
            .backward(&Tensor::ones(Shape::nchw(1, 1, 2, 2)))
            .unwrap();
        assert_eq!(dx.as_slice()[3], 4.0);
        assert_eq!(dx.sum(), 4.0);
    }

    #[test]
    fn backward_without_forward_is_error() {
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        assert!(matches!(
            pool.backward(&Tensor::zeros(Shape::nchw(1, 1, 1, 1))),
            Err(NnError::MissingForwardCache { .. })
        ));
    }

    #[test]
    fn rejects_bad_config() {
        assert!(MaxPool2d::new(0, 1).is_err());
        assert!(MaxPool2d::new(2, 0).is_err());
    }

    #[test]
    fn rejects_non_nchw_input() {
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        let flat = Tensor::zeros(Shape::matrix(4, 4));
        assert!(pool
            .forward_pooled(&flat, &mut ActivationPool::default())
            .is_err());
    }
}
