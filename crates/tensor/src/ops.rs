//! Element-wise and reduction kernels used by the CNN layers.
//!
//! Everything here operates on flat slices or whole [`Tensor`]s; the layer
//! code in `dronet-nn` is responsible for interpreting shapes.

use crate::{Result, Tensor, TensorError};

/// Logistic sigmoid `1 / (1 + e^-x)`.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Derivative of the logistic sigmoid expressed in terms of its output `y`.
#[inline]
pub fn sigmoid_grad_from_output(y: f32) -> f32 {
    y * (1.0 - y)
}

/// Leaky rectified linear unit with the Darknet slope of 0.1.
#[inline]
pub fn leaky_relu(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.1 * x
    }
}

/// Derivative of [`leaky_relu`] with respect to its input.
#[inline]
pub fn leaky_relu_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.1
    }
}

/// Numerically-stable softmax over `logits`, written into a fresh vector.
///
/// An empty slice yields an empty vector.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut out: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = out.iter().sum();
    if sum > 0.0 {
        for x in &mut out {
            *x /= sum;
        }
    }
    out
}

/// Per-channel mean over an NCHW tensor: returns `channels` values averaged
/// over batch and spatial dimensions.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-4-D input.
#[allow(clippy::needless_range_loop)] // channel-indexed kernel loop
pub fn channel_mean(x: &Tensor) -> Result<Vec<f32>> {
    let s = x.shape();
    if s.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "channel_mean",
            expected: 4,
            actual: s.rank(),
        });
    }
    let (n, c, h, w) = (s.batch(), s.channels(), s.height(), s.width());
    let plane = h * w;
    let count = (n * plane).max(1) as f32;
    let mut means = vec![0.0f32; c];
    let data = x.as_slice();
    for b in 0..n {
        for ch in 0..c {
            let base = (b * c + ch) * plane;
            means[ch] += data[base..base + plane].iter().sum::<f32>();
        }
    }
    for m in &mut means {
        *m /= count;
    }
    Ok(means)
}

/// Per-channel (biased) variance over an NCHW tensor given precomputed
/// per-channel means.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-4-D input and
/// [`TensorError::LengthMismatch`] when `means` has the wrong length.
pub fn channel_variance(x: &Tensor, means: &[f32]) -> Result<Vec<f32>> {
    let s = x.shape();
    if s.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "channel_variance",
            expected: 4,
            actual: s.rank(),
        });
    }
    let (n, c, h, w) = (s.batch(), s.channels(), s.height(), s.width());
    if means.len() != c {
        return Err(TensorError::LengthMismatch {
            expected: c,
            actual: means.len(),
        });
    }
    let plane = h * w;
    let count = (n * plane).max(1) as f32;
    let mut vars = vec![0.0f32; c];
    let data = x.as_slice();
    for b in 0..n {
        for ch in 0..c {
            let base = (b * c + ch) * plane;
            let m = means[ch];
            vars[ch] += data[base..base + plane]
                .iter()
                .map(|&v| (v - m) * (v - m))
                .sum::<f32>();
        }
    }
    for v in &mut vars {
        *v /= count;
    }
    Ok(vars)
}

/// Adds `bias[ch]` to every element of channel `ch` of an NCHW tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::LengthMismatch`]
/// on malformed input.
#[allow(clippy::needless_range_loop)] // channel-indexed kernel loop
pub fn add_channel_bias(x: &mut Tensor, bias: &[f32]) -> Result<()> {
    let s = *x.shape();
    if s.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "add_channel_bias",
            expected: 4,
            actual: s.rank(),
        });
    }
    let (n, c, h, w) = (s.batch(), s.channels(), s.height(), s.width());
    if bias.len() != c {
        return Err(TensorError::LengthMismatch {
            expected: c,
            actual: bias.len(),
        });
    }
    let plane = h * w;
    let data = x.as_mut_slice();
    for b in 0..n {
        for ch in 0..c {
            let base = (b * c + ch) * plane;
            let bv = bias[ch];
            for v in &mut data[base..base + plane] {
                *v += bv;
            }
        }
    }
    Ok(())
}

/// Multiplies every element of channel `ch` of an NCHW tensor by
/// `scale[ch]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::LengthMismatch`]
/// on malformed input.
#[allow(clippy::needless_range_loop)] // channel-indexed kernel loop
pub fn scale_channels(x: &mut Tensor, scale: &[f32]) -> Result<()> {
    let s = *x.shape();
    if s.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "scale_channels",
            expected: 4,
            actual: s.rank(),
        });
    }
    let (n, c, h, w) = (s.batch(), s.channels(), s.height(), s.width());
    if scale.len() != c {
        return Err(TensorError::LengthMismatch {
            expected: c,
            actual: scale.len(),
        });
    }
    let plane = h * w;
    let data = x.as_mut_slice();
    for b in 0..n {
        for ch in 0..c {
            let base = (b * c + ch) * plane;
            let sv = scale[ch];
            for v in &mut data[base..base + plane] {
                *v *= sv;
            }
        }
    }
    Ok(())
}

/// Sums an NCHW gradient over batch and spatial dimensions, yielding one
/// value per channel (the bias gradient).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-4-D input.
#[allow(clippy::needless_range_loop)] // channel-indexed kernel loop
pub fn sum_over_channels(x: &Tensor) -> Result<Vec<f32>> {
    let s = x.shape();
    if s.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "sum_over_channels",
            expected: 4,
            actual: s.rank(),
        });
    }
    let (n, c, h, w) = (s.batch(), s.channels(), s.height(), s.width());
    let plane = h * w;
    let mut sums = vec![0.0f32; c];
    let data = x.as_slice();
    for b in 0..n {
        for ch in 0..c {
            let base = (b * c + ch) * plane;
            sums[ch] += data[base..base + plane].iter().sum::<f32>();
        }
    }
    Ok(sums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
        // derivative peak at 0
        let y = sigmoid(0.0);
        assert!((sigmoid_grad_from_output(y) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn leaky_relu_values() {
        assert_eq!(leaky_relu(2.0), 2.0);
        assert_eq!(leaky_relu(-2.0), -0.2);
        assert_eq!(leaky_relu_grad(1.0), 1.0);
        assert_eq!(leaky_relu_grad(-1.0), 0.1);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // large logits don't overflow
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-6);
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn channel_statistics() {
        // 1 batch, 2 channels of 2x2: ch0 = [1,1,1,1], ch1 = [0,2,0,2]
        let t = Tensor::from_vec(
            vec![1.0, 1.0, 1.0, 1.0, 0.0, 2.0, 0.0, 2.0],
            Shape::nchw(1, 2, 2, 2),
        )
        .unwrap();
        let means = channel_mean(&t).unwrap();
        assert_eq!(means, vec![1.0, 1.0]);
        let vars = channel_variance(&t, &means).unwrap();
        assert_eq!(vars, vec![0.0, 1.0]);
    }

    #[test]
    fn channel_statistics_across_batch() {
        // 2 batches, 1 channel: values 0..4 and 4..8 -> mean 3.5
        let t =
            Tensor::from_vec((0..8).map(|x| x as f32).collect(), Shape::nchw(2, 1, 2, 2)).unwrap();
        let means = channel_mean(&t).unwrap();
        assert_eq!(means, vec![3.5]);
    }

    #[test]
    fn bias_and_scale_channels() {
        let mut t = Tensor::ones(Shape::nchw(1, 2, 2, 2));
        add_channel_bias(&mut t, &[1.0, -1.0]).unwrap();
        assert_eq!(t.get(&[0, 0, 0, 0]).unwrap(), 2.0);
        assert_eq!(t.get(&[0, 1, 1, 1]).unwrap(), 0.0);
        scale_channels(&mut t, &[0.5, 3.0]).unwrap();
        assert_eq!(t.get(&[0, 0, 1, 0]).unwrap(), 1.0);
        assert_eq!(t.get(&[0, 1, 0, 1]).unwrap(), 0.0);
    }

    #[test]
    fn sum_over_channels_matches_manual() {
        let t =
            Tensor::from_vec((0..8).map(|x| x as f32).collect(), Shape::nchw(1, 2, 2, 2)).unwrap();
        let sums = sum_over_channels(&t).unwrap();
        assert_eq!(sums, vec![6.0, 22.0]);
    }

    #[test]
    fn wrong_rank_is_error() {
        let t = Tensor::zeros(Shape::matrix(2, 2));
        assert!(channel_mean(&t).is_err());
        assert!(sum_over_channels(&t).is_err());
        let mut t4 = Tensor::zeros(Shape::nchw(1, 2, 1, 1));
        assert!(add_channel_bias(&mut t4, &[0.0]).is_err());
        assert!(scale_channels(&mut t4, &[0.0, 0.0, 0.0]).is_err());
    }
}
