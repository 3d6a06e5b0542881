//! Image-to-column lowering for expressing convolution as GEMM.
//!
//! [`im2col`] unrolls every receptive field of a padded input feature map
//! into a column of a matrix; a convolution is then a single GEMM between
//! the `[out_channels, in_channels*k*k]` weight matrix and the
//! `[in_channels*k*k, out_h*out_w]` column matrix. [`col2im`] is the exact
//! adjoint (transpose) of that linear map and is used to propagate gradients
//! back to the input. This mirrors Darknet's `im2col_cpu`/`col2im_cpu`.
//!
//! Only the training backward pass uses this lowering, one image at a time;
//! no forward builds it — [`crate::packed::conv2d`] reads the same values
//! straight from the activation.

use crate::{Result, Shape, Tensor, TensorError};

/// Geometry of a 2-D convolution/pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Input channel count.
    pub channels: usize,
    /// Input height in pixels.
    pub height: usize,
    /// Input width in pixels.
    pub width: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding added on every border.
    pub pad: usize,
}

impl ConvGeometry {
    /// Output height after the convolution.
    pub fn out_height(&self) -> usize {
        conv_out_dim(self.height, self.kernel, self.stride, self.pad)
    }

    /// Output width after the convolution.
    pub fn out_width(&self) -> usize {
        conv_out_dim(self.width, self.kernel, self.stride, self.pad)
    }

    /// Number of rows in the column matrix: `channels * kernel * kernel`.
    pub fn col_rows(&self) -> usize {
        self.channels * self.kernel * self.kernel
    }

    /// Number of columns in the column matrix: `out_h * out_w`.
    pub fn col_cols(&self) -> usize {
        self.out_height() * self.out_width()
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for zero kernel/stride or a
    /// window larger than the padded input.
    pub fn validate(&self) -> Result<()> {
        if self.kernel == 0 || self.stride == 0 {
            return Err(TensorError::InvalidArgument {
                op: "conv geometry",
                msg: format!(
                    "kernel ({}) and stride ({}) must be positive",
                    self.kernel, self.stride
                ),
            });
        }
        if self.kernel > self.height + 2 * self.pad || self.kernel > self.width + 2 * self.pad {
            return Err(TensorError::InvalidArgument {
                op: "conv geometry",
                msg: format!(
                    "kernel {} exceeds padded input {}x{}",
                    self.kernel,
                    self.height + 2 * self.pad,
                    self.width + 2 * self.pad
                ),
            });
        }
        Ok(())
    }
}

/// Output spatial size of a convolution along one dimension.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    (input + 2 * pad).saturating_sub(kernel) / stride + 1
}

/// Unrolls a single-image `[1, c, h, w]` (or `[c, h, w]`) tensor into the
/// `[c*k*k, out_h*out_w]` column matrix.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for invalid geometry and
/// [`TensorError::ShapeMismatch`] when the tensor does not match the
/// geometry's channel/size description.
pub fn im2col(input: &Tensor, geom: &ConvGeometry) -> Result<Tensor> {
    geom.validate()?;
    check_image_shape(input, geom)?;
    let mut col = vec![0.0f32; geom.col_rows() * geom.col_cols()];
    unroll_item(input.as_slice(), 0, geom, &mut col);
    Tensor::from_vec(col, Shape::matrix(geom.col_rows(), geom.col_cols()))
}

/// [`im2col`] into a caller-provided buffer, reading batch item `batch` of
/// an `[n, c, h, w]` tensor in place (no per-item copy, no allocation).
///
/// The buffer is fully overwritten (padding positions are re-zeroed), so it
/// can be reused across batch items and layers.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for invalid geometry,
/// [`TensorError::ShapeMismatch`] when the tensor's channel/spatial dims do
/// not match the geometry or `col` has the wrong length, and
/// [`TensorError::IndexOutOfBounds`] when `batch` exceeds the batch size.
pub fn im2col_into(
    input: &Tensor,
    batch: usize,
    geom: &ConvGeometry,
    col: &mut [f32],
) -> Result<()> {
    check_into_args(input, batch, geom, col)?;
    col.fill(0.0);
    let item_stride = geom.channels * geom.height * geom.width;
    unroll_item(input.as_slice(), batch * item_stride, geom, col);
    Ok(())
}

/// Argument validation for [`im2col_into`].
fn check_into_args(input: &Tensor, batch: usize, geom: &ConvGeometry, col: &[f32]) -> Result<()> {
    geom.validate()?;
    let dims = input.shape().dims();
    let ok = dims.len() == 4
        && dims[1] == geom.channels
        && dims[2] == geom.height
        && dims[3] == geom.width;
    if !ok {
        return Err(TensorError::ShapeMismatch {
            op: "im2col_into input",
            lhs: vec![0, geom.channels, geom.height, geom.width],
            rhs: dims.to_vec(),
        });
    }
    if batch >= dims[0] {
        return Err(TensorError::IndexOutOfBounds {
            index: vec![batch],
            dims: vec![dims[0]],
        });
    }
    if col.len() != geom.col_rows() * geom.col_cols() {
        return Err(TensorError::ShapeMismatch {
            op: "im2col_into buffer",
            lhs: vec![geom.col_rows(), geom.col_cols()],
            rhs: vec![col.len()],
        });
    }
    Ok(())
}

/// Shared im2col inner loop: unrolls the image at `src[src_offset..]` into
/// `col`, which must be `col_rows * col_cols` long and pre-zeroed (padding
/// positions are skipped, not written).
fn unroll_item(src: &[f32], src_offset: usize, geom: &ConvGeometry, col: &mut [f32]) {
    let out_h = geom.out_height();
    let out_w = geom.out_width();
    let k = geom.kernel;
    let (h, w) = (geom.height, geom.width);
    let plane = h * w;
    let n_cols = out_h * out_w;

    for c in 0..geom.channels {
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                let dst_row = &mut col[row * n_cols..(row + 1) * n_cols];
                for oy in 0..out_h {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        // whole output row reads padding
                        continue;
                    }
                    let src_base = src_offset + c * plane + iy as usize * w;
                    let dst_base = oy * out_w;
                    for ox in 0..out_w {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if ix >= 0 && ix < w as isize {
                            dst_row[dst_base + ox] = src[src_base + ix as usize];
                        }
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatters a `[c*k*k, out_h*out_w]` column matrix
/// back onto a `[1, c, h, w]` image, **accumulating** overlapping windows.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for invalid geometry and
/// [`TensorError::ShapeMismatch`] when the column matrix has the wrong
/// shape.
pub fn col2im(col: &Tensor, geom: &ConvGeometry) -> Result<Tensor> {
    geom.validate()?;
    let dims = col.shape().dims();
    if dims.len() != 2 || dims[0] != geom.col_rows() || dims[1] != geom.col_cols() {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: vec![geom.col_rows(), geom.col_cols()],
            rhs: dims.to_vec(),
        });
    }
    let out_h = geom.out_height();
    let out_w = geom.out_width();
    let k = geom.kernel;
    let (h, w) = (geom.height, geom.width);
    let plane = h * w;
    let n_cols = out_h * out_w;
    let src = col.as_slice();
    let mut img = vec![0.0f32; geom.channels * plane];

    for c in 0..geom.channels {
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                let src_row = &src[row * n_cols..(row + 1) * n_cols];
                for oy in 0..out_h {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst_base = c * plane + iy as usize * w;
                    let src_base = oy * out_w;
                    for ox in 0..out_w {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if ix >= 0 && ix < w as isize {
                            img[dst_base + ix as usize] += src_row[src_base + ox];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(img, Shape::nchw(1, geom.channels, h, w))
}

fn check_image_shape(input: &Tensor, geom: &ConvGeometry) -> Result<()> {
    let dims = input.shape().dims();
    let ok = match dims.len() {
        3 => dims == [geom.channels, geom.height, geom.width],
        4 => dims == [1, geom.channels, geom.height, geom.width],
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(TensorError::ShapeMismatch {
            op: "im2col input",
            lhs: vec![1, geom.channels, geom.height, geom.width],
            rhs: dims.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> ConvGeometry {
        ConvGeometry {
            channels: c,
            height: h,
            width: w,
            kernel: k,
            stride: s,
            pad: p,
        }
    }

    #[test]
    fn out_dim_formula() {
        assert_eq!(conv_out_dim(416, 3, 1, 1), 416);
        assert_eq!(conv_out_dim(416, 2, 2, 0), 208);
        assert_eq!(conv_out_dim(13, 1, 1, 0), 13);
        assert_eq!(conv_out_dim(13, 2, 1, 0), 12);
    }

    #[test]
    fn identity_kernel_1x1() {
        let geom = geometry(2, 3, 3, 1, 1, 0);
        let input =
            Tensor::from_vec((0..18).map(|x| x as f32).collect(), Shape::nchw(1, 2, 3, 3)).unwrap();
        let col = im2col(&input, &geom).unwrap();
        // 1x1 stride-1 im2col is just a reshape to [c, h*w].
        assert_eq!(col.shape().dims(), &[2, 9]);
        assert_eq!(col.as_slice(), input.as_slice());
    }

    #[test]
    fn known_3x3_window_values() {
        // 1 channel, 4x4 image, 3x3 kernel, stride 1, no pad -> 2x2 output.
        let geom = geometry(1, 4, 4, 3, 1, 0);
        let input =
            Tensor::from_vec((0..16).map(|x| x as f32).collect(), Shape::nchw(1, 1, 4, 4)).unwrap();
        let col = im2col(&input, &geom).unwrap();
        assert_eq!(col.shape().dims(), &[9, 4]);
        // First row of the column matrix: top-left element of each window.
        assert_eq!(&col.as_slice()[0..4], &[0.0, 1.0, 4.0, 5.0]);
        // Last row: bottom-right element of each window.
        assert_eq!(&col.as_slice()[32..36], &[10.0, 11.0, 14.0, 15.0]);
    }

    #[test]
    fn padding_produces_zeros() {
        let geom = geometry(1, 2, 2, 3, 1, 1);
        let input = Tensor::ones(Shape::nchw(1, 1, 2, 2));
        let col = im2col(&input, &geom).unwrap();
        assert_eq!(col.shape().dims(), &[9, 4]);
        // Center tap of the kernel sees the raw image everywhere.
        let center_row = &col.as_slice()[4 * 4..5 * 4];
        assert_eq!(center_row, &[1.0, 1.0, 1.0, 1.0]);
        // Top-left tap sees padding except for the bottom-right output.
        let tl_row = &col.as_slice()[0..4];
        assert_eq!(tl_row, &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // stride 1, 2x2 kernel on 3x3: center pixel is covered by 4 windows.
        let geom = geometry(1, 3, 3, 2, 1, 0);
        let ones = Tensor::ones(Shape::matrix(geom.col_rows(), geom.col_cols()));
        let img = col2im(&ones, &geom).unwrap();
        assert_eq!(img.get(&[0, 0, 1, 1]).unwrap(), 4.0);
        assert_eq!(img.get(&[0, 0, 0, 0]).unwrap(), 1.0);
        assert_eq!(img.get(&[0, 0, 0, 1]).unwrap(), 2.0);
    }

    /// The defining property: `<im2col(x), y> == <x, col2im(y)>` (adjoint).
    #[test]
    fn im2col_col2im_are_adjoint() {
        use crate::init;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for geom in [
            geometry(3, 8, 8, 3, 1, 1),
            geometry(2, 7, 5, 3, 2, 1),
            geometry(1, 6, 6, 2, 2, 0),
            geometry(4, 5, 5, 2, 1, 1),
        ] {
            let x = init::uniform(
                Shape::nchw(1, geom.channels, geom.height, geom.width),
                -1.0,
                1.0,
                &mut rng,
            );
            let y = init::uniform(
                Shape::matrix(geom.col_rows(), geom.col_cols()),
                -1.0,
                1.0,
                &mut rng,
            );
            let lhs = im2col(&x, &geom).unwrap().dot(&y).unwrap();
            let rhs = x.dot(&col2im(&y, &geom).unwrap()).unwrap();
            assert!(
                (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
                "adjoint violated for {geom:?}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn invalid_geometry_is_error() {
        let input = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        assert!(im2col(&input, &geometry(1, 4, 4, 0, 1, 0)).is_err());
        assert!(im2col(&input, &geometry(1, 4, 4, 3, 0, 0)).is_err());
        assert!(im2col(&input, &geometry(1, 4, 4, 7, 1, 0)).is_err());
    }

    #[test]
    fn wrong_input_shape_is_error() {
        let input = Tensor::zeros(Shape::nchw(1, 2, 4, 4));
        assert!(im2col(&input, &geometry(1, 4, 4, 3, 1, 1)).is_err());
        let batched = Tensor::zeros(Shape::nchw(2, 1, 4, 4));
        assert!(im2col(&batched, &geometry(1, 4, 4, 3, 1, 1)).is_err());
    }

    #[test]
    fn accepts_rank3_images() {
        let input = Tensor::zeros(Shape::new(&[2, 4, 4]));
        assert!(im2col(&input, &geometry(2, 4, 4, 3, 1, 1)).is_ok());
    }

    /// `im2col_into` on batch item `b` of a stacked tensor must match
    /// `im2col` on the corresponding single image bit-exactly, even when the
    /// buffer is dirty from a previous item (padding re-zeroing).
    #[test]
    fn im2col_into_matches_per_item_im2col() {
        use crate::init;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let geom = geometry(3, 6, 5, 3, 1, 1);
        let batch = init::uniform(Shape::nchw(3, 3, 6, 5), -1.0, 1.0, &mut rng);
        let mut buf = vec![f32::NAN; geom.col_rows() * geom.col_cols()];
        for b in 0..3 {
            im2col_into(&batch, b, &geom, &mut buf).unwrap();
            let item = batch.batch_item(b).unwrap();
            let reference = im2col(&item, &geom).unwrap();
            assert_eq!(buf.as_slice(), reference.as_slice(), "item {b}");
        }
    }

    #[test]
    fn im2col_into_validates_inputs() {
        let geom = geometry(1, 4, 4, 3, 1, 1);
        let input = Tensor::zeros(Shape::nchw(2, 1, 4, 4));
        let mut buf = vec![0.0; geom.col_rows() * geom.col_cols()];
        assert!(im2col_into(&input, 0, &geom, &mut buf).is_ok());
        assert!(matches!(
            im2col_into(&input, 2, &geom, &mut buf),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        let mut short = vec![0.0; 3];
        assert!(matches!(
            im2col_into(&input, 0, &geom, &mut short),
            Err(TensorError::ShapeMismatch { .. })
        ));
        let wrong = Tensor::zeros(Shape::nchw(1, 2, 4, 4));
        assert!(im2col_into(&wrong, 0, &geom, &mut buf).is_err());
    }
}
