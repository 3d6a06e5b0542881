//! Multi-threaded single-precision matrix multiplication: the BLAS-style
//! entry points over the packed microkernel of [`crate::packed`].
//!
//! Every convolution forward, training's included, runs
//! [`crate::packed::conv2d`] and builds no column matrix. The training
//! backward pass lowers convolution to GEMM via [`crate::im2col`], as the
//! Darknet framework used by the paper does: `dW += dY * colsᵀ` against one
//! image's column matrix at a time, and `dX` as `col2im(Wᵀ * dY)`. This
//! module validates shapes and turns `trans_a` / `trans_b` into operand
//! strides — the kernel packs both operands into panels anyway, so those
//! transposes cost no copy.

use crate::{packed, Result, Shape, Tensor, TensorError};

/// Computes `C = alpha * op(A) * op(B) + beta * C` for row-major matrices.
///
/// `op(X)` is `X` or `Xᵀ` depending on `trans_a` / `trans_b`. All three
/// tensors must be rank 2, and the resulting dimensions must agree with
/// `c`'s shape.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs,
/// [`TensorError::GemmDimMismatch`] when the inner dimensions disagree and
/// [`TensorError::ShapeMismatch`] when `c` has the wrong shape.
///
/// # Example
///
/// ```
/// use dronet_tensor::{gemm, Shape, Tensor};
/// # fn main() -> Result<(), dronet_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::matrix(2, 2))?;
/// let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], Shape::matrix(2, 2))?;
/// let mut c = Tensor::zeros(Shape::matrix(2, 2));
/// gemm::sgemm(false, false, 1.0, &a, &b, 0.0, &mut c)?;
/// assert_eq!(c.as_slice(), a.as_slice());
/// # Ok(())
/// # }
/// ```
pub fn sgemm(
    trans_a: bool,
    trans_b: bool,
    alpha: f32,
    a: &Tensor,
    b: &Tensor,
    beta: f32,
    c: &mut Tensor,
) -> Result<()> {
    let (a_rows, a_cols) = matrix_dims("sgemm", a)?;
    let (b_rows, b_cols) = matrix_dims("sgemm", b)?;
    let (m, k_a) = if trans_a {
        (a_cols, a_rows)
    } else {
        (a_rows, a_cols)
    };
    let (k_b, n) = if trans_b {
        (b_cols, b_rows)
    } else {
        (b_rows, b_cols)
    };
    if k_a != k_b {
        return Err(TensorError::GemmDimMismatch {
            lhs_cols: k_a,
            rhs_rows: k_b,
        });
    }
    let (c_rows, c_cols) = matrix_dims("sgemm", c)?;
    if c_rows != m || c_cols != n {
        return Err(TensorError::ShapeMismatch {
            op: "sgemm output",
            lhs: vec![m, n],
            rhs: vec![c_rows, c_cols],
        });
    }

    // Element (i, p) of op(A) and (p, j) of op(B) as (row, column) strides.
    let (a_rs, a_cs) = if trans_a { (1, m) } else { (k_a, 1) };
    let (b_rs, b_cs) = if trans_b { (1, k_a) } else { (n, 1) };
    let (a, b, c) = (a.as_slice(), b.as_slice(), c.as_mut_slice());
    packed::gemm(m, n, k_a, alpha, (a, a_rs, a_cs), (b, b_rs, b_cs), beta, c);
    Ok(())
}

/// Convenience wrapper computing `A * B` into a fresh tensor.
///
/// # Errors
///
/// Propagates the same errors as [`sgemm`].
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, _) = matrix_dims("matmul", a)?;
    let (_, n) = matrix_dims("matmul", b)?;
    let mut c = Tensor::zeros(Shape::matrix(m, n));
    sgemm(false, false, 1.0, a, b, 0.0, &mut c)?;
    Ok(c)
}

fn matrix_dims(op: &'static str, t: &Tensor) -> Result<(usize, usize)> {
    let dims = t.shape().dims();
    if dims.len() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: dims.len(),
        });
    }
    Ok((dims[0], dims[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, rounding, Rounding};
    use rand::SeedableRng;

    /// Naive triple-loop reference used to validate the blocked kernel.
    fn reference_gemm(
        trans_a: bool,
        trans_b: bool,
        alpha: f32,
        a: &Tensor,
        b: &Tensor,
        beta: f32,
        c: &Tensor,
    ) -> Tensor {
        let (ar, ac) = (a.shape().dims()[0], a.shape().dims()[1]);
        let (br, bc) = (b.shape().dims()[0], b.shape().dims()[1]);
        let (m, k) = if trans_a { (ac, ar) } else { (ar, ac) };
        let n = if trans_b { br } else { bc };
        let mut out = c.clone();
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    let av = if trans_a {
                        a.as_slice()[kk * ac + i]
                    } else {
                        a.as_slice()[i * ac + kk]
                    };
                    let bv = if trans_b {
                        b.as_slice()[j * bc + kk]
                    } else {
                        b.as_slice()[kk * bc + j]
                    };
                    acc += av * bv;
                }
                let idx = i * n + j;
                out.as_mut_slice()[idx] = alpha * acc + beta * c.as_slice()[idx];
            }
        }
        out
    }

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        init::uniform(Shape::matrix(rows, cols), -1.0, 1.0, &mut rng)
    }

    #[test]
    fn identity_multiplication() {
        let a = random_matrix(5, 5, 1);
        let mut eye = Tensor::zeros(Shape::matrix(5, 5));
        for i in 0..5 {
            eye.set(&[i, i], 1.0).unwrap();
        }
        let c = matmul(&a, &eye).unwrap();
        assert!(c.max_abs_diff(&a).unwrap() < 1e-6);
    }

    #[test]
    fn matches_reference_all_transpose_combinations() {
        for &(m, n, k) in &[(3usize, 4usize, 5usize), (17, 9, 33), (64, 48, 100)] {
            for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
                let a = if ta {
                    random_matrix(k, m, 7)
                } else {
                    random_matrix(m, k, 7)
                };
                let b = if tb {
                    random_matrix(n, k, 8)
                } else {
                    random_matrix(k, n, 8)
                };
                let c0 = random_matrix(m, n, 9);
                let mut c = c0.clone();
                sgemm(ta, tb, 0.7, &a, &b, 0.3, &mut c).unwrap();
                let want = reference_gemm(ta, tb, 0.7, &a, &b, 0.3, &c0);
                assert!(
                    c.max_abs_diff(&want).unwrap() < 1e-3,
                    "mismatch m={m} n={n} k={k} ta={ta} tb={tb}"
                );
            }
        }
    }

    /// The kernel's contract in the order the retired `i-k-j` loop summed:
    /// `c ← beta·c` (0 for `beta = 0`, untouched for `beta = 1`), then
    /// `c ← madd(c, alpha·a_ik, b_kj)` for `k` ascending, rounded the way
    /// this CPU's family rounds. Unlike [`reference_gemm`]'s
    /// `alpha·acc + beta·c` this is what the kernel computes to the bit.
    fn contract_gemm(
        trans_a: bool,
        trans_b: bool,
        alpha: f32,
        a: &Tensor,
        b: &Tensor,
        beta: f32,
        c: &mut Tensor,
    ) {
        let (m, n) = (c.shape().dims()[0], c.shape().dims()[1]);
        let (ar, ac) = (a.shape().dims()[0], a.shape().dims()[1]);
        let bc = b.shape().dims()[1];
        let k = if trans_a { ar } else { ac };
        let (a, b, c) = (a.as_slice(), b.as_slice(), c.as_mut_slice());
        for i in 0..m {
            for j in 0..n {
                let mut sum = match beta {
                    0.0 => 0.0,
                    1.0 => c[i * n + j],
                    _ => beta * c[i * n + j],
                };
                for p in 0..k {
                    let a_ip = if trans_a {
                        a[p * ac + i]
                    } else {
                        a[i * ac + p]
                    };
                    let b_pj = if trans_b {
                        b[j * bc + p]
                    } else {
                        b[p * bc + j]
                    };
                    sum = rounding().madd(sum, alpha * a_ip, b_pj);
                }
                c[i * n + j] = sum;
            }
        }
    }

    /// Bits, not a tolerance: every transpose combination and every `beta`
    /// path, `k` crossing a K-block boundary of the kernel (256), `m` and
    /// `n` multiples of neither side of its register tile.
    #[test]
    fn matches_the_contract_bit_for_bit() {
        let (m, n, k) = (13, 21, 300);
        for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
            let a = if ta {
                random_matrix(k, m, 7)
            } else {
                random_matrix(m, k, 7)
            };
            let b = if tb {
                random_matrix(n, k, 8)
            } else {
                random_matrix(k, n, 8)
            };
            for &(alpha, beta) in &[(1.0, 0.0), (1.0, 1.0), (0.7, 0.3), (0.0, 1.0)] {
                let mut c = random_matrix(m, n, 9);
                let mut want = c.clone();
                sgemm(ta, tb, alpha, &a, &b, beta, &mut c).unwrap();
                contract_gemm(ta, tb, alpha, &a, &b, beta, &mut want);
                let bits =
                    |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&c),
                    bits(&want),
                    "ta={ta} tb={tb} alpha={alpha} beta={beta}"
                );
            }
        }
    }

    /// [`rounding`] names the family the kernel runs. A `1 x 1 x 2` product
    /// whose two families provably differ — the running sum `−(1 + 2⁻¹¹)`
    /// plus `a·a = 1 + 2⁻¹¹ + 2⁻²⁴`: the rounded product loses the last
    /// term, the fused one keeps it — equals the fold of `rounding().madd`
    /// over `k` and not the other family's, so an oracle written with
    /// `madd` can never match both.
    #[test]
    fn rounding_names_the_family_the_kernel_runs() {
        let a = 1.0 + 2f32.powi(-12);
        let (lhs, rhs) = ([1.0, a], [-(1.0 + 2f32.powi(-11)), a]);
        let fold = |family: Rounding| {
            let taps = lhs.iter().zip(&rhs);
            taps.fold(0.0f32, |sum, (&l, &r)| family.madd(sum, l, r))
        };
        let (separate, fused) = (fold(Rounding::Separate), fold(Rounding::Fused));
        assert_eq!((separate, fused), (0.0, 2f32.powi(-24)));
        let lhs = Tensor::from_vec(lhs.to_vec(), Shape::matrix(1, 2)).unwrap();
        let rhs = Tensor::from_vec(rhs.to_vec(), Shape::matrix(2, 1)).unwrap();
        let got = matmul(&lhs, &rhs).unwrap().as_slice()[0];
        let (want, other) = match rounding() {
            Rounding::Separate => (separate, fused),
            Rounding::Fused => (fused, separate),
        };
        assert_eq!(got.to_bits(), want.to_bits(), "{:?}", rounding());
        assert_ne!(got.to_bits(), other.to_bits(), "{:?}", rounding());
    }

    #[test]
    fn beta_zero_overwrites_garbage() {
        let a = random_matrix(4, 4, 3);
        let b = random_matrix(4, 4, 4);
        let mut c = Tensor::full(Shape::matrix(4, 4), f32::NAN);
        sgemm(false, false, 1.0, &a, &b, 0.0, &mut c).unwrap();
        assert!(c.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let a = Tensor::zeros(Shape::matrix(2, 3));
        let b = Tensor::zeros(Shape::matrix(4, 2));
        let mut c = Tensor::zeros(Shape::matrix(2, 2));
        assert!(matches!(
            sgemm(false, false, 1.0, &a, &b, 0.0, &mut c),
            Err(TensorError::GemmDimMismatch { .. })
        ));
    }

    #[test]
    fn wrong_output_shape_is_error() {
        let a = Tensor::zeros(Shape::matrix(2, 3));
        let b = Tensor::zeros(Shape::matrix(3, 4));
        let mut c = Tensor::zeros(Shape::matrix(2, 5));
        assert!(sgemm(false, false, 1.0, &a, &b, 0.0, &mut c).is_err());
    }

    #[test]
    fn non_matrix_input_is_error() {
        let a = Tensor::zeros(Shape::new(&[2, 3, 1]));
        let b = Tensor::zeros(Shape::matrix(3, 4));
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn empty_dimensions_are_ok() {
        let a = Tensor::zeros(Shape::matrix(0, 3));
        let b = Tensor::zeros(Shape::matrix(3, 2));
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape().dims(), &[0, 2]);

        let a = Tensor::zeros(Shape::matrix(2, 0));
        let b = Tensor::zeros(Shape::matrix(0, 2));
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.sum(), 0.0);
    }

    #[test]
    fn large_parallel_path_matches_reference() {
        // Big enough to cross the parallel threshold.
        let (m, n, k) = (96, 200, 64);
        let a = random_matrix(m, k, 21);
        let b = random_matrix(k, n, 22);
        let c0 = Tensor::zeros(Shape::matrix(m, n));
        let mut c = c0.clone();
        sgemm(false, false, 1.0, &a, &b, 0.0, &mut c).unwrap();
        let want = reference_gemm(false, false, 1.0, &a, &b, 0.0, &c0);
        assert!(c.max_abs_diff(&want).unwrap() < 1e-3);
    }
}
