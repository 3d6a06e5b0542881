use crate::{Result, Shape, TensorError};
use std::fmt;

/// An owned, contiguous, row-major N-dimensional array of `f32`.
///
/// `Tensor` is the workhorse value type of the whole workspace: images,
/// feature maps, weights, and gradients are all `Tensor`s. Data is always
/// contiguous in C order; views are deliberately not part of the API (the
/// CNN kernels copy into layout-friendly buffers anyway, exactly as Darknet
/// does).
///
/// # Example
///
/// ```
/// use dronet_tensor::{Shape, Tensor};
///
/// # fn main() -> Result<(), dronet_tensor::TensorError> {
/// let mut t = Tensor::zeros(Shape::nchw(1, 2, 2, 2));
/// t.set(&[0, 1, 0, 1], 5.0)?;
/// assert_eq!(t.get(&[0, 1, 0, 1])?, 5.0);
/// assert_eq!(t.sum(), 5.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// Creates a tensor of the given shape filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs from
    /// the element count of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::vector(data.len()),
            data: data.to_vec(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for a bad index.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        self.shape
            .offset(index)
            .map(|o| self.data[o])
            .ok_or_else(|| TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                dims: self.shape.dims().to_vec(),
            })
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for a bad index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        match self.shape.offset(index) {
            Some(o) => {
                self.data[o] = value;
                Ok(())
            }
            None => Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                dims: self.shape.dims().to_vec(),
            }),
        }
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the element counts differ.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if shape.len() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                actual: self.data.len(),
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// Transposes a 2-D tensor (matrix).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when the tensor is not rank 2.
    pub fn transpose2d(&self) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose2d",
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        let (r, c) = (self.shape.dims()[0], self.shape.dims()[1]);
        let mut out = vec![0.0f32; self.data.len()];
        // Blocked transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for ib in (0..r).step_by(B) {
            for jb in (0..c).step_by(B) {
                for i in ib..(ib + B).min(r) {
                    for j in jb..(jb + B).min(c) {
                        out[j * r + i] = self.data[i * c + j];
                    }
                }
            }
        }
        Tensor::from_vec(out, Shape::matrix(c, r))
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape,
        }
    }

    /// Element-wise combination of two tensors of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "zip_map",
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        Ok(Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape,
        })
    }

    /// Element-wise `self + other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a - b)
    }

    /// In-place `self += alpha * other` (SAXPY).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill(&mut self, value: f32) {
        for x in &mut self.data {
            *x = value;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (`f32::NEG_INFINITY` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (`f32::INFINITY` for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element, or `None` for an empty tensor.
    pub fn argmax(&self) -> Option<usize> {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when lengths differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.len() != other.len() {
            return Err(TensorError::ShapeMismatch {
                op: "dot",
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// Maximum absolute difference between two tensors of identical length.
    ///
    /// Useful in tests for comparing against reference implementations.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when lengths differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if self.len() != other.len() {
            return Err(TensorError::ShapeMismatch {
                op: "max_abs_diff",
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    /// Extracts the `b`-th batch item of an NCHW tensor as a `[1, c, h, w]`
    /// tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-4-D tensors and
    /// [`TensorError::IndexOutOfBounds`] when `b` exceeds the batch size.
    pub fn batch_item(&self, b: usize) -> Result<Tensor> {
        if self.shape.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "batch_item",
                expected: 4,
                actual: self.shape.rank(),
            });
        }
        let (n, c, h, w) = (
            self.shape.batch(),
            self.shape.channels(),
            self.shape.height(),
            self.shape.width(),
        );
        if b >= n {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![b],
                dims: vec![n],
            });
        }
        let stride = c * h * w;
        let data = self.data[b * stride..(b + 1) * stride].to_vec();
        Tensor::from_vec(data, Shape::nchw(1, c, h, w))
    }

    /// Concatenates `[1, c, h, w]` tensors along the batch axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] when `items` is empty and
    /// [`TensorError::ShapeMismatch`] when items disagree in shape.
    pub fn stack_batch(items: &[Tensor]) -> Result<Tensor> {
        let first = items.first().ok_or(TensorError::InvalidArgument {
            op: "stack_batch",
            msg: "no tensors to stack".to_string(),
        })?;
        if first.shape.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "stack_batch",
                expected: 4,
                actual: first.shape.rank(),
            });
        }
        let (c, h, w) = (
            first.shape.channels(),
            first.shape.height(),
            first.shape.width(),
        );
        let mut data = Vec::with_capacity(items.len() * c * h * w);
        let mut n_total = 0usize;
        for item in items {
            if item.shape.rank() != 4
                || item.shape.channels() != c
                || item.shape.height() != h
                || item.shape.width() != w
            {
                return Err(TensorError::ShapeMismatch {
                    op: "stack_batch",
                    lhs: first.shape.dims().to_vec(),
                    rhs: item.shape.dims().to_vec(),
                });
            }
            n_total += item.shape.batch();
            data.extend_from_slice(item.as_slice());
        }
        Tensor::from_vec(data, Shape::nchw(n_total, c, h, w))
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        const PREVIEW: usize = 8;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > PREVIEW {
            write!(f, ", ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_fill() {
        let t = Tensor::zeros(Shape::new(&[2, 3]));
        assert_eq!(t.len(), 6);
        assert_eq!(t.sum(), 0.0);
        let o = Tensor::ones(Shape::new(&[4]));
        assert_eq!(o.sum(), 4.0);
        let f = Tensor::full(Shape::new(&[2, 2]), 2.5);
        assert_eq!(f.mean(), 2.5);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], Shape::new(&[2, 3])).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], Shape::new(&[2, 3])).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(Shape::nchw(2, 3, 4, 5));
        t.set(&[1, 2, 3, 4], 7.0).unwrap();
        assert_eq!(t.get(&[1, 2, 3, 4]).unwrap(), 7.0);
        assert_eq!(t.get(&[0, 0, 0, 0]).unwrap(), 0.0);
        assert!(t.get(&[2, 0, 0, 0]).is_err());
    }

    #[test]
    fn transpose_is_involutive() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), Shape::matrix(3, 4)).unwrap();
        let tt = t.transpose2d().unwrap().transpose2d().unwrap();
        assert_eq!(t, tt);
    }

    #[test]
    fn transpose_correct_values() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], Shape::matrix(2, 3)).unwrap();
        let tt = t.transpose2d().unwrap();
        assert_eq!(tt.shape().dims(), &[3, 2]);
        assert_eq!(tt.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let g = Tensor::from_slice(&[2.0, 4.0]);
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.as_slice(), &[0.0, -1.0]);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let a = Tensor::zeros(Shape::new(&[2, 2]));
        let b = Tensor::zeros(Shape::new(&[4]));
        assert!(matches!(
            a.add(&b),
            Err(TensorError::ShapeMismatch { op: "zip_map", .. })
        ));
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[-1.0, 3.0, 2.0]);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -1.0);
        assert_eq!(t.argmax(), Some(1));
        assert!((t.norm() - (14.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn batch_item_and_stack_roundtrip() {
        let t =
            Tensor::from_vec((0..24).map(|x| x as f32).collect(), Shape::nchw(2, 3, 2, 2)).unwrap();
        let b0 = t.batch_item(0).unwrap();
        let b1 = t.batch_item(1).unwrap();
        assert_eq!(b0.shape().dims(), &[1, 3, 2, 2]);
        let restacked = Tensor::stack_batch(&[b0, b1]).unwrap();
        assert_eq!(restacked, t);
        assert!(t.batch_item(2).is_err());
    }

    #[test]
    fn stack_batch_rejects_mismatched_items() {
        let a = Tensor::zeros(Shape::nchw(1, 3, 2, 2));
        let b = Tensor::zeros(Shape::nchw(1, 3, 2, 3));
        assert!(Tensor::stack_batch(&[a, b]).is_err());
        assert!(Tensor::stack_batch(&[]).is_err());
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::zeros(Shape::new(&[1]));
        assert!(!format!("{t}").is_empty());
        assert!(!format!("{t:?}").is_empty());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let m = t.clone().reshape(Shape::matrix(2, 2)).unwrap();
        assert_eq!(m.as_slice(), t.as_slice());
        assert!(t.reshape(Shape::matrix(3, 2)).is_err());
    }
}
