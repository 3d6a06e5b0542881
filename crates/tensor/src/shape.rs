use std::fmt;

/// Maximum number of dimensions a [`Shape`] can describe.
///
/// Every tensor in this workspace is at most 4-D (NCHW feature maps);
/// storing the dimensions inline behind this cap keeps `Shape` construction
/// allocation-free, which matters because layer forwards build shapes on the
/// hot path.
pub const MAX_RANK: usize = 4;

/// Dimensions of a [`crate::Tensor`], stored outermost-first.
///
/// A `Shape` is an inexpensive value type describing row-major (C-order)
/// layout. For CNN feature maps the convention throughout this workspace is
/// **NCHW**: `[batch, channels, height, width]`. Dimensions are stored in a
/// fixed inline array of `MAX_RANK` (4) entries, so creating or cloning a
/// `Shape` never touches the heap.
///
/// # Example
///
/// ```
/// use dronet_tensor::Shape;
///
/// let s = Shape::nchw(1, 3, 416, 416);
/// assert_eq!(s.len(), 519_168);
/// assert_eq!(s.dims(), &[1, 3, 416, 416]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    // Unused trailing slots are always zero so the derived PartialEq/Hash
    // agree with logical equality (rank is part of the comparison).
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// Creates a shape from a slice of dimensions.
    ///
    /// A zero-dimensional shape (`&[]`) describes a scalar with one element.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has more than `MAX_RANK` (4) dimensions.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "Shape supports at most {MAX_RANK} dimensions, got {}",
            dims.len()
        );
        let mut inline = [0usize; MAX_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        Shape {
            dims: inline,
            rank: dims.len() as u8,
        }
    }

    /// Creates the canonical 4-D feature-map shape `[n, c, h, w]`.
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape {
            dims: [n, c, h, w],
            rank: 4,
        }
    }

    /// Creates a 2-D matrix shape `[rows, cols]`.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape {
            dims: [rows, cols, 0, 0],
            rank: 2,
        }
    }

    /// Creates a 1-D vector shape.
    pub fn vector(len: usize) -> Self {
        Shape {
            dims: [len, 0, 0, 0],
            rank: 1,
        }
    }

    /// The dimensions, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// Total number of elements described by this shape.
    ///
    /// An empty dimension list (scalar) has one element; any zero-sized
    /// dimension makes the whole shape empty.
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// Whether the shape contains no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimension at `axis`, or `None` when out of range.
    pub fn dim(&self, axis: usize) -> Option<usize> {
        self.dims().get(axis).copied()
    }

    /// Row-major strides, in elements, one per dimension.
    ///
    /// ```
    /// use dronet_tensor::Shape;
    /// assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
    /// ```
    pub fn strides(&self) -> Vec<usize> {
        let dims = self.dims();
        let mut strides = vec![1usize; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// Returns `None` when the index rank differs from the shape rank or any
    /// coordinate is out of bounds.
    pub fn offset(&self, index: &[usize]) -> Option<usize> {
        let dims = self.dims();
        if index.len() != dims.len() {
            return None;
        }
        let mut off = 0usize;
        let mut stride = 1usize;
        for axis in (0..dims.len()).rev() {
            if index[axis] >= dims[axis] {
                return None;
            }
            off += index[axis] * stride;
            stride *= dims[axis];
        }
        Some(off)
    }

    /// Converts a flat row-major offset back to a multi-dimensional index.
    ///
    /// Returns `None` when `offset >= self.len()`.
    pub fn unravel(&self, offset: usize) -> Option<Vec<usize>> {
        if offset >= self.len() {
            return None;
        }
        let dims = self.dims();
        let mut rem = offset;
        let mut idx = vec![0usize; dims.len()];
        for axis in (0..dims.len()).rev() {
            idx[axis] = rem % dims[axis];
            rem /= dims[axis];
        }
        Some(idx)
    }

    /// Batch dimension of an NCHW shape (`dims[0]`).
    ///
    /// # Panics
    ///
    /// Panics if the shape is not 4-dimensional.
    pub fn batch(&self) -> usize {
        self.expect_nchw();
        self.dims[0]
    }

    /// Channel dimension of an NCHW shape (`dims[1]`).
    ///
    /// # Panics
    ///
    /// Panics if the shape is not 4-dimensional.
    pub fn channels(&self) -> usize {
        self.expect_nchw();
        self.dims[1]
    }

    /// Height dimension of an NCHW shape (`dims[2]`).
    ///
    /// # Panics
    ///
    /// Panics if the shape is not 4-dimensional.
    pub fn height(&self) -> usize {
        self.expect_nchw();
        self.dims[2]
    }

    /// Width dimension of an NCHW shape (`dims[3]`).
    ///
    /// # Panics
    ///
    /// Panics if the shape is not 4-dimensional.
    pub fn width(&self) -> usize {
        self.expect_nchw();
        self.dims[3]
    }

    fn expect_nchw(&self) {
        assert_eq!(
            self.rank,
            4,
            "NCHW accessor used on rank-{} shape {:?}",
            self.rank,
            self.dims()
        );
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(&dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::new(&[]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.rank(), 0);
        assert!(!s.is_empty());
    }

    #[test]
    fn zero_dim_is_empty() {
        assert!(Shape::new(&[3, 0, 2]).is_empty());
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::nchw(2, 3, 4, 5).strides(), vec![60, 20, 5, 1]);
        assert_eq!(Shape::vector(7).strides(), vec![1]);
    }

    #[test]
    fn offset_and_unravel_roundtrip() {
        let s = Shape::new(&[3, 4, 5]);
        for off in 0..s.len() {
            let idx = s.unravel(off).unwrap();
            assert_eq!(s.offset(&idx), Some(off));
        }
    }

    #[test]
    fn offset_rejects_out_of_bounds() {
        let s = Shape::new(&[2, 2]);
        assert_eq!(s.offset(&[2, 0]), None);
        assert_eq!(s.offset(&[0]), None);
        assert_eq!(s.unravel(4), None);
    }

    #[test]
    fn nchw_accessors() {
        let s = Shape::nchw(2, 16, 13, 13);
        assert_eq!(s.batch(), 2);
        assert_eq!(s.channels(), 16);
        assert_eq!(s.height(), 13);
        assert_eq!(s.width(), 13);
    }

    #[test]
    #[should_panic(expected = "NCHW accessor")]
    fn nchw_accessor_panics_on_wrong_rank() {
        Shape::matrix(2, 3).channels();
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn over_max_rank_panics() {
        Shape::new(&[1, 2, 3, 4, 5]);
    }

    #[test]
    fn rank_distinguishes_zero_padded_shapes() {
        assert_ne!(Shape::new(&[2, 3]), Shape::new(&[2, 3, 0, 0]));
        assert_eq!(Shape::matrix(2, 3), Shape::new(&[2, 3]));
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::nchw(1, 3, 416, 416).to_string(), "[1x3x416x416]");
        assert_eq!(Shape::new(&[]).to_string(), "[]");
    }
}
