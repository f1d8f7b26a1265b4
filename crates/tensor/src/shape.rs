//! Shape bookkeeping for dense row-major tensors.

use std::fmt;

/// Maximum tensor rank the shape can describe.
///
/// The deepest shape the workspace uses is a stacked video batch
/// `[K, N, C, T, H, W]` (rank 6). Storing extents inline (instead of a
/// `Vec<usize>`) keeps `Shape` construction allocation-free, which the
/// kernel layer's zero-allocation classify path relies on.
pub const MAX_RANK: usize = 6;

/// The extent of a tensor along each axis.
///
/// Shapes are always row-major ("C order"): the last axis is contiguous in
/// memory. A zero-dimensional shape describes a scalar with one element.
/// Extents are stored inline (up to [`MAX_RANK`] axes), so creating a
/// shape never touches the heap.
///
/// ```
/// use safecross_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    // Unused trailing slots are always zero, so the derived equality and
    // hash over the whole array agree with equality over `dims()`.
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// Creates a shape from a slice of axis extents.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero (empty tensors are not supported) or
    /// if the rank exceeds [`MAX_RANK`].
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "rank {} exceeds the supported maximum {MAX_RANK}",
            dims.len()
        );
        assert!(
            dims.iter().all(|&d| d > 0),
            "zero-sized axis in shape {dims:?}"
        );
        let mut inline = [0usize; MAX_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        Shape {
            dims: inline,
            rank: dims.len() as u8,
        }
    }

    /// The number of axes.
    pub fn ndim(&self) -> usize {
        self.rank as usize
    }

    /// Total element count (product of extents; 1 for a scalar).
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// Whether the shape describes zero axes (a scalar). Never "empty" in
    /// the element-count sense; scalars hold one element.
    pub fn is_empty(&self) -> bool {
        self.rank == 0
    }

    /// The extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    /// Extent along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= ndim()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims()[axis]
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let dims = self.dims();
        let mut strides = vec![1; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        strides
    }

    /// Flattens a multi-index into a linear offset.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or any coordinate is out of
    /// bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        let dims = self.dims();
        assert_eq!(
            index.len(),
            dims.len(),
            "index rank {} != shape rank {}",
            index.len(),
            dims.len()
        );
        // Accumulate from the innermost axis with a running stride, so
        // indexing never materialises the stride vector.
        let mut off = 0;
        let mut stride = 1;
        for axis in (0..dims.len()).rev() {
            let (i, d) = (index[axis], dims[axis]);
            assert!(
                i < d,
                "index {i} out of bounds for axis {axis} (extent {d})"
            );
            off += i * stride;
            stride *= d;
        }
        off
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims())
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
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.len(), 24);
        assert_eq!(s.ndim(), 3);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.len(), 1);
        assert!(s.is_empty());
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    fn offset_matches_manual() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
        assert_eq!(s.offset(&[0, 1, 0]), 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_out_of_bounds_panics() {
        Shape::new(&[2, 2]).offset(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "zero-sized axis")]
    fn zero_axis_panics() {
        Shape::new(&[3, 0]);
    }

    #[test]
    #[should_panic(expected = "exceeds the supported maximum")]
    fn over_max_rank_panics() {
        Shape::new(&[1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn max_rank_shape_works() {
        let s = Shape::new(&[2, 1, 3, 1, 2, 2]);
        assert_eq!(s.ndim(), 6);
        assert_eq!(s.len(), 24);
        assert_eq!(s.offset(&[1, 0, 2, 0, 1, 1]), 12 + 8 + 3);
    }

    #[test]
    fn equality_and_from() {
        let a: Shape = [2, 3].into();
        let b = Shape::new(&[2, 3]);
        assert_eq!(a, b);
        assert_ne!(a, Shape::new(&[3, 2]));
        // Same leading extents but different rank must differ.
        assert_ne!(Shape::new(&[2]), Shape::new(&[2, 1]));
    }
}
