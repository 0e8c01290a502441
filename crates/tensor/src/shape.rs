//! Shape and stride bookkeeping for row-major tensors.

use std::fmt;

/// The dimensions of a tensor, row-major (last dimension is contiguous).
///
/// `Shape` is a thin wrapper over `Vec<usize>` providing element counts,
/// stride computation and multi-index/linear-offset conversion. A rank-0
/// shape (`[]`) denotes a scalar with one element.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimensions.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Replaces the dimensions in place, reusing the existing backing
    /// vector's capacity — the allocation-free counterpart of
    /// [`Shape::new`] used by scratch-buffer reshaping on hot paths.
    pub fn set_dims(&mut self, dims: &[usize]) {
        self.0.clear();
        self.0.extend_from_slice(dims);
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dimensions; 1 for scalars).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides: `strides[i]` is the linear distance between
    /// consecutive indices along dimension `i`.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-index to a linear offset.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or any component is out of bounds.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.0.len(),
            "index rank {} does not match shape rank {}",
            idx.len(),
            self.0.len()
        );
        let strides = self.strides();
        let mut off = 0;
        for (i, (&ix, &dim)) in idx.iter().zip(self.0.iter()).enumerate() {
            assert!(
                ix < dim,
                "index {ix} out of bounds for dim {i} (size {dim})"
            );
            off += ix * strides[i];
        }
        off
    }

    /// Converts a linear offset back to a multi-index.
    pub fn unravel(&self, mut offset: usize) -> Vec<usize> {
        let strides = self.strides();
        let mut idx = vec![0usize; self.0.len()];
        for i in 0..self.0.len() {
            idx[i] = offset / strides[i];
            offset %= strides[i];
        }
        idx
    }

    /// True when the shape has zero elements along any dimension.
    pub fn is_empty(&self) -> bool {
        self.0.contains(&0)
    }

    /// Returns a new shape with dimension `axis` removed.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank`.
    pub fn without_axis(&self, axis: usize) -> Shape {
        assert!(axis < self.0.len(), "axis {axis} out of range");
        let mut dims = self.0.clone();
        dims.remove(axis);
        Shape(dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl AsRef<[usize]> for Shape {
    fn as_ref(&self) -> &[usize] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.strides(), Vec::<usize>::new());
    }

    #[test]
    fn row_major_strides() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_roundtrip() {
        let s = Shape::new(&[3, 5, 7]);
        for linear in 0..s.numel() {
            let idx = s.unravel(linear);
            assert_eq!(s.offset(&idx), linear);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_out_of_bounds_panics() {
        Shape::new(&[2, 2]).offset(&[2, 0]);
    }

    #[test]
    fn empty_detection() {
        assert!(Shape::new(&[3, 0, 2]).is_empty());
        assert!(!Shape::new(&[3, 1, 2]).is_empty());
    }

    #[test]
    fn without_axis() {
        let s = Shape::new(&[2, 3, 4]).without_axis(1);
        assert_eq!(s.dims(), &[2, 4]);
    }

    #[test]
    fn display() {
        assert_eq!(Shape::new(&[1, 28, 28]).to_string(), "[1, 28, 28]");
    }
}
