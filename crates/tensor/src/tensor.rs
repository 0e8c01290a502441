//! The core dense tensor type.

use crate::error::{Result, TensorError};
use crate::shape::Shape;
use std::fmt;

/// An owned, contiguous, row-major `f32` tensor.
///
/// `Tensor` is the single numeric container of the workspace: activations,
/// weights, gradients, conductance matrices and Monte-Carlo noise masks are
/// all `Tensor`s. Data is always contiguous; views are materialized eagerly,
/// which keeps kernels simple and cache-friendly at the sizes used by the
/// CorrectNet experiments.
///
/// # Example
///
/// ```
/// use cn_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.numel(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.numel()];
        Tensor { shape, data }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.numel()];
        Tensor { shape, data }
    }

    /// Creates a tensor from a flat vector and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count. Use
    /// [`Tensor::try_from_vec`] at fallible boundaries.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        Self::try_from_vec(data, dims).expect("element count must match shape")
    }

    /// Fallible variant of [`Tensor::from_vec`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element count does not
    /// match the shape.
    pub fn try_from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(TensorError::ShapeMismatch {
                elements: data.len(),
                expected: shape.numel(),
                shape: shape.to_string(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::new(&[]),
            data: vec![value],
        }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Evenly spaced values `[0, 1, ..., n-1]` as a rank-1 tensor.
    pub fn arange(n: usize) -> Self {
        Tensor {
            shape: Shape::new(&[n]),
            data: (0..n).map(|i| i as f32).collect(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Shape dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Read-only view of the underlying data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshapes this tensor in place to `dims`, zero-filling the data.
    ///
    /// Both the shape vector and the data vector reuse their existing
    /// capacity, so repeated calls at or below the high-water size touch
    /// the heap zero times — this is how scratch tensors on the
    /// inference hot path are recycled between batches. Previous
    /// contents are discarded (every element reads 0.0 afterwards).
    pub fn resize_in_place(&mut self, dims: &[usize]) {
        self.shape.set_dims(dims);
        let len = self.shape.numel();
        self.data.clear();
        self.data.resize(len, 0.0);
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any component is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any component is out of bounds.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.shape.offset(idx);
        self.data[off] = value;
    }

    /// The single value of a rank-0 or single-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor holds more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() requires exactly one element, got {}",
            self.numel()
        );
        self.data[0]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {} elements into {}",
            self.numel(),
            shape
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// Consuming reshape that avoids cloning the data.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn into_reshaped(self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.data.len(),
            "cannot reshape {} elements into {}",
            self.data.len(),
            shape
        );
        Tensor {
            shape,
            data: self.data,
        }
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose requires a rank-2 tensor");
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        let mut out = Tensor::zeros(&[cols, rows]);
        for r in 0..rows {
            for c in 0..cols {
                out.data[c * rows + r] = self.data[r * cols + c];
            }
        }
        out
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip_map requires equal shapes ({} vs {})",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Copies a contiguous row range `[start, end)` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics for non-rank-2 tensors or out-of-range bounds.
    pub fn rows(&self, start: usize, end: usize) -> Tensor {
        assert_eq!(self.rank(), 2, "rows() requires a rank-2 tensor");
        let cols = self.dims()[1];
        assert!(
            start <= end && end <= self.dims()[0],
            "row range {start}..{end} out of bounds for {} rows",
            self.dims()[0]
        );
        Tensor {
            shape: Shape::new(&[end - start, cols]),
            data: self.data[start * cols..end * cols].to_vec(),
        }
    }

    /// Copies the sample range `[start, end)` along the leading (batch) axis
    /// of a tensor of any rank ≥ 1.
    ///
    /// # Panics
    ///
    /// Panics for rank-0 tensors or out-of-range bounds.
    pub fn batch_slice(&self, start: usize, end: usize) -> Tensor {
        assert!(self.rank() >= 1, "batch_slice requires rank >= 1");
        let n = self.dims()[0];
        assert!(
            start <= end && end <= n,
            "batch range {start}..{end} out of bounds for {n} samples"
        );
        let stride: usize = self.dims()[1..].iter().product();
        let mut dims = self.dims().to_vec();
        dims[0] = end - start;
        Tensor {
            shape: Shape::new(&dims),
            data: self.data[start * stride..end * stride].to_vec(),
        }
    }

    /// Concatenates tensors along the leading axis. All trailing dimensions
    /// must agree.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or trailing dimensions differ.
    pub fn concat_batch(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_batch requires at least one part");
        let trailing = &parts[0].dims()[1..];
        let mut total = 0;
        for p in parts {
            assert_eq!(
                &p.dims()[1..],
                trailing,
                "concat_batch trailing dims must agree"
            );
            total += p.dims()[0];
        }
        let mut dims = parts[0].dims().to_vec();
        dims[0] = total;
        let mut data = Vec::with_capacity(dims.iter().product());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Tensor {
            shape: Shape::new(&dims),
            data,
        }
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// L2 (Frobenius) norm of all elements.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "[{:.4}, {:.4}, … ; numel={}]",
                self.data[0],
                self.data[1],
                self.numel()
            )
        }
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor.
    fn default() -> Self {
        Tensor {
            shape: Shape::new(&[0]),
            data: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(&[3, 3]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[4]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[2, 2], 7.5).data().iter().all(|&x| x == 7.5));
    }

    #[test]
    fn try_from_vec_shape_mismatch() {
        let err = Tensor::try_from_vec(vec![1.0; 5], &[2, 3]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }));
    }

    #[test]
    fn eye_diagonal() {
        let i = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.at(&[r, c]), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn at_and_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 9.0);
        assert_eq!(t.at(&[1, 2, 3]), 9.0);
        assert_eq!(t.data()[12 + 2 * 4 + 3], 9.0);
    }

    #[test]
    fn item_on_scalar() {
        assert_eq!(Tensor::scalar(3.25).item(), 3.25);
    }

    #[test]
    #[should_panic(expected = "exactly one element")]
    fn item_on_vector_panics() {
        Tensor::zeros(&[2]).item();
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        assert_eq!(t.at(&[1, 2]), 5.0);
        let back = t.into_reshaped(&[6]);
        assert_eq!(back.data(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_bad_count_panics() {
        Tensor::zeros(&[4]).reshape(&[3]);
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = t.transpose();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), t.at(&[1, 2]));
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec(vec![1.0, -2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!(a.map(f32::abs).data(), &[1.0, 2.0]);
        assert_eq!(a.zip_map(&b, |x, y| x * y).data(), &[3.0, -8.0]);
    }

    #[test]
    fn rows_slice() {
        let t = Tensor::arange(12).into_reshaped(&[4, 3]);
        let mid = t.rows(1, 3);
        assert_eq!(mid.dims(), &[2, 3]);
        assert_eq!(mid.data(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn batch_slice_rank4() {
        let t = Tensor::arange(2 * 3 * 2 * 2).into_reshaped(&[2, 3, 2, 2]);
        let s = t.batch_slice(1, 2);
        assert_eq!(s.dims(), &[1, 3, 2, 2]);
        assert_eq!(s.data()[0], 12.0);
    }

    #[test]
    fn concat_batch_roundtrip() {
        let t = Tensor::arange(12).into_reshaped(&[4, 3]);
        let a = t.batch_slice(0, 1);
        let b = t.batch_slice(1, 4);
        let joined = Tensor::concat_batch(&[&a, &b]);
        assert_eq!(joined, t);
    }

    #[test]
    fn norms() {
        let t = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!(t.sq_norm(), 25.0);
        assert_eq!(t.norm(), 5.0);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[2]);
        assert!(!t.has_non_finite());
        t.set(&[0], f32::NAN);
        assert!(t.has_non_finite());
    }

    #[test]
    fn debug_nonempty() {
        assert!(!format!("{:?}", Tensor::zeros(&[2, 2])).is_empty());
        assert!(!format!("{:?}", Tensor::zeros(&[100])).is_empty());
    }
}
