//! The dense [`Tensor`] type: an always-contiguous, row-major `f32` buffer
//! plus its shape.

use crate::arena;
use crate::rng::Rng64;
use crate::shape::Shape;
use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};

/// Arena-aware owning buffer backing a [`Tensor`].
///
/// Behaves like the `Vec<f32>` it wraps, except that on drop the vector is
/// offered back to the thread-local workspace arena (see [`crate::arena`]).
/// Buffers whose capacity matches an arena size class are parked for reuse;
/// anything else is freed normally. This is what lets per-minibatch
/// temporaries (activations, gradients, transposes) recycle their
/// allocations instead of round-tripping through the global allocator.
struct Buf(ManuallyDrop<Vec<f32>>);

impl Buf {
    #[inline]
    fn new(v: Vec<f32>) -> Self {
        Buf(ManuallyDrop::new(v))
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        let v = unsafe { ManuallyDrop::take(&mut self.0) };
        arena::recycle(v);
    }
}

impl Deref for Buf {
    type Target = Vec<f32>;
    #[inline]
    fn deref(&self) -> &Vec<f32> {
        &self.0
    }
}

impl DerefMut for Buf {
    #[inline]
    fn deref_mut(&mut self) -> &mut Vec<f32> {
        &mut self.0
    }
}

impl Clone for Buf {
    fn clone(&self) -> Self {
        let mut v = arena::alloc_raw(self.len());
        v.copy_from_slice(self);
        Buf::new(v)
    }
}

impl PartialEq for Buf {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

/// A dense, row-major tensor of `f32` values.
///
/// Invariant: `data.len() == shape.numel()` and the buffer is contiguous in
/// C order. All kernels in this workspace preserve that invariant, which
/// keeps reasoning simple at the cost of copying on transpose-like
/// operations — an acceptable trade at the model sizes used by the paper.
///
/// ```
/// use stod_tensor::Tensor;
///
/// let m = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// assert_eq!(m.at(&[1, 2]), 6.0);
/// assert_eq!(m.reshape(&[3, 2]).dims(), &[3, 2]);
/// assert_eq!(m.sum(), 21.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Buf,
}

impl Tensor {
    /// Creates a tensor from a shape and a matching data buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.numel()`.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape,
            data: Buf::new(data),
        }
    }

    /// A tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        Tensor::full(dims, 0.0)
    }

    /// A tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// A tensor filled with a constant `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: Buf::new(arena::alloc_filled(n, value)),
        }
    }

    /// A rank-0 tensor holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::new(&[]),
            data: Buf::new(vec![value]),
        }
    }

    /// The identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Uniform random tensor in `[lo, hi)` drawn from a seeded generator.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut Rng64) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        let mut data = arena::alloc_raw(n);
        for x in data.iter_mut() {
            *x = lo + (hi - lo) * rng.next_f32();
        }
        Tensor {
            shape,
            data: Buf::new(data),
        }
    }

    /// Gaussian random tensor with the given standard deviation (mean 0).
    pub fn randn(dims: &[usize], std: f32, rng: &mut Rng64) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        let mut data = arena::alloc_raw(n);
        for x in data.iter_mut() {
            *x = std * rng.next_gaussian() as f32;
        }
        Tensor {
            shape,
            data: Buf::new(data),
        }
    }

    /// Glorot/Xavier uniform initialization for a weight of shape
    /// `[fan_in, fan_out, ...]` (the first two dims are used as fans).
    pub fn glorot(dims: &[usize], rng: &mut Rng64) -> Self {
        let fan_in = dims.first().copied().unwrap_or(1) as f32;
        let fan_out = dims.get(1).copied().unwrap_or(1) as f32;
        let limit = (6.0 / (fan_in + fan_out)).sqrt();
        Tensor::rand_uniform(dims, -limit, limit, rng)
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Extent of dimension `axis`.
    pub fn dim(&self, axis: usize) -> usize {
        self.shape.dim(axis)
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Sets the element at a multi-index.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.shape.offset(idx);
        self.data[off] = value;
    }

    /// The single value of a rank-0 or one-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() on tensor with {} elements",
            self.numel()
        );
        self.data[0]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {:?} ({} elems) to {:?} ({} elems)",
            self.shape,
            self.numel(),
            shape,
            shape.numel()
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// In-place reshape without copying the buffer.
    pub fn reshaped(mut self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "reshape element count mismatch"
        );
        self.shape = shape;
        self
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = arena::alloc_raw(self.data.len());
        for (o, &x) in data.iter_mut().zip(self.data.iter()) {
            *o = f(x);
        }
        Tensor {
            shape: self.shape.clone(),
            data: Buf::new(data),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data.iter_mut() {
            *x = f(*x);
        }
    }

    /// Sum of all elements (f64 accumulation for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element; `-inf` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; `+inf` for an empty tensor.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared Frobenius norm `Σ x²`.
    pub fn frob_sq(&self) -> f32 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>() as f32
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference to another tensor of identical shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Checks approximate elementwise equality within `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "{:?}", &self.data[..])
        } else {
            write!(
                f,
                "[{} elements, first = {:?}...]",
                self.numel(),
                &self.data[..8]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    fn set_and_get() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set(&[1, 0], 7.5);
        assert_eq!(t.at(&[1, 0]), 7.5);
        assert_eq!(t.sum(), 7.5);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[0, 1]), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.at(&[2, 1]), 6.0);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_bad_count_panics() {
        Tensor::zeros(&[2, 3]).reshape(&[4, 2]);
    }

    #[test]
    fn map_and_stats() {
        let t = Tensor::from_vec(&[3], vec![-1.0, 0.0, 2.0]);
        let sq = t.map(|x| x * x);
        assert_eq!(sq.data(), &[1.0, 0.0, 4.0]);
        assert_eq!(t.max(), 2.0);
        assert_eq!(t.min(), -1.0);
        assert!((t.mean() - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(t.frob_sq(), 5.0);
    }

    #[test]
    fn random_tensors_seeded_deterministic() {
        let mut r1 = Rng64::new(42);
        let mut r2 = Rng64::new(42);
        let a = Tensor::randn(&[4, 4], 1.0, &mut r1);
        let b = Tensor::randn(&[4, 4], 1.0, &mut r2);
        assert_eq!(a, b);
        assert!(a.all_finite());
    }

    #[test]
    fn glorot_limit_respected() {
        let mut rng = Rng64::new(7);
        let w = Tensor::glorot(&[10, 20], &mut rng);
        let limit = (6.0f32 / 30.0).sqrt();
        assert!(w.max() <= limit && w.min() >= -limit);
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = Rng64::new(3);
        let t = Tensor::rand_uniform(&[100], -2.0, 5.0, &mut rng);
        assert!(t.min() >= -2.0 && t.max() < 5.0);
    }
}
