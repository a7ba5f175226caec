//! Shape and stride arithmetic shared by all tensor kernels.
//!
//! Shapes are plain `Vec<usize>` wrapped in [`Shape`] for the handful of
//! operations that need them (element counts, row-major strides, broadcast
//! resolution, and multi-index ↔ flat-offset conversion).

use std::fmt;

/// A tensor shape: the extent of each dimension, outermost first.
///
/// A rank-0 shape (empty dims) describes a scalar with exactly one element.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Creates a shape from a slice of dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Number of dimensions (rank) of the shape.
    pub fn ndim(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements described by the shape.
    ///
    /// The empty (scalar) shape has one element.
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Extent of dimension `axis`.
    ///
    /// # Panics
    /// Panics if `axis >= self.ndim()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// The dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Row-major (C-order) strides, in elements.
    ///
    /// `strides()[i]` is the flat-offset step taken when index `i`
    /// increments by one.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-index to a flat row-major offset.
    ///
    /// # Panics
    /// Panics if `idx` has the wrong rank or any coordinate is out of range.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.0.len(),
            "index rank {} does not match shape rank {}",
            idx.len(),
            self.0.len()
        );
        let mut off = 0;
        let strides = self.strides();
        for (axis, (&i, &s)) in idx.iter().zip(strides.iter()).enumerate() {
            assert!(
                i < self.0[axis],
                "index {i} out of bounds for axis {axis} with extent {}",
                self.0[axis]
            );
            off += i * s;
        }
        off
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
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

/// Resolves the broadcast shape of two operand shapes under NumPy rules.
///
/// Dimensions are aligned from the trailing end; each pair must be equal or
/// one of them must be `1`. Returns `None` when the shapes are incompatible.
pub fn broadcast_shapes(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let ndim = a.len().max(b.len());
    let mut out = vec![0usize; ndim];
    for i in 0..ndim {
        let da = if i < ndim - a.len() {
            1
        } else {
            a[i - (ndim - a.len())]
        };
        let db = if i < ndim - b.len() {
            1
        } else {
            b[i - (ndim - b.len())]
        };
        out[i] = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            return None;
        };
    }
    Some(out)
}

/// Strides for reading a tensor of shape `src` as if it had the broadcast
/// shape `dst` (stride 0 on broadcast dimensions).
///
/// # Panics
/// Panics if `src` does not broadcast to `dst`.
pub fn broadcast_strides(src: &[usize], dst: &[usize]) -> Vec<usize> {
    assert!(
        src.len() <= dst.len(),
        "source rank exceeds destination rank"
    );
    let shift = dst.len() - src.len();
    let src_strides = Shape::new(src).strides();
    let mut out = vec![0usize; dst.len()];
    for i in 0..dst.len() {
        if i < shift {
            out[i] = 0;
        } else {
            let s = src[i - shift];
            if s == dst[i] {
                out[i] = src_strides[i - shift];
            } else {
                assert_eq!(s, 1, "cannot broadcast extent {s} to {}", dst[i]);
                out[i] = 0;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert_eq!(Shape::new(&[]).strides(), Vec::<usize>::new());
    }

    #[test]
    fn offset_is_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        let mut flat = 0;
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    assert_eq!(s.offset(&[i, j, k]), flat);
                    flat += 1;
                }
            }
        }
        assert_eq!(flat, s.numel());
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_out_of_bounds_panics() {
        Shape::new(&[2, 2]).offset(&[2, 0]);
    }

    #[test]
    fn broadcast_rules() {
        assert_eq!(broadcast_shapes(&[3, 1], &[1, 4]), Some(vec![3, 4]));
        assert_eq!(broadcast_shapes(&[5, 3, 1], &[3, 4]), Some(vec![5, 3, 4]));
        assert_eq!(broadcast_shapes(&[2], &[2]), Some(vec![2]));
        assert_eq!(broadcast_shapes(&[], &[7]), Some(vec![7]));
        assert_eq!(broadcast_shapes(&[3], &[4]), None);
    }

    #[test]
    fn broadcast_strides_zeroed() {
        assert_eq!(broadcast_strides(&[3, 1], &[3, 4]), vec![1, 0]);
        assert_eq!(broadcast_strides(&[4], &[3, 4]), vec![0, 1]);
        assert_eq!(broadcast_strides(&[], &[2, 2]), vec![0, 0]);
    }
}
