//! Elementwise kernels with NumPy-style broadcasting.

use crate::shape::{broadcast_shapes, broadcast_strides, Shape};
use crate::tensor::Tensor;

/// Applies a binary operation with broadcasting.
///
/// The output shape is the broadcast of the operand shapes; each operand is
/// read with stride-0 on its broadcast dimensions.
///
/// # Panics
/// Panics when the shapes are not broadcast-compatible.
pub fn binary_op(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    if a.dims() == b.dims() {
        // Fast path: identical shapes, no index arithmetic needed.
        let data = a
            .data()
            .iter()
            .zip(b.data().iter())
            .map(|(&x, &y)| f(x, y))
            .collect();
        return Tensor::from_vec(a.dims(), data);
    }
    let out_dims = broadcast_shapes(a.dims(), b.dims())
        .unwrap_or_else(|| panic!("incompatible shapes {:?} vs {:?}", a.dims(), b.dims()));
    let out_shape = Shape::new(&out_dims);
    let sa = broadcast_strides(a.dims(), &out_dims);
    let sb = broadcast_strides(b.dims(), &out_dims);
    let n = out_shape.numel();
    let mut data = Vec::with_capacity(n);
    let mut idx = vec![0usize; out_dims.len()];
    let (mut off_a, mut off_b) = (0usize, 0usize);
    for _ in 0..n {
        data.push(f(a.data()[off_a], b.data()[off_b]));
        // Odometer increment over the output index, updating both offsets.
        for axis in (0..out_dims.len()).rev() {
            idx[axis] += 1;
            off_a += sa[axis];
            off_b += sb[axis];
            if idx[axis] < out_dims[axis] {
                break;
            }
            idx[axis] = 0;
            off_a -= sa[axis] * out_dims[axis];
            off_b -= sb[axis] * out_dims[axis];
        }
    }
    Tensor::from_vec(&out_dims, data)
}

/// Applies a unary function elementwise.
pub fn unary_op(a: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    a.map(f)
}

/// Elementwise addition with broadcasting.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    binary_op(a, b, |x, y| x + y)
}

/// Elementwise subtraction with broadcasting.
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    binary_op(a, b, |x, y| x - y)
}

/// Elementwise (Hadamard) product with broadcasting.
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    binary_op(a, b, |x, y| x * y)
}

/// Adds a scalar to every element.
pub fn add_scalar(a: &Tensor, s: f32) -> Tensor {
    a.map(|x| x + s)
}

/// Multiplies every element by a scalar.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    a.map(|x| x * s)
}

/// Elementwise negation.
pub fn neg(a: &Tensor) -> Tensor {
    a.map(|x| -x)
}

/// Elementwise natural exponential.
pub fn exp(a: &Tensor) -> Tensor {
    a.map(f32::exp)
}

/// Elementwise natural logarithm.
pub fn ln(a: &Tensor) -> Tensor {
    a.map(f32::ln)
}

/// Elementwise hyperbolic tangent.
pub fn tanh(a: &Tensor) -> Tensor {
    a.map(f32::tanh)
}

/// Elementwise logistic sigmoid `1 / (1 + e^-x)`, computed stably.
pub fn sigmoid(a: &Tensor) -> Tensor {
    a.map(sigmoid_scalar)
}

/// Numerically stable scalar sigmoid.
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Scalar rectified linear unit: `x` when above zero, else +0.0, for
/// −0.0 and NaN too. (`f32::max(x, 0.0)` leaves the sign of a zero
/// result to the code generator, which picks differently across build
/// profiles and vector widths.)
#[inline(always)]
pub fn relu_scalar(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// Elementwise rectified linear unit ([`relu_scalar`]).
pub fn relu(a: &Tensor) -> Tensor {
    a.map(relu_scalar)
}

/// Clamps every element to `[lo, hi]`.
pub fn clamp(a: &Tensor, lo: f32, hi: f32) -> Tensor {
    a.map(|x| x.clamp(lo, hi))
}

/// Elementwise square root.
pub fn sqrt(a: &Tensor) -> Tensor {
    a.map(f32::sqrt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_shape_ops() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2], vec![4.0, 3.0, 2.0, 1.0]);
        assert_eq!(add(&a, &b).data(), &[5.0; 4]);
        assert_eq!(sub(&a, &b).data(), &[-3.0, -1.0, 1.0, 3.0]);
        assert_eq!(mul(&a, &b).data(), &[4.0, 6.0, 6.0, 4.0]);
    }

    #[test]
    fn broadcasting_row_and_col() {
        let m = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let row = Tensor::from_vec(&[3], vec![10.0, 20.0, 30.0]);
        let col = Tensor::from_vec(&[2, 1], vec![100.0, 200.0]);
        assert_eq!(add(&m, &row).data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        assert_eq!(
            add(&m, &col).data(),
            &[101.0, 102.0, 103.0, 204.0, 205.0, 206.0]
        );
    }

    #[test]
    fn broadcast_scalar_tensor() {
        let m = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let s = Tensor::scalar(2.0);
        assert_eq!(mul(&m, &s).data(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(mul(&s, &m).data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn broadcast_3d() {
        let a = Tensor::ones(&[2, 1, 3]);
        let b = Tensor::from_vec(&[4, 1], vec![1.0, 2.0, 3.0, 4.0]);
        let c = add(&a, &b);
        assert_eq!(c.dims(), &[2, 4, 3]);
        assert_eq!(c.at(&[1, 3, 2]), 5.0);
        assert_eq!(c.at(&[0, 0, 0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "incompatible shapes")]
    fn incompatible_shapes_panic() {
        add(&Tensor::zeros(&[3]), &Tensor::zeros(&[4]));
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        let t = Tensor::from_vec(&[3], vec![-100.0, 0.0, 100.0]);
        let s = sigmoid(&t);
        assert!(s.all_finite());
        assert!((s.data()[0]).abs() < 1e-6);
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        assert!((s.data()[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn unary_family() {
        let t = Tensor::from_vec(&[2], vec![-1.0, 4.0]);
        assert_eq!(relu(&t).data(), &[0.0, 4.0]);
        assert_eq!(neg(&t).data(), &[1.0, -4.0]);
        assert_eq!(clamp(&t, 0.0, 2.0).data(), &[0.0, 2.0]);
        assert_eq!(
            sqrt(&Tensor::from_vec(&[2], vec![4.0, 9.0])).data(),
            &[2.0, 3.0]
        );
        assert!((exp(&Tensor::scalar(0.0)).item() - 1.0).abs() < 1e-7);
        assert!((ln(&Tensor::scalar(1.0)).item()).abs() < 1e-7);
    }
}
