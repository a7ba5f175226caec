//! Fully-connected (affine) layer.

use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use stod_tensor::rng::Rng64;
use stod_tensor::Tensor;

/// An affine map `y = x·W + b` applied to the last dimension of the input.
///
/// Inputs of any rank are accepted; all leading dimensions are treated as
/// batch dimensions.
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a new layer's parameters under `prefix` with Glorot
    /// initialization.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Rng64,
    ) -> Self {
        let w = store.register(
            format!("{prefix}.weight"),
            Tensor::glorot(&[in_dim, out_dim], rng),
        );
        let b = store.register(format!("{prefix}.bias"), Tensor::zeros(&[out_dim]));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Applies the layer on the tape.
    ///
    /// # Panics
    /// Panics if the last dimension of `x` is not `in_dim`.
    pub fn apply(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let dims = tape.value(x).dims().to_vec();
        let last = *dims.last().expect("linear input must have ≥ 1 dim");
        assert_eq!(
            last, self.in_dim,
            "linear expected last dim {}, got {last}",
            self.in_dim
        );
        let batch: usize = dims[..dims.len() - 1].iter().product();
        let flat = tape.reshape(x, &[batch, self.in_dim]);
        let w = tape.param(store, self.w);
        let y = tape.matmul(flat, w);
        let b = tape.param(store, self.b);
        let y = tape.add(y, b);
        let mut out_dims = dims;
        *out_dims.last_mut().expect("nonempty") = self.out_dim;
        tape.reshape(y, &out_dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_grad_ok;

    #[test]
    fn forward_shapes() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(0);
        let lin = Linear::new(&mut store, "fc", 4, 3, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[2, 5, 4]));
        let y = lin.apply(&mut tape, &store, x);
        assert_eq!(tape.value(y).dims(), &[2, 5, 3]);
    }

    #[test]
    fn zero_weight_zero_bias_maps_to_zero() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(0);
        let lin = Linear::new(&mut store, "fc", 2, 2, &mut rng);
        store.set(store.id_of("fc.weight").unwrap(), Tensor::zeros(&[2, 2]));
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[3, 2]));
        let y = lin.apply(&mut tape, &store, x);
        assert_eq!(tape.value(y).data(), &[0.0; 6]);
    }

    #[test]
    fn known_affine_map() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(0);
        let lin = Linear::new(&mut store, "fc", 2, 1, &mut rng);
        store.set(
            store.id_of("fc.weight").unwrap(),
            Tensor::from_vec(&[2, 1], vec![2.0, 3.0]),
        );
        store.set(
            store.id_of("fc.bias").unwrap(),
            Tensor::from_vec(&[1], vec![1.0]),
        );
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(&[1, 2], vec![1.0, 1.0]));
        let y = lin.apply(&mut tape, &store, x);
        assert_eq!(tape.value(y).item(), 6.0);
    }

    #[test]
    fn gradients_flow_to_weights() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(1);
        let lin = Linear::new(&mut store, "fc", 3, 2, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2, 3]));
        let y = lin.apply(&mut tape, &store, x);
        let sq = tape.mul(y, y);
        let loss = tape.sum_all(sq);
        let grads = tape.backward(loss);
        assert!(grads.get(store.id_of("fc.weight").unwrap()).is_some());
        assert!(grads.get(store.id_of("fc.bias").unwrap()).is_some());
    }

    #[test]
    fn gradcheck_through_layer_params() {
        // Treat weight and bias as gradient-checked leaves by rebuilding the
        // affine map manually from them.
        let mut rng = Rng64::new(2);
        let w0 = Tensor::randn(&[3, 2], 0.5, &mut rng);
        let b0 = Tensor::randn(&[2], 0.5, &mut rng);
        let x0 = Tensor::randn(&[4, 3], 0.5, &mut rng);
        assert_grad_ok(&[w0, b0, x0], |t, v| {
            let y = t.matmul(v[2], v[0]);
            let yb = t.add(y, v[1]);
            let sq = t.mul(yb, yb);
            t.sum_all(sq)
        });
    }
}
