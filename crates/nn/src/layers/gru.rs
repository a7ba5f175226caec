//! Gated recurrent unit cell (Cho et al.), the recurrent core of the
//! paper's basic framework (§IV-C) and of the FC/RNN baseline.

use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use stod_tensor::rng::Rng64;
use stod_tensor::Tensor;

/// A GRU cell with fused gate weights.
///
/// For input `x ∈ R^{B×I}` and hidden state `h ∈ R^{B×H}`:
///
/// ```text
/// z = σ(x·Wxz + h·Whz + bz)        update gate
/// r = σ(x·Wxr + h·Whr + br)        reset gate
/// c = tanh(x·Wxc + (r ⊙ h)·Whc + bc)
/// h' = z ⊙ h + (1 − z) ⊙ c
/// ```
///
/// The three input projections are fused into one `I×3H` weight (and
/// likewise for the hidden projections) for fewer, larger matmuls.
pub struct GruCell {
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
    in_dim: usize,
    hidden: usize,
}

impl GruCell {
    /// Registers a new cell's parameters under `prefix`.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut Rng64,
    ) -> Self {
        let wx = store.register(
            format!("{prefix}.wx"),
            Tensor::glorot(&[in_dim, 3 * hidden], rng),
        );
        let wh = store.register(
            format!("{prefix}.wh"),
            Tensor::glorot(&[hidden, 3 * hidden], rng),
        );
        let b = store.register(format!("{prefix}.b"), Tensor::zeros(&[3 * hidden]));
        GruCell {
            wx,
            wh,
            b,
            in_dim,
            hidden,
        }
    }

    /// Hidden state dimension.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// A zero initial hidden state for a batch of `batch` sequences.
    pub fn zero_state(&self, tape: &mut Tape, batch: usize) -> Var {
        tape.constant(Tensor::zeros(&[batch, self.hidden]))
    }

    /// One recurrence step: `(x, h) → h'`.
    pub fn step(&self, tape: &mut Tape, store: &ParamStore, x: Var, h: Var) -> Var {
        let hdim = self.hidden;
        assert_eq!(tape.value(x).dim(1), self.in_dim, "GRU input dim mismatch");
        assert_eq!(tape.value(h).dim(1), hdim, "GRU hidden dim mismatch");

        let wx = tape.param(store, self.wx);
        let wh = tape.param(store, self.wh);
        let b = tape.param(store, self.b);

        let gx = tape.matmul(x, wx);
        let gx = tape.add(gx, b);
        let gh = tape.matmul(h, wh);

        let gx_z = tape.slice_axis(gx, 1, 0, hdim);
        let gx_r = tape.slice_axis(gx, 1, hdim, 2 * hdim);
        let gx_c = tape.slice_axis(gx, 1, 2 * hdim, 3 * hdim);
        let gh_z = tape.slice_axis(gh, 1, 0, hdim);
        let gh_r = tape.slice_axis(gh, 1, hdim, 2 * hdim);
        let gh_c = tape.slice_axis(gh, 1, 2 * hdim, 3 * hdim);

        let z_in = tape.add(gx_z, gh_z);
        let z = tape.sigmoid(z_in);
        let r_in = tape.add(gx_r, gh_r);
        let r = tape.sigmoid(r_in);

        let rh = tape.mul(r, gh_c);
        let c_in = tape.add(gx_c, rh);
        let c = tape.tanh(c_in);

        let zh = tape.mul(z, h);
        let one_minus_z = tape.one_minus(z);
        let zc = tape.mul(one_minus_z, c);
        tape.add(zh, zc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    #[test]
    fn step_shapes() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(0);
        let cell = GruCell::new(&mut store, "gru", 4, 6, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[3, 4]));
        let h = cell.zero_state(&mut tape, 3);
        let h1 = cell.step(&mut tape, &store, x, h);
        assert_eq!(tape.value(h1).dims(), &[3, 6]);
        assert!(tape.value(h1).all_finite());
    }

    #[test]
    fn hidden_stays_bounded() {
        // GRU hidden states are convex mixes of tanh outputs → |h| ≤ 1.
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(1);
        let cell = GruCell::new(&mut store, "gru", 2, 3, &mut rng);
        let mut tape = Tape::new();
        let mut h = cell.zero_state(&mut tape, 1);
        for i in 0..50 {
            let x = tape.leaf(Tensor::full(&[1, 2], (i as f32).sin() * 10.0));
            h = cell.step(&mut tape, &store, x, h);
        }
        assert!(tape.value(h).max() <= 1.0 && tape.value(h).min() >= -1.0);
    }

    #[test]
    fn zero_input_zero_state_gives_bounded_output() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(2);
        let cell = GruCell::new(&mut store, "gru", 3, 3, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[2, 3]));
        let h = cell.zero_state(&mut tape, 2);
        let h1 = cell.step(&mut tape, &store, x, h);
        // With zero bias and zero inputs: z = 0.5, c = tanh(0) = 0 → h' = 0.
        assert!(tape.value(h1).max_abs_diff(&Tensor::zeros(&[2, 3])) < 1e-6);
    }

    #[test]
    fn can_learn_to_memorize_sign() {
        // Task: output sign of the first input after two steps.
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(3);
        let cell = GruCell::new(&mut store, "gru", 1, 4, &mut rng);
        let head = crate::layers::Linear::new(&mut store, "head", 4, 1, &mut rng);
        let mut adam = Adam::new(0.02);
        let mut final_loss = f32::MAX;
        for _ in 0..300 {
            let mut tape = Tape::new();
            // Batch of two sequences: [+1, 0] → +1 and [−1, 0] → −1.
            let x0 = tape.constant(Tensor::from_vec(&[2, 1], vec![1.0, -1.0]));
            let x1 = tape.constant(Tensor::zeros(&[2, 1]));
            let h0 = cell.zero_state(&mut tape, 2);
            let h1 = cell.step(&mut tape, &store, x0, h0);
            let h2 = cell.step(&mut tape, &store, x1, h1);
            let y = head.apply(&mut tape, &store, h2);
            let target = Tensor::from_vec(&[2, 1], vec![1.0, -1.0]);
            let loss = tape.masked_sq_err(y, &target, &Tensor::ones(&[2, 1]));
            final_loss = tape.value(loss).item();
            let grads = tape.backward(loss);
            adam.step(&mut store, &grads);
        }
        assert!(
            final_loss < 0.05,
            "GRU failed to memorize, loss = {final_loss}"
        );
    }
}
