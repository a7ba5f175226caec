//! The graph-convolutional GRU cell — the paper's CNRNN (§V-B, Eqs. 7–10).
//!
//! The cell follows the GRU structure but every gate replaces its
//! fully-connected projection with a Cheby-Net graph convolution over the
//! region graph:
//!
//! ```text
//! S  = σ(G_S ⊛ [X ‖ H] + b_S)          reset gate   (Eq. 7)
//! U  = σ(G_U ⊛ [X ‖ H] + b_U)          update gate  (Eq. 8)
//! H̃  = tanh(G_H ⊛ [X ‖ S ⊙ H] + b_H)   candidate    (Eq. 9)
//! H' = U ⊙ H + (1 − U) ⊙ H̃             output       (Eq. 10)
//! ```
//!
//! Note on fidelity: the paper's printed Eq. 8 omits the input term and
//! Eq. 10 mixes the cell *input* rather than the hidden state; both are
//! evident typos against the GRU template the text says it follows ("we
//! follow the structure of gated recurrent units while replacing the
//! traditionally fully connected layer with a Cheby-Net based graph
//! convolution layer"). We implement the standard gated form above, which
//! is also what the authors' released TensorFlow code does.

use crate::layers::ChebyConv;
use crate::params::ParamStore;
use crate::tape::{Tape, Var};
use std::sync::Arc;
use stod_tensor::rng::Rng64;
use stod_tensor::{CsrMatrix, Tensor};

/// A graph-convolutional GRU cell over states shaped `[B, N, F]`.
pub struct GcGruCell {
    conv_s: ChebyConv,
    conv_u: ChebyConv,
    conv_h: ChebyConv,
    num_nodes: usize,
    in_feat: usize,
    hidden_feat: usize,
}

impl GcGruCell {
    /// Registers a new cell. All three gates use Chebyshev order `order`
    /// and share one `laplacian` (the scaled Laplacian of the origin or
    /// destination proximity graph).
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        laplacian: Arc<CsrMatrix>,
        order: usize,
        in_feat: usize,
        hidden_feat: usize,
        rng: &mut Rng64,
    ) -> Self {
        let num_nodes = laplacian.rows();
        let cat = in_feat + hidden_feat;
        let conv_s = ChebyConv::new(
            store,
            &format!("{prefix}.gate_s"),
            Arc::clone(&laplacian),
            order,
            cat,
            hidden_feat,
            rng,
        );
        let conv_u = ChebyConv::new(
            store,
            &format!("{prefix}.gate_u"),
            Arc::clone(&laplacian),
            order,
            cat,
            hidden_feat,
            rng,
        );
        let conv_h = ChebyConv::new(
            store,
            &format!("{prefix}.gate_h"),
            laplacian,
            order,
            cat,
            hidden_feat,
            rng,
        );
        GcGruCell {
            conv_s,
            conv_u,
            conv_h,
            num_nodes,
            in_feat,
            hidden_feat,
        }
    }

    /// Zero hidden state `[batch, N, hidden]`.
    pub fn zero_state(&self, tape: &mut Tape, batch: usize) -> Var {
        tape.constant(Tensor::zeros(&[batch, self.num_nodes, self.hidden_feat]))
    }

    /// One recurrence step: `(x [B,N,F_in], h [B,N,F_h]) → h' [B,N,F_h]`.
    pub fn step(&self, tape: &mut Tape, store: &ParamStore, x: Var, h: Var) -> Var {
        assert_eq!(
            tape.value(x).dim(2),
            self.in_feat,
            "GCGRU input feature mismatch"
        );
        assert_eq!(
            tape.value(h).dim(2),
            self.hidden_feat,
            "GCGRU hidden feature mismatch"
        );

        let xh = tape.concat(&[x, h], 2);
        let s_in = self.conv_s.apply(tape, store, xh);
        let s = tape.sigmoid(s_in); // reset gate (Eq. 7)
        let u_in = self.conv_u.apply(tape, store, xh);
        let u = tape.sigmoid(u_in); // update gate (Eq. 8)

        let sh = tape.mul(s, h);
        let xsh = tape.concat(&[x, sh], 2);
        let h_cand_in = self.conv_h.apply(tape, store, xsh);
        let h_cand = tape.tanh(h_cand_in); // candidate (Eq. 9)

        let keep = tape.mul(u, h);
        let one_minus_u = tape.one_minus(u);
        let take = tape.mul(one_minus_u, h_cand);
        tape.add(keep, take) // Eq. 10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring4_scaled_laplacian() -> Arc<CsrMatrix> {
        // 4-cycle: L = 2I − W_ring, λ_max = 4 → L̃ = L/2 − I.
        let w = Tensor::from_vec(
            &[4, 4],
            vec![
                0.0, 1.0, 0.0, 1.0, //
                1.0, 0.0, 1.0, 0.0, //
                0.0, 1.0, 0.0, 1.0, //
                1.0, 0.0, 1.0, 0.0,
            ],
        );
        let mut l = w.map(|x| -x);
        for i in 0..4 {
            l.set(&[i, i], 2.0);
        }
        let mut lt = l.map(|x| x / 2.0);
        for i in 0..4 {
            let v = lt.at(&[i, i]) - 1.0;
            lt.set(&[i, i], v);
        }
        Arc::new(CsrMatrix::from_dense(&lt))
    }

    #[test]
    fn step_shapes_and_finiteness() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(0);
        let cell = GcGruCell::new(
            &mut store,
            "cn",
            ring4_scaled_laplacian(),
            2,
            3,
            5,
            &mut rng,
        );
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[2, 4, 3]));
        let h = cell.zero_state(&mut tape, 2);
        let h1 = cell.step(&mut tape, &store, x, h);
        assert_eq!(tape.value(h1).dims(), &[2, 4, 5]);
        assert!(tape.value(h1).all_finite());
    }

    #[test]
    fn hidden_bounded_by_one() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(1);
        let cell = GcGruCell::new(
            &mut store,
            "cn",
            ring4_scaled_laplacian(),
            2,
            2,
            3,
            &mut rng,
        );
        let mut tape = Tape::new();
        let mut h = cell.zero_state(&mut tape, 1);
        for i in 0..20 {
            let x = tape.leaf(Tensor::full(&[1, 4, 2], ((i * 7) % 5) as f32));
            h = cell.step(&mut tape, &store, x, h);
        }
        assert!(tape.value(h).max() <= 1.0 && tape.value(h).min() >= -1.0);
    }

    #[test]
    fn spatial_information_propagates() {
        // Stimulate only node 0; after one step its *neighbors* (1 and 3 on
        // the ring) must react differently from the far node 2.
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(2);
        let cell = GcGruCell::new(
            &mut store,
            "cn",
            ring4_scaled_laplacian(),
            2,
            1,
            1,
            &mut rng,
        );
        let mut tape = Tape::new();
        let mut x_data = Tensor::zeros(&[1, 4, 1]);
        x_data.set(&[0, 0, 0], 5.0);
        let x = tape.leaf(x_data);
        let h = cell.zero_state(&mut tape, 1);
        let h1 = cell.step(&mut tape, &store, x, h);
        let v = tape.value(h1);
        let neighbor = v.at(&[0, 1, 0]);
        let far = v.at(&[0, 2, 0]);
        assert!(
            (neighbor - far).abs() > 1e-5,
            "one Chebyshev hop must distinguish neighbors from non-neighbors"
        );
    }

    #[test]
    fn gradients_reach_all_gates() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(3);
        let cell = GcGruCell::new(
            &mut store,
            "cn",
            ring4_scaled_laplacian(),
            2,
            2,
            2,
            &mut rng,
        );
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[1, 4, 2]));
        let h0 = cell.zero_state(&mut tape, 1);
        let h1 = cell.step(&mut tape, &store, x, h0);
        let h2 = cell.step(&mut tape, &store, x, h1);
        let sq = tape.mul(h2, h2);
        let loss = tape.sum_all(sq);
        let grads = tape.backward(loss);
        for gate in ["gate_s", "gate_u", "gate_h"] {
            let id = store.id_of(&format!("cn.{gate}.ws")).unwrap();
            let g = grads.get(id).expect("gradient must reach every gate");
            assert!(g.frob_sq() > 0.0, "zero gradient for {gate}");
        }
    }
}
