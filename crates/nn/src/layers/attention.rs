//! Dot-product attention over encoder states — the paper's §VII outlook
//! ("consider the information at different timestamps differently, e.g.,
//! using attention networks") implemented as an optional seq2seq decoder.
//!
//! At each decode step the decoder hidden state attends over all encoder
//! hidden states with a bilinear score; the context vector is concatenated
//! with the decoder state before the output head.

use crate::layers::{GruCell, Linear};
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use stod_tensor::rng::Rng64;
use stod_tensor::Tensor;

/// GRU encoder–decoder with bilinear attention over the encoder states.
///
/// Same interface as [`crate::layers::GruSeq2Seq`], with one extra weight
/// (`H×H` bilinear score) and a `2H → dim` output head.
pub struct AttnGruSeq2Seq {
    encoder: GruCell,
    decoder: GruCell,
    /// Bilinear attention score weight `W_a ∈ R^{H×H}`.
    w_att: ParamId,
    head: Linear,
}

impl AttnGruSeq2Seq {
    /// Registers the encoder, decoder, attention weight and output head.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        dim: usize,
        hidden: usize,
        rng: &mut Rng64,
    ) -> Self {
        AttnGruSeq2Seq {
            encoder: GruCell::new(store, &format!("{prefix}.enc"), dim, hidden, rng),
            decoder: GruCell::new(store, &format!("{prefix}.dec"), dim, hidden, rng),
            w_att: store.register(
                format!("{prefix}.w_att"),
                Tensor::glorot(&[hidden, hidden], rng),
            ),
            head: Linear::new(store, &format!("{prefix}.head"), 2 * hidden, dim, rng),
        }
    }

    /// Encodes `inputs` (each `[B, D]`) and decodes `horizon` steps with
    /// attention over the encoder states.
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        inputs: &[Var],
        horizon: usize,
    ) -> Vec<Var> {
        assert!(!inputs.is_empty(), "seq2seq needs at least one input step");
        assert!(horizon >= 1, "seq2seq horizon must be ≥ 1");
        let batch = tape.value(inputs[0]).dim(0);
        let hidden = self.encoder.hidden();

        // Encode, keeping every hidden state for attention.
        let mut h = self.encoder.zero_state(tape, batch);
        let mut enc_states = Vec::with_capacity(inputs.len());
        for &x in inputs {
            h = self.encoder.step(tape, store, x, h);
            enc_states.push(h);
        }
        // Stack encoder states as [B, S, H].
        let stacked: Vec<Var> = enc_states
            .iter()
            .map(|&s| tape.reshape(s, &[batch, 1, hidden]))
            .collect();
        let enc = tape.concat(&stacked, 1); // [B, S, H]

        let w_att = tape.param(store, self.w_att);
        let mut outputs = Vec::with_capacity(horizon);
        let mut dec_in = *inputs.last().expect("nonempty");
        for _ in 0..horizon {
            h = self.decoder.step(tape, store, dec_in, h);
            // scores = enc · (W_a · hᵀ): [B, S, H] × [B, H, 1] → [B, S, 1].
            let hw = tape.matmul(h, w_att); // [B, H]
            let hw3 = tape.reshape(hw, &[batch, hidden, 1]);
            let scores = tape.batched_matmul(enc, hw3); // [B, S, 1]
            let attn = tape.softmax(scores, 1);
            // context = attnᵀ · enc : [B, 1, S] × [B, S, H] → [B, H].
            let attn_t = tape.transpose(attn, 1, 2);
            let ctx = tape.batched_matmul(attn_t, enc); // [B, 1, H]
            let ctx = tape.reshape(ctx, &[batch, hidden]);
            let joint = tape.concat(&[h, ctx], 1); // [B, 2H]
            let y = self.head.apply(tape, store, joint);
            outputs.push(y);
            dec_in = y;
        }
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    #[test]
    fn shapes_and_finiteness() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(0);
        let model = AttnGruSeq2Seq::new(&mut store, "a", 3, 6, &mut rng);
        let mut tape = Tape::new();
        let xs: Vec<Var> = (0..4)
            .map(|i| tape.leaf(Tensor::full(&[2, 3], i as f32 * 0.3)))
            .collect();
        let ys = model.forward(&mut tape, &store, &xs, 2);
        assert_eq!(ys.len(), 2);
        for y in &ys {
            assert_eq!(tape.value(*y).dims(), &[2, 3]);
            assert!(tape.value(*y).all_finite());
        }
    }

    #[test]
    fn gradients_reach_attention_weight() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(1);
        let model = AttnGruSeq2Seq::new(&mut store, "a", 2, 4, &mut rng);
        let mut tape = Tape::new();
        let xs: Vec<Var> = (0..3)
            .map(|_| tape.constant(Tensor::ones(&[1, 2])))
            .collect();
        let ys = model.forward(&mut tape, &store, &xs, 1);
        let sq = tape.mul(ys[0], ys[0]);
        let loss = tape.sum_all(sq);
        let grads = tape.backward(loss);
        let g = grads.get(store.id_of("a.w_att").unwrap());
        assert!(g.is_some(), "attention weight got no gradient");
        assert!(g.unwrap().frob_sq() > 0.0);
    }

    #[test]
    fn learns_to_echo_first_input() {
        // Task that *needs* attention to early states: predict the first
        // element of the sequence after several distractor steps.
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(2);
        let model = AttnGruSeq2Seq::new(&mut store, "a", 1, 8, &mut rng);
        let mut adam = Adam::new(0.02);
        let mut last = f32::MAX;
        for step in 0..400 {
            let sign = if step % 2 == 0 { 1.0 } else { -1.0 };
            let mut tape = Tape::new();
            let first = tape.constant(Tensor::full(&[1, 1], sign));
            let distract: Vec<Var> = (0..4)
                .map(|_| tape.constant(Tensor::zeros(&[1, 1])))
                .collect();
            let mut xs = vec![first];
            xs.extend(distract);
            let ys = model.forward(&mut tape, &store, &xs, 1);
            let target = Tensor::full(&[1, 1], sign);
            let loss = tape.masked_sq_err(ys[0], &target, &Tensor::ones(&[1, 1]));
            last = tape.value(loss).item();
            let grads = tape.backward(loss);
            adam.step(&mut store, &grads);
        }
        assert!(last < 0.05, "attention seq2seq failed to echo, loss {last}");
    }
}
