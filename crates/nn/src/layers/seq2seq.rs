//! Sequence-to-sequence drivers (Sutskever et al.) for the forecasting
//! stage: an encoder consumes the `s` historical factor tensors, a decoder
//! rolls out predictions for the `h` future intervals, feeding each output
//! back as the next decoder input.

use crate::layers::{ChebyConv, GcGruCell, GruCell, Linear};
use crate::params::ParamStore;
use crate::tape::{Tape, Var};
use std::sync::Arc;
use stod_tensor::rng::Rng64;
use stod_tensor::CsrMatrix;
#[cfg(test)]
use stod_tensor::Tensor;

/// GRU encoder–decoder over flat feature vectors `[B, D]` (the basic
/// framework's forecaster, §IV-C).
pub struct GruSeq2Seq {
    encoder: GruCell,
    decoder: GruCell,
    head: Linear,
}

impl GruSeq2Seq {
    /// Registers encoder, decoder and output head. Inputs and outputs share
    /// the dimension `dim`; the recurrent state has `hidden` units.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        dim: usize,
        hidden: usize,
        rng: &mut Rng64,
    ) -> Self {
        GruSeq2Seq {
            encoder: GruCell::new(store, &format!("{prefix}.enc"), dim, hidden, rng),
            decoder: GruCell::new(store, &format!("{prefix}.dec"), dim, hidden, rng),
            head: Linear::new(store, &format!("{prefix}.head"), hidden, dim, rng),
        }
    }

    /// Encodes `inputs` (length `s`, each `[B, D]`) and decodes `horizon`
    /// future steps, returning one `[B, D]` prediction per step.
    ///
    /// # Panics
    /// Panics if `inputs` is empty or `horizon == 0`.
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
        let mut h = self.encoder.zero_state(tape, batch);
        for &x in inputs {
            h = self.encoder.step(tape, store, x, h);
        }
        let mut outputs = Vec::with_capacity(horizon);
        let mut dec_in = *inputs.last().expect("nonempty");
        for _ in 0..horizon {
            h = self.decoder.step(tape, store, dec_in, h);
            let y = self.head.apply(tape, store, h);
            outputs.push(y);
            dec_in = y;
        }
        outputs
    }
}

/// Graph-convolutional GRU encoder–decoder over node-feature tensors
/// `[B, N, F]` (the advanced framework's CNRNN forecaster, §V-B).
pub struct GcGruSeq2Seq {
    encoder: GcGruCell,
    decoder: GcGruCell,
    head: ChebyConv,
}

impl GcGruSeq2Seq {
    /// Registers the CNRNN encoder/decoder and a Chebyshev output head; all
    /// seven graph convolutions share the one `laplacian`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        laplacian: Arc<CsrMatrix>,
        order: usize,
        feat: usize,
        hidden_feat: usize,
        rng: &mut Rng64,
    ) -> Self {
        GcGruSeq2Seq {
            encoder: GcGruCell::new(
                store,
                &format!("{prefix}.enc"),
                Arc::clone(&laplacian),
                order,
                feat,
                hidden_feat,
                rng,
            ),
            decoder: GcGruCell::new(
                store,
                &format!("{prefix}.dec"),
                Arc::clone(&laplacian),
                order,
                feat,
                hidden_feat,
                rng,
            ),
            head: ChebyConv::new(
                store,
                &format!("{prefix}.head"),
                laplacian,
                order,
                hidden_feat,
                feat,
                rng,
            ),
        }
    }

    /// Encodes `inputs` (each `[B, N, F]`) and decodes `horizon` steps.
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
        let mut h = self.encoder.zero_state(tape, batch);
        for &x in inputs {
            h = self.encoder.step(tape, store, x, h);
        }
        let mut outputs = Vec::with_capacity(horizon);
        let mut dec_in = *inputs.last().expect("nonempty");
        for _ in 0..horizon {
            h = self.decoder.step(tape, store, dec_in, h);
            let y = self.head.apply(tape, store, h);
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
    fn gru_seq2seq_shapes() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(0);
        let model = GruSeq2Seq::new(&mut store, "s2s", 3, 8, &mut rng);
        let mut tape = Tape::new();
        let xs: Vec<Var> = (0..4)
            .map(|i| tape.leaf(Tensor::full(&[2, 3], i as f32)))
            .collect();
        let ys = model.forward(&mut tape, &store, &xs, 3);
        assert_eq!(ys.len(), 3);
        for y in &ys {
            assert_eq!(tape.value(*y).dims(), &[2, 3]);
        }
    }

    #[test]
    fn gru_seq2seq_learns_constant_sequence() {
        // A constant series must be forecast as (approximately) constant.
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(1);
        let model = GruSeq2Seq::new(&mut store, "s2s", 2, 8, &mut rng);
        let mut adam = Adam::new(0.02);
        let target = Tensor::from_vec(&[1, 2], vec![0.7, -0.3]);
        let mask = Tensor::ones(&[1, 2]);
        let mut last_loss = f32::MAX;
        for _ in 0..250 {
            let mut tape = Tape::new();
            let xs: Vec<Var> = (0..3).map(|_| tape.constant(target.clone())).collect();
            let ys = model.forward(&mut tape, &store, &xs, 2);
            let l0 = tape.masked_sq_err(ys[0], &target, &mask);
            let l1 = tape.masked_sq_err(ys[1], &target, &mask);
            let loss = tape.add(l0, l1);
            last_loss = tape.value(loss).item();
            let grads = tape.backward(loss);
            adam.step(&mut store, &grads);
        }
        assert!(
            last_loss < 0.02,
            "seq2seq failed to fit constant series: {last_loss}"
        );
    }

    #[test]
    fn gcgru_seq2seq_shapes() {
        let lap = {
            // 3-node path graph scaled Laplacian (λ_max = 3).
            let l = Tensor::from_vec(
                &[3, 3],
                vec![1.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 1.0],
            );
            let mut lt = l.map(|x| 2.0 * x / 3.0);
            for i in 0..3 {
                let v = lt.at(&[i, i]) - 1.0;
                lt.set(&[i, i], v);
            }
            Arc::new(CsrMatrix::from_dense(&lt))
        };
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(2);
        let model = GcGruSeq2Seq::new(&mut store, "g", lap, 2, 4, 6, &mut rng);
        let mut tape = Tape::new();
        let xs: Vec<Var> = (0..3)
            .map(|_| tape.leaf(Tensor::ones(&[2, 3, 4])))
            .collect();
        let ys = model.forward(&mut tape, &store, &xs, 2);
        assert_eq!(ys.len(), 2);
        for y in &ys {
            assert_eq!(tape.value(*y).dims(), &[2, 3, 4]);
            assert!(tape.value(*y).all_finite());
        }
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn empty_inputs_panic() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(3);
        let model = GruSeq2Seq::new(&mut store, "s2s", 2, 4, &mut rng);
        let mut tape = Tape::new();
        model.forward(&mut tape, &store, &[], 1);
    }
}
