//! The Basic Framework (§IV, Algorithm 1).
//!
//! Pipeline per Figure 3:
//!
//! 1. **Factorization** (§IV-B): each sparse input tensor is flattened and
//!    mapped by fully-connected layers to an origin factor vector
//!    `r^(i) ∈ R^{N·β·K}` and a destination factor vector
//!    `c^(i) ∈ R^{β·N'·K}`. A small bottleneck keeps the weight count in
//!    the Table I regime instead of a dense `l × N·β·K` map.
//! 2. **Forecasting** (§IV-C): two sequence-to-sequence GRUs forecast the
//!    factor sequences `h` steps ahead.
//! 3. **Recovery** (§IV-D): per-bucket products `R̂_k · Ĉ_k` followed by a
//!    softmax over buckets yield full stochastic tensors.
//!
//! The Eq. 4 loss contributions `λ_R‖R̂‖²_F + λ_C‖Ĉ‖²_F` are returned as
//! the model's regularizer.

use crate::config::BfConfig;
use crate::model::{Mode, ModelOutput, OdForecaster};
use crate::recovery::{recover, recover_masked};
use stod_nn::layers::{AttnGruSeq2Seq, GruSeq2Seq, Linear};
use stod_nn::{ParamId, ParamStore, Tape, Var};
use stod_tensor::rng::Rng64;
use stod_tensor::Tensor;

/// BF's factor-sequence forecaster: plain GRU seq2seq or the
/// attention-decoder extension of the paper's §VII outlook.
enum Forecaster {
    Plain(GruSeq2Seq),
    Attention(AttnGruSeq2Seq),
}

impl Forecaster {
    fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        inputs: &[Var],
        horizon: usize,
    ) -> Vec<Var> {
        match self {
            Forecaster::Plain(m) => m.forward(tape, store, inputs, horizon),
            Forecaster::Attention(m) => m.forward(tape, store, inputs, horizon),
        }
    }
}

/// The Basic Framework model.
pub struct BfModel {
    store: ParamStore,
    num_regions: usize,
    num_buckets: usize,
    cfg: BfConfig,
    enc_r1: Linear,
    enc_r2: Linear,
    enc_c1: Linear,
    enc_c2: Linear,
    seq_r: Forecaster,
    seq_c: Forecaster,
    /// Origin-, destination- and bucket-wise recovery logit biases.
    bias_o: ParamId,
    bias_d: ParamId,
    bias_k: ParamId,
}

impl BfModel {
    /// Builds a BF model for square OD tensors (`N` origins = destinations)
    /// with `K` buckets.
    pub fn new(num_regions: usize, num_buckets: usize, cfg: BfConfig, seed: u64) -> BfModel {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(seed);
        let l = num_regions * num_regions * num_buckets;
        let r_dim = num_regions * cfg.rank * num_buckets;
        let c_dim = cfg.rank * num_regions * num_buckets;
        let enc_r1 = Linear::new(&mut store, "bf.enc_r1", l, cfg.encode_dim, &mut rng);
        let enc_r2 = Linear::new(&mut store, "bf.enc_r2", cfg.encode_dim, r_dim, &mut rng);
        let enc_c1 = Linear::new(&mut store, "bf.enc_c1", l, cfg.encode_dim, &mut rng);
        let enc_c2 = Linear::new(&mut store, "bf.enc_c2", cfg.encode_dim, c_dim, &mut rng);
        let (seq_r, seq_c) = if cfg.attention {
            (
                Forecaster::Attention(AttnGruSeq2Seq::new(
                    &mut store,
                    "bf.seq_r",
                    r_dim,
                    cfg.gru_hidden,
                    &mut rng,
                )),
                Forecaster::Attention(AttnGruSeq2Seq::new(
                    &mut store,
                    "bf.seq_c",
                    c_dim,
                    cfg.gru_hidden,
                    &mut rng,
                )),
            )
        } else {
            (
                Forecaster::Plain(GruSeq2Seq::new(
                    &mut store,
                    "bf.seq_r",
                    r_dim,
                    cfg.gru_hidden,
                    &mut rng,
                )),
                Forecaster::Plain(GruSeq2Seq::new(
                    &mut store,
                    "bf.seq_c",
                    c_dim,
                    cfg.gru_hidden,
                    &mut rng,
                )),
            )
        };
        let bias_o = store.register("bf.bias_o", Tensor::zeros(&[num_regions, 1, num_buckets]));
        let bias_d = store.register("bf.bias_d", Tensor::zeros(&[1, num_regions, num_buckets]));
        let bias_k = store.register("bf.bias_k", Tensor::zeros(&[num_buckets]));
        BfModel {
            store,
            num_regions,
            num_buckets,
            cfg,
            enc_r1,
            enc_r2,
            enc_c1,
            enc_c2,
            seq_r,
            seq_c,
            bias_o,
            bias_d,
            bias_k,
        }
    }

    /// Builds the `[N, N', K]` recovery bias from its factorized parts.
    fn recovery_bias(&self, tape: &mut Tape) -> Var {
        let bo = tape.param(&self.store, self.bias_o);
        let bd = tape.param(&self.store, self.bias_d);
        let bk = tape.param(&self.store, self.bias_k);
        let od = tape.add(bo, bd);
        tape.add(od, bk)
    }

    /// Factorizes one input step into `(r, c)` factor vectors.
    fn factorize(&self, tape: &mut Tape, x: Var, mode: Mode, rng: &mut Rng64) -> (Var, Var) {
        let dropout = mode.dropout();
        let b = tape.value(x).dim(0);
        let l = self.num_regions * self.num_regions * self.num_buckets;
        let flat = tape.reshape(x, &[b, l]);
        let hr = self.enc_r1.apply(tape, &self.store, flat);
        let hr = tape.tanh(hr);
        let hr = tape.dropout(hr, dropout, mode.is_train(), rng);
        let r = self.enc_r2.apply(tape, &self.store, hr);
        let hc = self.enc_c1.apply(tape, &self.store, flat);
        let hc = tape.tanh(hc);
        let hc = tape.dropout(hc, dropout, mode.is_train(), rng);
        let c = self.enc_c2.apply(tape, &self.store, hc);
        (r, c)
    }
}

impl OdForecaster for BfModel {
    fn name(&self) -> &str {
        "BF"
    }

    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn forward(
        &self,
        tape: &mut Tape,
        inputs: &[Tensor],
        horizon: usize,
        mode: Mode,
        rng: &mut Rng64,
    ) -> ModelOutput {
        self.forward_impl(tape, inputs, horizon, mode, rng, None)
    }

    fn forward_masked(
        &self,
        tape: &mut Tape,
        inputs: &[Tensor],
        horizon: usize,
        mode: Mode,
        rng: &mut Rng64,
        masks: &[Tensor],
    ) -> ModelOutput {
        self.forward_impl(tape, inputs, horizon, mode, rng, Some(masks))
    }
}

impl BfModel {
    fn forward_impl(
        &self,
        tape: &mut Tape,
        inputs: &[Tensor],
        horizon: usize,
        mode: Mode,
        rng: &mut Rng64,
        masks: Option<&[Tensor]>,
    ) -> ModelOutput {
        assert!(!inputs.is_empty(), "BF needs at least one input step");
        let dims = inputs[0].dims().to_vec();
        assert_eq!(dims.len(), 4, "inputs must be [B, N, N', K]");
        let (b, n, k) = (dims[0], dims[1], dims[3]);
        assert_eq!(n, self.num_regions, "region count mismatch");
        assert_eq!(k, self.num_buckets, "bucket count mismatch");

        // Factorization of every historical step.
        let mut r_seq = Vec::with_capacity(inputs.len());
        let mut c_seq = Vec::with_capacity(inputs.len());
        for t in inputs {
            let x = tape.constant(t.clone());
            let (r, c) = self.factorize(tape, x, mode, rng);
            r_seq.push(r);
            c_seq.push(c);
        }

        // Forecast both factor sequences.
        let r_future = self.seq_r.forward(tape, &self.store, &r_seq, horizon);
        let c_future = self.seq_c.forward(tape, &self.store, &c_seq, horizon);

        // Recovery + Frobenius regularizers (Eq. 4, training only: no
        // eval caller reads them).
        let bias = self.recovery_bias(tape);
        let mut predictions = Vec::with_capacity(horizon);
        let mut reg: Option<Var> = None;
        for (j, (rv, cv)) in r_future.into_iter().zip(c_future).enumerate() {
            let r4 = tape.reshape(rv, &[b, n, self.cfg.rank, k]);
            let c4 = tape.reshape(cv, &[b, self.cfg.rank, n, k]);
            // With the step's loss mask available, recovery can skip empty
            // OD cells (bitwise-identical loss and gradients; see
            // recovery::recover_masked).
            predictions.push(match masks.and_then(|m| m.get(j)) {
                Some(mask) => recover_masked(tape, r4, c4, Some(bias), mask),
                None => recover(tape, r4, c4, Some(bias)),
            });
            if !mode.is_train() {
                continue;
            }
            let r_reg = tape.frob_sq(r4);
            let r_reg = tape.scale(r_reg, self.cfg.lambda_r / b as f32);
            let c_reg = tape.frob_sq(c4);
            let c_reg = tape.scale(c_reg, self.cfg.lambda_c / b as f32);
            let step_reg = tape.add(r_reg, c_reg);
            reg = Some(match reg {
                Some(acc) => tape.add(acc, step_reg),
                None => step_reg,
            });
        }
        ModelOutput {
            predictions,
            regularizer: reg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_inputs(b: usize, n: usize, k: usize, steps: usize) -> Vec<Tensor> {
        let mut rng = Rng64::new(9);
        (0..steps)
            .map(|_| {
                // Sparse-ish random histograms.
                let mut t = Tensor::zeros(&[b, n, n, k]);
                for bi in 0..b {
                    for o in 0..n {
                        for d in 0..n {
                            if rng.next_f64() < 0.4 {
                                let bucket = rng.next_below(k);
                                t.set(&[bi, o, d, bucket], 1.0);
                            }
                        }
                    }
                }
                t
            })
            .collect()
    }

    #[test]
    fn forward_shapes_and_distributions() {
        let model = BfModel::new(5, 7, BfConfig::default(), 1);
        let mut tape = Tape::new();
        let mut rng = Rng64::new(2);
        let inputs = toy_inputs(3, 5, 7, 4);
        let out = model.forward(&mut tape, &inputs, 2, Mode::Eval, &mut rng);
        assert_eq!(out.predictions.len(), 2);
        for p in &out.predictions {
            let v = tape.value(*p);
            assert_eq!(v.dims(), &[3, 5, 5, 7]);
            // Every cell must be a probability distribution.
            let sums = stod_tensor::sum_axis(v, 3, false);
            for &s in sums.data() {
                assert!((s - 1.0).abs() < 1e-4);
            }
        }
        assert!(out.regularizer.is_none(), "eval builds no regularizer");
        let mut tape = Tape::new();
        let train = Mode::Train { dropout: 0.0 };
        let out = model.forward(&mut tape, &inputs, 2, train, &mut rng);
        assert!(out.regularizer.is_some());
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let model = BfModel::new(4, 7, BfConfig::default(), 3);
        let inputs = toy_inputs(2, 4, 7, 3);
        let run = |seed: u64| {
            let mut tape = Tape::new();
            let mut rng = Rng64::new(seed);
            let out = model.forward(&mut tape, &inputs, 1, Mode::Eval, &mut rng);
            tape.value(out.predictions[0]).clone()
        };
        assert_eq!(run(1), run(999));
    }

    #[test]
    fn weight_count_scales_with_config() {
        let small = BfModel::new(
            4,
            7,
            BfConfig {
                encode_dim: 8,
                ..BfConfig::default()
            },
            1,
        );
        let big = BfModel::new(
            4,
            7,
            BfConfig {
                encode_dim: 64,
                ..BfConfig::default()
            },
            1,
        );
        assert!(big.num_weights() > small.num_weights());
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let model = BfModel::new(3, 7, BfConfig::default(), 5);
        let inputs = toy_inputs(2, 3, 7, 3);
        let mut tape = Tape::new();
        let mut rng = Rng64::new(0);
        let out = model.forward(
            &mut tape,
            &inputs,
            2,
            Mode::Train { dropout: 0.1 },
            &mut rng,
        );
        let target = Tensor::zeros(&[2, 3, 3, 7]);
        let mask = Tensor::ones(&[2, 3, 3, 7]);
        let mut loss = tape.masked_sq_err(out.predictions[0], &target, &mask);
        let l1 = tape.masked_sq_err(out.predictions[1], &target, &mask);
        loss = tape.add(loss, l1);
        if let Some(reg) = out.regularizer {
            loss = tape.add(loss, reg);
        }
        let grads = tape.backward(loss);
        let mut missing = Vec::new();
        for (id, name, _) in model.params().iter() {
            if grads.get(id).is_none() {
                missing.push(name.to_string());
            }
        }
        assert!(
            missing.is_empty(),
            "no gradient for parameters: {missing:?}"
        );
    }
}
