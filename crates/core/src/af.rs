//! The Advanced Framework (§V, Algorithm 2): dual-stage graph-convolutional
//! recurrent forecasting.
//!
//! Stage 1 — **spatial factorization** (§V-A): each input tensor is sliced
//! by origin; the resulting `(N' destinations × K buckets)` matrices are
//! treated as node signals on the *destination proximity graph* and pushed
//! through Cheby-Net convolutions (Eq. 5) interleaved with geometric
//! pooling over a Graclus coarsening order (Eq. 6). The symmetric
//! procedure over the *origin proximity graph* yields the destination
//! factor. A final linear projection over the pooled-cluster axis sets the
//! factorization rank β.
//!
//! Stage 2 — **spatio-temporal forecasting** (§V-B): two CNRNNs
//! (graph-convolutional GRUs, Eqs. 7–10) forecast the factor sequences on
//! their respective graphs.
//!
//! Recovery is shared with BF; the Eq. 11 loss regularizes the predicted
//! factors with the Dirichlet norm `‖·‖²_W` of their graph.
//!
//! The `fc_factorization`, `plain_rnn` and `frobenius_reg` switches in
//! [`AfConfig`] disable one ingredient at a time — the D2/D3/D4 ablations
//! of DESIGN.md.

use crate::config::AfConfig;
use crate::model::{Mode, ModelOutput, OdForecaster};
use crate::recovery::{recover, recover_masked};
use std::sync::Arc;
use stod_graph::{coarsen_for_pooling_csr, laplacian_csr, proximity_csr, scaled_laplacian_csr};
use stod_nn::layers::{csr_propagate, ChebyConv, ChebyPool, GcGruSeq2Seq, GruSeq2Seq, Linear};
use stod_nn::{ParamId, ParamStore, Tape, Var};
use stod_obs::SpanGuard;
use stod_tensor::rng::Rng64;
use stod_tensor::{CsrMatrix, Tensor};

/// A complete factorization path (used twice: R side and C side).
enum Factorization {
    /// GCNN stages + rank projection (the real AF). Each stage is one
    /// fused conv–relu–dropout–pool op over a Graclus order.
    Spatial {
        stages: Vec<ChebyPool>,
        project: Linear,
        pooled_nodes: usize,
    },
    /// FC bottleneck (ablation D2), mirroring BF's factorization.
    Fc { enc: Linear, dec: Linear },
}

/// A factor-sequence forecaster.
#[allow(clippy::large_enum_variant)] // one instance per model; boxing buys nothing
enum Forecaster {
    /// CNRNN over the factor's graph (the real AF).
    Graph(GcGruSeq2Seq),
    /// Plain GRU over flattened factors (ablation D3).
    Plain(GruSeq2Seq),
}

/// The Advanced Framework model.
pub struct AfModel {
    store: ParamStore,
    num_regions: usize,
    num_buckets: usize,
    cfg: AfConfig,
    r_fact: Factorization,
    c_fact: Factorization,
    r_rnn: Forecaster,
    c_rnn: Forecaster,
    /// Unscaled Laplacian of the origin graph (Dirichlet regularizer).
    origin_l: Arc<CsrMatrix>,
    /// Unscaled Laplacian of the destination graph.
    dest_l: Arc<CsrMatrix>,
    /// Origin-, destination- and bucket-wise recovery logit biases.
    bias_o: ParamId,
    bias_d: ParamId,
    bias_k: ParamId,
}

impl AfModel {
    /// Builds an AF model over the given region centroids (km).
    ///
    /// Origin and destination proximity graphs are both derived from the
    /// centroids with the configured (σ, α); they coincide when origins and
    /// destinations share one partition, as in both of the paper's
    /// datasets, but the two code paths stay separate as in the paper.
    ///
    /// Every graph operator is built in CSR form: the thresholded-Gaussian
    /// proximity graph is sparse by construction.
    pub fn new(centroids: &[(f64, f64)], num_buckets: usize, cfg: AfConfig, seed: u64) -> AfModel {
        let n = centroids.len();
        assert!(n >= 2, "need at least two regions");
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(seed);

        let origin_w = proximity_csr(centroids, cfg.proximity);
        let origin_l = Arc::new(laplacian_csr(&origin_w));
        let dest_w = &origin_w;
        let dest_l = Arc::clone(&origin_l);

        // R side convolves over the destination graph (§V-A: a slice per
        // origin holds costs to all destinations); C side over the origin
        // graph.
        let r_fact = Self::build_factorization(
            &mut store,
            "af.fact_r",
            dest_w,
            n,
            num_buckets,
            &cfg,
            &mut rng,
        );
        let c_fact = Self::build_factorization(
            &mut store,
            "af.fact_c",
            &origin_w,
            n,
            num_buckets,
            &cfg,
            &mut rng,
        );

        let feat = cfg.rank * num_buckets;
        let r_rnn = if cfg.plain_rnn {
            Forecaster::Plain(GruSeq2Seq::new(
                &mut store,
                "af.rnn_r",
                n * feat,
                cfg.rnn_hidden.max(8),
                &mut rng,
            ))
        } else {
            Forecaster::Graph(GcGruSeq2Seq::new(
                &mut store,
                "af.rnn_r",
                Arc::new(scaled_laplacian_csr(&origin_w)),
                cfg.rnn_order,
                feat,
                cfg.rnn_hidden,
                &mut rng,
            ))
        };
        let c_rnn = if cfg.plain_rnn {
            Forecaster::Plain(GruSeq2Seq::new(
                &mut store,
                "af.rnn_c",
                n * feat,
                cfg.rnn_hidden.max(8),
                &mut rng,
            ))
        } else {
            Forecaster::Graph(GcGruSeq2Seq::new(
                &mut store,
                "af.rnn_c",
                Arc::new(scaled_laplacian_csr(dest_w)),
                cfg.rnn_order,
                feat,
                cfg.rnn_hidden,
                &mut rng,
            ))
        };

        let bias_o = store.register("af.bias_o", Tensor::zeros(&[n, 1, num_buckets]));
        let bias_d = store.register("af.bias_d", Tensor::zeros(&[1, n, num_buckets]));
        let bias_k = store.register("af.bias_k", Tensor::zeros(&[num_buckets]));

        AfModel {
            store,
            num_regions: n,
            num_buckets,
            cfg,
            r_fact,
            c_fact,
            r_rnn,
            c_rnn,
            origin_l,
            dest_l,
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

    /// Builds one factorization path over graph `w` (the graph of the
    /// dimension being convolved, i.e. the *other* dimension's proximity).
    fn build_factorization(
        store: &mut ParamStore,
        prefix: &str,
        w: &CsrMatrix,
        num_regions: usize,
        num_buckets: usize,
        cfg: &AfConfig,
        rng: &mut Rng64,
    ) -> Factorization {
        if cfg.fc_factorization {
            let l = num_regions * num_regions * num_buckets;
            let out = num_regions * cfg.rank * num_buckets;
            let enc = Linear::new(store, &format!("{prefix}.enc"), l, 32, rng);
            let dec = Linear::new(store, &format!("{prefix}.dec"), 32, out, rng);
            return Factorization::Fc { enc, dec };
        }
        let mut stages = Vec::with_capacity(cfg.stages.len());
        let mut cur_w = w.clone();
        let mut in_feat = num_buckets;
        for (i, st) in cfg.stages.iter().enumerate() {
            // Last stage keeps Q = K so factors retain per-bucket slices.
            let filters = if i + 1 == cfg.stages.len() {
                num_buckets
            } else {
                st.filters
            };
            let conv = ChebyConv::new(
                store,
                &format!("{prefix}.gc{i}"),
                Arc::new(scaled_laplacian_csr(&cur_w)),
                st.order,
                in_feat,
                filters,
                rng,
            );
            let c = coarsen_for_pooling_csr(&cur_w, st.pool_levels);
            let pool = c.pool_size();
            stages.push(ChebyPool::new(conv, c.order, pool));
            cur_w = c.coarse_w;
            in_feat = filters;
        }
        let pooled_nodes = cur_w.rows();
        let project = Linear::new(
            store,
            &format!("{prefix}.rank_proj"),
            pooled_nodes,
            cfg.rank,
            rng,
        );
        Factorization::Spatial {
            stages,
            project,
            pooled_nodes,
        }
    }

    /// Applies one factorization path to slices `[Bslices, nodes, K]`,
    /// returning `[Bslices, rank, K]`. Each stage and the projection run
    /// under an untraced `af/cheby_pool` / `af/rank_proj` span.
    #[allow(clippy::too_many_arguments)] // private plumbing of one call site
    fn run_spatial(
        tape: &mut Tape,
        store: &ParamStore,
        stages: &[ChebyPool],
        project: &Linear,
        pooled_nodes: usize,
        rank: usize,
        x: Var,
        mode: Mode,
        rng: &mut Rng64,
    ) -> Var {
        let bs = tape.value(x).dim(0);
        let mut y = x;
        for st in stages {
            let _span = SpanGuard::enter_untraced("af/cheby_pool");
            y = st.apply(tape, store, y, mode.dropout(), mode.is_train(), rng);
        }
        // Rank projection over the pooled-cluster axis.
        let _span = SpanGuard::enter_untraced("af/rank_proj");
        let k = tape.value(y).dim(2);
        let perm = tape.permute(y, &[0, 2, 1]); // [Bs, K, m]
        let flat = tape.reshape(perm, &[bs * k, pooled_nodes]);
        let proj = project.apply(tape, store, flat); // [Bs·K, rank]
        let back = tape.reshape(proj, &[bs, k, rank]);
        tape.permute(back, &[0, 2, 1]) // [Bs, rank, K]
    }

    /// Factorizes one input step `[B, N, N', K]` into
    /// `R [B, N, β, K]` and `C [B, β, N', K]`.
    fn factorize(&self, tape: &mut Tape, x: Var, mode: Mode, rng: &mut Rng64) -> (Var, Var) {
        let dims = tape.value(x).dims().to_vec();
        let (b, n, nd, k) = (dims[0], dims[1], dims[2], dims[3]);
        let rank = self.cfg.rank;

        let r = match &self.r_fact {
            Factorization::Spatial {
                stages,
                project,
                pooled_nodes,
            } => {
                // Slice by origin: nodes = destinations.
                let slices = tape.reshape(x, &[b * n, nd, k]);
                let f = Self::run_spatial(
                    tape,
                    &self.store,
                    stages,
                    project,
                    *pooled_nodes,
                    rank,
                    slices,
                    mode,
                    rng,
                );
                tape.reshape(f, &[b, n, rank, k])
            }
            Factorization::Fc { enc, dec } => {
                let flat = tape.reshape(x, &[b, n * nd * k]);
                let h = enc.apply(tape, &self.store, flat);
                let h = tape.tanh(h);
                let h = tape.dropout(h, mode.dropout(), mode.is_train(), rng);
                let out = dec.apply(tape, &self.store, h);
                tape.reshape(out, &[b, n, rank, k])
            }
        };

        let c = match &self.c_fact {
            Factorization::Spatial {
                stages,
                project,
                pooled_nodes,
            } => {
                // Slice by destination: nodes = origins.
                let xt = tape.permute(x, &[0, 2, 1, 3]); // [B, N', N, K]
                let slices = tape.reshape(xt, &[b * nd, n, k]);
                let f = Self::run_spatial(
                    tape,
                    &self.store,
                    stages,
                    project,
                    *pooled_nodes,
                    rank,
                    slices,
                    mode,
                    rng,
                );
                let f = tape.reshape(f, &[b, nd, rank, k]);
                tape.permute(f, &[0, 2, 1, 3]) // [B, β, N', K]
            }
            Factorization::Fc { enc, dec } => {
                let flat = tape.reshape(x, &[b, n * nd * k]);
                let h = enc.apply(tape, &self.store, flat);
                let h = tape.tanh(h);
                let h = tape.dropout(h, mode.dropout(), mode.is_train(), rng);
                let out = dec.apply(tape, &self.store, h);
                tape.reshape(out, &[b, rank, nd, k])
            }
        };
        (r, c)
    }

    /// Forecasts a factor sequence with the configured forecaster.
    ///
    /// `node_major` inputs are `[B, nodes, β·K]`.
    fn forecast(
        &self,
        tape: &mut Tape,
        which: &Forecaster,
        seq: &[Var],
        horizon: usize,
    ) -> Vec<Var> {
        match which {
            Forecaster::Graph(rnn) => rnn.forward(tape, &self.store, seq, horizon),
            Forecaster::Plain(rnn) => {
                let dims = tape.value(seq[0]).dims().to_vec();
                let (b, nodes, f) = (dims[0], dims[1], dims[2]);
                let flat: Vec<Var> = seq
                    .iter()
                    .map(|&v| tape.reshape(v, &[b, nodes * f]))
                    .collect();
                rnn.forward(tape, &self.store, &flat, horizon)
                    .into_iter()
                    .map(|v| tape.reshape(v, &[b, nodes, f]))
                    .collect()
            }
        }
    }

    /// Factor regularizer: Dirichlet energy on the factor's graph (Eq. 11)
    /// or plain Frobenius when ablated. `x` is `[B, nodes, F]`.
    fn factor_reg(&self, tape: &mut Tape, x: Var, laplacian: &Arc<CsrMatrix>, lambda: f32) -> Var {
        let b = tape.value(x).dim(0) as f32;
        if self.cfg.frobenius_reg {
            let f = tape.frob_sq(x);
            return tape.scale(f, lambda / b);
        }
        // L is symmetric, so the CSR propagation's backward (which
        // multiplies by the same matrix, not its transpose) is exact.
        let lx = csr_propagate(tape, Arc::clone(laplacian), x);
        let xlx = tape.mul(x, lx);
        let e = tape.sum_all(xlx);
        // The Dirichlet energy of a PSD Laplacian is non-negative; numerical
        // noise can dip below zero, which relu clips before scaling.
        let e = tape.relu(e);
        tape.scale(e, lambda / b)
    }
}

impl OdForecaster for AfModel {
    fn name(&self) -> &str {
        "AF"
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

impl AfModel {
    fn forward_impl(
        &self,
        tape: &mut Tape,
        inputs: &[Tensor],
        horizon: usize,
        mode: Mode,
        rng: &mut Rng64,
        masks: Option<&[Tensor]>,
    ) -> ModelOutput {
        assert!(!inputs.is_empty(), "AF needs at least one input step");
        let dims = inputs[0].dims().to_vec();
        assert_eq!(dims.len(), 4, "inputs must be [B, N, N', K]");
        let (b, n, nd, k) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(n, self.num_regions, "region count mismatch");
        assert_eq!(k, self.num_buckets, "bucket count mismatch");
        let rank = self.cfg.rank;
        let feat = rank * k;

        // Stage 1: spatial factorization of every historical step, arranged
        // as node-major sequences for the CNRNNs.
        let factorize_span = stod_obs::span!("af/factorize");
        let mut r_seq = Vec::with_capacity(inputs.len());
        let mut c_seq = Vec::with_capacity(inputs.len());
        for t in inputs {
            let x = tape.constant(t.clone());
            let (r, c) = self.factorize(tape, x, mode, rng);
            // R [B, N, β, K] → [B, N, β·K] on the origin graph.
            r_seq.push(tape.reshape(r, &[b, n, feat]));
            // C [B, β, N', K] → [B, N', β·K] on the destination graph.
            let ct = tape.permute(c, &[0, 2, 1, 3]);
            c_seq.push(tape.reshape(ct, &[b, nd, feat]));
        }

        drop(factorize_span);

        // Stage 2: spatio-temporal forecasting.
        let forecast_span = stod_obs::span!("af/forecast");
        let r_future = self.forecast(tape, &self.r_rnn, &r_seq, horizon);
        let c_future = self.forecast(tape, &self.c_rnn, &c_seq, horizon);
        drop(forecast_span);

        // Recovery + Eq. 11 regularizers (training only: no eval caller
        // reads them).
        let _recover_span = stod_obs::span!("af/recover");
        let bias = self.recovery_bias(tape);
        let mut predictions = Vec::with_capacity(horizon);
        let mut reg: Option<Var> = None;
        for (j, (rv, cv)) in r_future.into_iter().zip(c_future).enumerate() {
            if mode.is_train() {
                let r_reg = self.factor_reg(tape, rv, &self.origin_l, self.cfg.lambda_r);
                let c_reg = self.factor_reg(tape, cv, &self.dest_l, self.cfg.lambda_c);
                let step_reg = tape.add(r_reg, c_reg);
                reg = Some(match reg {
                    Some(acc) => tape.add(acc, step_reg),
                    None => step_reg,
                });
            }
            let r4 = tape.reshape(rv, &[b, n, rank, k]);
            let c4 = {
                let c3 = tape.reshape(cv, &[b, nd, rank, k]);
                tape.permute(c3, &[0, 2, 1, 3])
            };
            // Recovery skips empty OD cells when the step's loss mask is
            // available (bitwise-identical loss and gradients).
            predictions.push(match masks.and_then(|m| m.get(j)) {
                Some(mask) => recover_masked(tape, r4, c4, Some(bias), mask),
                None => recover(tape, r4, c4, Some(bias)),
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

    fn centroids(n: usize) -> Vec<(f64, f64)> {
        // Compact jittered grid, ~0.7 km spacing.
        let cols = (n as f64).sqrt().ceil() as usize;
        (0..n)
            .map(|i| ((i % cols) as f64 * 0.7, (i / cols) as f64 * 0.7))
            .collect()
    }

    fn toy_inputs(b: usize, n: usize, k: usize, steps: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = Rng64::new(seed);
        (0..steps)
            .map(|_| {
                let mut t = Tensor::zeros(&[b, n, n, k]);
                for bi in 0..b {
                    for o in 0..n {
                        for d in 0..n {
                            if rng.next_f64() < 0.5 {
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
        let model = AfModel::new(&centroids(6), 7, AfConfig::default(), 1);
        let mut tape = Tape::new();
        let mut rng = Rng64::new(2);
        let inputs = toy_inputs(2, 6, 7, 3, 11);
        let out = model.forward(&mut tape, &inputs, 2, Mode::Eval, &mut rng);
        assert_eq!(out.predictions.len(), 2);
        for p in &out.predictions {
            let v = tape.value(*p);
            assert_eq!(v.dims(), &[2, 6, 6, 7]);
            let sums = stod_tensor::sum_axis(v, 3, false);
            for &s in sums.data() {
                assert!((s - 1.0).abs() < 1e-4, "cell sums to {s}");
            }
        }
        assert!(out.regularizer.is_none(), "eval builds no regularizer");
        let mut tape = Tape::new();
        let train = Mode::Train { dropout: 0.0 };
        let out = model.forward(&mut tape, &inputs, 2, train, &mut rng);
        let reg = tape.value(out.regularizer.unwrap()).item();
        assert!(reg >= 0.0 && reg.is_finite(), "Dirichlet reg = {reg}");
    }

    #[test]
    fn ablations_construct_and_run() {
        for (fc, plain, frob) in [
            (true, false, false),
            (false, true, false),
            (false, false, true),
        ] {
            let cfg = AfConfig {
                fc_factorization: fc,
                plain_rnn: plain,
                frobenius_reg: frob,
                ..AfConfig::default()
            };
            let model = AfModel::new(&centroids(5), 7, cfg, 3);
            let mut tape = Tape::new();
            let mut rng = Rng64::new(4);
            let inputs = toy_inputs(2, 5, 7, 3, 13);
            let out = model.forward(&mut tape, &inputs, 1, Mode::Eval, &mut rng);
            assert_eq!(tape.value(out.predictions[0]).dims(), &[2, 5, 5, 7]);
            assert!(tape.value(out.predictions[0]).all_finite());
        }
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let model = AfModel::new(&centroids(5), 7, AfConfig::default(), 5);
        let inputs = toy_inputs(2, 5, 7, 3, 17);
        let mut tape = Tape::new();
        let mut rng = Rng64::new(0);
        let out = model.forward(
            &mut tape,
            &inputs,
            2,
            Mode::Train { dropout: 0.0 },
            &mut rng,
        );
        let target = Tensor::zeros(&[2, 5, 5, 7]);
        let mask = Tensor::ones(&[2, 5, 5, 7]);
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

    #[test]
    fn fewer_weights_than_bf_at_paper_shape() {
        // Table I's observation: AF uses the fewest weights of the deep
        // models despite being the most complex architecture.
        let n = 20;
        let af = AfModel::new(&centroids(n), 7, AfConfig::default(), 1);
        let bf = crate::bf::BfModel::new(n, 7, crate::config::BfConfig::default(), 1);
        assert!(
            af.num_weights() < bf.num_weights(),
            "AF {} vs BF {}",
            af.num_weights(),
            bf.num_weights()
        );
    }

    #[test]
    fn eval_deterministic() {
        let model = AfModel::new(&centroids(5), 7, AfConfig::default(), 6);
        let inputs = toy_inputs(1, 5, 7, 3, 19);
        let run = |seed: u64| {
            let mut tape = Tape::new();
            let mut rng = Rng64::new(seed);
            let out = model.forward(&mut tape, &inputs, 1, Mode::Eval, &mut rng);
            tape.value(out.predictions[0]).clone()
        };
        assert_eq!(run(1), run(2));
    }
}
