//! Metamorphic paper-property suite: end-to-end invariances the models of
//! the paper must satisfy, checked through the real BF/AF forward passes
//! and the serving registry rather than against numeric oracles.
//!
//! * **Region-permutation equivariance** — relabeling regions (and
//!   permuting the region-indexed parameters consistently) permutes the
//!   forecasts and changes nothing else. Checked at the operator level
//!   (the Cheby-Net layer under `P L̃ Pᵀ`, recovery under
//!   origin/destination permutations) and through the full BF pipeline.
//! * **Empty-cell mask invariance** — Eq. 4's loss and its gradients are
//!   bitwise independent of target values at masked (empty) cells.
//! * **Simplex preservation** — every forecast cell is a valid histogram
//!   (non-negative, sums to 1) even on adversarial inputs, and is bitwise
//!   identical at `STOD_THREADS ∈ {1, 4}`.
//! * **Horizon-prefix consistency** — the one-step forecast equals the
//!   first step of a three-step forecast, bitwise (the decoder is causal).
//! * **Checkpoint round-trip idempotence** — serializing a checkpoint,
//!   re-registering it and hot-swapping versions in `serve::Registry`
//!   never changes a single output bit.

use std::sync::Arc;

use stod_core::{AfConfig, AfModel, BfConfig, BfModel, Mode, OdForecaster};
use stod_nn::{ParamStore, Tape};
use stod_serve::{ModelConfig, ModelKind, Registry, ServeStats};
use stod_tensor::rng::Rng64;
use stod_tensor::{par, Tensor};
use stod_traffic::CityModel;

const N: usize = 4;
const K: usize = 3;
const RANK: usize = 2;

fn small_bf_config() -> BfConfig {
    BfConfig {
        rank: RANK,
        encode_dim: 8,
        gru_hidden: 8,
        ..BfConfig::default()
    }
}

fn small_bf(seed: u64) -> BfModel {
    BfModel::new(N, K, small_bf_config(), seed)
}

fn small_af(seed: u64) -> AfModel {
    AfModel::new(
        &CityModel::small(N).centroids(),
        K,
        AfConfig::default(),
        seed,
    )
}

/// Sparse one-hot OD histogram steps, the models' natural input domain.
fn toy_inputs(b: usize, n: usize, k: usize, steps: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = Rng64::new(seed);
    (0..steps)
        .map(|_| {
            let mut t = Tensor::zeros(&[b, n, n, k]);
            for bi in 0..b {
                for o in 0..n {
                    for d in 0..n {
                        if rng.next_f64() < 0.6 {
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

fn forward_eval(model: &dyn OdForecaster, inputs: &[Tensor], horizon: usize) -> Vec<Tensor> {
    let mut tape = Tape::new();
    let mut rng = Rng64::new(0);
    let out = model.forward(&mut tape, inputs, horizon, Mode::Eval, &mut rng);
    out.predictions
        .iter()
        .map(|&v| tape.value(v).clone())
        .collect()
}

// ---------------------------------------------------------------------------
// Region-permutation equivariance
// ---------------------------------------------------------------------------

/// `ChebyConv(P L̃ Pᵀ, P x) = P ChebyConv(L̃, x)` — the Cheby-Net layer
/// the models run has no privileged node order.
#[test]
fn cheby_conv_is_permutation_equivariant() {
    use stod_nn::layers::ChebyConv;
    use stod_tensor::CsrMatrix;
    let (batch, n, feat, order) = (2, 6, 3, 4);
    let mut rng = Rng64::new(3);
    // A symmetric operator with about half the off-diagonal entries unstored.
    let mut l = Tensor::zeros(&[n, n]);
    for i in 0..n {
        for j in i..n {
            if i == j || rng.next_f64() < 0.5 {
                let v = (rng.next_f64() - 0.5) as f32;
                l.set(&[i, j], v);
                l.set(&[j, i], v);
            }
        }
    }
    let x = Tensor::randn(&[batch, n, feat], 1.0, &mut rng);
    let sigma: Vec<usize> = (0..n).map(|i| (i + 1) % n).collect();

    let mut lp = Tensor::zeros(&[n, n]);
    let mut xp = Tensor::zeros(&[batch, n, feat]);
    for (i, &si) in sigma.iter().enumerate() {
        for (j, &sj) in sigma.iter().enumerate() {
            lp.set(&[i, j], l.at(&[si, sj]));
        }
        for b in 0..batch {
            for c in 0..feat {
                xp.set(&[b, i, c], x.at(&[b, si, c]));
            }
        }
    }

    // Same filter bank on both sides: same init seed, same shapes.
    let apply = |l: &Tensor, x: &Tensor| {
        let mut store = ParamStore::new();
        let l = Arc::new(CsrMatrix::from_dense(l));
        let conv = ChebyConv::new(&mut store, "gc", l, order, feat, 5, &mut Rng64::new(4));
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let y = conv.apply(&mut tape, &store, xv);
        tape.value(y).clone()
    };
    let base = apply(&l, &x);
    let perm = apply(&lp, &xp);
    for b in 0..batch {
        for (i, &si) in sigma.iter().enumerate() {
            for o in 0..5 {
                let got = perm.at(&[b, i, o]);
                let want = base.at(&[b, si, o]);
                assert!(
                    (got - want).abs() <= 1e-5 * (1.0 + want.abs()),
                    "y[{b},{i},{o}] = {got} vs permuted {want}"
                );
            }
        }
    }
}

/// `spmm(P A Pᵀ, P X) = P · spmm(A, X)` — the CSR propagation that the
/// sparse Cheby recurrence runs on has no privileged node order either,
/// whatever pattern the permutation scatters the stored entries into.
#[test]
fn csr_spmm_is_permutation_equivariant() {
    use stod_tensor::CsrMatrix;
    let (n, feat) = (9, 3);
    let mut rng = Rng64::new(9);
    let mut a = Tensor::zeros(&[n, n]);
    for i in 0..n {
        for j in 0..n {
            if rng.next_f64() < 0.3 {
                a.set(&[i, j], (rng.next_f64() * 2.0 - 1.0) as f32);
            }
        }
    }
    let x = Tensor::randn(&[n, feat], 1.0, &mut rng);
    let sigma: Vec<usize> = (0..n).map(|i| (i + 4) % n).collect();

    let mut ap = Tensor::zeros(&[n, n]);
    let mut xp = Tensor::zeros(&[n, feat]);
    for (i, &si) in sigma.iter().enumerate() {
        for f in 0..feat {
            xp.set(&[i, f], x.at(&[si, f]));
        }
        for (j, &sj) in sigma.iter().enumerate() {
            ap.set(&[i, j], a.at(&[si, sj]));
        }
    }

    let base = CsrMatrix::from_dense(&a).spmm_panel(&x);
    let perm = CsrMatrix::from_dense(&ap).spmm_panel(&xp);
    for (i, &si) in sigma.iter().enumerate() {
        for f in 0..feat {
            let got = perm.at(&[i, f]);
            let want = base.at(&[si, f]);
            assert!(
                (got - want).abs() <= 1e-5 * (1.0 + want.abs()),
                "spmm[{i},{f}] = {got} vs permuted {want}"
            );
        }
    }
}

/// Permuting the origin axis of `R̂` and the destination axis of `Ĉ`
/// permutes the recovered tensor's origin/destination axes.
#[test]
fn recovery_is_permutation_equivariant() {
    let (b, n, beta, k) = (2, 5, 3, 4);
    let mut rng = Rng64::new(7);
    let r = Tensor::randn(&[b, n, beta, k], 1.0, &mut rng);
    let c = Tensor::randn(&[b, beta, n, k], 1.0, &mut rng);
    let sigma: Vec<usize> = (0..n).map(|i| (i + 2) % n).collect();

    let mut rp = Tensor::zeros(&[b, n, beta, k]);
    let mut cp = Tensor::zeros(&[b, beta, n, k]);
    for bi in 0..b {
        for (i, &si) in sigma.iter().enumerate() {
            for be in 0..beta {
                for q in 0..k {
                    rp.set(&[bi, i, be, q], r.at(&[bi, si, be, q]));
                    cp.set(&[bi, be, i, q], c.at(&[bi, be, si, q]));
                }
            }
        }
    }

    let run = |rt: &Tensor, ct: &Tensor| -> Tensor {
        let mut tape = Tape::new();
        let rv = tape.leaf(rt.clone());
        let cv = tape.leaf(ct.clone());
        let out = stod_core::recovery::recover(&mut tape, rv, cv, None);
        tape.value(out).clone()
    };
    let base = run(&r, &c);
    let perm = run(&rp, &cp);
    for bi in 0..b {
        for o in 0..n {
            for d in 0..n {
                for q in 0..k {
                    let a = perm.at(&[bi, o, d, q]);
                    let e = base.at(&[bi, sigma[o], sigma[d], q]);
                    assert!(
                        (a - e).abs() <= 1e-5,
                        "recover[{bi},{o},{d},{q}] = {a} vs permuted {e}"
                    );
                }
            }
        }
    }
}

/// Input-flat index `(o, d, q) → σ(o), σ(d), q` for the flattened `[N,N,K]`
/// tensor.
fn input_perm(sigma: &[usize], k: usize) -> Vec<usize> {
    let n = sigma.len();
    let mut p = Vec::with_capacity(n * n * k);
    for o in 0..n {
        for d in 0..n {
            for q in 0..k {
                p.push((sigma[o] * n + sigma[d]) * k + q);
            }
        }
    }
    p
}

/// R-factor-flat index `(o, β, q) → σ(o), β, q` for `[N, β, K]`.
fn r_perm(sigma: &[usize], beta: usize, k: usize) -> Vec<usize> {
    let n = sigma.len();
    let mut p = Vec::with_capacity(n * beta * k);
    for &so in sigma {
        for be in 0..beta {
            for q in 0..k {
                p.push((so * beta + be) * k + q);
            }
        }
    }
    p
}

/// C-factor-flat index `(β, d, q) → β, σ(d), q` for `[β, N, K]`.
fn c_perm(sigma: &[usize], beta: usize, k: usize) -> Vec<usize> {
    let n = sigma.len();
    let mut p = Vec::with_capacity(beta * n * k);
    for be in 0..beta {
        for &sd in sigma {
            for q in 0..k {
                p.push((be * n + sd) * k + q);
            }
        }
    }
    p
}

fn permute_rows(t: &Tensor, perm: &[usize]) -> Tensor {
    let (rows, cols) = (t.dims()[0], t.dims()[1]);
    assert_eq!(rows, perm.len());
    let mut out = vec![0.0f32; rows * cols];
    for (i, &src) in perm.iter().enumerate() {
        out[i * cols..(i + 1) * cols].copy_from_slice(&t.data()[src * cols..(src + 1) * cols]);
    }
    Tensor::from_vec(t.dims(), out)
}

fn permute_cols(t: &Tensor, perm: &[usize]) -> Tensor {
    let (rows, cols) = (t.dims()[0], t.dims()[1]);
    assert_eq!(cols, perm.len());
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for (j, &src) in perm.iter().enumerate() {
            out[r * cols + j] = t.data()[r * cols + src];
        }
    }
    Tensor::from_vec(t.dims(), out)
}

fn permute_vec(t: &Tensor, perm: &[usize]) -> Tensor {
    assert_eq!(t.numel(), perm.len());
    Tensor::from_vec(t.dims(), perm.iter().map(|&src| t.data()[src]).collect())
}

/// Relabeling the regions of the city — inputs permuted on both OD axes,
/// every region-indexed parameter permuted consistently — must permute the
/// BF forecasts and nothing else (Eq. 2's factorization treats regions
/// symmetrically; only learned parameters break the symmetry).
#[test]
fn bf_full_pipeline_is_region_permutation_equivariant() {
    let sigma: Vec<usize> = (0..N).map(|i| (i + 1) % N).collect();
    let in_p = input_perm(&sigma, K);
    let r_p = r_perm(&sigma, RANK, K);
    let c_p = c_perm(&sigma, RANK, K);

    let base = small_bf(21);
    let mut perm = small_bf(21);
    {
        let src = base.params();
        let mut moves: Vec<(String, Tensor)> = Vec::new();
        let get = |name: &str| src.get(src.id_of(name).unwrap()).clone();
        // First encoder layers consume the flattened input: permute rows.
        for enc in ["bf.enc_r1", "bf.enc_c1"] {
            moves.push((
                format!("{enc}.weight"),
                permute_rows(&get(&format!("{enc}.weight")), &in_p),
            ));
        }
        // Second encoder layers emit factor vectors: permute columns+bias.
        for (enc, p) in [("bf.enc_r2", &r_p), ("bf.enc_c2", &c_p)] {
            moves.push((
                format!("{enc}.weight"),
                permute_cols(&get(&format!("{enc}.weight")), p),
            ));
            moves.push((
                format!("{enc}.bias"),
                permute_vec(&get(&format!("{enc}.bias")), p),
            ));
        }
        // Seq2seq forecasters: input rows of both GRUs, output cols+bias
        // of the head. Hidden-to-hidden weights see identical hiddens and
        // stay untouched.
        for (seq, p) in [("bf.seq_r", &r_p), ("bf.seq_c", &c_p)] {
            for cell in ["enc", "dec"] {
                moves.push((
                    format!("{seq}.{cell}.wx"),
                    permute_rows(&get(&format!("{seq}.{cell}.wx")), p),
                ));
            }
            moves.push((
                format!("{seq}.head.weight"),
                permute_cols(&get(&format!("{seq}.head.weight")), p),
            ));
            moves.push((
                format!("{seq}.head.bias"),
                permute_vec(&get(&format!("{seq}.head.bias")), p),
            ));
        }
        // Recovery biases are region-indexed directly.
        let bo = get("bf.bias_o"); // [N, 1, K]
        let mut bo_p = Tensor::zeros(&[N, 1, K]);
        let bd = get("bf.bias_d"); // [1, N, K]
        let mut bd_p = Tensor::zeros(&[1, N, K]);
        for (i, &si) in sigma.iter().enumerate() {
            for q in 0..K {
                bo_p.set(&[i, 0, q], bo.at(&[si, 0, q]));
                bd_p.set(&[0, i, q], bd.at(&[0, si, q]));
            }
        }
        moves.push(("bf.bias_o".into(), bo_p));
        moves.push(("bf.bias_d".into(), bd_p));
        let dst = perm.params_mut();
        for (name, value) in moves {
            dst.set(dst.id_of(&name).unwrap(), value);
        }
    }

    let inputs = toy_inputs(2, N, K, 3, 5);
    let inputs_p: Vec<Tensor> = inputs
        .iter()
        .map(|t| {
            let b = t.dims()[0];
            let mut out = Tensor::zeros(t.dims());
            for bi in 0..b {
                for o in 0..N {
                    for d in 0..N {
                        for q in 0..K {
                            out.set(&[bi, o, d, q], t.at(&[bi, sigma[o], sigma[d], q]));
                        }
                    }
                }
            }
            out
        })
        .collect();

    let out_base = forward_eval(&base, &inputs, 2);
    let out_perm = forward_eval(&perm, &inputs_p, 2);
    assert_eq!(out_base.len(), out_perm.len());
    for (step, (ob, op)) in out_base.iter().zip(out_perm.iter()).enumerate() {
        for bi in 0..2 {
            for o in 0..N {
                for d in 0..N {
                    for q in 0..K {
                        let a = op.at(&[bi, o, d, q]);
                        let e = ob.at(&[bi, sigma[o], sigma[d], q]);
                        assert!(
                            (a - e).abs() <= 2e-4,
                            "step {step} [{bi},{o},{d},{q}]: permuted {a} vs base {e}"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Empty-cell mask invariance (Eq. 4)
// ---------------------------------------------------------------------------

/// Target values at masked cells must not influence the loss *or any
/// parameter gradient* — bitwise, because `0 · finite` is exactly 0 in the
/// masked difference. The paper trains only on observed cells; a leak here
/// would let empty cells distort the model.
#[test]
fn masked_loss_and_gradients_ignore_empty_cell_targets() {
    let model = small_bf(4);
    let inputs = toy_inputs(2, N, K, 3, 11);
    let dims = [2usize, N, N, K];
    let mut rng = Rng64::new(13);
    let numel: usize = dims.iter().product();
    let mask = Tensor::from_vec(
        &dims,
        (0..numel)
            .map(|_| if rng.next_f64() < 0.5 { 0.0 } else { 1.0 })
            .collect(),
    );
    let clean = Tensor::randn(&dims, 1.0, &mut rng);
    // Garbage (finite but wild) values in masked cells only.
    let mut garbage = clean.clone();
    for (i, v) in garbage.data_mut().iter_mut().enumerate() {
        if mask.data()[i] == 0.0 {
            *v = if i % 2 == 0 { 1e30 } else { -4.25e7 };
        }
    }

    let run = |target: &Tensor| -> (Vec<f32>, Vec<(String, Vec<f32>)>) {
        let mut tape = Tape::new();
        let mut frng = Rng64::new(0);
        let out = model.forward(&mut tape, &inputs, 1, Mode::Eval, &mut frng);
        let loss = tape.masked_sq_err(out.predictions[0], target, &mask);
        let grads = tape.backward(loss);
        let store = model.params();
        let mut named: Vec<(String, Vec<f32>)> = store
            .iter()
            .filter_map(|(id, name, _)| {
                grads.get(id).map(|g| (name.to_string(), g.data().to_vec()))
            })
            .collect();
        named.sort_by(|a, b| a.0.cmp(&b.0));
        (tape.value(loss).data().to_vec(), named)
    };

    let (loss_clean, grads_clean) = run(&clean);
    let (loss_garbage, grads_garbage) = run(&garbage);
    assert_eq!(loss_clean, loss_garbage, "loss leaked masked targets");
    assert_eq!(grads_clean.len(), grads_garbage.len());
    for ((name_a, ga), (name_b, gb)) in grads_clean.iter().zip(grads_garbage.iter()) {
        assert_eq!(name_a, name_b);
        assert_eq!(ga, gb, "gradient of {name_a} leaked masked targets");
    }
}

// ---------------------------------------------------------------------------
// Simplex preservation + thread determinism
// ---------------------------------------------------------------------------

fn assert_simplex(pred: &Tensor, what: &str) {
    let k = *pred.dims().last().unwrap();
    for (cell, chunk) in pred.data().chunks(k).enumerate() {
        let mut sum = 0.0f64;
        for &v in chunk {
            assert!(v.is_finite() && v >= 0.0, "{what}: cell {cell} value {v}");
            sum += v as f64;
        }
        assert!(
            (sum - 1.0).abs() < 1e-4,
            "{what}: cell {cell} sums to {sum}"
        );
    }
}

/// Every forecast cell is a histogram on the probability simplex, for both
/// frameworks, at 1 and 4 threads, with bitwise-identical results.
#[test]
fn forecasts_are_simplices_at_both_thread_counts() {
    let bf = small_bf(6);
    let af = small_af(6);
    let inputs = toy_inputs(2, N, K, 3, 17);
    for (name, model) in [("BF", &bf as &dyn OdForecaster), ("AF", &af)] {
        let one = par::with_forced_threads(1, || forward_eval(model, &inputs, 2));
        let four = par::with_forced_threads(4, || forward_eval(model, &inputs, 2));
        assert_eq!(one.len(), four.len());
        for (step, (a, b)) in one.iter().zip(four.iter()).enumerate() {
            assert_eq!(
                a.data(),
                b.data(),
                "{name} step {step}: thread count changed bits"
            );
            assert_simplex(a, &format!("{name} step {step}"));
        }
    }
}

/// BF saturates but stays on the simplex under adversarial extreme-valued
/// inputs (its first tanh bounds everything downstream).
#[test]
fn bf_simplex_survives_extreme_inputs() {
    let bf = small_bf(9);
    let extremes = [0.0f32, 1e15, -1e15, 1e-30, 1.0, -1.0];
    let mut rng = Rng64::new(23);
    let inputs: Vec<Tensor> = (0..3)
        .map(|_| {
            Tensor::from_vec(
                &[1, N, N, K],
                (0..N * N * K)
                    .map(|_| extremes[rng.next_below(extremes.len())])
                    .collect(),
            )
        })
        .collect();
    for threads in [1usize, 4] {
        let preds = par::with_forced_threads(threads, || forward_eval(&bf, &inputs, 2));
        for (step, p) in preds.iter().enumerate() {
            assert_simplex(p, &format!("BF extreme step {step} threads {threads}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Horizon-prefix consistency
// ---------------------------------------------------------------------------

/// The decoder is causal in the horizon: asking for 3 future steps must
/// not change the first one. Bitwise, for both frameworks.
#[test]
fn one_step_forecast_is_prefix_of_three_step_forecast() {
    let bf = small_bf(31);
    let af = small_af(31);
    let inputs = toy_inputs(2, N, K, 3, 29);
    for (name, model) in [("BF", &bf as &dyn OdForecaster), ("AF", &af)] {
        let h1 = forward_eval(model, &inputs, 1);
        let h3 = forward_eval(model, &inputs, 3);
        assert_eq!(h1.len(), 1);
        assert_eq!(h3.len(), 3);
        assert_eq!(
            h1[0].data(),
            h3[0].data(),
            "{name}: horizon changed the first step"
        );
    }
}

// ---------------------------------------------------------------------------
// Checkpoint round-trip idempotence through the serving registry
// ---------------------------------------------------------------------------

/// Serialize → deserialize → re-register → hot-swap must be a bitwise
/// no-op on forecasts, for both frameworks.
#[test]
fn checkpoint_roundtrip_and_hot_swap_are_bitwise_idempotent() {
    let configs = [
        ModelConfig {
            kind: ModelKind::Bf(small_bf_config()),
            centroids: CityModel::small(N).centroids(),
            num_buckets: K,
        },
        ModelConfig {
            kind: ModelKind::Af(AfConfig::default()),
            centroids: CityModel::small(N).centroids(),
            num_buckets: K,
        },
    ];
    let inputs = toy_inputs(1, N, K, 3, 41);
    for config in configs {
        let registry = Registry::new(config.clone(), Arc::new(ServeStats::new()));
        let bytes = config.build(77).params().to_bytes();
        let v1 = registry
            .register_store(ParamStore::from_bytes(bytes.clone()).unwrap())
            .unwrap();
        registry.promote(v1).unwrap();
        let served1 = registry.active().unwrap();
        let first = served1.forecast(&inputs, 2);
        for p in &first {
            assert_simplex(p, served1.name());
        }

        // Round-trip the same checkpoint through bytes a second time and
        // hot-swap to it: forecasts must not move a bit.
        let roundtrip =
            ParamStore::from_bytes(ParamStore::from_bytes(bytes).unwrap().to_bytes()).unwrap();
        let v2 = registry.register_store(roundtrip).unwrap();
        registry.promote(v2).unwrap();
        let served2 = registry.active().unwrap();
        assert_eq!(served2.version(), v2);
        let second = served2.forecast(&inputs, 2);
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(second.iter()) {
            assert_eq!(a.data(), b.data(), "round-trip changed forecast bits");
        }

        // Swap back: the original version still serves identical bits.
        registry.promote(v1).unwrap();
        let third = registry.get(v1).unwrap().forecast(&inputs, 2);
        for (a, b) in first.iter().zip(third.iter()) {
            assert_eq!(a.data(), b.data(), "hot-swap back changed forecast bits");
        }
    }
}
