//! Cheby-Net graph convolution (Defferrard et al.), the spatial operator of
//! the paper's advanced framework (§V-A, Eq. 5).
//!
//! Given node features `X ∈ R^{B×N×F}` and a scaled graph Laplacian
//! `L̃ = 2L/λ_max − I`, the layer computes the Chebyshev basis
//! `T₀ = X`, `T₁ = L̃·X`, `T_s = 2·L̃·T_{s−1} − T_{s−2}` and mixes it with a
//! learned filter bank: `Y = Σ_s T_s·W_s + b`.
//!
//! # One tape node per call
//!
//! [`ChebyConv::apply`] records the whole layer as a single fused tape op
//! (`cheby_conv`, DESIGN.md §5h). The recurrence runs on node-major
//! panels `[N, B·F]`, so each Chebyshev order is one 2-D product over the
//! whole batch instead of `B` tiny per-slice products, and each `T_s` is
//! written straight into its column block of the mixing operand
//! `Z [B·N, S·F]`; one `Z·W` GEMM and a row-pass bias add finish the
//! layer. Only `Z` and the output stay alive for the backward pass.
//!
//! The graph operator is a CSR scaled Laplacian shared through an
//! [`Arc`]: one model builds it once and every layer over that graph
//! holds the same matrix. Propagation is one [`CsrMatrix::spmm_panel`]
//! per Chebyshev order, and the backward pass multiplies by the same
//! matrix again, which is sound because scaled Laplacians are symmetric
//! (the constructor asserts it).
//!
//! The fused op is bitwise identical to the composed layer it replaced —
//! forecasts, input gradients and parameter gradients — because:
//!
//! * `spmm_panel` accumulates every output element over its row's stored
//!   entries in column order, whatever the panel width, so the merged
//!   `[N, B·F]` product reproduces each per-slice product bit for bit;
//! * `T_s` is rounded as scale-then-subtract, as the composed ops did;
//! * the backward computes `dW = Zᵀ·dY` and `db = Σ_rows dY` with the same
//!   `matmul_tn` and `sum_axis` calls, accumulates each `dT_k` as `slice_k`,
//!   then `−dT_{k+2}`, then `L̃·(2·dT_{k+1})`, and lists the input as a
//!   parent up to three times so its contributions reach the tape in the
//!   old order `[slice₀, −dT₂, L̃·dT₁]` — which matters when the input has
//!   other consumers, as the GCGRU gates' shared `[X ‖ H]` does.
//!
//! # One tape node per factorization stage
//!
//! [`ChebyPool::apply`] runs a whole stage of the AF spatial
//! factorization (§V-A, Eqs. 5–6) — the conv, relu, inverted dropout, the
//! zero pad for fake slots, the coarsening gather and the max-pool — as
//! one `cheby_pool` tape node that writes only the pooled `[Bs, m, Q]`
//! output. It reuses the conv's `forward` and `backward`; the conv output
//! is a scratch buffer, and no relu, dropout, pad or gather tensor and no
//! dropout mask ever becomes a tape value. For the backward pass it keeps
//! `Z` and, per pooled slot, one code: the winning node with its dropout
//! and relu factors, or a sentinel when a fake slot won.
//!
//! The fused stage is bitwise identical to the composed chain — outputs,
//! input gradients, parameter gradients and the RNG position — because:
//!
//! * the dropout factors are drawn one per conv-output element in
//!   row-major order from the same `Rng64`, as `rng.next_f32() < p`,
//!   and eval mode draws nothing;
//! * each pooled slot takes the first candidate `relu(y)·mask` strictly
//!   above the best so far, from −∞ in window order, with +0.0 for a fake
//!   slot, exactly the composed max-pool over the gathered, padded input;
//! * the winner's conv gradient is `((0.0 + g)·mask)·relu'`, the composed
//!   scatter-adds then products in their order, and every other element
//!   gets +0.0 (the Graclus order names each real node at most once);
//!   at `pool == 1` there is no scatter, so it is `(g·mask)·relu'`.
//!
//! The one divergence needs a window with no candidate above −∞, which
//! takes a NaN in every slot (an infinite conv output dropped to 0·∞): the
//! composed max-pool then sent the slot's gradient to element 0 of its
//! input, while the fused op routes none.
//!
//! In eval mode, when nothing can differentiate the output — no parent
//! [`Tape::requires_grad`], as on a [`Tape::no_grad`] tape — the stage
//! keeps no backward state: it frees `Z` right after the mixing GEMM,
//! max-pools `relu(y)` straight into the output with the mask and the
//! winner tracking compiled out of the same scan (`pool_block`'s
//! `TRACK`), and records a `cheby_pool` node with no backward. The
//! output keeps every bit: the eval factor it skips is exactly 1.0,
//! `relu` never yields NaN, and the same candidates are compared in the
//! same order.
//!
//! The composed layer and the composed chain survive as the test oracles
//! the unit suite compares the fused ops against, bit for bit.

use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use std::sync::Arc;
use stod_tensor::ops::{elementwise as ew, matmul as mm, transform as tf};
use stod_tensor::rng::Rng64;
use stod_tensor::{arena, CsrMatrix, Tensor};

/// `y = L̃·x` for a CSR `L̃` and `x ∈ R^{B×N×F}`, differentiable in `x`.
/// The gradient is `L̃ᵀ·g = L̃·g` (the filter is symmetric by
/// construction), so forward and backward share the same deterministic
/// spmm kernel.
pub fn csr_propagate(tape: &mut Tape, m: Arc<CsrMatrix>, x: Var) -> Var {
    let y = m.spmm_panel(tape.value(x));
    tape.custom_op(
        "csr_propagate",
        y,
        &[x],
        Box::new(move |g, _, _, needs| vec![needs[0].then(|| m.spmm_panel(g))]),
    )
}

/// Records `Y = Σ_s T_s(X)·W_s + b` for `x [B, N, F]`, `w [S·F, O]` and
/// `b [O]` as one `cheby_conv` tape node.
fn cheby_conv(tape: &mut Tape, l: &Arc<CsrMatrix>, order: usize, x: Var, w: Var, b: Var) -> Var {
    let (y, z) = forward(l, order, tape.value(x), tape.value(w), tape.value(b));
    // The input is listed once per contribution it receives, so the tape
    // accumulates them in the composed layer's order.
    let x_slots = order.min(3);
    let mut parents = vec![x; x_slots];
    parents.extend([w, b]);
    let l = Arc::clone(l);
    tape.custom_op(
        "cheby_conv",
        y,
        &parents,
        Box::new(move |g, ps, _, needs| {
            let dy = g.reshape(&[g.dim(0) * g.dim(1), g.dim(2)]);
            backward(&l, order, &z, &dy, ps, needs)
        }),
    )
}

/// The fused forward pass: `(Y [B, N, O], Z [B·N, S·F])`. `Z` holds `T_s`
/// in column block `s` with batch-major rows; the backward pass keeps it
/// for `dW = Zᵀ·dY`.
fn forward(l: &CsrMatrix, order: usize, x: &Tensor, w: &Tensor, b: &Tensor) -> (Tensor, Tensor) {
    let (batch, n, f) = (x.dim(0), x.dim(1), x.dim(2));
    let sf = order * f;
    let mut z = arena::alloc_raw(batch * n * sf);
    // T₀ = X is batch-major already: its rows fill block 0 directly.
    for (zr, xr) in z.chunks_exact_mut(sf).zip(x.data().chunks_exact(f)) {
        zr[..f].copy_from_slice(xr);
    }
    if order > 1 {
        // The recurrence runs on node-major panels [N, B·F], one 2-D
        // product per order, each T_s scattered into its block of Z.
        let mut prev: Option<Tensor> = None; // T_{s−2}
        let mut cur = tf::permute(x, &[1, 0, 2]).reshaped(&[n, batch * f]); // T_{s−1}
        for s in 1..order {
            let mut t = l.spmm_panel(&cur);
            if let Some(p2) = &prev {
                // 2·L̃·T_{s−1} − T_{s−2}, rounded as scale then subtract.
                for (v, &q) in t.data_mut().iter_mut().zip(p2.data()) {
                    *v = *v * 2.0 - q;
                }
            }
            tf::transpose_blocks(t.data(), f, &mut z[s * f..], sf, n, batch, f);
            prev = Some(std::mem::replace(&mut cur, t));
        }
    }
    let z = Tensor::from_vec(&[batch * n, sf], z);
    let mut y = mm::matmul(&z, w);
    let out_feat = w.dim(1);
    for row in y.data_mut().chunks_exact_mut(out_feat) {
        for (v, &bias) in row.iter_mut().zip(b.data()) {
            *v += bias;
        }
    }
    (y.reshaped(&[batch, n, out_feat]), z)
}

/// The fused backward pass: gradients for the parents
/// `[x; min(S, 3)], w, b` of [`cheby_conv`] and [`cheby_pool`], from the
/// conv output's gradient `dy [B·N, O]`.
fn backward(
    l: &CsrMatrix,
    order: usize,
    z: &Tensor,
    dy: &Tensor,
    ps: &[&Tensor],
    needs: &[bool],
) -> Vec<Option<Tensor>> {
    let x_slots = order.min(3);
    let (x, w) = (ps[0], ps[x_slots]);
    let (batch, n, f) = (x.dim(0), x.dim(1), x.dim(2));
    let mut grads = if needs[0] {
        // dZ = dY·Wᵀ, the mixing matmul's own input gradient.
        let dz = mm::matmul(dy, &tf::transpose(w, 0, 1));
        input_grads(l, order, &dz, batch, n, f)
    } else {
        vec![None; x_slots]
    };
    grads.push(needs[x_slots].then(|| mm::matmul_tn(z, dy)));
    grads.push(needs[x_slots + 1].then(|| stod_tensor::sum_axis(dy, 0, false)));
    grads
}

/// The input's gradient contributions from `dZ [B·N, S·F]`, in the order
/// the composed layer's nodes delivered them: `slice₀`, then `−dT₂`
/// (orders ≥ 3), then `L̃·dT₁` (orders ≥ 2).
fn input_grads(
    l: &CsrMatrix,
    order: usize,
    dz: &Tensor,
    batch: usize,
    n: usize,
    f: usize,
) -> Vec<Option<Tensor>> {
    let sf = order * f;
    // Column block k of dZ as a node-major panel [N, B·F].
    let slice_panel = |k: usize| -> Tensor {
        let mut p = arena::alloc_raw(n * batch * f);
        tf::transpose_blocks(&dz.data()[k * f..], sf, &mut p, f, batch, n, f);
        Tensor::from_vec(&[n, batch * f], p)
    };
    // A node-major panel back in the input's layout [B, N, F].
    let batch_major = |p: &Tensor| -> Tensor {
        let mut out = arena::alloc_raw(batch * n * f);
        tf::transpose_blocks(p.data(), f, &mut out, f, n, batch, f);
        Tensor::from_vec(&[batch, n, f], out)
    };
    // dT_k for k = S−1 … 1 accumulates slice_k, then −dT_{k+2}, then
    // L̃·(2·dT_{k+1}) (L̃ is symmetric). Step k is dT_{k+2}'s last use.
    let mut d: Vec<Option<Tensor>> = (0..order).map(|_| None).collect();
    for k in (1..order).rev() {
        let mut dk = slice_panel(k);
        if let Some(d2) = d.get_mut(k + 2).and_then(Option::take) {
            for (a, &v) in dk.data_mut().iter_mut().zip(d2.data()) {
                *a += -v;
            }
        }
        if let Some(d1) = d.get(k + 1).and_then(Option::as_ref) {
            let back = l.spmm_panel(&ew::scale(d1, 2.0));
            for (a, &v) in dk.data_mut().iter_mut().zip(back.data()) {
                *a += v;
            }
        }
        d[k] = Some(dk);
    }
    let mut slice0 = arena::alloc_raw(batch * n * f);
    for (o, r) in slice0.chunks_exact_mut(f).zip(dz.data().chunks_exact(sf)) {
        o.copy_from_slice(&r[..f]);
    }
    let mut grads = vec![Some(Tensor::from_vec(&[batch, n, f], slice0))];
    if let Some(d2) = d.get_mut(2).and_then(Option::take) {
        let mut neg = batch_major(&d2);
        neg.map_inplace(|v| -v);
        grads.push(Some(neg));
    }
    if let Some(d1) = d.get(1).and_then(Option::as_ref) {
        grads.push(Some(batch_major(&l.spmm_panel(d1))));
    }
    grads
}

/// Marks a pooled slot that a fake slot won: it routes no gradient.
const FAKE_WINNER: f32 = -1.0;

/// Largest node count whose winner codes stay exact in an `f32`.
const MAX_POOL_NODES: usize = 1 << 22;

/// Packs a winning node with its dropout and relu factors into one
/// `f32`: `node·4 + 2·kept + positive`, exact below [`MAX_POOL_NODES`].
fn pack_winner(node: u32, kept: bool, positive: bool) -> f32 {
    ((node << 2) | (u32::from(kept) << 1) | u32::from(positive)) as f32
}

/// `(node, kept, positive)` of a code [`pack_winner`] wrote.
fn unpack_winner(code: f32) -> (usize, bool, bool) {
    let c = code as u32;
    ((c >> 2) as usize, c & 2 != 0, c & 1 != 0)
}

/// Features per register block of the pooling loop: the running max and
/// its winner live in two local arrays, which keeps the compare-select
/// branch-free and vectorized.
const LANES: usize = 8;

/// Max-pools one window over all `Q` features of a slice's conv output
/// `yb [N, Q]` into `best [Q]`, and with `TRACK` the winners into `won
/// [Q]`: `LANES`-wide blocks, then the `Q % LANES` remainder as one
/// block of its own width, so the window is scanned once per block.
#[inline(always)]
fn pool_window<const TRACK: bool>(
    window: &[usize],
    yb: &[f32],
    mask: &[f32],
    q: usize,
    best: &mut [f32],
    won: &mut [f32],
) {
    let blocked = q - q % LANES;
    for j0 in (0..blocked).step_by(LANES) {
        let (b, w) = pool_block::<LANES, TRACK>(window, yb, mask, q, j0);
        best[j0..j0 + LANES].copy_from_slice(&b);
        if TRACK {
            won[j0..j0 + LANES].copy_from_slice(&w);
        }
    }
    let (b, w) = (
        &mut best[blocked..],
        won.get_mut(blocked..).unwrap_or_default(),
    );
    match q - blocked {
        0 => {}
        1 => put(pool_block::<1, TRACK>(window, yb, mask, q, blocked), b, w),
        2 => put(pool_block::<2, TRACK>(window, yb, mask, q, blocked), b, w),
        3 => put(pool_block::<3, TRACK>(window, yb, mask, q, blocked), b, w),
        4 => put(pool_block::<4, TRACK>(window, yb, mask, q, blocked), b, w),
        5 => put(pool_block::<5, TRACK>(window, yb, mask, q, blocked), b, w),
        6 => put(pool_block::<6, TRACK>(window, yb, mask, q, blocked), b, w),
        7 => put(pool_block::<7, TRACK>(window, yb, mask, q, blocked), b, w),
        _ => unreachable!("LANES is 8"),
    }
}

/// Stores a tail block's maxima into `best` and winners into `won`, as
/// far as `won` reaches (the eval scan passes none).
fn put<const L: usize>((b, w): ([f32; L], [f32; L]), best: &mut [f32], won: &mut [f32]) {
    best.copy_from_slice(&b);
    let n = won.len();
    won.copy_from_slice(&w[..n]);
}

/// Max-pools one window over the `L` features from `j0` of a slice's
/// conv output `yb [N, Q]`, the candidates `relu(y)·mask` with `TRACK`
/// and `relu(y)` without: `(max, winning node)` per feature, the node as
/// an `f32` or [`FAKE_WINNER`]. A candidate replaces the running max only
/// when strictly larger, so the first of equal candidates wins and NaN
/// never does; a fake slot (node `N`) is +0.0. Without `TRACK` the mask
/// is not read and the winners are not written: the eval scan keeps
/// only the compare-select of the max.
#[inline(always)]
fn pool_block<const L: usize, const TRACK: bool>(
    window: &[usize],
    yb: &[f32],
    mask: &[f32],
    q: usize,
    j0: usize,
) -> ([f32; L], [f32; L]) {
    let n = yb.len() / q;
    let mut best = [f32::NEG_INFINITY; L];
    let mut won = [FAKE_WINNER; L];
    let mut take_if_greater = |l: usize, cand: f32, id: f32| {
        let take = cand > best[l];
        best[l] = if take { cand } else { best[l] };
        if TRACK {
            won[l] = if take { id } else { won[l] };
        }
    };
    for &node in window {
        if node == n {
            (0..L).for_each(|l| take_if_greater(l, 0.0, FAKE_WINNER));
            continue;
        }
        let at = node * q + j0;
        let v: &[f32; L] = yb[at..at + L].try_into().expect("one block");
        if TRACK {
            let f: &[f32; L] = mask[at..at + L].try_into().expect("one block");
            (0..L).for_each(|l| take_if_greater(l, ew::relu_scalar(v[l]) * f[l], node as f32));
        } else {
            (0..L).for_each(|l| take_if_greater(l, ew::relu_scalar(v[l]), node as f32));
        }
    }
    (best, won)
}

/// Records one spatial-factorization stage — conv, relu, inverted
/// dropout, zero pad, coarsening gather and max-pool — as one
/// `cheby_pool` tape node over `x [Bs, N, F]`, `w` and `b`. An eval stage
/// that nothing can differentiate keeps no backward state.
#[allow(clippy::too_many_arguments)] // one op's operands, private to this file
fn cheby_pool(
    tape: &mut Tape,
    l: &Arc<CsrMatrix>,
    order: usize,
    x: Var,
    w: Var,
    b: Var,
    slots: &[usize],
    pool: usize,
    dropout: Option<f32>,
    rng: &mut Rng64,
) -> Var {
    // The parents of `cheby_conv`, so the input's contributions reach the
    // tape in the same order.
    let mut parents = vec![x; order.min(3)];
    parents.extend([w, b]);
    let (y, z) = forward(l, order, tape.value(x), tape.value(w), tape.value(b));
    if dropout.is_none() && !parents.iter().any(|&p| tape.requires_grad(p)) {
        // Nothing can differentiate the output: no backward state.
        drop(z);
        let pooled = pool_eval(&y, slots, pool);
        return tape.custom_op_no_grad("cheby_pool", pooled, &parents);
    }
    let (pooled, winners) = pool_forward(&y, slots, pool, dropout, rng);
    let n = y.dim(1);
    let l = Arc::clone(l);
    let scale = dropout.map(keep_scale);
    tape.custom_op(
        "cheby_pool",
        pooled,
        &parents,
        Box::new(move |g, ps, _, needs| {
            let dy = pool_backward(g, &winners, n, pool, scale);
            backward(&l, order, &z, &dy, ps, needs)
        }),
    )
}

/// The factor that inverted dropout at rate `p` gives a kept element,
/// computed as `Tape::dropout` does.
fn keep_scale(p: f32) -> f32 {
    let keep = 1.0 - p;
    1.0 / keep
}

/// Relu, inverted dropout, zero pad, gather and max-pool of the conv
/// output `y [Bs, N, Q]`: `(pooled [Bs, m, Q], winners [Bs, m, Q])` with
/// `m = slots.len() / pool`.
///
/// Each slice draws its dropout factors in row-major order, so the
/// stream matches one mask over all of `y`. A pooled slot takes the first
/// candidate `relu(y)·mask` strictly above the best so far, from −∞ in
/// window order; a fake slot is +0.0. `winners` keeps the winning node
/// and its two factors ([`pack_winner`]), or [`FAKE_WINNER`]. At
/// `pool == 1` nothing is gathered or pooled: every element is its own
/// winner.
fn pool_forward(
    y: &Tensor,
    slots: &[usize],
    pool: usize,
    dropout: Option<f32>,
    rng: &mut Rng64,
) -> (Tensor, Tensor) {
    let (bs, n, q) = (y.dim(0), y.dim(1), y.dim(2));
    let m = slots.len() / pool;
    let dropout = dropout.map(|p| (p, keep_scale(p)));
    // Eval mode multiplies by 1.0, which is exact: relu never yields NaN.
    let mut mask = arena::alloc_filled(n * q, 1.0);
    let mut pooled = arena::alloc_raw(bs * m * q);
    let mut winners = arena::alloc_raw(bs * m * q);
    let slices = y.data().chunks_exact(n * q);
    let outs = pooled
        .chunks_exact_mut(m * q)
        .zip(winners.chunks_exact_mut(m * q));
    for (yb, (ob, wb)) in slices.zip(outs) {
        if let Some((p, scale)) = dropout {
            for v in mask.iter_mut() {
                *v = if rng.next_f32() < p { 0.0 } else { scale };
            }
        }
        if pool == 1 {
            for (i, ((o, w), (&v, &f))) in ob
                .iter_mut()
                .zip(wb.iter_mut())
                .zip(yb.iter().zip(&mask))
                .enumerate()
            {
                *o = ew::relu_scalar(v) * f;
                *w = pack_winner((i / q) as u32, f != 0.0, v > 0.0);
            }
            continue;
        }
        let windows = ob.chunks_exact_mut(q).zip(wb.chunks_exact_mut(q));
        for (window, (best, won)) in slots.chunks_exact(pool).zip(windows) {
            pool_window::<true>(window, yb, &mask, q, best, won);
            for (j, w) in won.iter_mut().enumerate() {
                if *w != FAKE_WINNER {
                    let node = *w as u32;
                    let k = node as usize * q + j;
                    *w = pack_winner(node, mask[k] != 0.0, yb[k] > 0.0);
                }
            }
        }
    }
    (
        Tensor::from_vec(&[bs, m, q], pooled),
        Tensor::from_vec(&[bs, m, q], winners),
    )
}

/// [`pool_forward`] in eval mode with nothing to differentiate: the
/// pooled `[Bs, m, Q]` alone, from one scan with no dropout mask and no
/// winners. Without dropout the forward's factors are all exactly 1.0
/// and relu never yields NaN, so every candidate and every output bit is
/// the same.
fn pool_eval(y: &Tensor, slots: &[usize], pool: usize) -> Tensor {
    let (bs, n, q) = (y.dim(0), y.dim(1), y.dim(2));
    let m = slots.len() / pool;
    let mut pooled = arena::alloc_raw(bs * m * q);
    let slices = y.data().chunks_exact(n * q);
    for (yb, ob) in slices.zip(pooled.chunks_exact_mut(m * q)) {
        if pool == 1 {
            for (o, &v) in ob.iter_mut().zip(yb) {
                *o = ew::relu_scalar(v);
            }
            continue;
        }
        for (window, best) in slots.chunks_exact(pool).zip(ob.chunks_exact_mut(q)) {
            pool_window::<false>(window, yb, &[], q, best, &mut []);
        }
    }
    Tensor::from_vec(&[bs, m, q], pooled)
}

/// The conv output's gradient `dY [Bs·N, Q]` from the pooled gradient
/// `g [Bs, m, Q]`: at each winner `((0.0 + g)·mask)·relu'`, the composed
/// chain's scatter-adds then products in their order, and +0.0 elsewhere.
/// At `pool == 1` there is no scatter, so no `0.0 +`; eval mode (`scale`
/// `None`) has no dropout factor.
fn pool_backward(
    g: &Tensor,
    winners: &Tensor,
    n: usize,
    pool: usize,
    scale: Option<f32>,
) -> Tensor {
    let (bs, m, q) = (g.dim(0), g.dim(1), g.dim(2));
    let mut dy = arena::alloc_raw(bs * n * q);
    let slices = g
        .data()
        .chunks_exact(m * q)
        .zip(winners.data().chunks_exact(m * q));
    for (dyb, (gb, wb)) in dy.chunks_exact_mut(n * q).zip(slices) {
        if pool > 1 {
            dyb.fill(0.0);
        }
        for (grow, wrow) in gb.chunks_exact(q).zip(wb.chunks_exact(q)) {
            for (j, (&gv, &code)) in grow.iter().zip(wrow).enumerate() {
                if code == FAKE_WINNER {
                    continue;
                }
                let (node, kept, positive) = unpack_winner(code);
                let mut d = if pool == 1 { gv } else { 0.0 + gv };
                if let Some(s) = scale {
                    d *= if kept { s } else { 0.0 };
                }
                dyb[node * q + j] = d * if positive { 1.0 } else { 0.0 };
            }
        }
    }
    Tensor::from_vec(&[bs * n, q], dy)
}

/// A Chebyshev graph-convolution layer over a fixed graph.
///
/// The scaled Laplacian is a fixed (non-learned) operator that every
/// layer over the same graph shares; the fused op differentiates the
/// signal and the filter bank, never the graph.
pub struct ChebyConv {
    /// Scaled Laplacian `L̃`, symmetric.
    l: Arc<CsrMatrix>,
    ws: ParamId,
    b: ParamId,
    order: usize,
    in_feat: usize,
}

impl ChebyConv {
    /// Registers a new layer. `order` is the Chebyshev order `S` (filter
    /// support size), i.e. the number of basis terms.
    ///
    /// # Panics
    /// Panics if `order == 0` or `laplacian` is not bitwise symmetric: the
    /// backward pass multiplies by the same matrix instead of its
    /// transpose.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        laplacian: Arc<CsrMatrix>,
        order: usize,
        in_feat: usize,
        out_feat: usize,
        rng: &mut Rng64,
    ) -> Self {
        assert!(order >= 1, "Chebyshev order must be ≥ 1");
        assert!(
            laplacian.is_symmetric(),
            "Cheby filter must be a square symmetric matrix: the backward \
             pass multiplies by the same matrix instead of its transpose"
        );
        let ws = store.register(
            format!("{prefix}.ws"),
            Tensor::glorot(&[order * in_feat, out_feat], rng),
        );
        let b = store.register(format!("{prefix}.b"), Tensor::zeros(&[out_feat]));
        ChebyConv {
            l: laplacian,
            ws,
            b,
            order,
            in_feat,
        }
    }

    /// Number of graph nodes the layer operates on.
    pub fn num_nodes(&self) -> usize {
        self.l.rows()
    }

    /// Applies the convolution to `x ∈ R^{B×N×F_in}` → `R^{B×N×F_out}`,
    /// recording one fused `cheby_conv` node (plus the two parameter
    /// leaves) on the tape.
    ///
    /// # Panics
    /// Panics on rank/extent mismatches.
    pub fn apply(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        self.check_input(tape.value(x));
        let ws = tape.param(store, self.ws);
        let b = tape.param(store, self.b);
        cheby_conv(tape, &self.l, self.order, x, ws, b)
    }

    fn check_input(&self, x: &Tensor) {
        let dims = x.dims();
        assert_eq!(
            dims.len(),
            3,
            "ChebyConv input must be [B, N, F], got {dims:?}"
        );
        assert_eq!(dims[1], self.num_nodes(), "node count mismatch");
        assert_eq!(dims[2], self.in_feat, "feature dim mismatch");
    }

    /// The composed layer the fused op replaced, `3S + 3` tape nodes per
    /// call: the oracle the fused op must match bit for bit.
    #[cfg(test)]
    fn apply_composed(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        self.check_input(tape.value(x));
        let (batch, n, f) = {
            let d = tape.value(x).dims();
            (d[0], d[1], d[2])
        };
        let propagate = |tape: &mut Tape, v: Var| csr_propagate(tape, Arc::clone(&self.l), v);
        let mut basis: Vec<Var> = Vec::with_capacity(self.order);
        basis.push(x);
        if self.order >= 2 {
            let t1 = propagate(tape, x);
            basis.push(t1);
        }
        for s in 2..self.order {
            let lt = propagate(tape, basis[s - 1]);
            let two_lt = tape.scale(lt, 2.0);
            let t = tape.sub(two_lt, basis[s - 2]);
            basis.push(t);
        }
        let stacked = tape.concat(&basis, 2); // [B, N, S·F]
        let flat = tape.reshape(stacked, &[batch * n, self.order * f]);
        let ws = tape.param(store, self.ws);
        let y = tape.matmul(flat, ws);
        let b = tape.param(store, self.b);
        let y = tape.add(y, b);
        let out_feat = store.get(self.ws).dim(1);
        tape.reshape(y, &[batch, n, out_feat])
    }
}

/// One stage of the AF spatial factorization (§V-A, Eqs. 5–6): a
/// Cheby-Net convolution, relu, inverted dropout, and geometric max-pooling
/// over a Graclus coarsening order, recorded as one `cheby_pool` tape op.
///
/// The order lists `pool` slots per pooled node; the value
/// `conv.num_nodes()` marks a fake slot, which pools as +0.0. At
/// `pool == 1` the order is the identity and nothing is pooled.
pub struct ChebyPool {
    conv: ChebyConv,
    order: Vec<usize>,
    pool: usize,
}

impl ChebyPool {
    /// Wraps `conv` with pooling windows of `pool` slots over `order`.
    ///
    /// # Panics
    /// Panics if `pool == 0`, if the order is not a whole number of
    /// windows, names a node past the fake-slot sentinel or a real node
    /// twice, if `pool == 1` and the order is not the identity, or if the
    /// graph has `2^22` nodes or more.
    pub fn new(conv: ChebyConv, order: Vec<usize>, pool: usize) -> Self {
        let n = conv.num_nodes();
        assert!(pool >= 1, "pool window must be ≥ 1");
        assert!(n < MAX_POOL_NODES, "{n} nodes exceed the pooling limit");
        if pool == 1 {
            assert!(
                order.iter().copied().eq(0..n),
                "pool 1 keeps the node axis: the order must be the identity"
            );
        }
        assert!(
            order.len().is_multiple_of(pool),
            "order length {} is not a multiple of pool {pool}",
            order.len()
        );
        let mut seen = vec![false; n];
        for &node in &order {
            assert!(node <= n, "order names node {node} of a {n}-node graph");
            if node < n {
                assert!(!seen[node], "order names node {node} twice");
                seen[node] = true;
            }
        }
        ChebyPool { conv, order, pool }
    }

    /// Node count of the pooled output.
    #[cfg(test)]
    fn pooled_nodes(&self) -> usize {
        self.order.len() / self.pool
    }

    /// Runs the stage on `x ∈ R^{Bs×N×F_in}` → `R^{Bs×m×F_out}`, recording
    /// one fused `cheby_pool` node (plus the two parameter leaves).
    /// Dropout follows [`Tape::dropout`]: active only when `training` and
    /// `p > 0`, drawing one factor per conv output element from `rng`.
    ///
    /// # Panics
    /// Panics on rank/extent mismatches, or if dropout is active with
    /// `p ≥ 1`.
    pub fn apply(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        p: f32,
        training: bool,
        rng: &mut Rng64,
    ) -> Var {
        self.conv.check_input(tape.value(x));
        let dropout = (training && p > 0.0).then(|| {
            assert!(p < 1.0, "dropout probability must be < 1");
            p
        });
        let ws = tape.param(store, self.conv.ws);
        let b = tape.param(store, self.conv.b);
        cheby_pool(
            tape,
            &self.conv.l,
            self.conv.order,
            x,
            ws,
            b,
            &self.order,
            self.pool,
            dropout,
            rng,
        )
    }

    /// The composed chain the fused op replaced — conv, relu, dropout,
    /// then pad, gather and max-pool when `pool > 1`: the oracle the fused
    /// op must match bit for bit.
    #[cfg(test)]
    fn apply_composed(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        p: f32,
        training: bool,
        rng: &mut Rng64,
    ) -> Var {
        let bs = tape.value(x).dim(0);
        let y = self.conv.apply(tape, store, x);
        let y = tape.relu(y);
        let y = tape.dropout(y, p, training, rng);
        if self.pool == 1 {
            return y;
        }
        let q = tape.value(y).dim(2);
        let zeros = tape.constant(Tensor::zeros(&[bs, 1, q]));
        let padded = tape.concat(&[y, zeros], 1);
        let gathered = tape.index_select(padded, 1, &self.order);
        tape.max_pool_axis(gathered, 1, self.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scaled Laplacian of a 3-node path graph (precomputed by hand).
    fn path3() -> Arc<CsrMatrix> {
        // W = path graph adjacency, L = D − W, λ_max = 3 → L̃ = 2L/3 − I.
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
    }

    #[test]
    fn output_shape() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(0);
        let conv = ChebyConv::new(&mut store, "gc", path3(), 3, 2, 5, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[4, 3, 2]));
        let y = conv.apply(&mut tape, &store, x);
        assert_eq!(tape.value(y).dims(), &[4, 3, 5]);
    }

    #[test]
    fn order_one_is_pointwise_linear() {
        // With S = 1 only T₀ = X is used: the layer reduces to a per-node FC
        // and must be insensitive to the graph.
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(1);
        let conv = ChebyConv::new(&mut store, "gc", path3(), 1, 2, 2, &mut rng);
        let mut tape = Tape::new();
        // Two nodes with identical features must give identical outputs.
        let x = tape.leaf(Tensor::from_vec(
            &[1, 3, 2],
            vec![1.0, 2.0, 1.0, 2.0, -3.0, 0.5],
        ));
        let y = conv.apply(&mut tape, &store, x);
        let v = tape.value(y);
        assert!((v.at(&[0, 0, 0]) - v.at(&[0, 1, 0])).abs() < 1e-6);
        assert!((v.at(&[0, 0, 1]) - v.at(&[0, 1, 1])).abs() < 1e-6);
    }

    #[test]
    fn higher_order_mixes_neighbors() {
        // With S ≥ 2 a node's output depends on its neighbors: nodes 0 and 1
        // have identical features but different neighborhoods.
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(2);
        let conv = ChebyConv::new(&mut store, "gc", path3(), 2, 2, 2, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(
            &[1, 3, 2],
            vec![1.0, 2.0, 1.0, 2.0, -3.0, 0.5],
        ));
        let y = conv.apply(&mut tape, &store, x);
        let v = tape.value(y);
        let diff = (v.at(&[0, 0, 0]) - v.at(&[0, 1, 0])).abs();
        assert!(
            diff > 1e-4,
            "neighborhood information should differentiate nodes"
        );
    }

    #[test]
    fn gradients_reach_filters() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(3);
        let conv = ChebyConv::new(&mut store, "gc", path3(), 3, 2, 2, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2, 3, 2]));
        let y = conv.apply(&mut tape, &store, x);
        let sq = tape.mul(y, y);
        let loss = tape.sum_all(sq);
        let grads = tape.backward(loss);
        let gw = grads.get(store.id_of("gc.ws").unwrap()).unwrap();
        assert!(gw.frob_sq() > 0.0);
        assert!(grads.get(store.id_of("gc.b").unwrap()).is_some());
    }

    #[test]
    fn csr_propagate_gradcheck() {
        let csr = path3();
        let x0 = Tensor::randn(&[2, 3, 2], 0.5, &mut Rng64::new(13));
        crate::gradcheck::assert_grad_ok(&[x0], move |t, v| {
            let t1 = csr_propagate(t, csr.clone(), v[0]);
            let t2 = csr_propagate(t, csr.clone(), t1);
            let sq = t.mul(t2, t2);
            t.sum_all(sq)
        });
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_csr_filter_rejected() {
        let mut w = Tensor::zeros(&[3, 3]);
        w.set(&[0, 1], 1.0);
        let mut store = ParamStore::new();
        ChebyConv::new(
            &mut store,
            "gc",
            Arc::new(CsrMatrix::from_dense(&w)),
            2,
            1,
            1,
            &mut Rng64::new(0),
        );
    }

    #[test]
    fn apply_records_one_fused_node() {
        let mut store = ParamStore::new();
        let conv = ChebyConv::new(&mut store, "gc", path3(), 4, 2, 3, &mut Rng64::new(5));
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[2, 3, 2]));
        let before = tape.len();
        conv.apply(&mut tape, &store, x);
        assert_eq!(tape.len() - before, 3, "two parameter leaves + one op");
    }

    #[test]
    fn gradcheck_through_cheby_recurrence() {
        // Rebuild the recurrence manually with leaf weights to finite-diff it.
        let lap = path3().to_dense();
        let mut rng = Rng64::new(4);
        let x0 = Tensor::randn(&[2, 3, 2], 0.5, &mut rng);
        let w0 = Tensor::randn(&[3 * 2, 2], 0.5, &mut rng);
        crate::gradcheck::assert_grad_ok(&[x0, w0], move |t, v| {
            let l = t.constant(lap.clone());
            let t0 = v[0];
            let t1 = t.batched_matmul(l, t0);
            let lt1 = t.batched_matmul(l, t1);
            let two_lt1 = t.scale(lt1, 2.0);
            let t2 = t.sub(two_lt1, t0);
            let stacked = t.concat(&[t0, t1, t2], 2);
            let flat = t.reshape(stacked, &[2 * 3, 6]);
            let y = t.matmul(flat, v[1]);
            let sq = t.mul(y, y);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_fused_op() {
        // x, W and b as plain leaves, at an order that exercises every
        // backward contribution.
        let l = path3();
        let mut rng = Rng64::new(4);
        let x0 = Tensor::randn(&[2, 3, 2], 0.5, &mut rng);
        let w0 = Tensor::randn(&[4 * 2, 2], 0.5, &mut rng);
        let b0 = Tensor::randn(&[2], 0.5, &mut rng);
        crate::gradcheck::assert_grad_ok_at_threads(
            &[x0, w0, b0],
            move |t, v| {
                let y = cheby_conv(t, &l, 4, v[0], v[1], v[2]);
                let sq = t.mul(y, y);
                t.sum_all(sq)
            },
            &[4],
        );
    }

    /// A symmetric scaled-Laplacian-like operator over a random sparse
    /// graph: `2L/λ̂ − I` with `λ̂ = 2·max degree ≥ λ_max`, so the spectrum
    /// sits in `[−1, 1]` like a real scaled Laplacian's, with about 80% of
    /// the off-diagonal entries left unstored.
    fn random_scaled_laplacian(n: usize, seed: u64) -> Arc<CsrMatrix> {
        let mut rng = Rng64::new(seed);
        let mut w = Tensor::zeros(&[n, n]);
        for i in 0..n {
            for j in i + 1..n {
                if rng.next_f64() < 0.2 {
                    let v = 0.1 + rng.next_f32();
                    w.set(&[i, j], v);
                    w.set(&[j, i], v);
                }
            }
        }
        let deg: Vec<f32> = (0..n)
            .map(|i| (0..n).map(|j| w.at(&[i, j])).sum())
            .collect();
        let lam = 2.0 * deg.iter().cloned().fold(1e-3f32, f32::max);
        let mut l = Tensor::zeros(&[n, n]);
        for (i, &d) in deg.iter().enumerate() {
            for j in 0..n {
                let v = if i == j {
                    2.0 * d / lam - 1.0
                } else {
                    -2.0 * w.at(&[i, j]) / lam
                };
                l.set(&[i, j], v);
            }
        }
        Arc::new(CsrMatrix::from_dense(&l))
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Forward value, input gradient and every parameter gradient of one
    /// graph — two convs sharing an input that a later op also reads —
    /// built with the fused or the composed layer.
    struct Run {
        y: Vec<Vec<u32>>,
        dx: Option<Vec<u32>>,
        params: Vec<(String, Vec<u32>)>,
    }

    fn run(l: &Arc<CsrMatrix>, order: usize, dims: [usize; 3], constant: bool, fused: bool) -> Run {
        let [batch, n, f] = dims;
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(40 + order as u64);
        let convs = [
            ChebyConv::new(&mut store, "c0", Arc::clone(l), order, f, 5, &mut rng),
            ChebyConv::new(&mut store, "c1", Arc::clone(l), order, f, 3, &mut rng),
        ];
        // Non-zero biases, so the bias add is exercised too.
        for name in ["c0.b", "c1.b"] {
            let id = store.id_of(name).unwrap();
            let len = store.get(id).numel();
            *store.get_mut(id) = Tensor::randn(&[len], 0.3, &mut rng);
        }
        let x0 = Tensor::randn(&[batch, n, f], 1.0, &mut rng);
        let mut tape = Tape::new();
        let x = if constant {
            tape.constant(x0)
        } else {
            tape.leaf(x0)
        };
        // Two conv consumers of one shared input plus a later reader, as
        // the GCGRU's reset and update gates share [X ‖ H].
        let xh = tape.scale(x, 1.5);
        let mut loss_terms = Vec::new();
        let mut ys = Vec::new();
        for conv in &convs {
            let y = if fused {
                conv.apply(&mut tape, &store, xh)
            } else {
                conv.apply_composed(&mut tape, &store, xh)
            };
            ys.push(bits(tape.value(y)));
            let r = tape.constant(Tensor::randn(tape.value(y).dims(), 1.0, &mut Rng64::new(7)));
            let prod = tape.mul(y, r);
            loss_terms.push(tape.sum_all(prod));
        }
        let later = tape.tanh(xh);
        loss_terms.push(tape.sum_all(later));
        let mut loss = loss_terms[0];
        for &t in &loss_terms[1..] {
            loss = tape.add(loss, t);
        }
        let grads = tape.backward(loss);
        let dx = (!constant).then(|| bits(tape.backward_wrt(loss, &[x])[0].as_ref().unwrap()));
        let params = ["c0.ws", "c0.b", "c1.ws", "c1.b"]
            .iter()
            .map(|&name| {
                let g = grads.get(store.id_of(name).unwrap()).expect("param grad");
                (name.to_string(), bits(g))
            })
            .collect();
        Run { y: ys, dx, params }
    }

    fn assert_fused_matches_composed(l: Arc<CsrMatrix>, f: usize, label: &str) {
        let n = l.rows();
        for threads in [1, 4] {
            for order in 1..=5 {
                for batch in [1, 3] {
                    for constant in [false, true] {
                        let case = format!(
                            "{label}: threads={threads} order={order} batch={batch} constant={constant}"
                        );
                        let dims = [batch, n, f];
                        let (fused, composed) =
                            stod_tensor::par::with_forced_threads(threads, || {
                                (
                                    run(&l, order, dims, constant, true),
                                    run(&l, order, dims, constant, false),
                                )
                            });
                        assert!(fused.y == composed.y, "{case}: forward bits differ");
                        assert!(
                            fused.dx == composed.dx,
                            "{case}: input gradient bits differ"
                        );
                        for ((name, a), (_, b)) in fused.params.iter().zip(&composed.params) {
                            assert!(a == b, "{case}: {name} gradient bits differ");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_matches_composed_bitwise_n67_f7() {
        // train_paper's first factorization stage: N = 67, F = 7.
        assert_fused_matches_composed(random_scaled_laplacian(67, 1), 7, "n67 f7");
    }

    #[test]
    fn fused_matches_composed_bitwise_n17_f32() {
        // A coarsened stage: few nodes, a merged panel B·F wide.
        assert_fused_matches_composed(random_scaled_laplacian(17, 2), 32, "n17 f32");
    }

    #[test]
    fn fused_matches_composed_bitwise_n23_f4() {
        assert_fused_matches_composed(random_scaled_laplacian(23, 3), 4, "n23 f4");
    }

    /// One `ChebyPool` stage's shape: `n` nodes, `f → q` features,
    /// Chebyshev order `order`, windows of `pool` over `m` pooled nodes.
    #[derive(Clone, Copy, Debug)]
    struct Stage {
        n: usize,
        f: usize,
        q: usize,
        order: usize,
        pool: usize,
        m: usize,
    }

    /// A coarsening-like order: the `n` real nodes and `m·pool − n` fake
    /// slots in random positions, so some windows start with or consist
    /// of fake slots. The identity at `pool == 1`.
    fn random_order(st: Stage, seed: u64) -> Vec<usize> {
        if st.pool == 1 {
            return (0..st.n).collect();
        }
        assert!(st.m * st.pool >= st.n);
        let mut slots: Vec<usize> = (0..st.m * st.pool)
            .map(|i| if i < st.n { i } else { st.n })
            .collect();
        Rng64::new(seed).shuffle(&mut slots);
        slots
    }

    /// Everything the fused op must reproduce: both stages' outputs, the
    /// input gradient, every parameter gradient, and the RNG position.
    #[derive(PartialEq, Debug)]
    struct PoolRun {
        out: Vec<Vec<u32>>,
        dx: Option<Vec<u32>>,
        params: Vec<(String, Vec<u32>)>,
        rng_after: u64,
    }

    /// Two stages over one input that a later op also reads, as in
    /// `run` above, in train mode at `p = 0.2` or in eval mode.
    /// The input of a [`run_pool`] graph. `Zeros` is a differentiable
    /// zero input: every conv output is its bias, so each window is an
    /// exact tie that only the first-candidate rule settles.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Input {
        Leaf,
        Constant,
        Zeros,
    }

    fn run_pool(st: Stage, batch: usize, train: bool, input: Input, fused: bool) -> PoolRun {
        let l = random_scaled_laplacian(st.n, st.n as u64);
        let order = random_order(st, 90 + st.n as u64);
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(60 + st.order as u64);
        let stages: Vec<ChebyPool> = ["p0", "p1"]
            .iter()
            .map(|&name| {
                let conv = ChebyConv::new(
                    &mut store,
                    name,
                    Arc::clone(&l),
                    st.order,
                    st.f,
                    st.q,
                    &mut rng,
                );
                ChebyPool::new(conv, order.clone(), st.pool)
            })
            .collect();
        for name in ["p0.b", "p1.b"] {
            let id = store.id_of(name).unwrap();
            *store.get_mut(id) = Tensor::randn(&[st.q], 0.3, &mut rng);
        }
        let x0 = Tensor::randn(&[batch, st.n, st.f], 1.0, &mut rng);
        let mut tape = Tape::new();
        let x = match input {
            Input::Leaf => tape.leaf(x0),
            Input::Constant => tape.constant(x0),
            Input::Zeros => tape.leaf(Tensor::zeros(x0.dims())),
        };
        let xh = tape.scale(x, 1.5);
        let mut drop_rng = Rng64::new(77);
        let mut loss_terms = Vec::new();
        let mut out = Vec::new();
        for stage in &stages {
            let y = if fused {
                stage.apply(&mut tape, &store, xh, 0.2, train, &mut drop_rng)
            } else {
                stage.apply_composed(&mut tape, &store, xh, 0.2, train, &mut drop_rng)
            };
            assert_eq!(tape.value(y).dims(), &[batch, stage.pooled_nodes(), st.q]);
            out.push(bits(tape.value(y)));
            let r = tape.constant(Tensor::randn(tape.value(y).dims(), 1.0, &mut Rng64::new(7)));
            let prod = tape.mul(y, r);
            loss_terms.push(tape.sum_all(prod));
        }
        let later = tape.tanh(xh);
        loss_terms.push(tape.sum_all(later));
        let mut loss = loss_terms[0];
        for &t in &loss_terms[1..] {
            loss = tape.add(loss, t);
        }
        let grads = tape.backward(loss);
        let dx = (input != Input::Constant)
            .then(|| bits(tape.backward_wrt(loss, &[x])[0].as_ref().unwrap()));
        let params = ["p0.ws", "p0.b", "p1.ws", "p1.b"]
            .iter()
            .map(|&name| {
                let g = grads.get(store.id_of(name).unwrap()).expect("param grad");
                (name.to_string(), bits(g))
            })
            .collect();
        PoolRun {
            out,
            dx,
            params,
            rng_after: drop_rng.next_u64(),
        }
    }

    fn assert_pool_matches_composed(stages: &[Stage], label: &str) {
        for threads in [1, 4] {
            for &st in stages {
                for train in [true, false] {
                    for batch in [1, 3] {
                        for input in [Input::Leaf, Input::Constant, Input::Zeros] {
                            let case = format!(
                                "{label}: threads={threads} {st:?} train={train} batch={batch} {input:?}"
                            );
                            let (fused, composed) =
                                stod_tensor::par::with_forced_threads(threads, || {
                                    (
                                        run_pool(st, batch, train, input, true),
                                        run_pool(st, batch, train, input, false),
                                    )
                                });
                            assert!(fused.out == composed.out, "{case}: forward bits differ");
                            assert!(
                                fused.dx == composed.dx,
                                "{case}: input gradient bits differ"
                            );
                            for ((name, a), (_, b)) in fused.params.iter().zip(&composed.params) {
                                assert!(a == b, "{case}: {name} gradient bits differ");
                            }
                            assert_eq!(
                                fused.rng_after, composed.rng_after,
                                "{case}: dropout draws differ"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pool_matches_composed_bitwise_train_paper_stages() {
        // AfConfig::paper_nyc on the N = 67 NYC-like city: P4 then P2.
        assert_pool_matches_composed(
            &[
                Stage {
                    n: 67,
                    f: 7,
                    q: 32,
                    order: 4,
                    pool: 4,
                    m: 19,
                },
                Stage {
                    n: 19,
                    f: 32,
                    q: 7,
                    order: 2,
                    pool: 2,
                    m: 10,
                },
            ],
            "train_paper",
        );
    }

    #[test]
    fn pool_matches_composed_bitwise_serve_cold_stages() {
        // AfConfig::default on the NYC-like (N = 67) and Chengdu-like
        // (N = 79) cities: P2 then P2.
        assert_pool_matches_composed(
            &[
                Stage {
                    n: 67,
                    f: 7,
                    q: 16,
                    order: 3,
                    pool: 2,
                    m: 35,
                },
                Stage {
                    n: 35,
                    f: 16,
                    q: 7,
                    order: 3,
                    pool: 2,
                    m: 19,
                },
                Stage {
                    n: 79,
                    f: 7,
                    q: 16,
                    order: 3,
                    pool: 2,
                    m: 41,
                },
                Stage {
                    n: 41,
                    f: 16,
                    q: 7,
                    order: 3,
                    pool: 2,
                    m: 23,
                },
            ],
            "serve_cold",
        );
    }

    #[test]
    fn pool_matches_composed_bitwise_pool_one_and_fake_heavy() {
        assert_pool_matches_composed(
            &[
                Stage {
                    n: 23,
                    f: 4,
                    q: 5,
                    order: 3,
                    pool: 1,
                    m: 23,
                },
                Stage {
                    n: 17,
                    f: 6,
                    q: 9,
                    order: 1,
                    pool: 4,
                    m: 9,
                },
                Stage {
                    n: 9,
                    f: 3,
                    q: 4,
                    order: 5,
                    pool: 2,
                    m: 8,
                },
            ],
            "pool 1 / fake-heavy",
        );
    }

    /// Conv outputs or inputs drawn from the values where eval pooling
    /// could go wrong: both zeros, both infinities, NaN, the extremes of
    /// the finite range and a subnormal, beside plain values.
    fn special_values(len: usize, seed: u64) -> Vec<f32> {
        const PALETTE: [f32; 10] = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MAX,
            f32::MIN,
            1e-40,
            1.5,
            -2.0,
        ];
        let mut rng = Rng64::new(seed);
        (0..len)
            .map(|_| PALETTE[rng.next_below(PALETTE.len())])
            .collect()
    }

    #[test]
    fn untracked_pooling_matches_tracked_and_composed_on_special_values() {
        for (pool, n, m) in [(1, 9, 9), (2, 9, 6), (4, 9, 3), (4, 7, 4)] {
            let (bs, q) = (3, 11);
            let st = Stage {
                n,
                f: 1,
                q,
                order: 1,
                pool,
                m,
            };
            let slots = random_order(st, 5 + pool as u64);
            let y = Tensor::from_vec(&[bs, n, q], special_values(bs * n * q, pool as u64));
            let lean = pool_eval(&y, &slots, pool);
            let (tracked, _) = pool_forward(&y, &slots, pool, None, &mut Rng64::new(0));
            let mut tape = Tape::new();
            let r = tape.constant(y.clone());
            let mut composed = tape.relu(r);
            if pool > 1 {
                let zeros = tape.constant(Tensor::zeros(&[bs, 1, q]));
                let padded = tape.concat(&[composed, zeros], 1);
                let gathered = tape.index_select(padded, 1, &slots);
                composed = tape.max_pool_axis(gathered, 1, pool);
            }
            assert_eq!(
                bits(&lean),
                bits(&tracked),
                "pool {pool}: tracked bits differ"
            );
            assert_eq!(
                bits(&lean),
                bits(tape.value(composed)),
                "pool {pool}: composed bits differ"
            );
        }
    }

    /// The output bits of `stage` on `x0` in eval mode, on a no-grad tape
    /// or on a training tape with `x0` as a leaf, plus whether the
    /// recorded node can be differentiated.
    fn eval_stage(
        stage: &ChebyPool,
        store: &ParamStore,
        x0: &Tensor,
        no_grad: bool,
    ) -> (Vec<u32>, bool) {
        let mut tape = if no_grad {
            Tape::no_grad()
        } else {
            Tape::new()
        };
        let x = tape.leaf(x0.clone());
        let y = stage.apply(&mut tape, store, x, 0.2, false, &mut Rng64::new(1));
        assert_eq!(tape.op_counts().get("cheby_pool"), Some(&1));
        (bits(tape.value(y)), tape.requires_grad(y))
    }

    #[test]
    fn no_grad_pool_matches_training_tape_eval_bitwise() {
        let stages = [
            (67, 7, 16, 3, 2, 35),
            (23, 4, 5, 3, 1, 23),
            (17, 6, 9, 2, 4, 9),
            (9, 3, 4, 5, 2, 8),
        ];
        for threads in [1, 4] {
            for (n, f, q, order, pool, m) in stages {
                let st = Stage {
                    n,
                    f,
                    q,
                    order,
                    pool,
                    m,
                };
                let mut store = ParamStore::new();
                let mut rng = Rng64::new(70 + n as u64);
                let l = random_scaled_laplacian(n, n as u64);
                let conv = ChebyConv::new(&mut store, "p", l, order, f, q, &mut rng);
                let stage = ChebyPool::new(conv, random_order(st, 90 + n as u64), pool);
                let id = store.id_of("p.b").unwrap();
                *store.get_mut(id) = Tensor::randn(&[q], 0.3, &mut rng);
                let batch = 3;
                let inputs = [
                    ("random", Tensor::randn(&[batch, n, f], 1.0, &mut rng)),
                    ("zeros", Tensor::zeros(&[batch, n, f])),
                    (
                        "special",
                        Tensor::from_vec(&[batch, n, f], special_values(batch * n * f, n as u64)),
                    ),
                ];
                for (label, x0) in &inputs {
                    let case = format!("threads={threads} {st:?} {label}");
                    let ((lean, lean_grad), (full, full_grad)) =
                        stod_tensor::par::with_forced_threads(threads, || {
                            (
                                eval_stage(&stage, &store, x0, true),
                                eval_stage(&stage, &store, x0, false),
                            )
                        });
                    assert!(lean == full, "{case}: no-grad output bits differ");
                    assert!(!lean_grad, "{case}: the no-grad node has a backward");
                    assert!(full_grad, "{case}: the training node has no backward");
                }
            }
        }
    }

    #[test]
    fn pool_records_one_fused_node() {
        let mut store = ParamStore::new();
        let conv = ChebyConv::new(&mut store, "gc", path3(), 2, 2, 3, &mut Rng64::new(5));
        let stage = ChebyPool::new(conv, vec![2, 0, 1, 3], 2);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[2, 3, 2]));
        let before = tape.len();
        let y = stage.apply(&mut tape, &store, x, 0.5, true, &mut Rng64::new(1));
        assert_eq!(tape.len() - before, 3, "two parameter leaves + one op");
        assert_eq!(tape.value(y).dims(), &[2, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn pool_order_with_a_repeated_node_rejected() {
        let mut store = ParamStore::new();
        let conv = ChebyConv::new(&mut store, "gc", path3(), 2, 1, 1, &mut Rng64::new(0));
        ChebyPool::new(conv, vec![0, 1, 1, 3], 2);
    }
}
