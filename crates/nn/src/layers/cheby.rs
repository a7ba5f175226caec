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
//! (`cheby_conv`, DESIGN.md §5h). Each `T_s` is written straight into its
//! column block of the mixing operand `Z [B·N, S·F]`, and one `Z·W`
//! product and a row-pass bias add finish the layer. Only `Z` and the
//! output stay alive for the backward pass.
//!
//! # One block of slices at a time
//!
//! Both fused ops run their slices (the `B` items of the batch) in
//! blocks, as many as fit [`BLOCK_BYTES`] of `Z` rows plus conv output,
//! so a block's basis, its conv output and everything that reads them
//! stay in cache. The block size is a pure function of the shape. Per
//! block, the recurrence runs on a node-major panel `[N, bb·F]`, so each
//! Chebyshev order is one 2-D product over the block instead of `bb` tiny
//! per-slice products; the block's rows of `Z` are multiplied by `W`
//! through the whole stage's [`Product`], booked once as one `matmul`;
//! and the backward accumulates `dW = Zᵀ·dY` as one reduction whose FMA
//! chains continue from block to block ([`Product::tn_piece`]), sums
//! `db` in row order, and runs `dZ = dY·Wᵀ` and the input recurrence per
//! block.
//!
//! The graph operator is a CSR scaled Laplacian shared through an
//! [`Arc`]: one model builds it once and every layer over that graph
//! holds the same matrix. Propagation is one [`CsrMatrix::spmm_panel`]
//! per Chebyshev order, and the backward pass multiplies by the same
//! matrix again, which is sound because scaled Laplacians are symmetric
//! (the constructor asserts it).
//!
//! The fused op is bitwise identical to the composed layer it replaced —
//! forecasts, input gradients and parameter gradients — at any block
//! size, because:
//!
//! * `spmm_panel` accumulates every output element over its row's stored
//!   entries in column order, whatever the panel width, so a block's
//!   `[N, bb·F]` product reproduces each per-slice product bit for bit;
//! * `T_s` is rounded as scale-then-subtract, as the composed ops did;
//! * every element of `Z·W`, `dY·Wᵀ` and `Zᵀ·dY` is one FMA chain over
//!   its reduction, in order, on the path the whole product's shape
//!   picks (for `dW` the chain runs over all `B·N` rows, resumed at each
//!   block), and `db` adds the rows of `dY` in order from +0.0, as
//!   `sum_axis` did;
//! * each `dT_k` accumulates `slice_k`, then `−dT_{k+2}`, then
//!   `L̃·(2·dT_{k+1})`, and the input is listed as a parent up to three
//!   times so its contributions reach the tape in the old order
//!   `[slice₀, −dT₂, L̃·dT₁]` — which matters when the input has other
//!   consumers, as the GCGRU gates' shared `[X ‖ H]` does.
//!
//! # One tape node per factorization stage
//!
//! [`ChebyPool::apply`] runs a whole stage of the AF spatial
//! factorization (§V-A, Eqs. 5–6) — the conv, relu, inverted dropout, the
//! zero pad for fake slots, the coarsening gather and the max-pool — as
//! one `cheby_pool` tape node that writes only the pooled `[Bs, m, Q]`
//! output. Per block it builds the basis, multiplies it into a
//! block-sized conv output and pools each slice of it while the block is
//! still in cache; the backward scatters the pooled gradient into a
//! block-sized `dY` and hands it to the conv's block backward. No conv
//! output, relu, dropout, pad or gather tensor and no dropout mask ever
//! becomes a tape value. For the backward pass it keeps `Z` and, per
//! pooled slot, one code: the winning node with its dropout and relu
//! factors, or a sentinel when a fake slot won.
//!
//! The fused stage is bitwise identical to the composed chain — outputs,
//! input gradients, parameter gradients and the RNG position — because:
//!
//! * the dropout factors are drawn one per conv-output element, slice
//!   after slice in row-major order, from the same `Rng64`, as
//!   `rng.next_f32() < p`, and eval mode draws nothing;
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
//! keeps no backward state: `Z` is a block-sized scratch buffer too, each
//! slice max-pools `relu(y)` straight into the output with the mask and
//! the winner tracking compiled out of the same scan (`pool_slice`'s
//! `TRACK`), and the stage records a `cheby_pool` node with no backward.
//! The output keeps every bit: the eval factor it skips is exactly 1.0,
//! `relu` never yields NaN, and the same candidates are compared in the
//! same order.
//!
//! The composed layer and the composed chain survive as the test oracles
//! the unit suite compares the fused ops against, bit for bit.

use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use std::sync::Arc;
use stod_tensor::ops::matmul::Product;
use stod_tensor::ops::{elementwise as ew, transform as tf};
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

/// Bytes of `Z` rows plus conv output that one block of slices holds:
/// about a quarter of a 2 MiB per-core L2, so the block's basis, its
/// conv output and the pooling or backward pass that reads them next
/// stay cache-resident (32 slices at `train_paper`'s first stage).
const BLOCK_BYTES: usize = 512 << 10;

/// Slices per block of a conv over `n` nodes with `sf` basis columns and
/// `q` outputs: as many as fit [`BLOCK_BYTES`], at least one, and no more
/// than the `batch` there are. A pure function of the shape, so blocks
/// move only where work runs, never what it computes.
fn block_slices(batch: usize, n: usize, sf: usize, q: usize) -> usize {
    let per_slice = (4 * n * (sf + q)).max(1);
    (BLOCK_BYTES / per_slice).clamp(1, batch.max(1))
}

/// Records `Y = Σ_s T_s·W_s + b` for `x [B, N, F]`, `w [S·F, O]` and
/// `b [O]` as one `cheby_conv` tape node.
fn cheby_conv(tape: &mut Tape, l: &Arc<CsrMatrix>, order: usize, x: Var, w: Var, b: Var) -> Var {
    let (xv, wv, bv) = (tape.value(x), tape.value(w), tape.value(b));
    let (batch, n, f) = (xv.dim(0), xv.dim(1), xv.dim(2));
    let (sf, o) = (order * f, wv.dim(1));
    let bb = block_slices(batch, n, sf, o);
    let fwd = Product::new(batch * n, sf, o);
    let mut z = arena::alloc_raw(batch * n * sf);
    let mut y = arena::alloc_raw(batch * n * o);
    let blocks = z.chunks_mut(bb * n * sf).zip(y.chunks_mut(bb * n * o));
    for (xb, (zb, yb)) in xv.data().chunks(bb * n * f).zip(blocks) {
        conv_block(l, order, xb, wv, bv, &fwd, zb, yb);
    }
    let z = Tensor::from_vec(&[batch * n, sf], z);
    // The input is listed once per contribution it receives, so the tape
    // accumulates them in the composed layer's order.
    let mut parents = vec![x; order.min(3)];
    parents.extend([w, b]);
    let l = Arc::clone(l);
    tape.custom_op(
        "cheby_conv",
        Tensor::from_vec(&[batch, n, o], y),
        &parents,
        Box::new(move |g, ps, _, needs| {
            let mut grads = ConvGrads::new(&l, order, ps, needs, bb);
            let rows = z
                .data()
                .chunks(bb * n * sf)
                .zip(g.data().chunks(bb * n * o));
            for (zb, dyb) in rows {
                grads.block(zb, dyb);
            }
            grads.finish()
        }),
    )
}

/// The conv over one block of slices: the block's input `x [bb·N·F]`,
/// its Chebyshev basis written into `z [bb·N, S·F]` (column block `s`
/// holds `T_s`, batch-major rows), and `y [bb·N, O] = z·W + b`, the
/// block's rows of the stage product `fwd`.
#[allow(clippy::too_many_arguments)] // one block's operands, private to this file
fn conv_block(
    l: &CsrMatrix,
    order: usize,
    x: &[f32],
    w: &Tensor,
    b: &Tensor,
    fwd: &Product,
    z: &mut [f32],
    y: &mut [f32],
) {
    let (n, f) = (l.rows(), w.dim(0) / order);
    let (sf, bb) = (order * f, x.len() / (n * f));
    // T₀ = X is batch-major already: its rows fill block 0 directly.
    for (zr, xr) in z.chunks_exact_mut(sf).zip(x.chunks_exact(f)) {
        zr[..f].copy_from_slice(xr);
    }
    if order > 1 {
        // The recurrence runs on node-major panels [N, bb·F], one 2-D
        // product per order, each T_s scattered into its block of Z.
        let mut panel = arena::alloc_raw(n * bb * f);
        tf::transpose_blocks(x, f, &mut panel, f, bb, n, f);
        let mut prev: Option<Tensor> = None; // T_{s−2}
        let mut cur = Tensor::from_vec(&[n, bb * f], panel); // T_{s−1}
        for s in 1..order {
            let mut t = l.spmm_panel(&cur);
            if let Some(p2) = &prev {
                // 2·L̃·T_{s−1} − T_{s−2}, rounded as scale then subtract.
                for (v, &q) in t.data_mut().iter_mut().zip(p2.data()) {
                    *v = *v * 2.0 - q;
                }
            }
            tf::transpose_blocks(t.data(), f, &mut z[s * f..], sf, n, bb, f);
            prev = Some(std::mem::replace(&mut cur, t));
        }
    }
    fwd.rows(z, w.data(), y);
    for row in y.chunks_exact_mut(w.dim(1)) {
        for (v, &bias) in row.iter_mut().zip(b.data()) {
            *v += bias;
        }
    }
}

/// The conv's gradients for the parents `[x; min(S, 3)], w, b` of
/// [`cheby_conv`] and [`cheby_pool`], accumulated one block of slices at
/// a time, in order, from each block's `Z` rows and conv-output gradient
/// `dY`: `dW = Zᵀ·dY` as one reduction over all rows, `db = Σ_rows dY`,
/// and, when the input needs a gradient, the block's `dZ = dY·Wᵀ` and
/// its input recurrence ([`input_grads`]).
struct ConvGrads<'a> {
    l: &'a CsrMatrix,
    order: usize,
    /// `(B, N, F, O)`.
    dims: (usize, usize, usize, usize),
    /// `Wᵀ [O, S·F]`, the stage's `dZ` product and a block of `dZ`, when
    /// the input needs a gradient.
    dz: Option<(Tensor, Product, Vec<f32>)>,
    /// The input's contributions `[slice₀, −dT₂, L̃·dT₁]` (as many as the
    /// order has), `[B, N, F]` each, when it needs a gradient.
    dx: Vec<Vec<f32>>,
    dw: Option<(Product, Vec<f32>)>,
    db: Option<Vec<f32>>,
    /// Rows of `dY` accumulated so far.
    done: usize,
}

impl<'a> ConvGrads<'a> {
    /// Gradients for the parents `ps` whose `needs` are given, in blocks
    /// of `bb` slices.
    fn new(l: &'a CsrMatrix, order: usize, ps: &[&Tensor], needs: &[bool], bb: usize) -> Self {
        let x_slots = order.min(3);
        let (x, w) = (ps[0], ps[x_slots]);
        let (batch, n, f, o) = (x.dim(0), x.dim(1), x.dim(2), w.dim(1));
        let (rows, sf) = (batch * n, order * f);
        let dz = needs[0].then(|| {
            let wt = tf::transpose(w, 0, 1);
            (wt, Product::new(rows, o, sf), arena::alloc_raw(bb * n * sf))
        });
        let dx = if needs[0] {
            (0..x_slots).map(|_| arena::alloc_raw(rows * f)).collect()
        } else {
            Vec::new()
        };
        ConvGrads {
            l,
            order,
            dims: (batch, n, f, o),
            dz,
            dx,
            dw: needs[x_slots].then(|| (Product::new(sf, rows, o), arena::alloc_raw(sf * o))),
            db: needs[x_slots + 1].then(|| arena::alloc_filled(o, 0.0)),
            done: 0,
        }
    }

    /// Accumulates the next block: its rows `z` of `Z` and `dy` of `dY`.
    fn block(&mut self, z: &[f32], dy: &[f32]) {
        let (_, n, f, o) = self.dims;
        let rows = dy.len() / o;
        if let Some((dw_prod, dw)) = &mut self.dw {
            dw_prod.tn_piece(z, dy, dw, self.done > 0);
        }
        if let Some(db) = &mut self.db {
            for row in dy.chunks_exact(o) {
                for (d, &v) in db.iter_mut().zip(row) {
                    *d += v;
                }
            }
        }
        if let Some((wt, dz_prod, dz)) = &mut self.dz {
            // dZ = dY·Wᵀ, the mixing product's own input gradient.
            let dz = &mut dz[..rows * self.order * f];
            dz_prod.rows(dy, wt.data(), dz);
            let span = self.done * f..(self.done + rows) * f;
            let mut out: Vec<&mut [f32]> =
                self.dx.iter_mut().map(|d| &mut d[span.clone()]).collect();
            input_grads(self.l, self.order, dz, n, f, &mut out);
        }
        self.done += rows;
    }

    /// The gradients, in parent order.
    fn finish(self) -> Vec<Option<Tensor>> {
        let (batch, n, f, o) = self.dims;
        let sf = self.order * f;
        let mut grads: Vec<Option<Tensor>> = if self.dx.is_empty() {
            vec![None; self.order.min(3)]
        } else {
            let to_tensor = |d| Some(Tensor::from_vec(&[batch, n, f], d));
            self.dx.into_iter().map(to_tensor).collect()
        };
        if let Some((_, _, dz)) = self.dz {
            arena::recycle(dz);
        }
        grads.push(self.dw.map(|(_, dw)| Tensor::from_vec(&[sf, o], dw)));
        grads.push(self.db.map(|db| Tensor::from_vec(&[o], db)));
        grads
    }
}

/// One block's input-gradient contributions from its `dZ [bb·N, S·F]`,
/// written into `out` (the block's rows of each contribution) in the
/// order the composed layer's nodes delivered them: `slice₀`, then
/// `−dT₂` (orders ≥ 3), then `L̃·dT₁` (orders ≥ 2).
fn input_grads(
    l: &CsrMatrix,
    order: usize,
    dz: &[f32],
    n: usize,
    f: usize,
    out: &mut [&mut [f32]],
) {
    let sf = order * f;
    let bb = dz.len() / (n * sf);
    // Column block k of dZ as a node-major panel [N, bb·F].
    let slice_panel = |k: usize| -> Tensor {
        let mut p = arena::alloc_raw(n * bb * f);
        tf::transpose_blocks(&dz[k * f..], sf, &mut p, f, bb, n, f);
        Tensor::from_vec(&[n, bb * f], p)
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
    for (o, r) in out[0].chunks_exact_mut(f).zip(dz.chunks_exact(sf)) {
        o.copy_from_slice(&r[..f]);
    }
    // A node-major panel back in the input's batch-major layout.
    if let Some(d2) = d.get_mut(2).and_then(Option::take) {
        tf::transpose_blocks(d2.data(), f, out[1], f, n, bb, f);
        out[1].iter_mut().for_each(|v| *v = -*v);
    }
    if let Some(d1) = d.get(1).and_then(Option::as_ref) {
        let last = out.len() - 1;
        tf::transpose_blocks(l.spmm_panel(d1).data(), f, out[last], f, n, bb, f);
    }
}

/// Largest node count whose winner codes stay exact in an `f32`.
const MAX_POOL_NODES: usize = 1 << 22;

/// The winner code of a candidate from node `node` (`base = node·4` as an
/// `f32`) with dropout factor `f` and conv output `v`: `node·4 + 2·kept +
/// positive`, an integer below 2²⁴ and so exact in an `f32`. A fake slot
/// of an `N`-node slice codes as `N·4`: node `N`, dropped, not positive,
/// which no real node's decode in [`unpool`] claims.
#[inline(always)]
fn winner_code(base: f32, f: f32, v: f32) -> f32 {
    base + if f != 0.0 { 2.0 } else { 0.0 } + if v > 0.0 { 1.0 } else { 0.0 }
}

/// Features per register block of the pooling loop: one 256-bit vector
/// of running maxima and one of winner codes.
const LANES: usize = 8;

/// Register blocks the AVX2 scan keeps in flight per window: four
/// independent compare-select chains hide each one's latency.
const BLOCKS: usize = 4;

/// Max-pools one window over all `Q` features of a slice's conv output
/// `yb [N, Q]` into `best [Q]`, and with `TRACK` the winner codes into
/// `won [Q]`. With `AVX2` it scans up to `BLOCKS·LANES` features per pass
/// ([`pool_lanes_avx2`]), else one feature block at a time
/// ([`pool_block`]), the last block narrower when `Q` is not a multiple.
#[inline(always)]
fn pool_window<const TRACK: bool, const AVX2: bool>(
    window: &[usize],
    yb: &[f32],
    mask: &[f32],
    q: usize,
    best: &mut [f32],
    won: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if AVX2 {
        for j0 in (0..q).step_by(BLOCKS * LANES) {
            let j1 = q.min(j0 + BLOCKS * LANES);
            let (b, w) = (&mut best[j0..j1], won.get_mut(j0..j1).unwrap_or_default());
            // SAFETY: `AVX2` is true only in `pool_slice`'s `wide`, which
            // runs after `host_has_avx2()`.
            unsafe {
                match (j1 - j0).div_ceil(LANES) {
                    1 => pool_lanes_avx2::<TRACK, 1>(window, yb, mask, q, j0, b, w),
                    2 => pool_lanes_avx2::<TRACK, 2>(window, yb, mask, q, j0, b, w),
                    3 => pool_lanes_avx2::<TRACK, 3>(window, yb, mask, q, j0, b, w),
                    _ => pool_lanes_avx2::<TRACK, 4>(window, yb, mask, q, j0, b, w),
                }
            }
        }
        return;
    }
    for j0 in (0..q).step_by(LANES) {
        let j1 = q.min(j0 + LANES);
        let won = won.get_mut(j0..j1).unwrap_or_default();
        pool_block::<TRACK>(window, yb, mask, q, j0, &mut best[j0..j1], won);
    }
}

/// Max-pools one window over the features `j0..j0 + best.len()` of a
/// slice's conv output `yb [N, Q]`, the candidates `relu(y)·mask` with
/// `TRACK` and `relu(y)` without, into `best` and, with `TRACK`, the
/// winner codes ([`winner_code`]) into `won`. A candidate replaces the
/// running max only when strictly larger, so the first of equal
/// candidates wins and NaN never does; a fake slot (node `N`) is +0.0.
/// Without `TRACK` the mask is not read and no codes are formed: the eval
/// scan keeps only the compare-select of the max.
#[inline(always)]
fn pool_block<const TRACK: bool>(
    window: &[usize],
    yb: &[f32],
    mask: &[f32],
    q: usize,
    j0: usize,
    best: &mut [f32],
    won: &mut [f32],
) {
    let n = yb.len() / q;
    let fake = (n << 2) as f32;
    best.fill(f32::NEG_INFINITY);
    won.fill(fake);
    for &node in window {
        for (l, b) in best.iter_mut().enumerate() {
            let (cand, code) = if node == n {
                (0.0, fake)
            } else {
                let (v, f) = (
                    yb[node * q + j0 + l],
                    if TRACK { mask[node * q + j0 + l] } else { 1.0 },
                );
                (
                    ew::relu_scalar(v) * f,
                    winner_code((node << 2) as f32, f, v),
                )
            };
            if cand > *b {
                *b = cand;
                if TRACK {
                    won[l] = code;
                }
            }
        }
    }
}

/// [`pool_block`] on AVX2 over the `NB` feature blocks from `j0`
/// (`best.len()` features, the last block possibly narrower): one 256-bit
/// compare-select per candidate and block. The candidates, their order
/// and every operation are the same and exact (a strict ordered compare,
/// `relu` as a mask of `y > 0`, one product, integer-valued code sums),
/// so the bits are too. Lanes past `best.len()` load as 0.0 and are not
/// stored.
///
/// # Safety
/// Requires AVX2, `best.len()` in `(NB − 1)·LANES + 1 ..= NB·LANES`
/// and, with `TRACK`, `won.len() == best.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // one window's operands
unsafe fn pool_lanes_avx2<const TRACK: bool, const NB: usize>(
    window: &[usize],
    yb: &[f32],
    mask: &[f32],
    q: usize,
    j0: usize,
    best: &mut [f32],
    won: &mut [f32],
) {
    use std::arch::x86_64::*;
    let (n, width) = (yb.len() / q, best.len());
    debug_assert!(width > (NB - 1) * LANES && width <= NB * LANES);
    debug_assert!(!TRACK || won.len() == width);
    // Blocks before the last are full; the last reads `tail` lanes.
    let ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let tail = _mm256_cmpgt_epi32(_mm256_set1_epi32((width - (NB - 1) * LANES) as i32), ids);
    let load = |p: *const f32, k: usize| {
        if k + 1 < NB {
            _mm256_loadu_ps(p.add(k * LANES))
        } else {
            _mm256_maskload_ps(p.add(k * LANES), tail)
        }
    };
    let zero = _mm256_setzero_ps();
    let fake = _mm256_set1_ps((n << 2) as f32);
    let mut b = [_mm256_set1_ps(f32::NEG_INFINITY); NB];
    let mut w = [fake; NB];
    for &node in window {
        if node == n {
            for k in 0..NB {
                let take = _mm256_cmp_ps::<_CMP_GT_OQ>(zero, b[k]);
                b[k] = _mm256_blendv_ps(b[k], zero, take);
                w[k] = _mm256_blendv_ps(w[k], fake, take);
            }
            continue;
        }
        let at = node * q + j0;
        let row = yb[at..at + width].as_ptr();
        let factors = if TRACK {
            mask[at..at + width].as_ptr()
        } else {
            row
        };
        let base = _mm256_set1_ps((node << 2) as f32);
        for k in 0..NB {
            let v = load(row, k);
            let positive = _mm256_cmp_ps::<_CMP_GT_OQ>(v, zero);
            let relu = _mm256_and_ps(v, positive);
            let cand = if TRACK {
                _mm256_mul_ps(relu, load(factors, k))
            } else {
                relu
            };
            let take = _mm256_cmp_ps::<_CMP_GT_OQ>(cand, b[k]);
            b[k] = _mm256_blendv_ps(b[k], cand, take);
            if TRACK {
                let kept = _mm256_cmp_ps::<_CMP_NEQ_UQ>(load(factors, k), zero);
                let code = _mm256_add_ps(
                    _mm256_add_ps(base, _mm256_and_ps(kept, _mm256_set1_ps(2.0))),
                    _mm256_and_ps(positive, _mm256_set1_ps(1.0)),
                );
                w[k] = _mm256_blendv_ps(w[k], code, take);
            }
        }
    }
    for k in 0..NB {
        let (bp, wp) = (
            best.as_mut_ptr().add(k * LANES),
            won.as_mut_ptr().add(k * LANES),
        );
        if k + 1 < NB {
            _mm256_storeu_ps(bp, b[k]);
            if TRACK {
                _mm256_storeu_ps(wp, w[k]);
            }
        } else {
            _mm256_maskstore_ps(bp, tail, b[k]);
            if TRACK {
                _mm256_maskstore_ps(wp, tail, w[k]);
            }
        }
    }
}

/// Records one spatial-factorization stage — conv, relu, inverted
/// dropout, zero pad, coarsening gather and max-pool — as one
/// `cheby_pool` tape node over `x [Bs, N, F]`, `w` and `b`, one block of
/// slices at a time. An eval stage that nothing can differentiate keeps
/// no backward state.
fn cheby_pool(
    tape: &mut Tape,
    stage: &ChebyPool,
    x: Var,
    w: Var,
    b: Var,
    dropout: Option<f32>,
    rng: &mut Rng64,
) -> Var {
    let (l, order, slots, pool) = (&stage.conv.l, stage.conv.order, &stage.order, stage.pool);
    // The parents of `cheby_conv`, so the input's contributions reach the
    // tape in the same order.
    let mut parents = vec![x; order.min(3)];
    parents.extend([w, b]);
    let track = dropout.is_some() || parents.iter().any(|&p| tape.requires_grad(p));
    let (xv, wv, bv) = (tape.value(x), tape.value(w), tape.value(b));
    let (bs, n, f) = (xv.dim(0), xv.dim(1), xv.dim(2));
    let (sf, q, m) = (order * f, wv.dim(1), slots.len() / pool);
    let bb = block_slices(bs, n, sf, q);
    let fwd = Product::new(bs * n, sf, q);
    let avx2 = host_has_avx2();
    // The conv output of one block, pooled while it is still in cache.
    let mut y = arena::alloc_raw(bb * n * q);
    let mut pooled = arena::alloc_raw(bs * m * q);
    let x_blocks = xv.data().chunks(bb * n * f);
    if !track {
        // Nothing can differentiate the output: `Z` is block scratch too.
        let mut z = arena::alloc_raw(bb * n * sf);
        for (xb, ob) in x_blocks.zip(pooled.chunks_mut(bb * m * q)) {
            let rows = xb.len() / f;
            let yb = &mut y[..rows * q];
            conv_block(l, order, xb, wv, bv, &fwd, &mut z[..rows * sf], yb);
            for (ys, os) in yb.chunks_exact(n * q).zip(ob.chunks_exact_mut(m * q)) {
                pool_slice::<false>(avx2, ys, &[], slots, pool, q, os, &mut []);
            }
        }
        arena::recycle(z);
        arena::recycle(y);
        let pooled = Tensor::from_vec(&[bs, m, q], pooled);
        return tape.custom_op_no_grad("cheby_pool", pooled, &parents);
    }
    let mut z = arena::alloc_raw(bs * n * sf);
    let mut codes = arena::alloc_raw(bs * m * q);
    // Eval mode multiplies by 1.0, which is exact: relu never yields NaN.
    let mut mask = arena::alloc_filled(n * q, 1.0);
    let dropping = dropout.map(|p| (p, keep_scale(p)));
    let outs = pooled
        .chunks_mut(bb * m * q)
        .zip(codes.chunks_mut(bb * m * q));
    for ((xb, zb), (ob, cb)) in x_blocks.zip(z.chunks_mut(bb * n * sf)).zip(outs) {
        let yb = &mut y[..xb.len() / f * q];
        conv_block(l, order, xb, wv, bv, &fwd, zb, yb);
        let slices = ob.chunks_exact_mut(m * q).zip(cb.chunks_exact_mut(m * q));
        for (ys, (os, cs)) in yb.chunks_exact(n * q).zip(slices) {
            if let Some((p, scale)) = dropping {
                draw_factors(rng, p, scale, &mut mask);
            }
            pool_slice::<true>(avx2, ys, &mask, slots, pool, q, os, cs);
        }
    }
    arena::recycle(y);
    arena::recycle(mask);
    let z = Tensor::from_vec(&[bs * n, sf], z);
    let codes = Tensor::from_vec(&[bs, m, q], codes);
    let scale = dropout.map(keep_scale);
    let (l, windows) = (Arc::clone(l), Arc::clone(&stage.windows));
    tape.custom_op(
        "cheby_pool",
        Tensor::from_vec(&[bs, m, q], pooled),
        &parents,
        Box::new(move |g, ps, _, needs| {
            let mut grads = ConvGrads::new(&l, order, ps, needs, bb);
            let mut dy = arena::alloc_raw(bb * n * q);
            let pooled_rows = g
                .data()
                .chunks(bb * m * q)
                .zip(codes.data().chunks(bb * m * q));
            for (zb, (gb, cb)) in z.data().chunks(bb * n * sf).zip(pooled_rows) {
                let dy = &mut dy[..zb.len() / sf * q];
                unpool_block(avx2, &windows, pool, scale, q, gb, cb, dy);
                grads.block(zb, dy);
            }
            arena::recycle(dy);
            grads.finish()
        }),
    )
}

/// Draws one slice's inverted-dropout factors into `mask`, one draw per
/// element in order: 0.0 where `rng.next_f32() < p`, else `scale`. The
/// draws come 64 at a time and each is compared with `p` as an integer:
/// `next_f32()` is `(u >> 40)·2⁻²⁴` exactly, and the integer `u >> 40`
/// times 2⁻²⁴ is below `p` exactly when it is below `⌈p·2²⁴⌉`, so the
/// factors and the stream position are those of one draw at a time.
fn draw_factors(rng: &mut Rng64, p: f32, scale: f32, mask: &mut [f32]) {
    let below = (f64::from(p) * f64::from(1u32 << 24)).ceil() as u64;
    let mut draws = [0u64; 64];
    for chunk in mask.chunks_mut(64) {
        let draws = &mut draws[..chunk.len()];
        draws.iter_mut().for_each(|u| *u = rng.next_u64());
        for (v, &u) in chunk.iter_mut().zip(draws.iter()) {
            *v = if u >> 40 < below { 0.0 } else { scale };
        }
    }
}

/// The factor that inverted dropout at rate `p` gives a kept element,
/// computed as `Tape::dropout` does.
fn keep_scale(p: f32) -> f32 {
    let keep = 1.0 - p;
    1.0 / keep
}

/// Whether this host has AVX2, which the pooling scans
/// ([`pool_lanes_avx2`]) and the gradient scatter use when their caller
/// allows it.
fn host_has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Relu, inverted dropout, zero pad, gather and max-pool of one slice's
/// conv output `ys [N, Q]` into the pooled `os [m, Q]`, on AVX2 when
/// `avx2` allows it and the host has it. With `TRACK` the candidates are `relu(y)·mask`, with the
/// slice's dropout factors `mask [N, Q]` (all 1.0 in eval mode), and the
/// winner codes ([`winner_code`]) go to `ws [m, Q]`. Without `TRACK` —
/// eval mode with nothing to differentiate — they are `relu(y)` and
/// `mask` and `ws` are not read or written: every factor would be
/// exactly 1.0 and relu never yields NaN, so every candidate and every
/// output bit is the same.
///
/// A pooled slot takes the first candidate strictly above the best so
/// far, from −∞ in window order; a fake slot is +0.0. At `pool == 1`
/// nothing is gathered or pooled: every element is its own winner.
#[allow(clippy::too_many_arguments)] // one slice's operands
fn pool_slice<const TRACK: bool>(
    avx2: bool,
    ys: &[f32],
    mask: &[f32],
    slots: &[usize],
    pool: usize,
    q: usize,
    os: &mut [f32],
    ws: &mut [f32],
) {
    if pool == 1 {
        for (i, (o, &v)) in os.iter_mut().zip(ys).enumerate() {
            if TRACK {
                *o = ew::relu_scalar(v) * mask[i];
                ws[i] = winner_code(((i / q) << 2) as f32, mask[i], v);
            } else {
                *o = ew::relu_scalar(v);
            }
        }
        return;
    }
    /// Every window of the slice, through [`pool_window`].
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // one slice's operands
    fn scan<const TRACK: bool, const AVX2: bool>(
        ys: &[f32],
        mask: &[f32],
        slots: &[usize],
        pool: usize,
        q: usize,
        os: &mut [f32],
        ws: &mut [f32],
    ) {
        for (j, window) in slots.chunks_exact(pool).enumerate() {
            let won = ws.get_mut(j * q..(j + 1) * q).unwrap_or_default();
            pool_window::<TRACK, AVX2>(window, ys, mask, q, &mut os[j * q..(j + 1) * q], won);
        }
    }
    #[cfg(target_arch = "x86_64")]
    if avx2 && host_has_avx2() {
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)] // one slice's operands
        unsafe fn wide<const TRACK: bool>(
            ys: &[f32],
            mask: &[f32],
            slots: &[usize],
            pool: usize,
            q: usize,
            os: &mut [f32],
            ws: &mut [f32],
        ) {
            scan::<TRACK, true>(ys, mask, slots, pool, q, os, ws);
        }
        // SAFETY: the host has AVX2, checked just above.
        return unsafe { wide::<TRACK>(ys, mask, slots, pool, q, os, ws) };
    }
    let _ = avx2;
    scan::<TRACK, false>(ys, mask, slots, pool, q, os, ws);
}

/// Marks a node that no pooling window names: its gradient is +0.0.
const NO_WINDOW: usize = usize::MAX;

/// The window (pooled row) of each of the `n` nodes in a pooling `order`
/// of `pool` slots per window, or [`NO_WINDOW`].
fn node_windows(order: &[usize], pool: usize, n: usize) -> Vec<usize> {
    let mut windows = vec![NO_WINDOW; n];
    for (slot, &node) in order.iter().enumerate() {
        if node < n {
            windows[node] = slot / pool;
        }
    }
    windows
}

/// The conv-output gradient `dy [bb·N, Q]` of a block of slices from
/// their pooled gradient `g [bb·m, Q]` and winner codes `codes`, written
/// node row by node row: node `i` reads its window's row and gets
/// `((0.0 + g)·mask)·relu'` in each feature whose code names it — the
/// composed chain's scatter-adds then products, in their order — and
/// +0.0 in every other (the order names each real node at most once).
/// At `pool == 1` there is no scatter, so no `0.0 +`; eval mode (`scale`
/// `None`) has no dropout factor. When `avx2` allows it and the host
/// has AVX2, the same loop runs compiled for AVX2.
#[allow(clippy::too_many_arguments)] // one block's operands
fn unpool_block(
    avx2: bool,
    windows: &[usize],
    pool: usize,
    scale: Option<f32>,
    q: usize,
    g: &[f32],
    codes: &[f32],
    dy: &mut [f32],
) {
    fn run<const SCATTER: bool, const DROP: bool>(avx2: bool, u: &Unpool, dy: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if avx2 && host_has_avx2() {
            #[target_feature(enable = "avx2")]
            unsafe fn wide<const SCATTER: bool, const DROP: bool>(u: &Unpool, dy: &mut [f32]) {
                unpool::<SCATTER, DROP>(u, dy);
            }
            // SAFETY: the host has AVX2, checked just above.
            return unsafe { wide::<SCATTER, DROP>(u, dy) };
        }
        let _ = avx2;
        unpool::<SCATTER, DROP>(u, dy);
    }
    let u = Unpool {
        windows,
        scale: scale.unwrap_or(1.0),
        q,
        g,
        codes,
    };
    match (pool > 1, scale.is_some()) {
        (true, true) => run::<true, true>(avx2, &u, dy),
        (true, false) => run::<true, false>(avx2, &u, dy),
        (false, true) => run::<false, true>(avx2, &u, dy),
        (false, false) => run::<false, false>(avx2, &u, dy),
    }
}

/// The read-only operands of one block's [`unpool`].
struct Unpool<'a> {
    windows: &'a [usize],
    scale: f32,
    q: usize,
    g: &'a [f32],
    codes: &'a [f32],
}

/// The loop of [`unpool_block`], with its `0.0 +` (`SCATTER`) and its
/// dropout factor (`DROP`) fixed per stage. A code minus `4·i` is
/// `2·kept + positive` in `0..4` exactly where node `i` won (every code
/// is an integer below 2²⁴), so the decode is three compares and three
/// selects per feature, without a branch.
#[inline(always)]
fn unpool<const SCATTER: bool, const DROP: bool>(u: &Unpool, dy: &mut [f32]) {
    let (windows, q) = (u.windows, u.q);
    let slice = windows.len() * q;
    let pooled = u.g.len() / (dy.len() / slice).max(1);
    let slices = dy.chunks_exact_mut(slice);
    let rows = u.g.chunks_exact(pooled).zip(u.codes.chunks_exact(pooled));
    for (dys, (gs, cs)) in slices.zip(rows) {
        for (i, (out, &row)) in dys.chunks_exact_mut(q).zip(windows).enumerate() {
            if row == NO_WINDOW {
                out.fill(0.0);
                continue;
            }
            let (gr, cr) = (&gs[row * q..(row + 1) * q], &cs[row * q..(row + 1) * q]);
            let base = (i << 2) as f32;
            for ((o, &gv), &code) in out.iter_mut().zip(gr).zip(cr) {
                let r = code - base;
                let mut d = if SCATTER { 0.0 + gv } else { gv };
                if DROP {
                    d *= if r >= 2.0 { u.scale } else { 0.0 };
                }
                d *= if r == 1.0 || r == 3.0 { 1.0 } else { 0.0 };
                *o = if (0.0..4.0).contains(&r) { d } else { 0.0 };
            }
        }
    }
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
    /// Each node's window in `order` ([`node_windows`]), which the
    /// backward reads its pooled gradient from.
    windows: Arc<[usize]>,
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
        let windows = node_windows(&order, pool, n).into();
        ChebyPool {
            conv,
            order,
            pool,
            windows,
        }
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
        cheby_pool(tape, self, x, ws, b, dropout, rng)
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

    /// Batch sizes around a stage's block size `B`: `B−1, B, B+1, 2B+3`,
    /// so the last block is short by one, full, one slice long, or the
    /// third after two full ones.
    fn block_edges(st: Stage) -> Vec<usize> {
        let b = block_slices(usize::MAX, st.n, st.order * st.f, st.q);
        let edges = [b - 1, b, b + 1, 2 * b + 3];
        edges.into_iter().filter(|&batch| batch > 0).collect()
    }

    /// Runs every case of [`run_pool`] fused and composed at batches 1
    /// and 3 and, with `across_blocks`, at each stage's [`block_edges`].
    fn assert_pool_matches_composed(stages: &[Stage], label: &str, across_blocks: bool) {
        for threads in [1, 4] {
            for &st in stages {
                let mut batches = vec![1, 3];
                if across_blocks {
                    batches.extend(block_edges(st));
                }
                for train in [true, false] {
                    for &batch in &batches {
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
            true,
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
            false,
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
            false,
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
    fn pooling_scans_match_each_other_and_composed_on_special_values() {
        // Q = 11: one full 8-lane block and a 3-wide tail. The portable
        // scan runs on every host, the AVX2 one where the host has it.
        let paths: &[bool] = if host_has_avx2() {
            &[false, true]
        } else {
            &[false]
        };
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
            let mut rng = Rng64::new(pool as u64);
            let dropped: Vec<f32> = (0..n * q)
                .map(|_| if rng.next_f32() < 0.3 { 0.0 } else { 1.25 })
                .collect();
            let ones = vec![1.0; n * q];
            // Per path: the eval scan, and the tracked scan's outputs and
            // codes with factors of one and with dropout factors.
            let runs: Vec<[Vec<u32>; 5]> = paths
                .iter()
                .map(|&simd| {
                    let mut lean = vec![0.0; bs * m * q];
                    let mut outs = [vec![0.0; bs * m * q], vec![0.0; bs * m * q]];
                    let mut codes = [vec![0.0; bs * m * q], vec![0.0; bs * m * q]];
                    for (s, ys) in y.data().chunks_exact(n * q).enumerate() {
                        let at = s * m * q..(s + 1) * m * q;
                        pool_slice::<false>(
                            simd,
                            ys,
                            &[],
                            &slots,
                            pool,
                            q,
                            &mut lean[at.clone()],
                            &mut [],
                        );
                        for (k, mask) in [&ones, &dropped].into_iter().enumerate() {
                            let (o, w) = (&mut outs[k][at.clone()], &mut codes[k][at.clone()]);
                            pool_slice::<true>(simd, ys, mask, &slots, pool, q, o, w);
                        }
                    }
                    let b = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    [
                        b(&lean),
                        b(&outs[0]),
                        b(&codes[0]),
                        b(&outs[1]),
                        b(&codes[1]),
                    ]
                })
                .collect();
            let mut tape = Tape::new();
            let r = tape.constant(y.clone());
            let mut composed = tape.relu(r);
            if pool > 1 {
                let zeros = tape.constant(Tensor::zeros(&[bs, 1, q]));
                let padded = tape.concat(&[composed, zeros], 1);
                let gathered = tape.index_select(padded, 1, &slots);
                composed = tape.max_pool_axis(gathered, 1, pool);
            }
            let portable = &runs[0];
            assert_eq!(
                portable[0],
                bits(tape.value(composed)),
                "pool {pool}: composed bits differ"
            );
            assert_eq!(portable[0], portable[1], "pool {pool}: tracked bits differ");
            for run in &runs[1..] {
                assert!(
                    run == portable,
                    "pool {pool}: the AVX2 scan differs from the portable one"
                );
            }
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
        // Batch 3 at assorted shapes; train_paper's two stages across
        // their block edges.
        let stages = [
            (67, 7, 16, 3, 2, 35, false),
            (23, 4, 5, 3, 1, 23, false),
            (17, 6, 9, 2, 4, 9, false),
            (9, 3, 4, 5, 2, 8, false),
            (67, 7, 32, 4, 4, 19, true),
            (19, 32, 7, 2, 2, 10, true),
        ];
        for threads in [1, 4] {
            for (n, f, q, order, pool, m, across_blocks) in stages {
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
                let batches = if across_blocks {
                    block_edges(st)
                } else {
                    vec![3]
                };
                for batch in batches {
                    let inputs = [
                        ("random", Tensor::randn(&[batch, n, f], 1.0, &mut rng)),
                        ("zeros", Tensor::zeros(&[batch, n, f])),
                        (
                            "special",
                            Tensor::from_vec(
                                &[batch, n, f],
                                special_values(batch * n * f, n as u64),
                            ),
                        ),
                    ];
                    for (label, x0) in &inputs {
                        let case = format!("threads={threads} {st:?} batch={batch} {label}");
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
    }

    #[test]
    fn dropout_factors_match_one_draw_at_a_time() {
        // Rates on and off the 2⁻²⁴ grid, tiny and near one, over lengths
        // that end inside and on a 64-draw batch.
        let rates = [0.2, 0.5, 1e-9, 0.999_999_9, 3.0 / 16_777_216.0, 0.05];
        for (i, &p) in rates.iter().enumerate() {
            for len in [1, 63, 64, 65, 2144] {
                let scale = keep_scale(p);
                let (mut batched, mut single) = (Rng64::new(i as u64), Rng64::new(i as u64));
                let mut got = vec![f32::NAN; len];
                draw_factors(&mut batched, p, scale, &mut got);
                let want: Vec<f32> = (0..len)
                    .map(|_| if single.next_f32() < p { 0.0 } else { scale })
                    .collect();
                assert_eq!(bits_of(&got), bits_of(&want), "p={p} len={len}");
                assert_eq!(batched.next_u64(), single.next_u64(), "p={p} len={len}");
            }
        }
    }

    fn bits_of(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
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
