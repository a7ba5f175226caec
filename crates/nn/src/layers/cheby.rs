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
//! (`cheby_conv`, DESIGN.md §5b). The recurrence runs on node-major
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
//!   `matmul` and `sum_axis` calls, accumulates each `dT_k` as `slice_k`,
//!   then `−dT_{k+2}`, then `L̃·(2·dT_{k+1})`, and lists the input as a
//!   parent up to three times so its contributions reach the tape in the
//!   old order `[slice₀, −dT₂, L̃·dT₁]` — which matters when the input has
//!   other consumers, as the GCGRU gates' shared `[X ‖ H]` does.
//!
//! The composed layer survives as the test oracle the unit suite compares
//! the fused op against, bit for bit.

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
        Box::new(move |g, ps, _, needs| backward(&l, order, &z, g, ps, needs)),
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
/// `[x; min(S, 3)], w, b` of [`cheby_conv`].
fn backward(
    l: &CsrMatrix,
    order: usize,
    z: &Tensor,
    g: &Tensor,
    ps: &[&Tensor],
    needs: &[bool],
) -> Vec<Option<Tensor>> {
    let x_slots = order.min(3);
    let (x, w) = (ps[0], ps[x_slots]);
    let (batch, n, f) = (x.dim(0), x.dim(1), x.dim(2));
    let dy = g.reshape(&[batch * n, w.dim(1)]);
    let mut grads = if needs[0] {
        // dZ = dY·Wᵀ, the mixing matmul's own input gradient.
        let dz = mm::matmul(&dy, &tf::transpose(w, 0, 1));
        input_grads(l, order, &dz, batch, n, f)
    } else {
        vec![None; x_slots]
    };
    grads.push(needs[x_slots].then(|| mm::matmul(&tf::transpose(z, 0, 1), &dy)));
    grads.push(needs[x_slots + 1].then(|| stod_tensor::sum_axis(&dy, 0, false)));
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
    out_feat: usize,
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
            out_feat,
        }
    }

    /// Number of graph nodes the layer operates on.
    pub fn num_nodes(&self) -> usize {
        self.l.rows()
    }

    /// Chebyshev order `S`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Input feature dimension.
    pub fn in_feat(&self) -> usize {
        self.in_feat
    }

    /// Output feature dimension.
    pub fn out_feat(&self) -> usize {
        self.out_feat
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
        tape.reshape(y, &[batch, n, self.out_feat])
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
}
