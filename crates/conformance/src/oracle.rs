//! Reference oracles: deliberately naive, obviously-correct serial
//! re-implementations of the workspace's hot kernels.
//!
//! Everything here is written as the textbook triple loop over plain
//! slices, accumulating in `f64`, with **no** dependency on
//! `stod_tensor::par` (or even on `Tensor`) — so a bug in the production
//! kernels, their parallel dispatch, or the tensor layout cannot also hide
//! in the oracle. Besides values, each oracle reports the accumulated
//! magnitude `Σ |terms|` per output element, which the ULP-aware
//! comparison in [`crate::ulp`] uses as the natural scale of legitimate
//! `f32` rounding.

/// An oracle result: exact-ish values plus per-element magnitude sums.
#[derive(Debug, Clone)]
pub struct OracleOut {
    /// `f64`-accumulated reference values.
    pub values: Vec<f64>,
    /// Per-element `Σ |terms|` magnitude (error scale for comparison).
    pub mags: Vec<f64>,
}

/// `a (m×k) · b (k×n)` by the textbook i-j-k triple loop.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> OracleOut {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut values = vec![0.0f64; m * n];
    let mut mags = vec![0.0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            let mut mag = 0.0f64;
            for p in 0..k {
                let t = a[i * k + p] as f64 * b[p * n + j] as f64;
                acc += t;
                mag += t.abs();
            }
            values[i * n + j] = acc;
            mags[i * n + j] = mag;
        }
    }
    OracleOut { values, mags }
}

/// `a (m×k) · x (k)`.
pub fn matvec(a: &[f32], x: &[f32], m: usize, k: usize) -> OracleOut {
    assert_eq!(a.len(), m * k);
    assert_eq!(x.len(), k);
    let mut values = vec![0.0f64; m];
    let mut mags = vec![0.0f64; m];
    for i in 0..m {
        let mut acc = 0.0f64;
        let mut mag = 0.0f64;
        for p in 0..k {
            let t = a[i * k + p] as f64 * x[p] as f64;
            acc += t;
            mag += t.abs();
        }
        values[i] = acc;
        mags[i] = mag;
    }
    OracleOut { values, mags }
}

/// Strided dot `Σ_p a[p·lda] · b[p·ldb]` over `len` terms — the reference
/// for the transposed-layout dot kernels the sparse recovery path reads
/// factor tensors with. Returns `(value, Σ |terms|)`.
pub fn dot_strided(a: &[f32], lda: usize, b: &[f32], ldb: usize, len: usize) -> (f64, f64) {
    let mut acc = 0.0f64;
    let mut mag = 0.0f64;
    for p in 0..len {
        let t = a[p * lda] as f64 * b[p * ldb] as f64;
        acc += t;
        mag += t.abs();
    }
    (acc, mag)
}

/// Sparse-pattern matrix × dense panel: `out[b, i, f] = Σ_{j : w[i,j] ≠ 0}
/// w[i,j] · x[b, j, f]` — the reference for `CsrMatrix::spmm_panel`. The
/// sum skips exactly the entries CSR storage drops, so a signed zero that
/// `from_dense` canonicalizes away cannot contribute a `-0.0` term the
/// production kernel never sees.
pub fn spmm(w: &[f32], x: &[f32], n: usize, batch: usize, feat: usize) -> OracleOut {
    assert_eq!(w.len(), n * n);
    assert_eq!(x.len(), batch * n * feat);
    let mut values = vec![0.0f64; batch * n * feat];
    let mut mags = vec![0.0f64; batch * n * feat];
    for b in 0..batch {
        for i in 0..n {
            for j in 0..n {
                let a = w[i * n + j];
                if a == 0.0 {
                    continue;
                }
                for f in 0..feat {
                    let t = a as f64 * x[(b * n + j) * feat + f] as f64;
                    values[(b * n + i) * feat + f] += t;
                    mags[(b * n + i) * feat + f] += t.abs();
                }
            }
        }
    }
    OracleOut { values, mags }
}

/// Batched `[batch, m, k] · [batch, k, n]`; a `batch` of 0 on either side
/// means that operand is a single 2-D matrix broadcast across the other's
/// batch (mirroring `stod_tensor::batched_matmul`'s broadcasting rule).
#[allow(clippy::too_many_arguments)]
pub fn batched_matmul(
    a: &[f32],
    b: &[f32],
    batch: usize,
    a_broadcast: bool,
    b_broadcast: bool,
    m: usize,
    k: usize,
    n: usize,
) -> OracleOut {
    let mut values = vec![0.0f64; batch * m * n];
    let mut mags = vec![0.0f64; batch * m * n];
    for t in 0..batch {
        let a_off = if a_broadcast { 0 } else { t * m * k };
        let b_off = if b_broadcast { 0 } else { t * k * n };
        let one = matmul(&a[a_off..a_off + m * k], &b[b_off..b_off + k * n], m, k, n);
        values[t * m * n..(t + 1) * m * n].copy_from_slice(&one.values);
        mags[t * m * n..(t + 1) * m * n].copy_from_slice(&one.mags);
    }
    OracleOut { values, mags }
}

/// The Chebyshev basis `T_s` of Eq. 5 and `Y = Σ_s T_s·W_s + b`, with
/// magnitudes floored at `f32::MIN_POSITIVE`.
struct ChebyForward {
    t: Vec<Vec<f64>>,
    tm: Vec<Vec<f64>>,
    y: Vec<f64>,
    ym: Vec<f64>,
}

/// One Cheby-Net problem: `L̃ [N, N]`, `W [S·F, O]` and the extents.
struct ChebyShape<'a> {
    l: &'a [f32],
    w: &'a [f32],
    batch: usize,
    n: usize,
    f: usize,
    order: usize,
    out: usize,
}

impl ChebyShape<'_> {
    /// (L̃ or L̃ᵀ)·v per batch item over the node axis, with its magnitude.
    fn prop(&self, v: &[f64], m: &[f64], transpose: bool) -> (Vec<f64>, Vec<f64>) {
        let (batch, n, f, l) = (self.batch, self.n, self.f, self.l);
        let mut pv = vec![0.0f64; batch * n * f];
        let mut pm = vec![0.0f64; batch * n * f];
        for b in 0..batch {
            for i in 0..n {
                for j in 0..n {
                    let lij = if transpose {
                        l[j * n + i]
                    } else {
                        l[i * n + j]
                    } as f64;
                    for c in 0..f {
                        let (dst, src) = ((b * n + i) * f + c, (b * n + j) * f + c);
                        pv[dst] += lij * v[src];
                        pm[dst] += lij.abs() * m[src];
                    }
                }
            }
        }
        (pv, pm)
    }

    fn forward(&self, x: &[f32], bias: &[f32]) -> ChebyForward {
        let (f, order, out, w) = (self.f, self.order, self.out, self.w);
        let floor = f32::MIN_POSITIVE as f64;
        let mut t: Vec<Vec<f64>> = vec![x.iter().map(|&v| v as f64).collect()];
        let mut tm: Vec<Vec<f64>> = vec![x.iter().map(|&v| (v as f64).abs().max(floor)).collect()];
        for s in 1..order {
            let (pv, pm) = self.prop(&t[s - 1], &tm[s - 1], false);
            let (vals, mags) = if s == 1 {
                (pv, pm)
            } else {
                let v = pv.iter().zip(&t[s - 2]).map(|(p, q)| 2.0 * p - q).collect();
                let m = pm
                    .iter()
                    .zip(&tm[s - 2])
                    .map(|(p, q)| 2.0 * p + q)
                    .collect();
                (v, m)
            };
            t.push(vals);
            tm.push(mags.into_iter().map(|m: f64| m.max(floor)).collect());
        }
        let rows = self.batch * self.n;
        let (mut y, mut ym) = (
            Vec::with_capacity(rows * out),
            Vec::with_capacity(rows * out),
        );
        for r in 0..rows {
            for o in 0..out {
                let (mut acc, mut mg) = (bias[o] as f64, (bias[o] as f64).abs());
                for s in 0..order {
                    for c in 0..f {
                        let wv = w[(s * f + c) * out + o] as f64;
                        acc += t[s][r * f + c] * wv;
                        mg += tm[s][r * f + c] * wv.abs();
                    }
                }
                y.push(acc);
                ym.push(mg.max(floor));
            }
        }
        ChebyForward { t, tm, y, ym }
    }

    /// `[dX, dW]` values and magnitudes under the upstream gradient
    /// `dY [B·N, O]`, plus whether every adjoint level stayed in range.
    fn grads(&self, fwd: &ChebyForward, dy: &[f64]) -> (Vec<f64>, Vec<f64>, bool) {
        let (f, order, out, w) = (self.f, self.order, self.out, self.w);
        let floor = f32::MIN_POSITIVE as f64;
        let rows = self.batch * self.n;
        // dZ_s = dY·W_sᵀ, then the adjoint recurrence.
        let dz = |s: usize| -> (Vec<f64>, Vec<f64>) {
            let mut v = vec![0.0f64; rows * f];
            let mut m = vec![0.0f64; rows * f];
            for r in 0..rows {
                for c in 0..f {
                    for o in 0..out {
                        let (gv, wv) = (dy[r * out + o], w[(s * f + c) * out + o] as f64);
                        v[r * f + c] += gv * wv;
                        m[r * f + c] += (gv * wv).abs();
                    }
                }
            }
            (v, m)
        };
        let mut dt: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); order];
        for k in (0..order).rev() {
            let (mut v, mut m) = dz(k);
            if k + 2 < order {
                for ((a, am), (b, bm)) in v
                    .iter_mut()
                    .zip(m.iter_mut())
                    .zip(dt[k + 2].0.iter().zip(&dt[k + 2].1))
                {
                    *a -= b;
                    *am += bm;
                }
            }
            if k + 1 < order {
                let c = if k == 0 { 1.0 } else { 2.0 };
                let (pv, pm) = self.prop(&dt[k + 1].0, &dt[k + 1].1, true);
                for ((a, am), (p, q)) in v.iter_mut().zip(m.iter_mut()).zip(pv.iter().zip(&pm)) {
                    *a += c * p;
                    *am += c * q;
                }
            }
            m.iter_mut().for_each(|x| *x = x.max(floor));
            dt[k] = (v, m);
        }
        let mut values = dt[0].0.clone();
        let mut mags = dt[0].1.clone();
        // dW_s = Σ_rows T_sᵀ·dY.
        for s in 0..order {
            for c in 0..f {
                for o in 0..out {
                    let (mut acc, mut mg) = (0.0f64, 0.0f64);
                    for r in 0..rows {
                        let gv = dy[r * out + o];
                        acc += fwd.t[s][r * f + c] * gv;
                        mg += fwd.tm[s][r * f + c] * gv.abs();
                    }
                    values.push(acc);
                    mags.push(mg.max(floor));
                }
            }
        }
        // NaN counts as out of range too.
        let in_range = |m: &f64| *m < f32::MAX as f64;
        let ok = fwd
            .tm
            .iter()
            .chain(dt.iter().map(|(_, m)| m))
            .flatten()
            .chain(&fwd.ym)
            .chain(&mags)
            .all(in_range);
        (values, mags, ok)
    }
}

/// The Cheby-Net layer of Eq. 5 and its gradients, for the fused
/// `stod_nn::layers::ChebyConv` op.
///
/// Per batch item, `T₀ = X`, `T₁ = L̃X`, `T_s = 2L̃T_{s−1} − T_{s−2}` over
/// the node axis, and `Y = Σ_s T_s·W_s + b` with `W [S·F, O]`. Under the
/// upstream gradient `G = ∂loss/∂Y`, `dZ_s = G·W_sᵀ`, `dW_s = Σ_rows T_sᵀ·G`,
/// and the adjoint recurrence runs from `dT_{S−1} = dZ_{S−1}` down:
/// `dT_k = dZ_k − dT_{k+2} + c·L̃ᵀdT_{k+1}` with `c = 2` for `k ≥ 1` and
/// `c = 1` for `k = 0`, `dX = dT₀`. Returns `[Y, dX, dW]` flattened (row
/// major). Magnitudes propagate through every level, floored at
/// `f32::MIN_POSITIVE`: rounding a level into f32's subnormal range costs
/// up to the subnormal quantum whatever `ε·|v|` says, and later levels
/// amplify that floor like real values. If any intermediate scale leaves
/// the `f32` range, every element is flagged unverifiable.
#[allow(clippy::too_many_arguments)]
pub fn cheby_conv(
    l: &[f32],
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    g: &[f32],
    batch: usize,
    n: usize,
    f: usize,
    order: usize,
    out: usize,
) -> OracleOut {
    assert!(order >= 1);
    assert_eq!(l.len(), n * n);
    assert_eq!(x.len(), batch * n * f);
    assert_eq!(w.len(), order * f * out);
    assert_eq!(bias.len(), out);
    assert_eq!(g.len(), batch * n * out);
    let shape = ChebyShape {
        l,
        w,
        batch,
        n,
        f,
        order,
        out,
    };
    let fwd = shape.forward(x, bias);
    let dy: Vec<f64> = g.iter().map(|&v| v as f64).collect();
    let (grads, grad_mags, ok) = shape.grads(&fwd, &dy);
    let mut values = fwd.y.clone();
    values.extend(grads);
    let mut mags = fwd.ym.clone();
    mags.extend(grad_mags);
    if !ok {
        mags.iter_mut().for_each(|m| *m = f64::INFINITY);
    }
    OracleOut { values, mags }
}

/// One AF spatial-factorization stage, for the fused
/// `stod_nn::layers::ChebyPool` op: [`cheby_conv`]'s `Y`, then relu, the
/// given dropout factors `mask [B, N, O]` (all ones in eval mode), and
/// max-pooling of `pool`-slot windows over `order`, where the value `n`
/// is a fake slot that pools as 0. Each window takes its first candidate
/// strictly above the best so far, from −∞. Under the upstream gradient
/// `G [B, m, O]` a real winner gets `dY = G·mask·relu'(Y)`, every other
/// element 0, and `[dX, dW]` follow as in [`cheby_conv`]. Returns
/// `[pooled, dX, dW]`.
///
/// An f32 kernel may settle a close decision the other way: a relu at a
/// `Y` within its error bound of 0, or two candidates of one window
/// within their bounds of each other. The gradient then moves wholesale,
/// so `dW`'s column and `dX`'s batch item of every such window are
/// flagged unverifiable. `decision_tol` is the relative error bound the
/// comparison grants (`(terms + 2)·ε`); the margin is twice that.
#[allow(clippy::too_many_arguments)]
pub fn cheby_pool(
    l: &[f32],
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    g: &[f32],
    mask: &[f32],
    order_slots: &[usize],
    batch: usize,
    n: usize,
    f: usize,
    order: usize,
    out: usize,
    pool: usize,
    decision_tol: f64,
) -> OracleOut {
    let m = order_slots.len() / pool;
    assert_eq!(order_slots.len(), m * pool);
    assert_eq!(mask.len(), batch * n * out);
    assert_eq!(g.len(), batch * m * out);
    let shape = ChebyShape {
        l,
        w,
        batch,
        n,
        f,
        order,
        out,
    };
    let fwd = shape.forward(x, bias);
    let margin = 2.0 * decision_tol;
    let mut values = Vec::with_capacity(batch * m * out);
    let mut mags = Vec::with_capacity(batch * m * out);
    let mut dy = vec![0.0f64; batch * n * out];
    let mut unsure_batch = vec![false; batch];
    let mut unsure_col = vec![false; out];
    for b in 0..batch {
        for (c, window) in order_slots.chunks_exact(pool).enumerate() {
            for o in 0..out {
                // (value, error radius, flat index of Y or None for a fake).
                let cands: Vec<(f64, f64, Option<usize>)> = window
                    .iter()
                    .map(|&node| {
                        if node == n {
                            return (0.0, 0.0, None);
                        }
                        let k = (b * n + node) * out + o;
                        let fac = mask[k] as f64;
                        let (y, tol) = (fwd.y[k], margin * fwd.ym[k]);
                        // Clearly negative: relu gives exactly 0 either way.
                        let radius = if y + tol <= 0.0 { 0.0 } else { tol * fac };
                        (y.max(0.0) * fac, radius, Some(k))
                    })
                    .collect();
                let mut best = (f64::NEG_INFINITY, None::<usize>);
                for (i, &(v, _, _)) in cands.iter().enumerate() {
                    if v > best.0 {
                        best = (v, Some(i));
                    }
                }
                let mag = cands
                    .iter()
                    .filter_map(|&(_, _, k)| k.map(|k| fwd.ym[k] * mask[k] as f64))
                    .fold(f32::MIN_POSITIVE as f64, f64::max);
                values.push(best.0);
                mags.push(mag);
                let Some(wi) = best.1 else { continue };
                let (wv, wr, wk) = cands[wi];
                let close = cands
                    .iter()
                    .enumerate()
                    .any(|(i, &(v, r, _))| i != wi && wr + r > 0.0 && (wv - v).abs() <= wr + r);
                let Some(k) = wk else {
                    if close {
                        unsure_batch[b] = true;
                        unsure_col[o] = true;
                    }
                    continue;
                };
                let fac = mask[k] as f64;
                let relu_close = fac != 0.0 && fwd.y[k].abs() <= margin * fwd.ym[k];
                if close || relu_close {
                    unsure_batch[b] = true;
                    unsure_col[o] = true;
                }
                let relu = if fwd.y[k] > 0.0 { 1.0 } else { 0.0 };
                dy[k] = g[(b * m + c) * out + o] as f64 * fac * relu;
            }
        }
    }
    let (grads, mut grad_mags, ok) = shape.grads(&fwd, &dy);
    let dx_len = batch * n * f;
    for (i, mg) in grad_mags.iter_mut().enumerate() {
        let unsure = if i < dx_len {
            unsure_batch[i / (n * f)]
        } else {
            unsure_col[(i - dx_len) % out]
        };
        if unsure {
            *mg = f64::INFINITY;
        }
    }
    values.extend(grads);
    mags.extend(grad_mags);
    if !ok {
        mags.iter_mut().for_each(|m| *m = f64::INFINITY);
    }
    OracleOut { values, mags }
}

/// Stable softmax along the middle extent of an `[outer, mid, inner]`
/// view, entirely in `f64`. Outputs lie in `[0, 1]`; the magnitude is the
/// pre-division exponential sum scale, normalized to ~1.
pub fn softmax(x: &[f32], outer: usize, mid: usize, inner: usize) -> OracleOut {
    assert_eq!(x.len(), outer * mid * inner);
    let mut values = vec![0.0f64; x.len()];
    let mags = vec![1.0f64; x.len()];
    for o in 0..outer {
        for i in 0..inner {
            let idx = |m: usize| (o * mid + m) * inner + i;
            let mut mx = f64::NEG_INFINITY;
            for m in 0..mid {
                mx = mx.max(x[idx(m)] as f64);
            }
            let mut z = 0.0f64;
            for m in 0..mid {
                let e = (x[idx(m)] as f64 - mx).exp();
                values[idx(m)] = e;
                z += e;
            }
            for m in 0..mid {
                values[idx(m)] /= z;
            }
        }
    }
    OracleOut { values, mags }
}

fn sigmoid64(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// One GRU step with fused weights, exactly the gate equations of
/// `stod_nn::layers::GruCell` (slices ordered z, r, c; the reset gate
/// multiplies the *hidden projection* slice `h·Wh[:, 2H:3H]`):
///
/// ```text
/// z  = σ(x·Wx[:, 0:H]   + h·Wh[:, 0:H]   + b[0:H])
/// r  = σ(x·Wx[:, H:2H]  + h·Wh[:, H:2H]  + b[H:2H])
/// c  = tanh(x·Wx[:, 2H:3H] + r ⊙ (h·Wh[:, 2H:3H]) + b[2H:3H])
/// h' = z ⊙ h + (1 − z) ⊙ c
/// ```
#[allow(clippy::too_many_arguments)]
pub fn gru_cell(
    x: &[f32],
    h: &[f32],
    wx: &[f32],
    wh: &[f32],
    b: &[f32],
    batch: usize,
    in_dim: usize,
    hidden: usize,
) -> OracleOut {
    assert_eq!(x.len(), batch * in_dim);
    assert_eq!(h.len(), batch * hidden);
    assert_eq!(wx.len(), in_dim * 3 * hidden);
    assert_eq!(wh.len(), hidden * 3 * hidden);
    assert_eq!(b.len(), 3 * hidden);
    let cols = 3 * hidden;
    let mut values = vec![0.0f64; batch * hidden];
    let mut mags = vec![0.0f64; batch * hidden];
    for bi in 0..batch {
        for u in 0..hidden {
            let gate = |off: usize| -> (f64, f64) {
                let mut acc = b[off + u] as f64;
                let mut mag = (b[off + u] as f64).abs();
                for p in 0..in_dim {
                    let t = x[bi * in_dim + p] as f64 * wx[p * cols + off + u] as f64;
                    acc += t;
                    mag += t.abs();
                }
                (acc, mag)
            };
            let hproj = |off: usize| -> (f64, f64) {
                let mut acc = 0.0f64;
                let mut mag = 0.0f64;
                for p in 0..hidden {
                    let t = h[bi * hidden + p] as f64 * wh[p * cols + off + u] as f64;
                    acc += t;
                    mag += t.abs();
                }
                (acc, mag)
            };
            let (gx_z, mx_z) = gate(0);
            let (gx_r, mx_r) = gate(hidden);
            let (gx_c, mx_c) = gate(2 * hidden);
            let (gh_z, mh_z) = hproj(0);
            let (gh_r, mh_r) = hproj(hidden);
            let (gh_c, mh_c) = hproj(2 * hidden);
            let z = sigmoid64(gx_z + gh_z);
            let r = sigmoid64(gx_r + gh_r);
            let c = (gx_c + r * gh_c).tanh();
            let hv = h[bi * hidden + u] as f64;
            values[bi * hidden + u] = z * hv + (1.0 - z) * c;
            // Error scale: rounding in the production f32 matmuls perturbs
            // the pre-activations by ~ε·Σ|terms|; through σ/tanh (Lipschitz
            // ≤ 1/4 resp. 1) a gate perturbation is then amplified by the
            // output mix `z⊙h + (1−z)⊙c`, i.e. by up to `1 + |h|`. The
            // product form covers extreme-magnitude states where a near-
            // cancelled pre-activation can legitimately flip a gate.
            mags[bi * hidden + u] =
                (1.0 + hv.abs()) * (1.0 + (mx_z + mx_r + mx_c + mh_z + mh_r + mh_c) / 4.0);
        }
    }
    OracleOut { values, mags }
}

/// Recovery of Eq. 3: per-bucket rank-β products `M̂_k = R̂_k Ĉ_k` with an
/// optional logit bias, then a softmax over buckets — `r` is
/// `[batch, n, beta, k]`, `c` is `[batch, beta, n_dest, k]`, `bias`
/// (if given) is `[n, n_dest, k]`. Output `[batch, n, n_dest, k]`.
#[allow(clippy::too_many_arguments)]
pub fn recover(
    r: &[f32],
    c: &[f32],
    bias: Option<&[f32]>,
    batch: usize,
    n: usize,
    beta: usize,
    n_dest: usize,
    k: usize,
) -> OracleOut {
    assert_eq!(r.len(), batch * n * beta * k);
    assert_eq!(c.len(), batch * beta * n_dest * k);
    if let Some(bias) = bias {
        assert_eq!(bias.len(), n * n_dest * k);
    }
    let numel = batch * n * n_dest * k;
    let mut logits = vec![0.0f64; numel];
    let mut logit_mags = vec![0.0f64; numel];
    for b in 0..batch {
        for o in 0..n {
            for d in 0..n_dest {
                for q in 0..k {
                    let mut acc = 0.0f64;
                    let mut mag = 0.0f64;
                    for be in 0..beta {
                        let rv = r[((b * n + o) * beta + be) * k + q] as f64;
                        let cv = c[((b * beta + be) * n_dest + d) * k + q] as f64;
                        acc += rv * cv;
                        mag += (rv * cv).abs();
                    }
                    if let Some(bias) = bias {
                        let bv = bias[(o * n_dest + d) * k + q] as f64;
                        acc += bv;
                        mag += bv.abs();
                    }
                    let idx = ((b * n + o) * n_dest + d) * k + q;
                    logits[idx] = acc;
                    logit_mags[idx] = mag;
                }
            }
        }
    }
    // Softmax over the bucket axis. A probability depends on *every*
    // logit of its cell, so its error scale is the worst logit magnitude
    // in the cell — rounding a huge logit in one bucket legitimately
    // reshuffles the whole distribution.
    let mut values = vec![0.0f64; numel];
    let mut mags = vec![0.0f64; numel];
    for cell in 0..batch * n * n_dest {
        let sl = &logits[cell * k..(cell + 1) * k];
        let mx = sl.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let cell_mag = logit_mags[cell * k..(cell + 1) * k]
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        let mut z = 0.0f64;
        for q in 0..k {
            let e = (sl[q] - mx).exp();
            values[cell * k + q] = e;
            z += e;
        }
        for q in 0..k {
            values[cell * k + q] /= z;
            mags[cell * k + q] = 1.0 + cell_mag;
        }
    }
    OracleOut { values, mags }
}

/// Mask-aware recovery (`stod_core::recovery::recover_sparse`): observed
/// `(b, o, d)` cells (mask entry non-zero) follow [`recover`]; empty cells
/// are defined to hold the uniform `1/k` histogram, with unit magnitude —
/// no accumulation happens there, so only output rounding is legitimate.
#[allow(clippy::too_many_arguments)]
pub fn recover_sparse(
    r: &[f32],
    c: &[f32],
    bias: Option<&[f32]>,
    mask: &[f32],
    batch: usize,
    n: usize,
    beta: usize,
    n_dest: usize,
    k: usize,
) -> OracleOut {
    assert_eq!(mask.len(), batch * n * n_dest);
    let mut out = recover(r, c, bias, batch, n, beta, n_dest, k);
    let uniform = 1.0f64 / k as f64;
    for (cell, &m) in mask.iter().enumerate() {
        if m == 0.0 {
            for q in 0..k {
                out.values[cell * k + q] = uniform;
                out.mags[cell * k + q] = 1.0;
            }
        }
    }
    out
}

/// Eq. 4's data term: `Σ_i mask_i · (pred_i − target_i)²` as one `f64`
/// scalar (matching `Tape::masked_sq_err`'s forward value). Returns
/// `(value, magnitude)`.
pub fn masked_sq_err(pred: &[f32], target: &[f32], mask: &[f32]) -> (f64, f64) {
    assert_eq!(pred.len(), target.len());
    assert_eq!(pred.len(), mask.len());
    let mut acc = 0.0f64;
    let mut mag = 0.0f64;
    for i in 0..pred.len() {
        let d = pred[i] as f64 - target[i] as f64;
        let t = mask[i] as f64 * d * d;
        acc += t;
        mag += t.abs() + (pred[i] as f64).abs().max((target[i] as f64).abs()) * f32::EPSILON as f64;
    }
    (acc, mag)
}

/// Earth mover's distance by explicit optimal transport on the 1-D bucket
/// line: two pointers greedily move the leftmost remaining supply to the
/// leftmost remaining demand, paying `|i − j|` per unit of mass (optimal
/// for a convex 1-D ground cost). Deliberately a different algorithm from
/// the CDF closed form in `stod_metrics::emd`.
///
/// Degenerate conventions match the production metric: two empty
/// histograms are 0 apart; one empty histogram is at the grid diameter
/// `len − 1`; non-finite inputs propagate NaN.
pub fn emd_transport(m: &[f32], m_hat: &[f32]) -> f64 {
    assert_eq!(m.len(), m_hat.len(), "histogram length mismatch");
    let sum_m: f64 = m.iter().map(|&x| x as f64).sum();
    let sum_h: f64 = m_hat.iter().map(|&x| x as f64).sum();
    if !sum_m.is_finite() || !sum_h.is_finite() {
        return f64::NAN;
    }
    match (sum_m > 0.0, sum_h > 0.0) {
        (false, false) => return 0.0,
        (true, false) | (false, true) => return (m.len() - 1) as f64,
        (true, true) => {}
    }
    let p: Vec<f64> = m.iter().map(|&x| x as f64 / sum_m).collect();
    let q: Vec<f64> = m_hat.iter().map(|&x| x as f64 / sum_h).collect();
    let (mut i, mut j) = (0usize, 0usize);
    let (mut supply, mut demand) = (p[0], q[0]);
    let mut cost = 0.0f64;
    loop {
        let moved = supply.min(demand);
        cost += moved * (i as f64 - j as f64).abs();
        supply -= moved;
        demand -= moved;
        if supply <= 1e-15 {
            i += 1;
            if i == p.len() {
                break;
            }
            supply = p[i];
        }
        if demand <= 1e-15 {
            j += 1;
            if j == q.len() {
                break;
            }
            demand = q[j];
        }
    }
    cost
}

/// KL divergence with the paper's δ-smoothing (Eq. 13, forecast in front
/// of the log), re-derived independently of `stod_metrics`.
pub fn kl(m: &[f32], m_hat: &[f32]) -> f64 {
    assert_eq!(m.len(), m_hat.len(), "histogram length mismatch");
    const DELTA: f64 = 0.001;
    m.iter()
        .zip(m_hat.iter())
        .map(|(&mk, &hk)| hk as f64 * ((hk as f64 + DELTA) / (mk as f64 + DELTA)).ln())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2×3
        let b = [7.0f32, 8.0, 9.0, 10.0, 11.0, 12.0]; // 3×2
        let o = matmul(&a, &b, 2, 3, 2);
        assert_eq!(o.values, vec![58.0, 64.0, 139.0, 154.0]);
        assert!(o.mags.iter().all(|&m| m > 0.0));
    }

    #[test]
    fn softmax_uniform_logits() {
        let o = softmax(&[0.0f32; 4], 1, 4, 1);
        assert!(o.values.iter().all(|&v| (v - 0.25).abs() < 1e-12));
    }

    #[test]
    fn gru_zero_everything_is_zero() {
        // Zero weights, inputs and state: z = 0.5, c = tanh(0) = 0 → h' = 0.
        let o = gru_cell(
            &[0.0; 2], &[0.0; 3], &[0.0; 18], &[0.0; 27], &[0.0; 9], 1, 2, 3,
        );
        assert!(o.values.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn recover_outputs_are_simplex() {
        let r = [0.5f32, -1.0, 2.0, 0.3, 1.0, -0.7, 0.2, 0.9];
        let c = [1.0f32, 0.5, -0.5, 2.0, 0.1, 0.4, -1.2, 0.8];
        let o = recover(&r, &c, None, 1, 2, 2, 2, 2);
        for cell in o.values.chunks(2) {
            let s: f64 = cell.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(cell.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn emd_transport_basics() {
        assert_eq!(emd_transport(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
        assert_eq!(
            emd_transport(&[1.0, 0.0, 0.0, 0.0], &[0.0, 0.0, 0.0, 1.0]),
            3.0
        );
        assert_eq!(emd_transport(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
        assert_eq!(emd_transport(&[0.0, 1.0], &[0.0, 0.0]), 1.0);
        let a = [0.3f32, 0.3, 0.4];
        assert!(emd_transport(&a, &a).abs() < 1e-12);
    }

    #[test]
    fn dot_strided_reads_transposed_layout() {
        // a strided by 2 picks 1, 3; b strided by 3 picks 10, 40.
        let a = [1.0f32, -9.0, 3.0, -9.0];
        let b = [10.0f32, 0.0, 0.0, 40.0, 0.0, 0.0];
        let (v, mag) = dot_strided(&a, 2, &b, 3, 2);
        assert_eq!(v, 130.0);
        assert_eq!(mag, 130.0);
    }

    #[test]
    fn recover_sparse_empty_cells_are_uniform() {
        let r = [0.5f32, -1.0, 2.0, 0.3, 1.0, -0.7, 0.2, 0.9];
        let c = [1.0f32, 0.5, -0.5, 2.0, 0.1, 0.4, -1.2, 0.8];
        // 1 batch, 2×2 cells, mask out cell (0, 1).
        let mask = [1.0f32, 0.0, 1.0, 1.0];
        let dense = recover(&r, &c, None, 1, 2, 2, 2, 2);
        let sparse = recover_sparse(&r, &c, None, &mask, 1, 2, 2, 2, 2);
        assert_eq!(&sparse.values[0..2], &dense.values[0..2]);
        assert_eq!(&sparse.values[2..4], &[0.5, 0.5]);
        assert_eq!(&sparse.values[4..8], &dense.values[4..8]);
    }

    #[test]
    fn masked_loss_ignores_masked_cells() {
        let (v, _) = masked_sq_err(&[1.0, 5.0], &[0.0, -100.0], &[1.0, 0.0]);
        assert_eq!(v, 1.0);
    }
}
