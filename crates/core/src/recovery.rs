//! Recovery (§IV-D): turning predicted factor tensors back into full OD
//! stochastic speed tensors.
//!
//! Given `R̂ ∈ R^{B×N×β×K}` and `Ĉ ∈ R^{B×β×N'×K}`, each speed bucket `k`
//! is recovered independently as the rank-β product `M̂_k = R̂_k · Ĉ_k`,
//! and a softmax across the bucket dimension turns every `(o, d)` cell
//! into a valid histogram (Eq. 3).

use stod_nn::{Tape, Var};
use stod_tensor::ops::gemm;
use stod_tensor::{par, Tensor};

/// Multiplies factor tensors per bucket and normalizes with a softmax.
///
/// * `r` — `[B, N, β, K]`
/// * `c` — `[B, β, N', K]`
/// * `bias` — optional logit offset, broadcastable to `[B, N, N', K]`
///   (e.g. `[N, N', K]`). Matrix-factorization bias terms are the standard
///   complement to a low-rank product: without them, `softmax(R·C)` starts
///   at the uniform distribution and must spend its rank budget on
///   marginal bucket structure before it can model dynamics.
///
/// Returns `[B, N, N', K]` with `Σ_k out[b,o,d,k] = 1` for every cell.
///
/// # Panics
/// Panics when the shapes are inconsistent.
pub fn recover(tape: &mut Tape, r: Var, c: Var, bias: Option<Var>) -> Var {
    let rd = tape.value(r).dims().to_vec();
    let cd = tape.value(c).dims().to_vec();
    assert_eq!(rd.len(), 4, "R factor must be [B, N, β, K], got {rd:?}");
    assert_eq!(cd.len(), 4, "C factor must be [B, β, N', K], got {cd:?}");
    let (b, n, beta, k) = (rd[0], rd[1], rd[2], rd[3]);
    let (bc, beta_c, n_dest, kc) = (cd[0], cd[1], cd[2], cd[3]);
    assert_eq!(b, bc, "batch mismatch");
    assert_eq!(beta, beta_c, "rank mismatch");
    assert_eq!(k, kc, "bucket mismatch");

    // Rearrange to per-bucket stacks: [B, K, N, β] and [B, K, β, N'].
    // The B·K independent rank-β products below are the hot loop; the
    // batched matmul distributes them over the stod_tensor::par pool
    // (forward and backward), bitwise identically to serial execution.
    let r_perm = tape.permute(r, &[0, 3, 1, 2]);
    let c_perm = tape.permute(c, &[0, 3, 1, 2]);
    let r_flat = tape.reshape(r_perm, &[b * k, n, beta]);
    let c_flat = tape.reshape(c_perm, &[b * k, beta, n_dest]);
    let prod = tape.batched_matmul(r_flat, c_flat); // [B·K, N, N']
    let prod = tape.reshape(prod, &[b, k, n, n_dest]);
    let mut logits = tape.permute(prod, &[0, 2, 3, 1]); // [B, N, N', K]
    if let Some(bias) = bias {
        logits = tape.add(logits, bias);
    }
    tape.softmax(logits, 3)
}

/// Observed-cell fraction below which [`recover_masked`] takes the
/// cell-skipping sparse path; denser masks fall back to the blocked dense
/// pipeline, whose batched GEMM amortizes better than per-cell dots.
pub const SPARSE_DENSITY_CUTOFF: f32 = 0.5;

/// Mask-aware recovery: like [`recover`], but skips OD cells that are
/// empty in `mask` (the Eq. 4 loss zeroes them out anyway).
///
/// `mask` is the loss mask, `[B, N, N', K]` or `[B, N, N']`; a cell is
/// *observed* when any of its entries is non-zero. Observed cells are
/// computed bitwise identically to the dense path (see
/// [`recover_sparse`]); empty cells get the uniform histogram `1/K`, and
/// — matching Eq. 4's gradient — contribute exactly nothing to any
/// gradient. Because the dense path's masked-cell contributions are exact
/// `±0.0` terms that cannot flip an accumulator's bits, the *loss and all
/// parameter gradients are bitwise identical* between the two paths, so
/// routing training through this function never changes a trajectory.
///
/// Falls back to [`recover`] when the mask is dense (observed fraction
/// `>= SPARSE_DENSITY_CUTOFF`), where the blocked GEMM wins.
pub fn recover_masked(tape: &mut Tape, r: Var, c: Var, bias: Option<Var>, mask: &Tensor) -> Var {
    let cells = cell_mask(tape, r, mask);
    let observed = cells.iter().filter(|&&m| m).count();
    if (observed as f32) >= SPARSE_DENSITY_CUTOFF * cells.len() as f32 {
        return recover(tape, r, c, bias);
    }
    recover_sparse(tape, r, c, bias, &cells)
}

/// Collapses the loss mask to one boolean per `(b, o, d)` cell.
fn cell_mask(tape: &Tape, r: Var, mask: &Tensor) -> Vec<bool> {
    let rd = tape.value(r).dims();
    assert_eq!(rd.len(), 4, "R factor must be [B, N, β, K]");
    let (b, n, k) = (rd[0], rd[1], rd[3]);
    let md = mask.dims();
    match md.len() {
        3 => {
            assert_eq!(md, &[b, n, md[2]], "cell mask must be [B, N, N']");
            mask.data().iter().map(|&x| x != 0.0).collect()
        }
        4 => {
            assert_eq!(md[0], b, "mask batch");
            assert_eq!(md[1], n, "mask origins");
            assert_eq!(md[3], k, "mask buckets");
            mask.data()
                .chunks_exact(k)
                .map(|lane| lane.iter().any(|&x| x != 0.0))
                .collect()
        }
        _ => panic!("mask must be [B, N, N'] or [B, N, N', K], got {md:?}"),
    }
}

/// The sparse-skip recovery kernel: always takes the per-cell path.
///
/// `cells` holds one flag per `(b, o, d)` in row-major order. Exposed
/// (rather than private to [`recover_masked`]) so the equivalence property
/// tests can force the sparse path regardless of density.
///
/// # Bitwise equivalence to the dense path
///
/// Per observed cell, forward logits are single dot products over β; the
/// dense pipeline computes them inside `batched_matmul`, whose per-element
/// accumulation is either one FMA chain (blocked) or a zero-skipping
/// multiply-add loop (naive), selected by shape via
/// [`gemm::uses_blocked`]. This kernel mirrors that decision per product
/// shape and reproduces the exact chain with strided dots, then replicates
/// the softmax lane algorithm, so observed outputs match bit for bit. The
/// backward pass mirrors the dense backward chain the same way (softmax
/// backward, then the two transposed products), accumulating only observed
/// terms: the skipped terms are `±0.0` in the dense chain, and IEEE-754
/// addition of `±0.0` to a running sum that starts at `+0.0` can never
/// change its bits, so gradients also match bit for bit.
pub fn recover_sparse(tape: &mut Tape, r: Var, c: Var, bias: Option<Var>, cells: &[bool]) -> Var {
    let rd = tape.value(r).dims().to_vec();
    let cd = tape.value(c).dims().to_vec();
    assert_eq!(rd.len(), 4, "R factor must be [B, N, β, K], got {rd:?}");
    assert_eq!(cd.len(), 4, "C factor must be [B, β, N', K], got {cd:?}");
    let (b, n, beta, k) = (rd[0], rd[1], rd[2], rd[3]);
    let (bc, beta_c, nd, kc) = (cd[0], cd[1], cd[2], cd[3]);
    assert_eq!(b, bc, "batch mismatch");
    assert_eq!(beta, beta_c, "rank mismatch");
    assert_eq!(k, kc, "bucket mismatch");
    assert_eq!(cells.len(), b * n * nd, "cell mask length");
    if let Some(bias) = bias {
        assert_eq!(
            tape.value(bias).dims(),
            &[n, nd, k],
            "sparse recovery bias must be [N, N', K]"
        );
    }

    let value = {
        let rv = tape.value(r).data();
        let cv = tape.value(c).data();
        let bv = bias.map(|bv| tape.value(bv).data().to_vec());
        sparse_forward(rv, cv, bv.as_deref(), cells, b, n, beta, nd, k)
    };

    let cells_owned: Vec<bool> = cells.to_vec();
    let parents: Vec<Var> = match bias {
        Some(bv) => vec![r, c, bv],
        None => vec![r, c],
    };
    tape.custom_op(
        "recover_masked",
        value,
        &parents,
        Box::new(move |g, ps, y, needs| {
            sparse_backward(g, ps, y, needs, &cells_owned, b, n, beta, nd, k)
        }),
    )
}

/// Forward kernel: per observed cell, the rank-β logit dot, bias add and
/// softmax lane; empty cells get the uniform `1/K` histogram. Cells are
/// independent, so fanning `(b, o)` rows across the pool is bitwise-safe.
#[allow(clippy::too_many_arguments)]
fn sparse_forward(
    rv: &[f32],
    cv: &[f32],
    bv: Option<&[f32]>,
    cells: &[bool],
    b: usize,
    n: usize,
    beta: usize,
    nd: usize,
    k: usize,
) -> Tensor {
    // Flavor of the dense per-bucket product R̂_k · Ĉ_k (items are N×β
    // times β×N').
    let fwd_fma = gemm::uses_blocked(n, beta, nd);
    let observed = cells.iter().filter(|&&m| m).count();
    let mut out = stod_tensor::arena::alloc_raw(b * n * nd * k);
    let uniform = 1.0 / k as f32;
    let row_work = 2 * observed.div_ceil(b * n) * beta * k + 5 * k;
    let run_row = |row: usize, lane_out: &mut [f32]| {
        let (bi, o) = (row / n, row % n);
        for d in 0..nd {
            let lanes = &mut lane_out[d * k..(d + 1) * k];
            if !cells[(bi * n + o) * nd + d] {
                lanes.fill(uniform);
                continue;
            }
            // logit[k] = Σ_β r[b,o,β,k] · c[b,β,d,k]
            let r_base = (bi * n + o) * beta * k;
            let c_base = (bi * beta * nd + d) * k;
            for ki in 0..k {
                let a = &rv[r_base + ki..];
                let bb = &cv[c_base + ki..];
                let mut logit = if fwd_fma {
                    gemm::dot_fma_strided(a, k, bb, nd * k, beta)
                } else {
                    gemm::dot_naive_strided(a, k, bb, nd * k, beta)
                };
                if let Some(bv) = bv {
                    logit += bv[(o * nd + d) * k + ki];
                }
                lanes[ki] = logit;
            }
            softmax_lane(lanes);
        }
    };
    if b * n > 1 && par::should_parallelize(b * n * row_work) {
        par::for_each_row_chunk(&mut out, b * n, nd * k, |rows, chunk| {
            for (i, row) in rows.clone().enumerate() {
                run_row(row, &mut chunk[i * nd * k..(i + 1) * nd * k]);
            }
        });
    } else {
        for row in 0..b * n {
            run_row(row, &mut out[row * nd * k..(row + 1) * nd * k]);
        }
    }
    Tensor::from_vec(&[b, n, nd, k], out)
}

/// Replicates one lane of `stod_tensor::ops::softmax::softmax` bitwise:
/// max-subtract, f32 `exp`, f64 partition sum, multiply by `1/(z as f32)`.
fn softmax_lane(lane: &mut [f32]) {
    let mut mx = f32::NEG_INFINITY;
    for &x in lane.iter() {
        mx = mx.max(x);
    }
    let mut z = 0.0f64;
    for x in lane.iter_mut() {
        let e = (*x - mx).exp();
        *x = e;
        z += e as f64;
    }
    let inv = 1.0 / z as f32;
    for x in lane.iter_mut() {
        *x *= inv;
    }
}

/// Backward kernel mirroring the dense chain over observed cells only.
#[allow(clippy::too_many_arguments)]
fn sparse_backward(
    g: &Tensor,
    ps: &[&Tensor],
    y: &Tensor,
    needs: &[bool],
    cells: &[bool],
    b: usize,
    n: usize,
    beta: usize,
    nd: usize,
    k: usize,
) -> Vec<Option<Tensor>> {
    let rv = ps[0].data();
    let cv = ps[1].data();
    let gv = g.data();
    let yv = y.data();

    // dl = softmax backward per observed lane: y ⊙ (g − Σ_k g⊙y), exactly
    // as the dense softmax node computes it (f32 sum over k ascending).
    let mut dl = stod_tensor::arena::alloc_filled(b * n * nd * k, 0.0);
    for (cell, &obs) in cells.iter().enumerate() {
        if !obs {
            continue;
        }
        let base = cell * k;
        let mut s = 0.0f32;
        for ki in 0..k {
            s += gv[base + ki] * yv[base + ki];
        }
        for ki in 0..k {
            dl[base + ki] = yv[base + ki] * (gv[base + ki] - s);
        }
    }

    // Flavors of the two dense backward products (see batched_matmul's
    // backward closure): dR uses g·Cᵀ items of shape N×N'×β, dC uses
    // Rᵀ·g items of shape β×N×N'.
    let dr_fma = gemm::uses_blocked(n, nd, beta);
    let dc_fma = gemm::uses_blocked(beta, n, nd);

    let dr = needs[0].then(|| {
        let mut dr = stod_tensor::arena::alloc_filled(b * n * beta * k, 0.0);
        for bi in 0..b {
            for o in 0..n {
                let row_cells = &cells[(bi * n + o) * nd..(bi * n + o + 1) * nd];
                if row_cells.iter().all(|&m| !m) {
                    continue;
                }
                for bt in 0..beta {
                    for ki in 0..k {
                        // dr[b,o,β,k] = Σ_{d obs} dl[b,o,d,k] · c[b,β,d,k]
                        let dl_base = ((bi * n + o) * nd) * k + ki;
                        let c_base = ((bi * beta + bt) * nd) * k + ki;
                        let mut acc = 0.0f32;
                        for (d, &obs) in row_cells.iter().enumerate() {
                            if !obs {
                                continue;
                            }
                            let a = dl[dl_base + d * k];
                            let bb = cv[c_base + d * k];
                            if dr_fma {
                                acc = a.mul_add(bb, acc);
                            } else if a != 0.0 {
                                acc += a * bb;
                            }
                        }
                        dr[((bi * n + o) * beta + bt) * k + ki] = acc;
                    }
                }
            }
        }
        Tensor::from_vec(&[b, n, beta, k], dr)
    });

    let dc = needs[1].then(|| {
        let mut dc = stod_tensor::arena::alloc_filled(b * beta * nd * k, 0.0);
        for bi in 0..b {
            for d in 0..nd {
                let any = (0..n).any(|o| cells[(bi * n + o) * nd + d]);
                if !any {
                    continue;
                }
                for bt in 0..beta {
                    for ki in 0..k {
                        // dc[b,β,d,k] = Σ_{o obs} r[b,o,β,k] · dl[b,o,d,k]
                        let r_base = (bi * n * beta + bt) * k + ki;
                        let dl_base = (bi * n * nd + d) * k + ki;
                        let mut acc = 0.0f32;
                        for o in 0..n {
                            if !cells[(bi * n + o) * nd + d] {
                                continue;
                            }
                            let a = rv[r_base + o * beta * k];
                            let bb = dl[dl_base + o * nd * k];
                            if dc_fma {
                                acc = a.mul_add(bb, acc);
                            } else if a != 0.0 {
                                acc += a * bb;
                            }
                        }
                        dc[((bi * beta + bt) * nd + d) * k + ki] = acc;
                    }
                }
            }
        }
        Tensor::from_vec(&[b, beta, nd, k], dc)
    });

    let mut grads = vec![dr, dc];
    if needs.len() > 2 {
        let dbias = needs[2].then(|| {
            // dbias[o,d,k] = Σ_b dl[b,o,d,k] (ascending b, f32, exactly
            // like the dense broadcast-add reduction).
            let mut db = stod_tensor::arena::alloc_filled(n * nd * k, 0.0);
            for bi in 0..b {
                for (cell, &obs) in cells[bi * n * nd..(bi + 1) * n * nd].iter().enumerate() {
                    if !obs {
                        continue;
                    }
                    let src = (bi * n * nd + cell) * k;
                    let dst = cell * k;
                    for ki in 0..k {
                        db[dst + ki] += dl[src + ki];
                    }
                }
            }
            Tensor::from_vec(&[n, nd, k], db)
        });
        grads.push(dbias);
    }
    stod_tensor::arena::recycle(dl);
    grads
}

#[cfg(test)]
mod tests {
    use super::*;
    use stod_tensor::rng::Rng64;
    use stod_tensor::{sum_axis, Tensor};

    #[test]
    fn output_is_per_cell_distribution() {
        let mut tape = Tape::new();
        let mut rng = Rng64::new(0);
        let r = tape.leaf(Tensor::randn(&[2, 4, 3, 5], 1.0, &mut rng));
        let c = tape.leaf(Tensor::randn(&[2, 3, 6, 5], 1.0, &mut rng));
        let m = recover(&mut tape, r, c, None);
        let v = tape.value(m);
        assert_eq!(v.dims(), &[2, 4, 6, 5]);
        let sums = sum_axis(v, 3, false);
        for &s in sums.data() {
            assert!((s - 1.0).abs() < 1e-5, "cell histogram sums to {s}");
        }
        assert!(v.data().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn rank_one_factors_give_expected_argmax() {
        // R puts weight on bucket 0 for origin 0 and bucket 1 for origin 1;
        // with uniform C the recovered histograms should follow.
        let mut tape = Tape::new();
        let mut r = Tensor::zeros(&[1, 2, 1, 2]);
        r.set(&[0, 0, 0, 0], 3.0); // origin 0 → bucket 0 strong
        r.set(&[0, 1, 0, 1], 3.0); // origin 1 → bucket 1 strong
        let c = Tensor::ones(&[1, 1, 2, 2]);
        let rv = tape.leaf(r);
        let cv = tape.leaf(c);
        let m = recover(&mut tape, rv, cv, None);
        let v = tape.value(m);
        assert!(v.at(&[0, 0, 0, 0]) > v.at(&[0, 0, 0, 1]));
        assert!(v.at(&[0, 1, 0, 1]) > v.at(&[0, 1, 0, 0]));
    }

    #[test]
    fn gradients_flow_through_recovery() {
        stod_nn::gradcheck::assert_grad_ok(
            &[
                Tensor::randn(&[1, 2, 2, 3], 0.5, &mut Rng64::new(1)),
                Tensor::randn(&[1, 2, 2, 3], 0.5, &mut Rng64::new(2)),
            ],
            |t, v| {
                let m = recover(t, v[0], v[1], None);
                let target = Tensor::zeros(&[1, 2, 2, 3]);
                let mask = Tensor::ones(&[1, 2, 2, 3]);
                t.masked_sq_err(m, &target, &mask)
            },
        );
    }

    #[test]
    fn bias_shifts_distributions() {
        let mut tape = Tape::new();
        let r = tape.leaf(Tensor::zeros(&[1, 2, 2, 3]));
        let c = tape.leaf(Tensor::zeros(&[1, 2, 2, 3]));
        let mut b = Tensor::zeros(&[2, 2, 3]);
        // Push all cells towards bucket 2.
        for o in 0..2 {
            for d in 0..2 {
                b.set(&[o, d, 2], 3.0);
            }
        }
        let bias = tape.leaf(b);
        let m = recover(&mut tape, r, c, Some(bias));
        let v = tape.value(m);
        for o in 0..2 {
            for d in 0..2 {
                assert!(v.at(&[0, o, d, 2]) > 0.8, "bias must dominate zero factors");
            }
        }
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn mismatched_rank_panics() {
        let mut tape = Tape::new();
        let r = tape.leaf(Tensor::zeros(&[1, 2, 3, 4]));
        let c = tape.leaf(Tensor::zeros(&[1, 2, 2, 4]));
        recover(&mut tape, r, c, None);
    }
}
