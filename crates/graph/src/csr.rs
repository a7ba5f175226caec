//! CSR builders for city-scale graphs.
//!
//! At `STOD_SCALE=city` (500–5000 regions) the dense `N×N` proximity and
//! Laplacian tensors stop being viable: N = 5000 means 100 MB per dense
//! matrix and `O(N²)` propagation per Cheby hop, while the thresholded
//! Gaussian kernel keeps each region's neighbourhood at a handful of
//! regions (~1% density at N = 1000 with the paper's σ = 1, α = 0.1).
//! This module builds the graph operators *directly* in CSR form —
//! the dense `N×N` intermediate is never materialised.
//!
//! # Equivalence with the dense builders
//!
//! Every builder here mirrors its dense counterpart's arithmetic
//! exactly on the stored entries:
//!
//! * degrees and power-iteration mat-vecs accumulate in ascending
//!   column order, where skipping a structural zero is the identity
//!   (adding `±0.0` to a finite accumulator), so degree sums, λ_max,
//!   and hence every scaled-Laplacian entry are **bitwise equal** to
//!   the dense path's values on the sparsity pattern;
//! * the dense path's *off-pattern* entries are signed zeros
//!   (`w.map(|x| -x)` turns `0.0` into `-0.0`), which CSR does not
//!   store — so whole-matrix comparisons are numeric (`==`), not
//!   bitwise, off the pattern;
//! * greedy coarsening visits candidates in the same order over the
//!   same non-zero entries, so the matching — and therefore pooling
//!   order, fake-slot layout, and coarse weights — is **identical**.
//!
//! The CSR property suite (`crates/graph/tests/csr_props.rs`) checks
//! these claims over random centroids, (σ, α) and pooling levels; the
//! `Spmm` conformance kernel checks the propagation itself.

use crate::proximity::ProximityParams;
use stod_tensor::rng::Rng64;
use stod_tensor::{CsrBuilder, CsrMatrix};

/// Builds the thresholded-Gaussian proximity matrix for `centroids`
/// directly in CSR form. Stored entries are bitwise equal to the dense
/// [`crate::proximity_matrix`]'s non-zeros: `(x−y)²` is sign-symmetric,
/// so computing each row independently matches the dense pair loop. A
/// weight that underflows to zero is not stored, even when `α = 0`
/// admits it, so the pattern is exactly the dense matrix's non-zeros.
pub fn proximity_csr(centroids: &[(f64, f64)], params: ProximityParams) -> CsrMatrix {
    let n = centroids.len();
    assert!(params.sigma > 0.0, "sigma must be positive");
    assert!(
        (0.0..1.0).contains(&params.alpha),
        "alpha must be in [0, 1)"
    );
    let s2 = (params.sigma as f64) * (params.sigma as f64);
    let mut b = CsrBuilder::new(n);
    for i in 0..n {
        b.push_row((0..n).filter_map(|j| {
            if i == j {
                return None;
            }
            let dx = centroids[i].0 - centroids[j].0;
            let dy = centroids[i].1 - centroids[j].1;
            let v = (-(dx * dx + dy * dy) / s2).exp() as f32;
            (v >= params.alpha && v > 0.0).then_some((j, v))
        }));
    }
    b.finish()
}

/// Combinatorial Laplacian `L = D − W` of a symmetric CSR weight
/// matrix. The diagonal is stored **explicitly** even when zero (an
/// isolated region still needs its `−1` in the scaled form). Degrees
/// are f32 sums over the stored entries in ascending column order —
/// bitwise the dense [`crate::laplacian`]'s all-columns sum, since the
/// skipped zeros are additive identities.
pub fn laplacian_csr(w: &CsrMatrix) -> CsrMatrix {
    let n = w.rows();
    assert_eq!(n, w.cols(), "weight matrix must be square");
    let mut b = CsrBuilder::new(n);
    for i in 0..n {
        let mut w_ii = 0.0f32;
        let degree: f32 = w
            .row(i)
            .map(|(j, v)| {
                if j == i {
                    w_ii = v;
                }
                v
            })
            .sum();
        let diag = degree - w_ii;
        let mut row: Vec<(usize, f32)> = w
            .row(i)
            .filter(|&(j, _)| j != i)
            .map(|(j, v)| (j, -v))
            .collect();
        let pos = row.partition_point(|&(j, _)| j < i);
        row.insert(pos, (i, diag));
        b.push_row(row);
    }
    b.finish()
}

/// Dominant eigenvalue of a symmetric CSR matrix by power iteration —
/// the same iteration as the dense
/// [`stod_tensor::linalg::power_iteration_lambda_max`] (seeded start
/// vector, per-row f64 accumulation in ascending column order), so the
/// result is bitwise equal to the dense path's on the same pattern.
pub fn power_iteration_lambda_max_csr(a: &CsrMatrix, iters: usize, seed: u64) -> f32 {
    let n = a.rows();
    assert_eq!(n, a.cols(), "power iteration needs a square matrix");
    if n == 0 {
        return 0.0;
    }
    let mut rng = Rng64::new(seed);
    let mut v: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
    let mut lambda = 0.0f64;
    for _ in 0..iters {
        let w = a.matvec_f64(&v);
        let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-30 {
            return 0.0;
        }
        lambda = norm;
        for (vi, wi) in v.iter_mut().zip(w.iter()) {
            *vi = wi / norm;
        }
    }
    lambda as f32
}

/// Largest Laplacian eigenvalue, mirroring [`crate::laplacian::lambda_max`]
/// (200 iterations, the same fixed seed).
pub fn lambda_max_csr(l: &CsrMatrix) -> f32 {
    power_iteration_lambda_max_csr(l, 200, 0xC0FFEE)
}

/// Scaled Laplacian `L̃ = 2L/λ_max − I` in CSR form, spectrum in
/// `[−1, 1]`. Stored entries are bitwise equal to the dense
/// [`crate::scaled_laplacian`]'s values on the pattern; the result is
/// symmetric (input `w` symmetric ⇒ `L` symmetric ⇒ `L̃` symmetric),
/// which the sparse Cheby backward pass relies on.
pub fn scaled_laplacian_csr(w: &CsrMatrix) -> CsrMatrix {
    let l = laplacian_csr(w);
    let lmax = lambda_max_csr(&l).max(1e-6);
    let n = l.rows();
    let mut b = CsrBuilder::new(n);
    for i in 0..n {
        b.push_row(l.row(i).map(|(j, v)| {
            let scaled = 2.0 * v / lmax;
            (j, if j == i { scaled - 1.0 } else { scaled })
        }));
    }
    b.finish()
}

/// Dirichlet energy `xᵀLx` over a CSR Laplacian, mirroring the dense
/// [`crate::dirichlet_energy`] (f64 accumulation over the stored
/// entries in row-major, column-ascending order — the dense loop skips
/// zero `l_ij` explicitly, so the iteration orders coincide).
pub fn dirichlet_energy_csr(l: &CsrMatrix, x: &stod_tensor::Tensor) -> f32 {
    let n = l.rows();
    assert_eq!(x.dim(0), n, "signal node count mismatch");
    let f: usize = x.dims()[1..].iter().product::<usize>().max(1);
    let xd = x.data();
    let mut total = 0.0f64;
    for i in 0..n {
        for (j, lij) in l.row(i) {
            if lij == 0.0 {
                continue;
            }
            let mut dot = 0.0f64;
            for k in 0..f {
                dot += xd[i * f + k] as f64 * xd[j * f + k] as f64;
            }
            total += lij as f64 * dot;
        }
    }
    total as f32
}

/// Result of coarsening a CSR graph for pooling — the sparse analogue
/// of [`crate::Coarsening`], with the coarse weights kept in CSR form
/// so multi-stage factorizations never densify.
#[derive(Debug, Clone)]
pub struct CsrCoarsening {
    /// Number of real nodes in the original graph.
    pub num_nodes: usize,
    /// Number of binary coarsening levels applied.
    pub levels: usize,
    /// Slot → node map; the sentinel `num_nodes` marks a fake slot.
    pub order: Vec<usize>,
    /// Number of clusters after coarsening (= pooled output length).
    pub pooled_len: usize,
    /// Parent mapping of each matching round (level 0 = original graph).
    pub parents: Vec<Vec<usize>>,
    /// Weight matrix of the coarsened graph, CSR.
    pub coarse_w: CsrMatrix,
}

impl CsrCoarsening {
    /// Length of the padded, reordered node axis (`pooled_len · 2^levels`).
    pub fn padded_len(&self) -> usize {
        self.order.len()
    }

    /// Pooling window size (`2^levels`).
    pub fn pool_size(&self) -> usize {
        1 << self.levels
    }

    /// Number of fake (padding) slots.
    pub fn num_fake(&self) -> usize {
        self.order.iter().filter(|&&x| x == self.num_nodes).count()
    }
}

/// One round of greedy normalized-cut matching over CSR, identical to
/// the dense `match_level`: same f64 degrees, same ascending-degree
/// visit order, same ascending-column candidate scan with strict
/// `gain > best` tie-breaking, same accumulation order for the coarse
/// weights. Only the iteration *support* differs (stored entries vs.
/// all columns), and the skipped entries contribute nothing in either.
fn match_level_csr(w: &CsrMatrix) -> (Vec<usize>, CsrMatrix) {
    let n = w.rows();
    let degrees: Vec<f64> = (0..n)
        .map(|i| w.row(i).map(|(_, v)| v as f64).sum())
        .collect();
    let mut cluster = vec![usize::MAX; n];
    let mut next_cluster = 0usize;
    let mut visit: Vec<usize> = (0..n).collect();
    visit.sort_by(|&a, &b| degrees[a].total_cmp(&degrees[b]).then(a.cmp(&b)));
    for &i in &visit {
        if cluster[i] != usize::MAX {
            continue;
        }
        let mut best: Option<(usize, f64)> = None;
        for (j, v) in w.row(i) {
            if j == i || cluster[j] != usize::MAX {
                continue;
            }
            let wij = v as f64;
            if wij <= 0.0 {
                continue;
            }
            let gain = wij * (1.0 / degrees[i].max(1e-12) + 1.0 / degrees[j].max(1e-12));
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((j, gain));
            }
        }
        cluster[i] = next_cluster;
        if let Some((j, _)) = best {
            cluster[j] = next_cluster;
        }
        next_cluster += 1;
    }
    // Coarse weights: sum of inter-cluster weights, accumulated in the
    // dense path's row-major, column-ascending encounter order (a
    // BTreeMap keyed on (ci, cj) preserves per-key add order). Exactly
    // like the dense `match_level`, each coarse edge is summed once from
    // its upper-triangle contributions and mirrored — summing the two
    // orientations independently would visit the same addends in
    // different orders and leave the coarse matrix asymmetric in the
    // last ulp, which the bitwise-symmetric CSR Cheby filters reject.
    let m = next_cluster;
    let mut acc: std::collections::BTreeMap<(usize, usize), f32> = Default::default();
    for i in 0..n {
        for (j, v) in w.row(i) {
            let (ci, cj) = (cluster[i], cluster[j]);
            if ci < cj {
                *acc.entry((ci, cj)).or_insert(0.0) += v;
            }
        }
    }
    let mut mirrored: std::collections::BTreeMap<(usize, usize), f32> = Default::default();
    for (&(ci, cj), &v) in &acc {
        mirrored.insert((ci, cj), v);
        mirrored.insert((cj, ci), v);
    }
    let mut b = CsrBuilder::new(m);
    let mut it = mirrored.into_iter().peekable();
    for ci in 0..m {
        let mut row = Vec::new();
        while let Some(&((r, _), _)) = it.peek() {
            if r != ci {
                break;
            }
            let ((_, cj), v) = it.next().unwrap();
            row.push((cj, v));
        }
        b.push_row(row);
    }
    (cluster, b.finish())
}

/// Coarsens a CSR graph through `levels` rounds of binary matching —
/// the sparse analogue of [`crate::coarsen_for_pooling`], producing an
/// identical pooling order (see [`match_level_csr`]).
pub fn coarsen_for_pooling_csr(w: &CsrMatrix, levels: usize) -> CsrCoarsening {
    let n = w.rows();
    assert_eq!(n, w.cols(), "weight matrix must be square");
    if levels == 0 {
        return CsrCoarsening {
            num_nodes: n,
            levels: 0,
            order: (0..n).collect(),
            pooled_len: n,
            parents: Vec::new(),
            coarse_w: w.clone(),
        };
    }

    let mut children_per_level: Vec<Vec<Vec<usize>>> = Vec::with_capacity(levels);
    let mut parents: Vec<Vec<usize>> = Vec::with_capacity(levels);
    let mut current = w.clone();
    for _ in 0..levels {
        let (cluster, coarse) = match_level_csr(&current);
        let m = coarse.rows();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (node, &c) in cluster.iter().enumerate() {
            children[c].push(node);
        }
        children_per_level.push(children);
        parents.push(cluster);
        current = coarse;
    }

    let coarsest = children_per_level.last().expect("levels ≥ 1").len();
    let mut slots: Vec<Option<usize>> = (0..coarsest).map(Some).collect();
    for children in children_per_level.iter().rev() {
        let mut next = Vec::with_capacity(slots.len() * 2);
        for slot in &slots {
            match slot {
                None => {
                    next.push(None);
                    next.push(None);
                }
                Some(c) => {
                    let ch = &children[*c];
                    debug_assert!(!ch.is_empty() && ch.len() <= 2);
                    next.push(Some(ch[0]));
                    next.push(ch.get(1).copied());
                }
            }
        }
        slots = next;
    }

    let order: Vec<usize> = slots.into_iter().map(|s| s.unwrap_or(n)).collect();
    CsrCoarsening {
        num_nodes: n,
        levels,
        order,
        pooled_len: coarsest,
        parents,
        coarse_w: current,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{coarsen_for_pooling, laplacian, proximity_matrix, scaled_laplacian};

    fn centroids(n: usize) -> Vec<(f64, f64)> {
        // Jittered grid, same recipe as the AF tests.
        let side = (n as f64).sqrt().ceil() as usize;
        (0..n)
            .map(|i| {
                let (r, c) = (i / side, i % side);
                let jx = ((i * 7919 % 13) as f64 / 13.0 - 0.5) * 0.2;
                let jy = ((i * 104729 % 17) as f64 / 17.0 - 0.5) * 0.2;
                (c as f64 * 0.7 + jx, r as f64 * 0.7 + jy)
            })
            .collect()
    }

    #[test]
    fn proximity_csr_matches_dense_bitwise_on_pattern() {
        let c = centroids(40);
        let p = ProximityParams::default();
        let dense = proximity_matrix(&c, p);
        let csr = proximity_csr(&c, p);
        assert_eq!(CsrMatrix::from_dense(&dense), csr);
        assert!(csr.is_symmetric());
    }

    #[test]
    fn laplacian_csr_matches_dense() {
        let c = centroids(30);
        let w = proximity_matrix(&c, ProximityParams::default());
        let ld = laplacian(&w);
        let lc = laplacian_csr(&CsrMatrix::from_dense(&w));
        let back = lc.to_dense();
        for i in 0..30 {
            for j in 0..30 {
                // Dense off-pattern zeros are −0.0; compare numerically.
                assert_eq!(ld.at(&[i, j]), back.at(&[i, j]), "({i},{j})");
            }
        }
    }

    #[test]
    fn scaled_laplacian_csr_matches_dense_and_is_symmetric() {
        let c = centroids(30);
        let w = proximity_matrix(&c, ProximityParams::default());
        let sd = scaled_laplacian(&w);
        let sc = scaled_laplacian_csr(&CsrMatrix::from_dense(&w));
        assert!(sc.is_symmetric());
        let back = sc.to_dense();
        for i in 0..30 {
            for j in 0..30 {
                assert_eq!(sd.at(&[i, j]), back.at(&[i, j]), "({i},{j})");
            }
        }
    }

    #[test]
    fn scaled_laplacian_csr_edgeless_is_minus_identity() {
        let sc = scaled_laplacian_csr(&CsrMatrix::from_dense(&stod_tensor::Tensor::zeros(&[4, 4])));
        assert_eq!(sc.nnz(), 4);
        let d = sc.to_dense();
        for i in 0..4 {
            assert_eq!(d.at(&[i, i]), -1.0);
        }
    }

    #[test]
    fn coarsening_matches_dense_exactly() {
        let c = centroids(50);
        let w = proximity_matrix(&c, ProximityParams::default());
        for levels in 0..3 {
            let dd = coarsen_for_pooling(&w, levels);
            let ss = coarsen_for_pooling_csr(&CsrMatrix::from_dense(&w), levels);
            assert_eq!(dd.order, ss.order, "levels={levels}");
            assert_eq!(dd.pooled_len, ss.pooled_len);
            assert_eq!(dd.parents, ss.parents);
            assert_eq!(CsrMatrix::from_dense(&dd.coarse_w), ss.coarse_w);
        }
    }

    #[test]
    fn dirichlet_energy_csr_matches_dense() {
        let c = centroids(20);
        let w = proximity_matrix(&c, ProximityParams::default());
        let l = laplacian(&w);
        let lc = laplacian_csr(&CsrMatrix::from_dense(&w));
        let x = stod_tensor::Tensor::from_vec(
            &[20, 3],
            (0..60)
                .map(|i| ((i * 37 % 11) as f32 - 5.0) * 0.3)
                .collect(),
        );
        let a = crate::dirichlet_energy(&l, &x);
        let b = dirichlet_energy_csr(&lc, &x);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
