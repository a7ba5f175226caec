//! Graclus-style greedy graph coarsening (Dhillon et al.), used to order
//! regions so that the paper's *geometric pooling* (§V-A.2) pools spatially
//! adjacent regions together — the `(6, 1, 2, 3, 5, 4, 7, 8)` reordering of
//! the paper's running example.
//!
//! The algorithm repeatedly matches each unmatched node with the unmatched
//! neighbor maximizing the normalized-cut gain `w_ij · (1/d_i + 1/d_j)`.
//! After `levels` rounds every surviving cluster holds up to `2^levels`
//! original nodes; singleton merges are padded with *fake nodes* so that a
//! plain stride-`2^levels` pooling over the emitted ordering pools exactly
//! one cluster per window (Defferrard et al.'s construction).

use stod_tensor::Tensor;

/// Result of coarsening a graph for pooling.
#[derive(Debug, Clone)]
pub struct Coarsening {
    /// Number of real nodes in the original graph.
    pub num_nodes: usize,
    /// Number of binary coarsening levels applied.
    pub levels: usize,
    /// Slot → node map of length `padded_len()`. Real nodes appear exactly
    /// once; the sentinel value `num_nodes` marks a fake (zero-padded) slot.
    pub order: Vec<usize>,
    /// Number of clusters after coarsening (= pooled output length).
    pub pooled_len: usize,
    /// Parent mapping of each matching round: `parents[l][i]` is the
    /// cluster at level `l + 1` that node `i` of level `l` merged into
    /// (level 0 = the original graph). One entry per level; empty when
    /// `levels == 0`.
    pub parents: Vec<Vec<usize>>,
    /// Weight matrix of the coarsened graph (`pooled_len × pooled_len`),
    /// for stacking further graph convolutions after pooling.
    pub coarse_w: stod_tensor::Tensor,
}

impl Coarsening {
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

    /// Applies the reordering to a vector signal over the original nodes,
    /// filling fake slots with zero (reference implementation for tests;
    /// the models gather inside the fused `stod_nn::layers::ChebyPool` op).
    pub fn reorder_signal(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.num_nodes, "signal length mismatch");
        self.order
            .iter()
            .map(|&i| if i < self.num_nodes { x[i] } else { 0.0 })
            .collect()
    }
}

/// One round of greedy normalized-cut matching. Returns for each node its
/// cluster id and the coarse weight matrix.
fn match_level(w: &Tensor) -> (Vec<usize>, Tensor) {
    let n = w.dim(0);
    let degrees: Vec<f64> = (0..n)
        .map(|i| (0..n).map(|j| w.at(&[i, j]) as f64).sum())
        .collect();
    let mut cluster = vec![usize::MAX; n];
    let mut next_cluster = 0usize;
    // Deterministic visit order: ascending degree favours matching
    // peripheral nodes first (the Graclus heuristic).
    let mut visit: Vec<usize> = (0..n).collect();
    visit.sort_by(|&a, &b| degrees[a].total_cmp(&degrees[b]).then(a.cmp(&b)));
    for &i in &visit {
        if cluster[i] != usize::MAX {
            continue;
        }
        let mut best: Option<(usize, f64)> = None;
        for j in 0..n {
            if j == i || cluster[j] != usize::MAX {
                continue;
            }
            let wij = w.at(&[i, j]) as f64;
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
    // Coarse weights: sum of inter-cluster weights. Each coarse edge is
    // accumulated once, from its upper-triangle contributions in
    // row-major encounter order, then mirrored — summing the two
    // orientations independently would visit the same addends in
    // different orders and leave the result asymmetric in the last ulp,
    // which the bitwise-symmetric CSR Cheby filters cannot tolerate.
    let m = next_cluster;
    let mut cw = Tensor::zeros(&[m, m]);
    for i in 0..n {
        for j in 0..n {
            let (ci, cj) = (cluster[i], cluster[j]);
            if ci < cj {
                let v = cw.at(&[ci, cj]) + w.at(&[i, j]);
                cw.set(&[ci, cj], v);
            }
        }
    }
    for ci in 0..m {
        for cj in (ci + 1)..m {
            cw.set(&[cj, ci], cw.at(&[ci, cj]));
        }
    }
    (cluster, cw)
}

/// Coarsens `w` through `levels` rounds of binary matching and emits the
/// padded pooling order.
///
/// # Panics
/// Panics if `w` is not square.
pub fn coarsen_for_pooling(w: &Tensor, levels: usize) -> Coarsening {
    assert_eq!(w.ndim(), 2, "weight matrix must be 2-D");
    let n = w.dim(0);
    assert_eq!(n, w.dim(1), "weight matrix must be square");
    if levels == 0 {
        return Coarsening {
            num_nodes: n,
            levels: 0,
            order: (0..n).collect(),
            pooled_len: n,
            parents: Vec::new(),
            coarse_w: w.clone(),
        };
    }

    // Run the matchings, remembering each level's children lists and the
    // raw parent maps (exposed for conformance/property tests).
    let mut children_per_level: Vec<Vec<Vec<usize>>> = Vec::with_capacity(levels);
    let mut parents: Vec<Vec<usize>> = Vec::with_capacity(levels);
    let mut current = w.clone();
    for _ in 0..levels {
        let (cluster, coarse) = match_level(&current);
        let m = coarse.dim(0);
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (node, &c) in cluster.iter().enumerate() {
            children[c].push(node);
        }
        children_per_level.push(children);
        parents.push(cluster);
        current = coarse;
    }

    // Expand slot assignments from the coarsest level down, inserting fake
    // slots where a cluster had a single child.
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
    Coarsening {
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

    /// 2×4 grid graph: strong horizontal neighbors.
    fn grid_w() -> Tensor {
        let n = 8;
        let mut w = Tensor::zeros(&[n, n]);
        let idx = |r: usize, c: usize| r * 4 + c;
        for r in 0..2 {
            for c in 0..4 {
                if c + 1 < 4 {
                    w.set(&[idx(r, c), idx(r, c + 1)], 1.0);
                    w.set(&[idx(r, c + 1), idx(r, c)], 1.0);
                }
                if r + 1 < 2 {
                    w.set(&[idx(r, c), idx(r + 1, c)], 1.0);
                    w.set(&[idx(r + 1, c), idx(r, c)], 1.0);
                }
            }
        }
        w
    }

    #[test]
    fn every_real_node_appears_exactly_once() {
        let c = coarsen_for_pooling(&grid_w(), 2);
        let mut counts = [0usize; 8];
        for &o in &c.order {
            if o < 8 {
                counts[o] += 1;
            }
        }
        assert!(counts.iter().all(|&x| x == 1), "order = {:?}", c.order);
    }

    #[test]
    fn padded_length_matches_pool_arithmetic() {
        let c = coarsen_for_pooling(&grid_w(), 2);
        assert_eq!(c.padded_len(), c.pooled_len * c.pool_size());
        assert_eq!(c.pool_size(), 4);
        assert!(c.padded_len() >= 8);
    }

    #[test]
    fn zero_levels_is_identity() {
        let c = coarsen_for_pooling(&grid_w(), 0);
        assert_eq!(c.order, (0..8).collect::<Vec<_>>());
        assert_eq!(c.pooled_len, 8);
        assert_eq!(c.num_fake(), 0);
    }

    #[test]
    fn one_level_pairs_are_neighbors() {
        let w = grid_w();
        let c = coarsen_for_pooling(&w, 1);
        for pair in c.order.chunks(2) {
            let (a, b) = (pair[0], pair[1]);
            if a < 8 && b < 8 {
                assert!(
                    w.at(&[a, b]) > 0.0,
                    "pooled pair ({a},{b}) are not graph neighbors"
                );
            }
        }
    }

    #[test]
    fn reorder_signal_places_values_and_zeros() {
        let c = coarsen_for_pooling(&grid_w(), 1);
        let x: Vec<f32> = (0..8).map(|i| i as f32 + 1.0).collect();
        let r = c.reorder_signal(&x);
        assert_eq!(r.len(), c.padded_len());
        let sum: f32 = r.iter().sum();
        assert_eq!(sum, x.iter().sum::<f32>(), "fake slots must be zero");
    }

    #[test]
    fn edgeless_graph_all_singletons() {
        let c = coarsen_for_pooling(&Tensor::zeros(&[4, 4]), 1);
        // No matches possible: every cluster is a singleton + one fake.
        assert_eq!(c.pooled_len, 4);
        assert_eq!(c.num_fake(), 4);
    }

    #[test]
    fn deterministic() {
        let a = coarsen_for_pooling(&grid_w(), 2);
        let b = coarsen_for_pooling(&grid_w(), 2);
        assert_eq!(a.order, b.order);
    }

    #[test]
    fn two_levels_quadruple_cluster_connected() {
        // All four members of a window must lie in one connected component
        // of the original graph (they were merged through matchings).
        let w = grid_w();
        let c = coarsen_for_pooling(&w, 2);
        for window in c.order.chunks(4) {
            let real: Vec<usize> = window.iter().copied().filter(|&x| x < 8).collect();
            if real.len() <= 1 {
                continue;
            }
            // BFS within the window members over the original graph.
            let mut seen = vec![false; real.len()];
            seen[0] = true;
            let mut frontier = vec![real[0]];
            while let Some(u) = frontier.pop() {
                for (k, &v) in real.iter().enumerate() {
                    if !seen[k] && w.at(&[u, v]) > 0.0 {
                        seen[k] = true;
                        frontier.push(v);
                    }
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "window {:?} is not connected in the original graph",
                real
            );
        }
    }
}
