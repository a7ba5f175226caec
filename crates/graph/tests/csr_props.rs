//! Property suite for the CSR graph builders the AF model runs: over
//! random centroid sets, kernel parameters (σ, α) and pooling levels,
//! every builder in `stod_graph::csr` must reproduce its dense reference
//! implementation — bitwise where `csr.rs` claims bitwise equality, and
//! numerically (`==`) where the dense path holds signed zeros off the
//! sparsity pattern.

use proptest::prelude::*;
use stod_graph::{
    coarsen_for_pooling, coarsen_for_pooling_csr, dirichlet_energy, dirichlet_energy_csr,
    laplacian, laplacian_csr, proximity_csr, proximity_matrix, scaled_laplacian,
    scaled_laplacian_csr, ProximityParams,
};
use stod_tensor::rng::Rng64;
use stod_tensor::{CsrMatrix, Tensor};

/// 2–40 centroids scattered over a square of side 0.5–8 km, so the
/// thresholded kernel yields anything from an edgeless to a complete graph.
fn centroids() -> impl Strategy<Value = Vec<(f64, f64)>> {
    (2usize..41, 0.5f64..8.0)
        .prop_flat_map(|(n, side)| proptest::collection::vec((0.0..side, 0.0..side), n))
}

/// σ in 0.3–3 km; α is exactly 0 (keep every pair the kernel does not
/// underflow) in about a quarter of the cases, otherwise in 0–0.9.
fn params() -> impl Strategy<Value = ProximityParams> {
    (0.3f32..3.0, 0usize..4, 0.0f32..0.9).prop_map(|(sigma, pick, a)| ProximityParams {
        sigma,
        alpha: if pick == 0 { 0.0 } else { a },
    })
}

/// Asserts `csr` holds exactly `dense`'s values, comparing with `==` so
/// the dense path's off-pattern `-0.0` matches CSR's unstored zeros.
fn assert_same_values(dense: &Tensor, csr: &CsrMatrix, what: &str) {
    let back = csr.to_dense();
    assert_eq!(dense.dims(), back.dims(), "{what}: shape");
    for (k, (a, b)) in dense.data().iter().zip(back.data()).enumerate() {
        assert!(a == b, "{what}: entry {k} is {a} dense vs {b} CSR");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn proximity_csr_equals_dense_proximity(c in centroids(), p in params()) {
        let csr = proximity_csr(&c, p);
        prop_assert_eq!(csr, CsrMatrix::from_dense(&proximity_matrix(&c, p)));
    }

    #[test]
    fn laplacians_match_dense_and_are_bitwise_symmetric(c in centroids(), p in params()) {
        let (w, wc) = (proximity_matrix(&c, p), proximity_csr(&c, p));
        let l = laplacian_csr(&wc);
        prop_assert!(l.is_symmetric(), "Laplacian not bitwise symmetric");
        assert_same_values(&laplacian(&w), &l, "Laplacian");
        let lt = scaled_laplacian_csr(&wc);
        prop_assert!(lt.is_symmetric(), "scaled Laplacian not bitwise symmetric");
        assert_same_values(&scaled_laplacian(&w), &lt, "scaled Laplacian");
    }

    #[test]
    fn csr_coarsening_matches_dense_exactly(
        c in centroids(),
        p in params(),
        levels in 0usize..4,
    ) {
        let dense = coarsen_for_pooling(&proximity_matrix(&c, p), levels);
        let csr = coarsen_for_pooling_csr(&proximity_csr(&c, p), levels);
        prop_assert_eq!(&dense.order, &csr.order);
        prop_assert_eq!(dense.pooled_len, csr.pooled_len);
        prop_assert_eq!(&dense.parents, &csr.parents);
        prop_assert_eq!(CsrMatrix::from_dense(&dense.coarse_w), csr.coarse_w);
    }

    #[test]
    fn dirichlet_energy_csr_matches_dense_bitwise(
        c in centroids(),
        p in params(),
        feat in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let l = laplacian(&proximity_matrix(&c, p));
        let lc = laplacian_csr(&proximity_csr(&c, p));
        let x = Tensor::randn(&[c.len(), feat], 1.0, &mut Rng64::new(seed));
        let (a, b) = (dirichlet_energy(&l, &x), dirichlet_energy_csr(&lc, &x));
        prop_assert_eq!(a.to_bits(), b.to_bits(), "energy {} dense vs {} CSR", a, b);
    }
}
