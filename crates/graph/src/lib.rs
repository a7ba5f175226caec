//! # stod-graph
//!
//! The graph machinery behind the paper's advanced framework:
//!
//! * [`csr`] — the graph operators the models run, built directly in
//!   CSR form: the thresholded-Gaussian *proximity matrix* `W`
//!   (§V-A.1) that captures spatial correlation among origin regions and
//!   among destination regions, the combinatorial Laplacian `L = D − W`,
//!   its scaled form `L̃ = 2L/λ_max − I` used by Cheby-Net filters, the
//!   Dirichlet energy `xᵀLx` of the Eq. 11 regularizers, and the
//!   Graclus-style coarsening behind the paper's *geometric pooling*
//!   (§V-A.2).
//! * [`proximity`], [`laplacian`], [`coarsen`] — the kernel parameters
//!   ([`ProximityParams`]) and dense reference implementations of the
//!   same builders. No model runs the dense builders; they are the
//!   oracles the CSR builders are tested against (`tests/csr_props.rs`).

pub mod coarsen;
pub mod csr;
pub mod laplacian;
pub mod proximity;

pub use coarsen::{coarsen_for_pooling, Coarsening};
pub use csr::{
    coarsen_for_pooling_csr, dirichlet_energy_csr, lambda_max_csr, laplacian_csr, proximity_csr,
    scaled_laplacian_csr, CsrCoarsening,
};
pub use laplacian::{dirichlet_energy, laplacian, scaled_laplacian};
pub use proximity::{proximity_matrix, ProximityParams};
