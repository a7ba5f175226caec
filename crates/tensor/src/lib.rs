//! # stod-tensor
//!
//! Dense, row-major, `f32` tensor kernels used by every other crate in the
//! od-forecast workspace. The design goals, in order:
//!
//! 1. **Correctness** — every kernel has unit tests; algebraic laws are
//!    checked with property-based tests.
//! 2. **Predictability** — tensors are always contiguous row-major buffers;
//!    there are no lazily-evaluated views to reason about.
//! 3. **Adequate speed** — large products run a register-tiled AVX2+FMA
//!    GEMM that reads its operands in place ([`ops::gemm`]), small ones
//!    an `i-k-j` loop whose inner loop streams both operands.
//!
//! The crate also bundles the small amount of dense linear algebra the
//! project needs beyond neural-network kernels: Cholesky factorization for
//! the Gaussian-process and VAR baselines, and power iteration for the
//! maximum Laplacian eigenvalue used by Chebyshev graph convolutions.

pub mod arena;
pub mod knob;
pub mod linalg;
pub mod ops;
pub mod par;
pub mod rng;
pub mod shape;
pub mod sparse;
pub mod tensor;

pub use knob::{env_knob, parse_knob, KnobError};
pub use shape::{broadcast_shapes, Shape};
pub use sparse::{CsrBuilder, CsrMatrix};
pub use tensor::Tensor;

pub use ops::elementwise::{self, binary_op, unary_op};
pub use ops::matmul::{batched_matmul, matmul, matmul_tn, matvec};
pub use ops::reduce::{argmax_axis, max_axis, mean_axis, sum_axis};
pub use ops::softmax::{log_softmax, softmax};
pub use ops::transform::{concat, slice_axis, stack, transpose};
