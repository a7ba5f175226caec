//! # stod-conformance
//!
//! The standing correctness harness of the workspace: every performance or
//! scaling PR must leave this crate green. Three layers compose it:
//!
//! * [`oracle`] — deliberately naive, obviously-correct serial
//!   re-implementations of the hot kernels (matmul / matvec / batched
//!   matmul, the fused Cheby-Net layer of Eq. 5 with its input and
//!   filter-bank gradients, the fused AF factorization stage built on it
//!   (relu, given dropout factors, coarsening gather and max-pool), the
//!   GRU cell, recovery +
//!   softmax of Eq. 3 — dense and mask-aware sparse — the Eq. 4 masked
//!   loss, the strided dots of the sparse path, and the EMD/KL metrics of
//!   Eqs. 13/15). The oracles never touch `stod_tensor::par`; they are
//!   plain nested loops with `f64` accumulation.
//!
//!   The blocked GEMM introduced for the training hot loop gets its own
//!   corpus ([`fuzz::Kernel::BlockedGemm`]): every matrix extent is drawn
//!   from `{1, b − 1, b, b + 1, 2b + 3}` around the kernel's tile sizes
//!   (`MR`/`NR`/`KC`), which pins down edge tiles, partial K blocks and
//!   the blocked-vs-naive dispatch boundary. Half its cases run
//!   `matmul_tn` on a transposed `a`, which must also equal `matmul` of
//!   the transposed copy bit for bit.
//! * [`fuzz`] — a deterministic differential fuzzer. A seeded PRNG case
//!   generator (see [`gen`]) draws shapes, sparsity patterns and
//!   NaN-adjacent value corpora; every case runs the production kernel at
//!   `STOD_THREADS ∈ {1, 4}` (via `par::with_forced_threads`), demands the
//!   two runs be bitwise identical, and compares both against the oracle
//!   with the ULP-aware tolerance of [`ulp`]. Failing cases are shrunk to
//!   minimal dimensions and dumped as replayable JSON under
//!   `results/conformance/`.
//! * the metamorphic suite (`tests/metamorphic.rs`) — end-to-end paper
//!   properties through the BF and AF models: region-permutation
//!   equivariance, empty-cell mask invariance of the loss, per-cell
//!   simplex preservation, horizon-prefix consistency, and checkpoint
//!   round-trip idempotence through the serving registry's hot-swap.
//!
//! The fuzz budget per kernel comes from `STOD_FUZZ_CASES` (default
//! [`fuzz::DEFAULT_CASES`]); `scripts/verify.sh --conformance` wires the
//! whole crate into the repo gate and fails on any dumped counterexample.

pub mod fuzz;
pub mod gen;
pub mod oracle;
pub mod ulp;

pub use fuzz::{default_cases, fuzz_kernel, replay, CaseSpec, FuzzReport, Kernel};
pub use ulp::{max_ulp_diff, ulp_diff};
