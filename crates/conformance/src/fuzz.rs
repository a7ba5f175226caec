//! The deterministic differential fuzzer.
//!
//! Every case is a `(kernel, seed, dims)` triple. Shapes come from a
//! per-case PRNG stream (with periodic large draws that cross
//! `stod_tensor::par`'s parallel threshold so the pool path is exercised);
//! input buffers are regenerated from the same triple on demand, which is
//! what makes dumped counterexamples replayable without a JSON parser —
//! see [`replay`].
//!
//! Per case the production kernel runs under `par::with_forced_threads(1)`
//! and `(4)`; the two runs must agree to 0 ULP (the workspace determinism
//! contract), and both are compared against the [`crate::oracle`] with the
//! condition-aware tolerance of [`crate::ulp`]. Cases whose forward also
//! has a no-grad path (the eval cases of [`Kernel::ChebyPool`]) rerun it
//! on a no-grad tape at both thread counts, and its output must match
//! the training tape's bit for bit; the transposed-lhs cases of
//! [`Kernel::BlockedGemm`] likewise rerun as `matmul` of the transposed
//! copy, which must match `matmul_tn` bit for bit. A failing case is shrunk
//! by greedy dimension-halving and dumped as JSON under
//! `results/conformance/`.

use std::fs;
use std::path::{Path, PathBuf};

use stod_nn::{ParamStore, Tape};
use stod_obs::json;
use stod_tensor::rng::Rng64;
use stod_tensor::{par, Tensor};

use crate::gen::{self, ValueClass};
use crate::oracle::{self, OracleOut};
use crate::ulp;

/// Default fuzz budget per kernel (overridable via `STOD_FUZZ_CASES`).
pub const DEFAULT_CASES: usize = 256;

/// Per-kernel case budget: `STOD_FUZZ_CASES` if set and parseable, else
/// [`DEFAULT_CASES`].
pub fn default_cases() -> usize {
    std::env::var("STOD_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_CASES)
}

/// The production kernels under differential test.
///
/// The discriminants salt each kernel's case seeds (see [`fuzz_kernel`]),
/// so they are pinned: a retired kernel leaves a gap (3, the graph-side
/// Chebyshev basis) instead of reseeding every kernel after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// `stod_tensor::matmul` (f32 accumulation, zero-row skip).
    Matmul = 0,
    /// `stod_tensor::matvec` (f64 accumulation).
    Matvec = 1,
    /// `stod_tensor::batched_matmul` incl. 2-D broadcast operands.
    BatchedMatmul = 2,
    /// `stod_nn::layers::ChebyConv` — the fused Eq. 5 layer the models
    /// run: its output and its gradients with respect to `X` and `W`,
    /// over CSR operators with every off-diagonal entry stored or about
    /// half of them dropped.
    ChebyConv = 4,
    /// `stod_nn::layers::GruCell::step` through the tape.
    Gru,
    /// `stod_core::recovery::recover` (Eq. 3: rank-β product + bucket softmax).
    Recovery,
    /// `Tape::masked_sq_err` (the data term of Eq. 4).
    MaskedLoss,
    /// `stod_tensor::softmax` along a middle axis.
    Softmax,
    /// `stod_metrics::emd` vs an independent optimal-transport solver.
    Emd,
    /// `stod_metrics::kl_divergence` (Eq. 13).
    Kl,
    /// `stod_tensor::matmul` again, but with every extent drawn from the
    /// boundary corpus of the blocked kernel's tile sizes (MR/NR/KC) so
    /// edge tiles, partial KC blocks and the blocked/naive dispatch
    /// boundary are all exercised; half the cases run
    /// `stod_tensor::matmul_tn` on a transposed `a` instead.
    BlockedGemm,
    /// `stod_tensor::ops::gemm::{dot_fma_strided, dot_naive_strided}` —
    /// the transposed-layout dots the sparse recovery path reads factor
    /// tensors with.
    StridedDot,
    /// `stod_core::recovery::recover_sparse` (mask-aware Eq. 3), incl.
    /// all-empty and all-observed masks.
    SparseRecovery,
    /// `stod_tensor::CsrMatrix::spmm_panel` (sparse matrix × dense
    /// panel, the city-scale Cheby propagation), over sparsity classes
    /// from fully dense to ~99% empty and both the `[N, F]` and
    /// `[B, N, F]` panel layouts.
    Spmm,
    /// `stod_nn::layers::ChebyPool` — one AF factorization stage: the
    /// Cheby-Net conv, relu, dropout from the op's own `Rng64` stream
    /// (train) or none (eval), and max-pooling over a coarsening order
    /// with fake slots, at pool 1, 2 and 4: its output and its gradients
    /// with respect to `X` and `W`. Eval cases also run on a no-grad
    /// tape, whose output must match bit for bit.
    ChebyPool,
}

impl Kernel {
    /// Every kernel, in fuzzing order.
    pub const ALL: [Kernel; 15] = [
        Kernel::Matmul,
        Kernel::Matvec,
        Kernel::BatchedMatmul,
        Kernel::ChebyConv,
        Kernel::Gru,
        Kernel::Recovery,
        Kernel::MaskedLoss,
        Kernel::Softmax,
        Kernel::Emd,
        Kernel::Kl,
        Kernel::BlockedGemm,
        Kernel::StridedDot,
        Kernel::SparseRecovery,
        Kernel::Spmm,
        Kernel::ChebyPool,
    ];

    /// Stable lowercase name (used in dump file names).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Matmul => "matmul",
            Kernel::Matvec => "matvec",
            Kernel::BatchedMatmul => "batched_matmul",
            Kernel::ChebyConv => "cheby_conv",
            Kernel::Gru => "gru",
            Kernel::Recovery => "recovery",
            Kernel::MaskedLoss => "masked_loss",
            Kernel::Softmax => "softmax",
            Kernel::Emd => "emd",
            Kernel::Kl => "kl",
            Kernel::BlockedGemm => "blocked_gemm",
            Kernel::StridedDot => "strided_dot",
            Kernel::SparseRecovery => "sparse_recovery",
            Kernel::Spmm => "spmm",
            Kernel::ChebyPool => "cheby_pool",
        }
    }
}

/// One extent of the blocked-GEMM boundary corpus: `1`, `b − 1`, `b`,
/// `b + 1` or `2b + 3` for a tile size `b` — exactly the shapes where an
/// off-by-one in edge-tile or panel handling would land.
fn blocked_boundary_dim(rng: &mut Rng64, block: usize) -> usize {
    match rng.next_below(5) {
        0 => 1,
        1 => block - 1,
        2 => block,
        3 => block + 1,
        _ => 2 * block + 3,
    }
}

/// One replayable fuzz case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSpec {
    /// Kernel under test.
    pub kernel: Kernel,
    /// PRNG seed — inputs are a pure function of `(seed, dims)`.
    pub seed: u64,
    /// Kernel-specific dimension vector (see [`initial_dims`]).
    pub dims: Vec<usize>,
}

/// How a case failed.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// `"thread_divergence"` (threads 1 vs 4 not bitwise),
    /// `"no_grad_divergence"` (a no-grad forward not bitwise the
    /// training tape's), `"transpose_divergence"` (`matmul_tn` not
    /// bitwise `matmul` of the transposed copy) or `"oracle_mismatch"`.
    pub kind: &'static str,
    /// Flat index of the worst element.
    pub index: usize,
    /// Production value at that index.
    pub got: f32,
    /// Oracle value (or the threads=4 value for a divergence).
    pub want: f64,
    /// ULP distance.
    pub ulp: u64,
    /// Absolute error.
    pub abs_err: f64,
}

/// A failure after minimization, as recorded in a [`FuzzReport`].
#[derive(Debug, Clone)]
pub struct FailureRecord {
    /// The shrunk failing case.
    pub spec: CaseSpec,
    /// The case as originally drawn.
    pub original: CaseSpec,
    /// Details of the (minimized) failure.
    pub failure: CaseFailure,
    /// Where the JSON counterexample was written, if a dump dir was given.
    pub dump: Option<PathBuf>,
}

/// Outcome of fuzzing one kernel.
#[derive(Debug)]
pub struct FuzzReport {
    /// Kernel fuzzed.
    pub kernel: Kernel,
    /// Number of cases executed.
    pub cases: usize,
    /// All failures found (empty on a clean run).
    pub failures: Vec<FailureRecord>,
}

/// The canonical dump directory: `results/conformance/` at the repo root.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/conformance")
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Initial dimension vector for case `seed` of `kernel`. Roughly every
/// eighth case draws a shape whose work crosses `par::MIN_PARALLEL_WORK`
/// so the thread-pool path is actually exercised.
pub fn initial_dims(kernel: Kernel, seed: u64) -> Vec<usize> {
    let mut rng = Rng64::new(splitmix(seed ^ 0xd1_5c0));
    let big = rng.next_below(8) == 0;
    match kernel {
        Kernel::Matmul => {
            if big {
                vec![96, 24, 32] // 96·24·32 = 73 728 > MIN_PARALLEL_WORK
            } else {
                vec![
                    gen::dim(&mut rng, 1, 24),
                    gen::dim(&mut rng, 1, 24),
                    gen::dim(&mut rng, 1, 24),
                ]
            }
        }
        Kernel::Matvec => {
            if big {
                vec![512, 160] // 81 920 > MIN_PARALLEL_WORK
            } else {
                vec![gen::dim(&mut rng, 1, 48), gen::dim(&mut rng, 1, 48)]
            }
        }
        Kernel::BatchedMatmul => {
            let mode = rng.next_below(3);
            if big {
                vec![24, 16, 16, 16, mode] // 98 304 > MIN_PARALLEL_WORK
            } else {
                vec![
                    gen::dim(&mut rng, 1, 6),
                    gen::dim(&mut rng, 1, 12),
                    gen::dim(&mut rng, 1, 12),
                    gen::dim(&mut rng, 1, 12),
                    mode,
                ]
            }
        }
        Kernel::ChebyConv => {
            // [batch, nodes, feat, order, out, half_dropped]
            let (batch, order, out) = (
                gen::dim(&mut rng, 1, 4),
                gen::dim(&mut rng, 1, 5),
                gen::dim(&mut rng, 1, 8),
            );
            if big {
                // train_paper's first factorization stage (N = 67, F = 7),
                // wide enough for the pool path.
                vec![4, 67, 7, 4, 16, 0]
            } else {
                match rng.next_below(3) {
                    // Larger graphs, fully stored, with N²·F ≥ 24³.
                    0 => {
                        let n = gen::dim(&mut rng, 24, 40);
                        let f = (24 * 24 * 24usize).div_ceil(n * n) + rng.next_below(4);
                        vec![batch, n, f, order, out, 0]
                    }
                    // Small graphs, fully stored.
                    1 => vec![
                        batch,
                        gen::dim(&mut rng, 1, 12),
                        gen::dim(&mut rng, 1, 8),
                        order,
                        out,
                        0,
                    ],
                    _ => vec![
                        batch,
                        gen::dim(&mut rng, 1, 24),
                        gen::dim(&mut rng, 1, 8),
                        order,
                        out,
                        1,
                    ],
                }
            }
        }
        Kernel::ChebyPool => {
            // [batch, nodes, feat, order, out, log2 pool, train, extra
            // clusters]
            let (train, extra) = (rng.next_below(2), rng.next_below(3));
            if big {
                // train_paper's first stage: N = 67, F = 7 → 32, S = 4, P4,
                // over 40 slices: two of the op's blocks of slices (32
                // fit its cache budget at this shape), the second short.
                vec![40, 67, 7, 4, 32, 2, train, extra]
            } else {
                vec![
                    gen::dim(&mut rng, 1, 4),
                    gen::dim(&mut rng, 1, 24),
                    gen::dim(&mut rng, 1, 8),
                    gen::dim(&mut rng, 1, 5),
                    gen::dim(&mut rng, 1, 9),
                    rng.next_below(3),
                    train,
                    extra,
                ]
            }
        }
        Kernel::Gru => {
            if big {
                vec![64, 32, 32] // gate matmul 64·32·96 = 196 608
            } else {
                vec![
                    gen::dim(&mut rng, 1, 8),
                    gen::dim(&mut rng, 1, 12),
                    gen::dim(&mut rng, 1, 12),
                ]
            }
        }
        Kernel::Recovery => {
            let has_bias = rng.next_below(2);
            if big {
                vec![4, 12, 4, 12, 16, has_bias] // 4·16 batched 12·4·12 products
            } else {
                vec![
                    gen::dim(&mut rng, 1, 3),
                    gen::dim(&mut rng, 1, 6),
                    gen::dim(&mut rng, 1, 4),
                    gen::dim(&mut rng, 1, 6),
                    gen::dim(&mut rng, 1, 7),
                    has_bias,
                ]
            }
        }
        Kernel::MaskedLoss => {
            if big {
                vec![512, 160]
            } else {
                vec![gen::dim(&mut rng, 1, 24), gen::dim(&mut rng, 1, 24)]
            }
        }
        Kernel::Softmax => {
            if big {
                vec![96, 32, 24] // 73 728 elements
            } else {
                vec![
                    gen::dim(&mut rng, 1, 12),
                    gen::dim(&mut rng, 1, 12),
                    gen::dim(&mut rng, 1, 12),
                ]
            }
        }
        Kernel::Emd | Kernel::Kl => vec![gen::dim(&mut rng, 1, 16)],
        Kernel::BlockedGemm => {
            use stod_tensor::ops::gemm::{KC, MR, NR};
            let mut dims = if big {
                // Edge row and column tiles across three KC blocks, with
                // work above par::MIN_PARALLEL_WORK.
                vec![4 * MR + 1, 2 * KC + 3, 2 * NR + 3]
            } else {
                // At most one extent draws from the KC family so the f64
                // oracle stays affordable; the register-tile families
                // (MR, NR) cover the microkernel edge cases.
                let kc_dim = rng.next_below(4); // 3 = none
                (0..3)
                    .map(|i| {
                        let block = if i == kc_dim {
                            KC
                        } else if rng.next_below(2) == 0 {
                            MR
                        } else {
                            NR
                        };
                        blocked_boundary_dim(&mut rng, block)
                    })
                    .collect()
            };
            dims.push(rng.next_below(2)); // 1 = transposed lhs
            dims
        }
        Kernel::StridedDot => {
            use stod_tensor::ops::gemm::{KC, MR, NR};
            let block = [MR, NR, KC][rng.next_below(3)];
            vec![
                blocked_boundary_dim(&mut rng, block),
                gen::dim(&mut rng, 1, 8),  // lda — e.g. the K stride of R̂
                gen::dim(&mut rng, 1, 48), // ldb — e.g. the N'·K stride of Ĉ
                rng.next_below(2),         // 0 = FMA flavor, 1 = naive
            ]
        }
        Kernel::SparseRecovery => {
            let has_bias = rng.next_below(2);
            let variant = rng.next_below(4); // 0/1 random, 2 all-empty, 3 all-observed
            if big {
                vec![4, 32, 4, 32, 16, has_bias, 0]
            } else {
                vec![
                    gen::dim(&mut rng, 1, 3),
                    gen::dim(&mut rng, 1, 6),
                    gen::dim(&mut rng, 1, 4),
                    gen::dim(&mut rng, 1, 6),
                    gen::dim(&mut rng, 1, 7),
                    has_bias,
                    variant.min(3),
                ]
            }
        }
        Kernel::Spmm => {
            let sparsity = rng.next_below(4);
            if big {
                // Even under the Sparse value class (~80% zeros), 96
                // rows × 4 batches × 24 feats at ~19 nnz/row clears
                // par::MIN_PARALLEL_WORK, so the pool path runs.
                vec![96, 24, 4, 0]
            } else {
                vec![
                    gen::dim(&mut rng, 1, 24),
                    gen::dim(&mut rng, 1, 8),
                    gen::dim(&mut rng, 1, 4),
                    sparsity,
                ]
            }
        }
    }
}

/// Clamps an arbitrary dimension vector into the kernel's valid domain, so
/// the minimizer can mutate dims freely.
fn normalize_dims(kernel: Kernel, dims: &[usize]) -> Vec<usize> {
    let want_len = match kernel {
        Kernel::Matmul | Kernel::Gru | Kernel::Softmax => 3,
        Kernel::Matvec | Kernel::MaskedLoss => 2,
        Kernel::BatchedMatmul => 5,
        Kernel::Recovery => 6,
        Kernel::Emd | Kernel::Kl => 1,
        Kernel::StridedDot | Kernel::BlockedGemm => 4,
        Kernel::SparseRecovery => 7,
        Kernel::Spmm => 4,
        Kernel::ChebyConv => 6,
        Kernel::ChebyPool => 8,
    };
    let mut d: Vec<usize> = dims
        .iter()
        .copied()
        .chain(std::iter::repeat(1))
        .take(want_len)
        .map(|x| x.max(1))
        .collect();
    match kernel {
        Kernel::BatchedMatmul => d[4] = dims.get(4).copied().unwrap_or(0) % 3,
        Kernel::Recovery => d[5] = dims.get(5).copied().unwrap_or(0) % 2,
        Kernel::StridedDot | Kernel::BlockedGemm => d[3] = dims.get(3).copied().unwrap_or(0) % 2,
        Kernel::SparseRecovery => {
            d[5] = dims.get(5).copied().unwrap_or(0) % 2;
            d[6] = dims.get(6).copied().unwrap_or(0) % 4;
        }
        Kernel::Spmm => d[3] = dims.get(3).copied().unwrap_or(0) % 4,
        Kernel::ChebyConv => {
            d[3] = d[3].min(5);
            d[5] = dims.get(5).copied().unwrap_or(0) % 2;
        }
        Kernel::ChebyPool => {
            d[3] = d[3].min(5);
            d[5] = dims.get(5).copied().unwrap_or(0) % 3;
            d[6] = dims.get(6).copied().unwrap_or(0) % 2;
            d[7] = dims.get(7).copied().unwrap_or(0) % 3;
        }
        _ => {}
    }
    d
}

/// A named input buffer of a case (for the JSON dump).
struct InputBuf {
    name: &'static str,
    dims: Vec<usize>,
    data: Vec<f32>,
}

/// Dropout rate of the [`Kernel::ChebyPool`] train cases.
const CHEBY_POOL_DROPOUT: f32 = 0.2;

/// The stream a [`Kernel::ChebyPool`] case's op draws its dropout from.
fn dropout_stream(seed: u64) -> Rng64 {
    Rng64::new(splitmix(seed ^ 0xd2_0b0f))
}

/// `(pool, pooled nodes)` of a [`Kernel::ChebyPool`] case.
fn pool_shape(dims: &[usize]) -> (usize, usize) {
    let (n, pool) = (dims[1], 1 << dims[5]);
    let m = if pool == 1 {
        n
    } else {
        n.div_ceil(pool) + dims[7]
    };
    (pool, m)
}

/// A symmetric operator (the CSR filter requires it) scaled so no row's
/// absolute sum exceeds 1, like a scaled Laplacian's spectrum in
/// [−1, 1]: the Chebyshev recurrence then stays in range for every value
/// class instead of overflowing at order 2. Every off-diagonal entry is
/// stored, or about half are dropped.
fn scaled_operator(rng: &mut Rng64, class: ValueClass, n: usize, half_dropped: bool) -> InputBuf {
    let raw = gen::fill(rng, class, n * n);
    let drop = if half_dropped { 0.5 } else { 0.0 };
    let keep = gen::fill_mask(rng, n * n, drop);
    let mut l = vec![0.0f32; n * n];
    for i in 0..n {
        for j in i..n {
            let v = if i == j {
                raw[i * n + j]
            } else {
                raw[i * n + j] * keep[i * n + j]
            };
            l[i * n + j] = v;
            l[j * n + i] = v;
        }
    }
    let row_sum = (0..n)
        .map(|i| l[i * n..(i + 1) * n].iter().map(|v| v.abs()).sum::<f32>())
        .fold(0.0f32, f32::max);
    if row_sum > 1.0 {
        l.iter_mut().for_each(|v| *v /= row_sum);
    }
    InputBuf {
        name: "l",
        dims: vec![n, n],
        data: l,
    }
}

/// Regenerates a case's input buffers from `(seed, dims)`. This is the
/// single source of truth for input data — `run_case` and the dump both
/// call it, so a dumped `(kernel, seed, dims)` triple is the full case.
fn build_inputs(kernel: Kernel, seed: u64, dims: &[usize]) -> Vec<InputBuf> {
    let mut rng = Rng64::new(splitmix(seed));
    let class = ValueClass::for_seed(seed);
    let buf = |rng: &mut Rng64, name: &'static str, d: &[usize]| InputBuf {
        name,
        dims: d.to_vec(),
        data: gen::fill(rng, class, d.iter().product()),
    };
    match kernel {
        Kernel::Matmul => {
            let (m, k, n) = (dims[0], dims[1], dims[2]);
            vec![buf(&mut rng, "a", &[m, k]), buf(&mut rng, "b", &[k, n])]
        }
        Kernel::BlockedGemm => {
            let (m, k, n) = (dims[0], dims[1], dims[2]);
            let a_dims = if dims[3] == 1 { [k, m] } else { [m, k] };
            vec![buf(&mut rng, "a", &a_dims), buf(&mut rng, "b", &[k, n])]
        }
        Kernel::StridedDot => {
            let (len, lda, ldb) = (dims[0], dims[1], dims[2]);
            vec![
                buf(&mut rng, "a", &[len, lda]),
                buf(&mut rng, "b", &[len, ldb]),
            ]
        }
        Kernel::SparseRecovery => {
            let (batch, n, beta, n_dest, k, has_bias, variant) = (
                dims[0], dims[1], dims[2], dims[3], dims[4], dims[5], dims[6],
            );
            let mut out = vec![
                buf(&mut rng, "r", &[batch, n, beta, k]),
                buf(&mut rng, "c", &[batch, beta, n_dest, k]),
            ];
            if has_bias == 1 {
                out.push(buf(&mut rng, "bias", &[n, n_dest, k]));
            }
            // Variants 0/1 draw a random mask; 2 is all-empty (the uniform
            // fallback output); 3 is all-observed (dense-equivalent).
            let p_empty = match variant {
                2 => 1.0,
                3 => 0.0,
                _ => 0.5,
            };
            out.push(InputBuf {
                name: "mask",
                dims: vec![batch, n, n_dest],
                data: gen::fill_mask(&mut rng, batch * n * n_dest, p_empty),
            });
            out
        }
        Kernel::Spmm => {
            let (n, feat, batch, sparsity) = (dims[0], dims[1], dims[2], dims[3]);
            // Sparsify the matrix on top of whatever the value class drew:
            // the CSR path must be correct from fully dense down to the
            // ~99%-empty proximity graphs it exists for.
            let mut w = buf(&mut rng, "w", &[n, n]);
            let p_zero = [0.0, 0.5, 0.9, 0.99][sparsity];
            for (v, keep) in w
                .data
                .iter_mut()
                .zip(gen::fill_mask(&mut rng, n * n, p_zero))
            {
                *v *= keep;
            }
            // batch == 1 exercises the 2-D [N, F] panel layout.
            let x_dims: Vec<usize> = if batch == 1 {
                vec![n, feat]
            } else {
                vec![batch, n, feat]
            };
            vec![
                w,
                InputBuf {
                    name: "x",
                    data: gen::fill(&mut rng, class, x_dims.iter().product()),
                    dims: x_dims,
                },
            ]
        }
        Kernel::Matvec => {
            let (m, k) = (dims[0], dims[1]);
            vec![buf(&mut rng, "a", &[m, k]), buf(&mut rng, "x", &[k])]
        }
        Kernel::BatchedMatmul => {
            let (batch, m, k, n, mode) = (dims[0], dims[1], dims[2], dims[3], dims[4]);
            let a_dims: Vec<usize> = if mode == 1 {
                vec![m, k]
            } else {
                vec![batch, m, k]
            };
            let b_dims: Vec<usize> = if mode == 2 {
                vec![k, n]
            } else {
                vec![batch, k, n]
            };
            vec![
                InputBuf {
                    name: "a",
                    data: gen::fill(&mut rng, class, a_dims.iter().product()),
                    dims: a_dims,
                },
                InputBuf {
                    name: "b",
                    data: gen::fill(&mut rng, class, b_dims.iter().product()),
                    dims: b_dims,
                },
            ]
        }
        Kernel::ChebyConv => {
            let (batch, n, f, order, out, half_dropped) =
                (dims[0], dims[1], dims[2], dims[3], dims[4], dims[5]);
            vec![
                scaled_operator(&mut rng, class, n, half_dropped == 1),
                buf(&mut rng, "x", &[batch, n, f]),
                buf(&mut rng, "w", &[order * f, out]),
                buf(&mut rng, "b", &[out]),
                buf(&mut rng, "g", &[batch, n, out]),
            ]
        }
        Kernel::ChebyPool => {
            let (batch, n, f, order, out) = (dims[0], dims[1], dims[2], dims[3], dims[4]);
            let (pool, m) = pool_shape(dims);
            let mut inputs = vec![
                scaled_operator(&mut rng, class, n, false),
                buf(&mut rng, "x", &[batch, n, f]),
                buf(&mut rng, "w", &[order * f, out]),
                buf(&mut rng, "b", &[out]),
                buf(&mut rng, "g", &[batch, m, out]),
            ];
            // The real nodes and m·pool − n fake slots (value n) in random
            // positions; the identity at pool 1.
            let mut slots: Vec<usize> = (0..m * pool).map(|i| i.min(n)).collect();
            if pool > 1 {
                rng.shuffle(&mut slots);
            }
            inputs.push(InputBuf {
                name: "order",
                dims: vec![m * pool],
                data: slots.iter().map(|&v| v as f32).collect(),
            });
            // The factors the op draws from its stream: one per conv
            // output element, in row-major order; none in eval mode.
            let len = batch * n * out;
            let mask = if dims[6] == 1 {
                let mut stream = dropout_stream(seed);
                let scale = 1.0 / (1.0 - CHEBY_POOL_DROPOUT);
                (0..len)
                    .map(|_| {
                        if stream.next_f32() < CHEBY_POOL_DROPOUT {
                            0.0
                        } else {
                            scale
                        }
                    })
                    .collect()
            } else {
                vec![1.0; len]
            };
            inputs.push(InputBuf {
                name: "mask",
                dims: vec![batch, n, out],
                data: mask,
            });
            inputs
        }
        Kernel::Gru => {
            let (batch, in_dim, hidden) = (dims[0], dims[1], dims[2]);
            vec![
                buf(&mut rng, "x", &[batch, in_dim]),
                buf(&mut rng, "h", &[batch, hidden]),
                buf(&mut rng, "wx", &[in_dim, 3 * hidden]),
                buf(&mut rng, "wh", &[hidden, 3 * hidden]),
                buf(&mut rng, "b", &[3 * hidden]),
            ]
        }
        Kernel::Recovery => {
            let (batch, n, beta, n_dest, k, has_bias) =
                (dims[0], dims[1], dims[2], dims[3], dims[4], dims[5]);
            let mut out = vec![
                buf(&mut rng, "r", &[batch, n, beta, k]),
                buf(&mut rng, "c", &[batch, beta, n_dest, k]),
            ];
            if has_bias == 1 {
                out.push(buf(&mut rng, "bias", &[n, n_dest, k]));
            }
            out
        }
        Kernel::MaskedLoss => {
            let (rows, cols) = (dims[0], dims[1]);
            vec![
                buf(&mut rng, "pred", &[rows, cols]),
                buf(&mut rng, "target", &[rows, cols]),
                InputBuf {
                    name: "mask",
                    dims: vec![rows, cols],
                    data: gen::fill_mask(&mut rng, rows * cols, 0.4),
                },
            ]
        }
        Kernel::Softmax => {
            let (outer, mid, inner) = (dims[0], dims[1], dims[2]);
            vec![buf(&mut rng, "x", &[outer, mid, inner])]
        }
        Kernel::Emd | Kernel::Kl => {
            let k = dims[0];
            vec![
                InputBuf {
                    name: "m",
                    dims: vec![k],
                    data: gen::fill_histogram(&mut rng, k, true),
                },
                InputBuf {
                    name: "m_hat",
                    dims: vec![k],
                    data: gen::fill_histogram(&mut rng, k, true),
                },
            ]
        }
    }
}

/// The [`Kernel::ChebyPool`] stage and weights a case's inputs describe.
fn cheby_pool_stage(
    dims: &[usize],
    inputs: &[InputBuf],
) -> (stod_nn::layers::ChebyPool, ParamStore) {
    use stod_nn::layers::{ChebyConv, ChebyPool};
    let t = |i: usize| Tensor::from_vec(&inputs[i].dims, inputs[i].data.clone());
    let (f, order, out) = (dims[2], dims[3], dims[4]);
    let (pool, _) = pool_shape(dims);
    let filter = std::sync::Arc::new(stod_tensor::CsrMatrix::from_dense(&t(0)));
    let mut store = ParamStore::new();
    let conv = ChebyConv::new(&mut store, "c", filter, order, f, out, &mut Rng64::new(1));
    store.set(store.id_of("c.ws").unwrap(), t(2));
    store.set(store.id_of("c.b").unwrap(), t(3));
    let slots = inputs[5].data.iter().map(|&v| v as usize).collect();
    (ChebyPool::new(conv, slots, pool), store)
}

/// The second production path of the cases that have one, with the
/// failure kind of a mismatch: the eval cases of [`Kernel::ChebyPool`]
/// run their forward on a no-grad tape, which then pools without winner
/// codes, and the transposed-lhs cases of [`Kernel::BlockedGemm`] run
/// `matmul` on the transposed copy of `a`. Either must match the first
/// path bit for bit. `None` for every other case.
fn run_twin(
    kernel: Kernel,
    dims: &[usize],
    inputs: &[InputBuf],
) -> Option<(&'static str, Vec<f32>)> {
    let t = |i: usize| Tensor::from_vec(&inputs[i].dims, inputs[i].data.clone());
    match kernel {
        Kernel::BlockedGemm if dims[3] == 1 => {
            let at = stod_tensor::transpose(&t(0), 0, 1);
            Some((
                "transpose_divergence",
                stod_tensor::matmul(&at, &t(1)).data().to_vec(),
            ))
        }
        Kernel::ChebyPool if dims[6] != 1 => {
            let (stage, store) = cheby_pool_stage(dims, inputs);
            let mut tape = Tape::no_grad();
            let x = tape.constant(t(1));
            let y = stage.apply(
                &mut tape,
                &store,
                x,
                CHEBY_POOL_DROPOUT,
                false,
                &mut Rng64::new(0),
            );
            Some(("no_grad_divergence", tape.value(y).data().to_vec()))
        }
        _ => None,
    }
}

/// Runs the production kernel on prepared inputs under the *current*
/// thread setting and returns the flat output buffer.
fn run_production(kernel: Kernel, seed: u64, dims: &[usize], inputs: &[InputBuf]) -> Vec<f32> {
    let t = |i: usize| Tensor::from_vec(&inputs[i].dims, inputs[i].data.clone());
    match kernel {
        Kernel::Matmul => stod_tensor::matmul(&t(0), &t(1)).data().to_vec(),
        Kernel::BlockedGemm if dims[3] == 1 => stod_tensor::matmul_tn(&t(0), &t(1)).data().to_vec(),
        Kernel::BlockedGemm => stod_tensor::matmul(&t(0), &t(1)).data().to_vec(),
        Kernel::StridedDot => {
            use stod_tensor::ops::gemm;
            let (len, lda, ldb) = (dims[0], dims[1], dims[2]);
            let v = if dims[3] == 0 {
                gemm::dot_fma_strided(&inputs[0].data, lda, &inputs[1].data, ldb, len)
            } else {
                gemm::dot_naive_strided(&inputs[0].data, lda, &inputs[1].data, ldb, len)
            };
            vec![v]
        }
        Kernel::SparseRecovery => {
            let mut tape = Tape::new();
            let r = tape.leaf(t(0));
            let c = tape.leaf(t(1));
            let has_bias = dims[5] == 1;
            let bias = has_bias.then(|| tape.constant(t(2)));
            let mask = &inputs[if has_bias { 3 } else { 2 }];
            let cells: Vec<bool> = mask.data.iter().map(|&x| x != 0.0).collect();
            let out = stod_core::recovery::recover_sparse(&mut tape, r, c, bias, &cells);
            tape.value(out).data().to_vec()
        }
        Kernel::Spmm => {
            let m = stod_tensor::CsrMatrix::from_dense(&t(0));
            m.spmm_panel(&t(1)).data().to_vec()
        }
        Kernel::Matvec => stod_tensor::matvec(&t(0), &t(1)).data().to_vec(),
        Kernel::BatchedMatmul => stod_tensor::batched_matmul(&t(0), &t(1)).data().to_vec(),
        Kernel::ChebyConv => {
            use stod_nn::layers::ChebyConv;
            let (f, order, out) = (dims[2], dims[3], dims[4]);
            let filter = std::sync::Arc::new(stod_tensor::CsrMatrix::from_dense(&t(0)));
            let mut store = ParamStore::new();
            let conv = ChebyConv::new(&mut store, "c", filter, order, f, out, &mut Rng64::new(1));
            let ws = store.id_of("c.ws").unwrap();
            store.set(ws, t(2));
            store.set(store.id_of("c.b").unwrap(), t(3));
            let mut tape = Tape::new();
            let x = tape.leaf(t(1));
            let y = conv.apply(&mut tape, &store, x);
            // Σ Y ⊙ G hands the layer exactly G as its upstream gradient.
            let g = tape.constant(t(4));
            let yg = tape.mul(y, g);
            let loss = tape.sum_all(yg);
            let dx = tape
                .backward_wrt(loss, &[x])
                .remove(0)
                .expect("input gradient");
            let grads = tape.backward(loss);
            let dw = grads.get(ws).expect("filter-bank gradient");
            [tape.value(y).data(), dx.data(), dw.data()].concat()
        }
        Kernel::ChebyPool => {
            let (stage, store) = cheby_pool_stage(dims, inputs);
            let ws = store.id_of("c.ws").unwrap();
            let mut tape = Tape::new();
            let x = tape.leaf(t(1));
            let train = dims[6] == 1;
            let mut stream = dropout_stream(seed);
            let y = stage.apply(&mut tape, &store, x, CHEBY_POOL_DROPOUT, train, &mut stream);
            let g = tape.constant(t(4));
            let yg = tape.mul(y, g);
            let loss = tape.sum_all(yg);
            let dx = tape
                .backward_wrt(loss, &[x])
                .remove(0)
                .expect("input gradient");
            let grads = tape.backward(loss);
            let dw = grads.get(ws).expect("filter-bank gradient");
            [tape.value(y).data(), dx.data(), dw.data()].concat()
        }
        Kernel::Gru => {
            let (in_dim, hidden) = (dims[1], dims[2]);
            let mut store = ParamStore::new();
            let mut init = Rng64::new(1);
            let cell = stod_nn::layers::GruCell::new(&mut store, "g", in_dim, hidden, &mut init);
            store.set(store.id_of("g.wx").unwrap(), t(2));
            store.set(store.id_of("g.wh").unwrap(), t(3));
            store.set(store.id_of("g.b").unwrap(), t(4));
            let mut tape = Tape::new();
            let x = tape.leaf(t(0));
            let h = tape.leaf(t(1));
            let out = cell.step(&mut tape, &store, x, h);
            tape.value(out).data().to_vec()
        }
        Kernel::Recovery => {
            let mut tape = Tape::new();
            let r = tape.leaf(t(0));
            let c = tape.leaf(t(1));
            let bias = (dims[5] == 1).then(|| tape.constant(t(2)));
            let out = stod_core::recovery::recover(&mut tape, r, c, bias);
            tape.value(out).data().to_vec()
        }
        Kernel::MaskedLoss => {
            let mut tape = Tape::new();
            let pred = tape.leaf(t(0));
            let loss = tape.masked_sq_err(pred, &t(1), &t(2));
            tape.value(loss).data().to_vec()
        }
        Kernel::Softmax => stod_tensor::softmax(&t(0), 1).data().to_vec(),
        Kernel::Emd => vec![stod_metrics::emd(&inputs[0].data, &inputs[1].data) as f32],
        Kernel::Kl => {
            vec![stod_metrics::kl_divergence(&inputs[0].data, &inputs[1].data) as f32]
        }
    }
}

/// Runs the oracle on the same inputs.
fn run_oracle(kernel: Kernel, dims: &[usize], inputs: &[InputBuf]) -> OracleOut {
    match kernel {
        Kernel::Matmul => {
            oracle::matmul(&inputs[0].data, &inputs[1].data, dims[0], dims[1], dims[2])
        }
        Kernel::BlockedGemm => {
            let (m, k, n) = (dims[0], dims[1], dims[2]);
            let a = &inputs[0].data;
            let a: Vec<f32> = if dims[3] == 1 {
                (0..m * k).map(|e| a[(e % k) * m + e / k]).collect()
            } else {
                a.clone()
            };
            oracle::matmul(&a, &inputs[1].data, m, k, n)
        }
        Kernel::StridedDot => {
            let (v, mag) =
                oracle::dot_strided(&inputs[0].data, dims[1], &inputs[1].data, dims[2], dims[0]);
            OracleOut {
                values: vec![v],
                mags: vec![mag],
            }
        }
        Kernel::SparseRecovery => {
            let has_bias = dims[5] == 1;
            oracle::recover_sparse(
                &inputs[0].data,
                &inputs[1].data,
                has_bias.then(|| inputs[2].data.as_slice()),
                &inputs[if has_bias { 3 } else { 2 }].data,
                dims[0],
                dims[1],
                dims[2],
                dims[3],
                dims[4],
            )
        }
        Kernel::Spmm => oracle::spmm(&inputs[0].data, &inputs[1].data, dims[0], dims[2], dims[1]),
        Kernel::Matvec => oracle::matvec(&inputs[0].data, &inputs[1].data, dims[0], dims[1]),
        Kernel::BatchedMatmul => oracle::batched_matmul(
            &inputs[0].data,
            &inputs[1].data,
            dims[0],
            dims[4] == 1,
            dims[4] == 2,
            dims[1],
            dims[2],
            dims[3],
        ),
        Kernel::ChebyConv => oracle::cheby_conv(
            &inputs[0].data,
            &inputs[1].data,
            &inputs[2].data,
            &inputs[3].data,
            &inputs[4].data,
            dims[0],
            dims[1],
            dims[2],
            dims[3],
            dims[4],
        ),
        Kernel::ChebyPool => {
            let (pool, _) = pool_shape(dims);
            let slots: Vec<usize> = inputs[5].data.iter().map(|&v| v as usize).collect();
            let (terms, _) = tolerance(kernel, dims);
            oracle::cheby_pool(
                &inputs[0].data,
                &inputs[1].data,
                &inputs[2].data,
                &inputs[3].data,
                &inputs[4].data,
                &inputs[6].data,
                &slots,
                dims[0],
                dims[1],
                dims[2],
                dims[3],
                dims[4],
                pool,
                (terms as f64 + 2.0) * f32::EPSILON as f64,
            )
        }
        Kernel::Gru => oracle::gru_cell(
            &inputs[0].data,
            &inputs[1].data,
            &inputs[2].data,
            &inputs[3].data,
            &inputs[4].data,
            dims[0],
            dims[1],
            dims[2],
        ),
        Kernel::Recovery => oracle::recover(
            &inputs[0].data,
            &inputs[1].data,
            (dims[5] == 1).then(|| inputs[2].data.as_slice()),
            dims[0],
            dims[1],
            dims[2],
            dims[3],
            dims[4],
        ),
        Kernel::MaskedLoss => {
            let (v, mag) = oracle::masked_sq_err(&inputs[0].data, &inputs[1].data, &inputs[2].data);
            OracleOut {
                values: vec![v],
                mags: vec![mag],
            }
        }
        Kernel::Softmax => oracle::softmax(&inputs[0].data, dims[0], dims[1], dims[2]),
        Kernel::Emd => {
            let v = oracle::emd_transport(&inputs[0].data, &inputs[1].data);
            OracleOut {
                values: vec![v],
                mags: vec![1.0 + v.abs().min(dims[0] as f64)],
            }
        }
        Kernel::Kl => {
            let v = oracle::kl(&inputs[0].data, &inputs[1].data);
            OracleOut {
                values: vec![v],
                mags: vec![1.0 + if v.is_finite() { v.abs() } else { 0.0 }],
            }
        }
    }
}

/// `(terms, ulp_budget)` for the ULP-aware oracle comparison.
fn tolerance(kernel: Kernel, dims: &[usize]) -> (usize, u64) {
    match kernel {
        Kernel::Matmul | Kernel::BlockedGemm => (dims[1], 8),
        Kernel::StridedDot => (dims[0], 8),
        Kernel::SparseRecovery => (2 * (dims[2] + 8), 64),
        Kernel::Spmm => (dims[0], 8),
        Kernel::Matvec => (dims[1], 2),
        Kernel::BatchedMatmul => (dims[2], 8),
        // Error compounds through every recurrence level (N-term sums per
        // level) plus the S·F-term mix or the O-term and B·N-term
        // gradient products.
        Kernel::ChebyConv | Kernel::ChebyPool => (
            (dims[1] + 8) * (dims[3] + 1) + dims[3] * dims[2] + dims[4] + dims[0] * dims[1],
            64,
        ),
        Kernel::Gru => (dims[1] + dims[2] + 8, 64),
        Kernel::Recovery => (2 * (dims[2] + 8), 64),
        Kernel::MaskedLoss => (dims[0] * dims[1], 16),
        Kernel::Softmax => (2 * dims[1] + 8, 32),
        Kernel::Emd => (4 * dims[0], 16),
        Kernel::Kl => (8 * dims[0], 16),
    }
}

/// Executes one case: thread sweep (bitwise) plus oracle comparison.
/// Returns `None` when the case passes.
pub fn run_case(spec: &CaseSpec) -> Option<CaseFailure> {
    let dims = normalize_dims(spec.kernel, &spec.dims);
    let inputs = build_inputs(spec.kernel, spec.seed, &dims);
    let run = || run_production(spec.kernel, spec.seed, &dims, &inputs);
    let out1 = par::with_forced_threads(1, run);
    let out4 = par::with_forced_threads(4, run);
    // Determinism contract: the thread count must never change a bit.
    if let Some((index, (&g, &w))) = out1
        .iter()
        .zip(out4.iter())
        .enumerate()
        .find(|(_, (a, b))| ulp::ulp_diff(**a, **b) != 0)
    {
        return Some(CaseFailure {
            kind: "thread_divergence",
            index,
            got: g,
            want: w as f64,
            ulp: ulp::ulp_diff(g, w),
            abs_err: (g as f64 - w as f64).abs(),
        });
    }
    // A second path (a no-grad forward, or `matmul` of the transposed
    // copy) must leave every output bit as it was.
    for threads in [1, 4] {
        let Some((kind, twin)) =
            par::with_forced_threads(threads, || run_twin(spec.kernel, &dims, &inputs))
        else {
            break;
        };
        if let Some((index, (&g, &w))) = twin
            .iter()
            .zip(out1.iter())
            .enumerate()
            .find(|(_, (a, b))| a.to_bits() != b.to_bits())
        {
            return Some(CaseFailure {
                kind,
                index,
                got: g,
                want: w as f64,
                ulp: ulp::ulp_diff(g, w),
                abs_err: (g as f64 - w as f64).abs(),
            });
        }
    }
    let want = run_oracle(spec.kernel, &dims, &inputs);
    let (terms, budget) = tolerance(spec.kernel, &dims);
    ulp::compare(&out1, &want.values, &want.mags, terms, budget).map(|m| CaseFailure {
        kind: "oracle_mismatch",
        index: m.index,
        got: m.got,
        want: m.want,
        ulp: m.ulp,
        abs_err: m.abs_err,
    })
}

/// Re-executes a dumped counterexample. Returns the (possibly fixed)
/// outcome; inputs are regenerated from `(seed, dims)` exactly as the
/// original run produced them.
pub fn replay(kernel: Kernel, seed: u64, dims: &[usize]) -> Option<CaseFailure> {
    run_case(&CaseSpec {
        kernel,
        seed,
        dims: dims.to_vec(),
    })
}

/// Greedy shrink: repeatedly try halving each dimension (data regenerates
/// from the same seed at the smaller shape) and keep any mutation that
/// still fails, until a fixpoint.
fn minimize(spec: &CaseSpec) -> (CaseSpec, CaseFailure) {
    let mut best = CaseSpec {
        kernel: spec.kernel,
        seed: spec.seed,
        dims: normalize_dims(spec.kernel, &spec.dims),
    };
    let mut failure = run_case(&best).expect("minimize called on a passing case");
    let mut budget = 64usize;
    loop {
        let mut improved = false;
        for i in 0..best.dims.len() {
            for candidate in [best.dims[i] / 2, 1] {
                if candidate == 0 || candidate >= best.dims[i] {
                    continue;
                }
                let mut dims = best.dims.clone();
                dims[i] = candidate;
                let trial = CaseSpec {
                    kernel: best.kernel,
                    seed: best.seed,
                    dims: normalize_dims(best.kernel, &dims),
                };
                if let Some(f) = run_case(&trial) {
                    best = trial;
                    failure = f;
                    improved = true;
                    break;
                }
            }
            budget = budget.saturating_sub(1);
        }
        if !improved || budget == 0 {
            return (best, failure);
        }
    }
}

/// Serializes a counterexample to JSON through `stod_obs::json`.
/// Small cases embed their regenerated inputs for human inspection; the
/// authoritative reproduction path is always `replay(kernel, seed, dims)`.
fn dump_json(spec: &CaseSpec, original: &CaseSpec, failure: &CaseFailure) -> String {
    let inputs = build_inputs(spec.kernel, spec.seed, &spec.dims);
    let total: usize = inputs.iter().map(|b| b.data.len()).sum();
    let mut out = String::new();
    json::object(&mut out, |o| {
        o.field("kernel", spec.kernel.name())
            .field("seed", &spec.seed)
            .field("dims", &spec.dims)
            .field("original_dims", &original.dims)
            .field("kind", failure.kind)
            .field("index", &failure.index)
            .field("got", &failure.got)
            .field("want", &failure.want)
            .field("ulp", &failure.ulp)
            .field("abs_err", &failure.abs_err)
            .field(
                "replay",
                &format!(
                    "stod_conformance::replay(Kernel::{:?}, {}, &{:?})",
                    spec.kernel, spec.seed, spec.dims
                ),
            );
        if total <= 512 {
            let names: Vec<&str> = inputs.iter().map(|b| b.name).collect();
            let shapes: Vec<Vec<usize>> = inputs.iter().map(|b| b.dims.clone()).collect();
            let data: Vec<Vec<f32>> = inputs.iter().map(|b| b.data.clone()).collect();
            o.field("input_names", &names)
                .field("input_dims", &shapes)
                .field("inputs", &data);
        }
    });
    out
}

/// Fuzzes one kernel for `cases` cases derived from `base_seed`. Failing
/// cases are minimized and, when `dump_dir` is given, dumped as JSON
/// (`<kernel>-<seed>.json`). Stops after 5 failures per kernel.
pub fn fuzz_kernel(
    kernel: Kernel,
    cases: usize,
    base_seed: u64,
    dump_dir: Option<&Path>,
) -> FuzzReport {
    let kernel_salt = splitmix(kernel as u64 + 1);
    let mut failures = Vec::new();
    let mut executed = 0usize;
    for i in 0..cases {
        executed += 1;
        let seed = splitmix(base_seed ^ kernel_salt ^ (i as u64).wrapping_mul(0x9e37_79b9));
        let spec = CaseSpec {
            kernel,
            seed,
            dims: initial_dims(kernel, seed),
        };
        if run_case(&spec).is_some() {
            let (min_spec, failure) = minimize(&spec);
            let dump = dump_dir.and_then(|dir| {
                fs::create_dir_all(dir).ok()?;
                let path = dir.join(format!("{}-{}.json", kernel.name(), min_spec.seed));
                fs::write(&path, dump_json(&min_spec, &spec, &failure)).ok()?;
                Some(path)
            });
            failures.push(FailureRecord {
                spec: min_spec,
                original: spec,
                failure,
                dump,
            });
            if failures.len() >= 5 {
                break;
            }
        }
    }
    FuzzReport {
        kernel,
        cases: executed,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let spec = CaseSpec {
            kernel: Kernel::Matmul,
            seed: 42,
            dims: initial_dims(Kernel::Matmul, 42),
        };
        let dims = normalize_dims(Kernel::Matmul, &spec.dims);
        let a = build_inputs(Kernel::Matmul, 42, &dims);
        let b = build_inputs(Kernel::Matmul, 42, &dims);
        assert_eq!(a[0].data, b[0].data);
        assert_eq!(a[1].data, b[1].data);
    }

    #[test]
    fn normalize_clamps_degenerate_dims() {
        assert_eq!(normalize_dims(Kernel::Matmul, &[0, 3]), vec![1, 3, 1]);
        let d = normalize_dims(Kernel::BatchedMatmul, &[2, 2, 2, 2, 7]);
        assert_eq!(d[4], 1);
        let d = normalize_dims(Kernel::Recovery, &[1, 2, 1, 2, 3, 5]);
        assert_eq!(d[5], 1);
    }

    #[test]
    fn every_kernel_survives_a_smoke_budget() {
        for k in Kernel::ALL {
            let report = fuzz_kernel(k, 8, 7, None);
            assert!(
                report.failures.is_empty(),
                "{}: {:?}",
                k.name(),
                report.failures.first().map(|f| (&f.spec, &f.failure))
            );
        }
    }

    #[test]
    fn dump_json_is_wellformed_and_replayable_by_spec() {
        let spec = CaseSpec {
            kernel: Kernel::Emd,
            seed: 3,
            dims: vec![5],
        };
        let failure = CaseFailure {
            kind: "oracle_mismatch",
            index: 0,
            got: 1.0,
            want: 2.0,
            ulp: 999,
            abs_err: 1.0,
        };
        let s = dump_json(&spec, &spec, &failure);
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"kernel\":\"emd\""));
        assert!(s.contains("\"replay\""));
        // The embedded replay triple regenerates identical inputs.
        let a = build_inputs(Kernel::Emd, 3, &[5]);
        let b = build_inputs(Kernel::Emd, 3, &[5]);
        assert_eq!(a[0].data, b[0].data);
    }
}
