//! Cache-blocked, register-tiled f32 GEMM (DESIGN.md §5h).
//!
//! The naive `i-k-j` kernel streams memory well but leaves the FMA units
//! idle: one scalar multiply-add per iteration against a machine that can
//! retire 32 f32 FLOPs per cycle. The blocked path keeps an `MR×NR`
//! output tile in vector registers and reads both operands in place:
//!
//! * the **microkernel** computes one `MR×NR` tile, broadcasting `A`
//!   through a row and a column stride (so a transposed `A` costs no
//!   copy) and loading `B` rows straight from the row-major operand,
//!   with masked loads for a right-edge strip narrower than `NR`;
//! * **KC** blocks the reduction dimension so the `KC×NR` strip of `B`
//!   a column strip reads stays in L1 while every row strip reuses it.
//!
//! Nothing is packed or zero-padded. The AF's products are tall and
//! skinny (`[B·N, S·F]·[S·F, O]`, and `Zᵀ·dY` with `K = B·N`), so each
//! `A` element feeds one or two tiles and packing it would only copy it.
//!
//! # Determinism
//!
//! The repo-wide contract is bitwise-identical results at any
//! `STOD_THREADS`. Blocked GEMM keeps it through one invariant: **the
//! accumulation order of every output element is a pure function of its
//! coordinates and `K`** — a single fused-multiply-add chain over
//! `p = 0, 1, …, K-1` from +0.0:
//!
//! * KC blocks are visited in ascending order: the first starts each
//!   tile at +0.0 in registers, later ones load the stored partial tile
//!   and continue the chain, so KC blocking never reassociates it.
//! * Edge tiles run the same chain per element: rows past `m` repeat the
//!   tile's last row and columns past `n` load as 0.0, and neither is
//!   ever stored, so a row computes the same bits whether it lands in a
//!   full or partial tile — and therefore whether or not a thread-chunk
//!   boundary cuts next to it.
//! * Thread fan-out splits output *rows*; rows are independent, so the
//!   split affects only where a row is computed, never its FMA chain.
//! * The strides only choose which memory an `A` element is read from,
//!   so `aᵀ·b` read in place has the bits of `a` transposed first.
//!
//! FMA rounds once per multiply-add, so the blocked path's results differ
//! from the naive kernel's (both are within the conformance oracles'
//! forward-error bound; the f64 differential fuzzer covers both paths).
//! Which path runs is decided only by the *problem shape* and the host's
//! CPU features — never by thread count — so determinism holds per shape
//! on a given machine. Hosts without AVX2+FMA use the naive kernel
//! everywhere, which is equally deterministic.

use crate::par;

/// Microkernel tile rows (one broadcast register each).
pub const MR: usize = 6;
/// Microkernel tile columns (two 8-lane vectors).
pub const NR: usize = 16;
/// Reduction-dimension block: one column strip of `B` reads `KC×NR`
/// floats (16 KiB) per block.
pub const KC: usize = 256;

/// Flop count (`m·k·n`) below which the naive kernel beats the blocked
/// one. Small eval shapes stay on the zero-skipping naive path; every
/// encoder/GRU/Cheby product goes blocked. The per-bucket recovery
/// products sit at the boundary: at paper scale (`N = N' = 75`, β ≈ 5)
/// the `N×β · β×N'` forward and `dR` products clear both this and
/// [`MIN_BLOCKED_ROWS`] and go blocked (75·5·75 ≈ 28k > 24³), while the
/// `β×N · N×N'` `dC` product stays naive on the row floor (`m = β <
/// 2·MR`). Either way [`uses_blocked`] is a pure function of shape, and
/// the sparse recovery path mirrors its decision per product, so
/// dispatch can never split between the dense and sparse kernels.
pub const MIN_BLOCKED_FLOPS: usize = 24 * 24 * 24;

/// Minimum output-row count for the blocked path. Below two `MR` strips
/// the tail strip wastes most of the microkernel, so the streaming naive
/// kernel wins.
pub const MIN_BLOCKED_ROWS: usize = 2 * MR;

/// Whether this host runs the blocked AVX2+FMA path at all.
#[inline]
pub fn blocked_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether a product of this shape takes the blocked path. Pure function
/// of shape + host features, so path choice can never diverge across
/// thread counts (and the sparse recovery path can mirror the decision).
#[inline]
pub fn uses_blocked(m: usize, k: usize, n: usize) -> bool {
    blocked_available() && m >= MIN_BLOCKED_ROWS && m * k * n >= MIN_BLOCKED_FLOPS
}

/// The `m×k` left operand of a product, read in place: element `(i, p)`
/// sits at `data[i·rs + p·cs]`.
#[derive(Clone, Copy)]
pub(crate) struct Lhs<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> Lhs<'a> {
    /// A row-major `m×k` matrix.
    pub fn rows(data: &'a [f32], k: usize) -> Self {
        Lhs { data, rs: k, cs: 1 }
    }

    /// The transpose of a row-major `k×m` matrix.
    pub fn transposed(data: &'a [f32], m: usize) -> Self {
        Lhs { data, rs: 1, cs: m }
    }

    /// The operand without its first `i` rows.
    fn skip_rows(self, i: usize) -> Self {
        Lhs {
            data: &self.data[i * self.rs..],
            ..self
        }
    }

    /// Whether every element `(i, p)` of an `m×k` operand lies in `data`.
    fn covers(&self, m: usize, k: usize) -> bool {
        m == 0 || k == 0 || (m - 1) * self.rs + (k - 1) * self.cs < self.data.len()
    }
}

/// `out = a · b` for an `m×k` left operand, row-major `b (k×n)` and
/// `out (m×n)`. Every element of `out` is written, so it may hold
/// garbage on entry.
///
/// Picks the path by [`uses_blocked`] on the whole shape and fans output
/// rows across the pool when the product is large enough; each row is
/// computed by the same serial kernel, so the result is bitwise identical
/// at any thread count.
pub(crate) fn gemm(a: Lhs, b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_piece(uses_blocked(m, k, n), false, a, b, out, m, k, n);
}

/// [`gemm`] as one piece of a larger product whose [`uses_blocked`]
/// verdict is `blocked`: a block of its output rows, or, with `resume`,
/// the next `k` steps of its reduction. A resumed piece continues every
/// element's chain from the value stored in `out` by the piece over the
/// preceding reduction steps, exactly as a KC block continues the one
/// before it, so splitting `K` into consecutive pieces keeps every bit of
/// the one-call product; without `resume` each chain starts at +0.0 and
/// `out` may hold garbage. A piece must take the whole product's verdict,
/// as a row chunk does: re-deciding it on the piece's shape could switch
/// kernels.
#[allow(clippy::too_many_arguments)] // a product's operands and shape
pub(crate) fn gemm_piece(
    blocked: bool,
    resume: bool,
    a: Lhs,
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let work = if blocked { 2 } else { 1 } * m * k * n;
    if m > 1 && par::should_parallelize(work) {
        par::for_each_row_chunk(out, m, n, |rows, chunk| {
            let a = a.skip_rows(rows.start);
            gemm_serial(blocked, resume, a, b, chunk, rows.len(), k, n);
        });
    } else {
        gemm_serial(blocked, resume, a, b, out, m, k, n);
    }
}

/// [`gemm_piece`] on the calling thread, through the blocked microkernel
/// when `blocked` (the [`uses_blocked`] verdict on the whole product,
/// which a row chunk must not re-decide) or else the naive `i-k-j`
/// kernel.
#[allow(clippy::too_many_arguments)] // a product's operands and shape
pub(crate) fn gemm_serial(
    blocked: bool,
    resume: bool,
    a: Lhs,
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if !resume && (!blocked || k == 0) {
        out.fill(0.0);
    }
    if blocked {
        blocked_into(a, b, out, m, k, n, resume);
    } else {
        naive_into(a, b, out, m, k, n);
    }
}

/// The blocked path: every element of `out` is written by [`tile`], from
/// +0.0 or, when `resume`, from its stored value.
fn blocked_into(a: Lhs, b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize, resume: bool) {
    // The tiles read and write through raw pointers: check once what
    // their safety rests on.
    assert!(blocked_available(), "the blocked GEMM needs AVX2+FMA");
    assert!(a.covers(m, k) && b.len() == k * n && out.len() == m * n);
    // KC ascending and outermost: each block continues every element's
    // FMA chain exactly where the previous block stored it.
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        let resume = resume || k0 > 0;
        for i0 in (0..m).step_by(MR) {
            let rows = MR.min(m - i0);
            let ap = a.skip_rows(i0).data[k0 * a.cs..].as_ptr();
            for j0 in (0..n).step_by(NR) {
                let cols = NR.min(n - j0);
                let bp = b[k0 * n + j0..].as_ptr();
                let cp = out[i0 * n + j0..].as_mut_ptr();
                // SAFETY: AVX2+FMA and the operand extents are asserted
                // above, so the `rows × kc` elements of `a`, the
                // `kc × cols` of `b` and the `rows × cols` of `out` that
                // the tile touches lie in these slices at these strides.
                unsafe {
                    if cols == NR {
                        tile::<false>(kc, ap, a.rs, a.cs, rows, bp, n, cols, cp, resume);
                    } else {
                        tile::<true>(kc, ap, a.rs, a.cs, rows, bp, n, cols, cp, resume);
                    }
                }
            }
        }
    }
}

/// Raw `i-k-j` kernel accumulating into `out (m×n)`. The `a == 0` skip
/// makes sparse lhs operands (zero-masked gradients, sparse factors)
/// cheap.
fn naive_into(a: Lhs, b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if k == 0 {
        return;
    }
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        let a_row = a.data[i * a.rs..].iter().step_by(a.cs).take(k);
        for (p, &aip) in a_row.enumerate() {
            if aip == 0.0 {
                continue; // sparse factor matrices benefit measurably
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aip * bv;
            }
        }
    }
}

/// The register-tiled core: one `MR×NR` tile of `C`, the FMA chains of
/// its elements over `kc` reduction steps. `A` element `(r, p)` is read
/// at `a[r·rs + p·cs]` and `B` row `p` at `b[p·ldb]`. The chains start
/// at +0.0, or at the stored tile when `resume`. Only the first `rows`
/// rows and `cols` columns of `C` are read or written: rows past `rows`
/// repeat row `rows − 1` of `A` and, with `EDGE`, columns past `cols`
/// load as 0.0; their lanes are never stored.
///
/// # Safety
/// Requires AVX2+FMA (guarded by [`blocked_available`]); `cols == NR`
/// unless `EDGE`; the `rows × kc` elements of `A`, the `kc × cols` of
/// `B` and the `rows × cols` of `C` (row stride `ldc = ldb`) must lie in
/// their allocations.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)] // one tile's pointers and strides
unsafe fn tile<const EDGE: bool>(
    kc: usize,
    a: *const f32,
    rs: usize,
    cs: usize,
    rows: usize,
    b: *const f32,
    ldb: usize,
    cols: usize,
    c: *mut f32,
    resume: bool,
) {
    use std::arch::x86_64::*;
    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let half =
        |from: usize| _mm256_cmpgt_epi32(_mm256_set1_epi32(cols as i32 - from as i32), lanes);
    let masks = [half(0), half(8)];
    // Masked-off lanes touch no memory, so the pointer of an empty right
    // half may lie past the end of `b` or `c`.
    let load = |p: *const f32, h: usize| {
        let p = p.wrapping_add(8 * h);
        if EDGE {
            _mm256_maskload_ps(p, masks[h])
        } else {
            _mm256_loadu_ps(p)
        }
    };
    let row_at: [usize; MR] = std::array::from_fn(|r| r.min(rows - 1) * rs);
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    if resume {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            if r < rows {
                *acc_r = [load(c.add(r * ldb), 0), load(c.add(r * ldb), 1)];
            }
        }
    }
    for p in 0..kc {
        let bv = [load(b.add(p * ldb), 0), load(b.add(p * ldb), 1)];
        let ap = a.add(p * cs);
        for (acc_r, &at) in acc.iter_mut().zip(&row_at) {
            let av = _mm256_broadcast_ss(&*ap.add(at));
            acc_r[0] = _mm256_fmadd_ps(av, bv[0], acc_r[0]);
            acc_r[1] = _mm256_fmadd_ps(av, bv[1], acc_r[1]);
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        if r < rows {
            for (h, &v) in acc_r.iter().enumerate() {
                let p = c.add(r * ldb).wrapping_add(8 * h);
                if EDGE {
                    _mm256_maskstore_ps(p, masks[h], v);
                } else {
                    _mm256_storeu_ps(p, v);
                }
            }
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
unsafe fn tile<const EDGE: bool>(
    _: usize,
    _: *const f32,
    _: usize,
    _: usize,
    _: usize,
    _: *const f32,
    _: usize,
    _: usize,
    _: *mut f32,
    _: bool,
) {
    unreachable!("blocked path is gated on blocked_available()")
}

/// The dot-product flavor the blocked microkernel applies per output
/// element: a sequential `f32::mul_add` chain over `p` ascending with
/// `b` read at stride `ldb`. The sparse recovery path calls this for
/// observed cells so its results match the dense blocked path bitwise
/// (software and hardware FMA are both correctly rounded).
#[inline]
pub fn dot_fma(a: &[f32], b: &[f32], ldb: usize) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if blocked_available() {
            // SAFETY: feature presence just checked.
            return unsafe { dot_fma_hw(a, b, ldb) };
        }
    }
    let mut acc = 0.0f32;
    for (p, &av) in a.iter().enumerate() {
        acc = av.mul_add(b[p * ldb], acc);
    }
    acc
}

/// Hardware-FMA scalar chain — bitwise identical to `f32::mul_add` but
/// without the soft-float call on hosts whose baseline codegen lacks FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn dot_fma_hw(a: &[f32], b: &[f32], ldb: usize) -> f32 {
    use std::arch::x86_64::*;
    let mut acc = _mm_set_ss(0.0);
    for (p, &av) in a.iter().enumerate() {
        let bv = _mm_set_ss(*b.get_unchecked(p * ldb));
        acc = _mm_fmadd_ss(_mm_set_ss(av), bv, acc);
    }
    _mm_cvtss_f32(acc)
}

/// The naive kernel's per-element flavor: plain multiply-add over `p`
/// ascending, skipping `a[p] == 0` exactly as [`naive_into`] does.
#[inline]
pub fn dot_naive(a: &[f32], b: &[f32], ldb: usize) -> f32 {
    let mut acc = 0.0f32;
    for (p, &av) in a.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        acc += av * b[p * ldb];
    }
    acc
}

/// [`dot_fma`] with *both* operands strided: `Σ_p a[p·lda] · b[p·ldb]` as
/// one FMA chain over `p = 0..len` ascending. Strides change which memory
/// is read, never the chain, so this reproduces a blocked-GEMM output
/// element bitwise from unpacked tensors (the sparse recovery path relies
/// on this to skip empty OD cells without perturbing observed ones).
#[inline]
pub fn dot_fma_strided(a: &[f32], lda: usize, b: &[f32], ldb: usize, len: usize) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if blocked_available() {
            // SAFETY: feature presence just checked.
            return unsafe { dot_fma_strided_hw(a, lda, b, ldb, len) };
        }
    }
    let mut acc = 0.0f32;
    for p in 0..len {
        acc = a[p * lda].mul_add(b[p * ldb], acc);
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn dot_fma_strided_hw(a: &[f32], lda: usize, b: &[f32], ldb: usize, len: usize) -> f32 {
    use std::arch::x86_64::*;
    let mut acc = _mm_set_ss(0.0);
    for p in 0..len {
        let av = _mm_set_ss(*a.get_unchecked(p * lda));
        let bv = _mm_set_ss(*b.get_unchecked(p * ldb));
        acc = _mm_fmadd_ss(av, bv, acc);
    }
    _mm_cvtss_f32(acc)
}

/// [`dot_naive`] with both operands strided (same `a == 0` skip).
#[inline]
pub fn dot_naive_strided(a: &[f32], lda: usize, b: &[f32], ldb: usize, len: usize) -> f32 {
    let mut acc = 0.0f32;
    for p in 0..len {
        let av = a[p * lda];
        if av == 0.0 {
            continue;
        }
        acc += av * b[p * ldb];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul::{matmul, matmul_tn};
    use crate::ops::transform::transpose;
    use crate::par::with_forced_threads;
    use crate::Tensor;

    fn arb(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = crate::rng::Rng64::new(seed);
        (0..len).map(|_| rng.next_gaussian() as f32).collect()
    }

    /// [`arb`] with every seventh value an exact zero, for the naive
    /// kernel's zero skip.
    fn arb_sparse(len: usize, seed: u64) -> Vec<f32> {
        let mut v = arb(len, seed);
        v.iter_mut().step_by(7).for_each(|x| *x = 0.0);
        v
    }

    /// The row-major `k×m` transpose of a row-major `m×k` matrix.
    fn transposed(a: &[f32], m: usize, k: usize) -> Vec<f32> {
        (0..k)
            .flat_map(|p| (0..m).map(move |i| a[i * k + p]))
            .collect()
    }

    /// Every `(m, k, n)` of the kernel's boundary corpus: one row strip
    /// and its edges, the 8-lane and `NR` column edges, and the `KC`
    /// block edges.
    fn corpus() -> Vec<(usize, usize, usize)> {
        let ms = [1, MR - 1, MR, MR + 1, 2 * MR + 3];
        let ns = [1, 7, 8, 9, NR - 1, NR, NR + 1, 2 * NR + 3];
        let ks = [1, KC - 1, KC, KC + 1, 2 * KC + 3];
        let mut out = Vec::new();
        for m in ms {
            for k in ks {
                out.extend(ns.iter().map(|&n| (m, k, n)));
            }
        }
        out
    }

    /// Asserts that every element of the `m×n` product `got` of `lhs`
    /// and `b` is the per-element chain of its path: [`dot_fma_strided`]
    /// when `blocked`, else [`dot_naive_strided`].
    fn assert_chains(
        got: &[f32],
        lhs: Lhs,
        b: &[f32],
        (m, k, n): (usize, usize, usize),
        blocked: bool,
    ) {
        for i in 0..m {
            let a_i = &lhs.data[i * lhs.rs..];
            for j in 0..n {
                let want = if blocked {
                    dot_fma_strided(a_i, lhs.cs, &b[j..], n, k)
                } else {
                    dot_naive_strided(a_i, lhs.cs, &b[j..], n, k)
                };
                assert_eq!(
                    got[i * n + j].to_bits(),
                    want.to_bits(),
                    "m={m} k={k} n={n} rs={} element ({i},{j})",
                    lhs.rs
                );
            }
        }
    }

    #[test]
    fn every_element_is_its_paths_chain_across_the_boundary_corpus() {
        for (m, k, n) in corpus() {
            let a = arb_sparse(m * k, (m * 131 + k * 7 + n) as u64);
            let at = transposed(&a, m, k);
            let b = arb(k * n, (n * 31 + k) as u64);
            let (ta, tat, tb) = (
                Tensor::from_vec(&[m, k], a.clone()),
                Tensor::from_vec(&[k, m], at.clone()),
                Tensor::from_vec(&[k, n], b.clone()),
            );
            let (rows, cols) = (Lhs::rows(&a, k), Lhs::transposed(&at, m));
            let blocked = uses_blocked(m, k, n);
            assert_chains(matmul(&ta, &tb).data(), rows, &b, (m, k, n), blocked);
            assert_chains(matmul_tn(&tat, &tb).data(), cols, &b, (m, k, n), blocked);
            // The blocked kernel itself on every corpus shape, below the
            // row floor too, into an output that starts as NaN: each
            // element is written, by its FMA chain from +0.0.
            if blocked_available() {
                for lhs in [rows, cols] {
                    let mut out = vec![f32::NAN; m * n];
                    blocked_into(lhs, &b, &mut out, m, k, n, false);
                    assert_chains(&out, lhs, &b, (m, k, n), true);
                }
            }
        }
    }

    #[test]
    fn resumed_reduction_pieces_equal_the_one_call_product() {
        // K cut into 1–3 consecutive pieces, each resuming the chains the
        // one before stored, row-major and transposed, on both sides of
        // `uses_blocked` and at every thread count.
        for (m, k, n) in corpus() {
            let a = arb_sparse(m * k, (m * 37 + k * 11 + n) as u64);
            let at = transposed(&a, m, k);
            let b = arb(k * n, (n * 13 + k) as u64);
            let blocked = uses_blocked(m, k, n);
            for lhs in [Lhs::rows(&a, k), Lhs::transposed(&at, m)] {
                let mut whole = vec![f32::NAN; m * n];
                with_forced_threads(1, || gemm(lhs, &b, &mut whole, m, k, n));
                for pieces in 1..=k.min(3) {
                    let cuts: Vec<usize> = (0..=pieces).map(|i| i * k / pieces).collect();
                    for threads in [1, 2, 4, 7] {
                        let mut out = vec![f32::NAN; m * n];
                        with_forced_threads(threads, || {
                            for (i, cut) in cuts.windows(2).enumerate() {
                                let (p0, p1) = (cut[0], cut[1]);
                                let piece = Lhs {
                                    data: &lhs.data[p0 * lhs.cs..],
                                    ..lhs
                                };
                                let bp = &b[p0 * n..p1 * n];
                                gemm_piece(blocked, i > 0, piece, bp, &mut out, m, p1 - p0, n);
                            }
                        });
                        let same = out
                            .iter()
                            .zip(&whole)
                            .all(|(x, y)| x.to_bits() == y.to_bits());
                        assert!(
                            same,
                            "m={m} k={k} n={n} rs={} pieces={pieces} threads={threads}",
                            lhs.rs
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_tn_is_bitwise_matmul_of_the_transpose_at_any_thread_count() {
        // Both sides of the row floor and of the flop floor, one KC
        // block and several.
        for &(m, k, n) in &[
            (MIN_BLOCKED_ROWS - 1, 40, 67),
            (MIN_BLOCKED_ROWS, 40, 67),
            (MIN_BLOCKED_ROWS, 8, 8),
            (37, KC + 5, 23),
            (67, 2 * KC + 3, 35),
        ] {
            let a = Tensor::from_vec(&[k, m], arb_sparse(k * m, (m * k) as u64));
            let b = Tensor::from_vec(&[k, n], arb(k * n, (k * n) as u64));
            let want = with_forced_threads(1, || matmul(&transpose(&a, 0, 1), &b));
            for t in [1, 2, 4, 7] {
                let got = with_forced_threads(t, || matmul_tn(&a, &b));
                let same = got
                    .data()
                    .iter()
                    .zip(want.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "m={m} k={k} n={n} threads={t}");
            }
        }
    }

    #[test]
    fn blocked_matches_f64_reference_across_edge_shapes() {
        if !blocked_available() {
            return;
        }
        // Every block-boundary regime: 1, MR±1, NR±1, KC±1, and
        // non-multiples spanning several blocks.
        for &(m, k, n) in &[
            (1, 1, 1),
            (MR - 1, KC + 1, NR - 1),
            (MR, KC, NR),
            (MR + 1, KC - 1, NR + 1),
            (2 * MR + 3, 2 * KC + 3, 2 * NR + 3),
            (37, 19, 23),
        ] {
            let a = arb(m * k, 1 + (m * 31 + n) as u64);
            let b = arb(k * n, 2 + (k * 17 + m) as u64);
            let mut out = vec![f32::NAN; m * n];
            blocked_into(Lhs::rows(&a, k), &b, &mut out, m, k, n, false);
            for i in 0..m {
                for j in 0..n {
                    let w: f64 = (0..k)
                        .map(|p| a[i * k + p] as f64 * b[p * n + j] as f64)
                        .sum();
                    let got = out[i * n + j] as f64;
                    let tol = (k as f64 + 2.0) * f32::EPSILON as f64 * w.abs().max(1.0);
                    assert!(
                        (got - w).abs() <= tol,
                        "m={m} k={k} n={n} ({i},{j}): got {got}, want {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_is_bitwise_thread_count_independent() {
        let (m, k, n) = (67, 40, 67);
        let a = arb(m * k, 11);
        let b = arb(k * n, 12);
        let run = |t: usize| {
            with_forced_threads(t, || {
                let mut out = vec![f32::NAN; m * n];
                gemm(Lhs::rows(&a, k), &b, &mut out, m, k, n);
                out
            })
        };
        let serial = run(1);
        for t in [2, 4, 7] {
            let par = run(t);
            assert!(
                par.iter()
                    .zip(serial.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "threads={t}"
            );
        }
    }

    #[test]
    fn edge_tiles_match_full_tiles_elementwise() {
        // The first NR columns of a (MR, k, NR+1) product must equal the
        // (MR, k, NR) product bitwise: the edge tile may not change the
        // FMA chain of elements it shares with a full-tile run.
        if !blocked_available() {
            return;
        }
        let (m, k) = (MR, KC + 7);
        let a = arb(m * k, 21);
        let b_wide = arb(k * (NR + 1), 22);
        let b_narrow: Vec<f32> = (0..k)
            .flat_map(|p| b_wide[p * (NR + 1)..p * (NR + 1) + NR].to_vec())
            .collect();
        let mut wide = vec![0.0f32; m * (NR + 1)];
        blocked_into(Lhs::rows(&a, k), &b_wide, &mut wide, m, k, NR + 1, false);
        let mut narrow = vec![0.0f32; m * NR];
        blocked_into(Lhs::rows(&a, k), &b_narrow, &mut narrow, m, k, NR, false);
        for i in 0..m {
            for j in 0..NR {
                assert_eq!(
                    wide[i * (NR + 1) + j].to_bits(),
                    narrow[i * NR + j].to_bits(),
                    "element ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn strided_dots_match_contiguous() {
        let k = 37;
        let (lda, ldb) = (3, 5);
        let aw = arb(k * lda, 51);
        let bw = arb(k * ldb, 52);
        let a: Vec<f32> = (0..k).map(|p| aw[p * lda]).collect();
        let b: Vec<f32> = (0..k).map(|p| bw[p * ldb]).collect();
        let f = dot_fma_strided(&aw, lda, &bw, ldb, k);
        assert_eq!(f.to_bits(), dot_fma(&a, &b, 1).to_bits());
        let mut az = a.clone();
        az[7] = 0.0;
        let mut awz = aw.clone();
        awz[7 * lda] = 0.0;
        let nv = dot_naive_strided(&awz, lda, &bw, ldb, k);
        assert_eq!(nv.to_bits(), dot_naive(&az, &b, 1).to_bits());
    }
}
