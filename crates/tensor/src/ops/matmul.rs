//! Matrix multiplication kernels.
//!
//! Large products run the cache-blocked, register-tiled microkernel in
//! [`crate::ops::gemm`], which reads both operands in place; small ones
//! use the naive `i-k-j` kernel whose inner loop streams both operands.
//! The path is a pure function of the problem shape and host CPU
//! features — see the determinism notes in [`crate::ops::gemm`].
//!
//! Large products fan out across [`crate::par`]: output rows (2-D) or
//! batch items (batched) are distributed over the pool, and every
//! row/item is still produced by the identical serial inner kernel — so
//! results are bitwise identical at any `STOD_THREADS`.

use crate::arena;
use crate::ops::gemm::{self, Lhs};
use crate::par;
use crate::tensor::Tensor;

/// 2-D matrix product `a (m×k) · b (k×n) → (m×n)`.
///
/// ```
/// use stod_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(&[1, 2], vec![1.0, 2.0]);
/// let b = Tensor::from_vec(&[2, 1], vec![3.0, 4.0]);
/// assert_eq!(matmul(&a, &b).item(), 11.0);
/// ```
///
/// # Panics
/// Panics if either operand is not 2-D or the inner dimensions mismatch.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul lhs must be 2-D, got {:?}", a.dims());
    let k = a.dim(1);
    product(Lhs::rows(a.data(), k), a.dim(0), k, b, a)
}

/// Transposed-lhs product `aᵀ · b` for `a (k×m)`, `b (k×n) → (m×n)`,
/// reading `a` in place: bitwise `matmul(&transpose(a, 0, 1), b)`
/// without the copy.
///
/// # Panics
/// Panics if either operand is not 2-D or the row counts mismatch.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul lhs must be 2-D, got {:?}", a.dims());
    let m = a.dim(1);
    product(Lhs::transposed(a.data(), m), m, a.dim(0), b, a)
}

/// The `m×n` product of the `m×k` left operand `lhs` (viewing `a`) and
/// `b`, booked as one `matmul` call.
fn product(lhs: Lhs, m: usize, k: usize, b: &Tensor, a: &Tensor) -> Tensor {
    assert_eq!(b.ndim(), 2, "matmul rhs must be 2-D, got {:?}", b.dims());
    let n = b.dim(1);
    assert_eq!(
        k,
        b.dim(0),
        "matmul inner dims mismatch: {:?} vs {:?}",
        a.dims(),
        b.dims()
    );
    if stod_obs::armed() {
        stod_obs::count("kernel/matmul/calls", 1);
        stod_obs::count("kernel/matmul/elements", (m * n) as u64);
    }
    let mut out = arena::alloc_raw(m * n);
    gemm::gemm(lhs, b.data(), &mut out, m, k, n);
    Tensor::from_vec(&[m, n], out)
}

/// Matrix–vector product `a (m×k) · x (k) → (m)`.
///
/// # Panics
/// Panics if `a` is not 2-D or the dimensions mismatch.
pub fn matvec(a: &Tensor, x: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matvec lhs must be 2-D");
    assert_eq!(x.ndim(), 1, "matvec rhs must be 1-D");
    let (m, k) = (a.dim(0), a.dim(1));
    assert_eq!(k, x.dim(0), "matvec dims mismatch");
    if stod_obs::armed() {
        stod_obs::count("kernel/matvec/calls", 1);
        stod_obs::count("kernel/matvec/elements", m as u64);
    }
    // matvec keeps its f64 accumulation (power iteration, VAR fits and
    // proximity kernels lean on the extra precision); it is memory-bound,
    // so the blocked f32 microkernels would not make it faster anyway.
    let mut out = arena::alloc_raw(m);
    let fill = |rows: std::ops::Range<usize>, chunk: &mut [f32]| {
        for (o, i) in chunk.iter_mut().zip(rows) {
            let row = &a.data()[i * k..(i + 1) * k];
            *o = row
                .iter()
                .zip(x.data().iter())
                .map(|(&a, &b)| (a as f64) * (b as f64))
                .sum::<f64>() as f32;
        }
    };
    if m > 1 && par::should_parallelize(m * k) {
        par::for_each_row_chunk(&mut out, m, 1, fill);
    } else {
        fill(0..m, &mut out);
    }
    Tensor::from_vec(&[m], out)
}

/// Batched matrix product over the leading dimensions.
///
/// Both operands are interpreted as stacks of matrices: shape
/// `[..., m, k] · [..., k, n] → [..., m, n]`. A 2-D operand is broadcast
/// across the other operand's batch dimensions.
///
/// # Panics
/// Panics when the batch dimensions are incompatible or inner dims differ.
pub fn batched_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert!(
        a.ndim() >= 2 && b.ndim() >= 2,
        "batched_matmul needs rank ≥ 2 operands"
    );
    let (m, k) = (a.dim(a.ndim() - 2), a.dim(a.ndim() - 1));
    let (k2, n) = (b.dim(b.ndim() - 2), b.dim(b.ndim() - 1));
    assert_eq!(
        k,
        k2,
        "batched_matmul inner dims mismatch: {:?} vs {:?}",
        a.dims(),
        b.dims()
    );

    let batch_a: usize = a.dims()[..a.ndim() - 2].iter().product();
    let batch_b: usize = b.dims()[..b.ndim() - 2].iter().product();
    let (batch, batch_dims): (usize, Vec<usize>) = if batch_a == 1 && a.ndim() == 2 {
        (batch_b, b.dims()[..b.ndim() - 2].to_vec())
    } else if batch_b == 1 && b.ndim() == 2 {
        (batch_a, a.dims()[..a.ndim() - 2].to_vec())
    } else {
        assert_eq!(
            a.dims()[..a.ndim() - 2],
            b.dims()[..b.ndim() - 2],
            "batched_matmul batch dims mismatch: {:?} vs {:?}",
            a.dims(),
            b.dims()
        );
        (batch_a, a.dims()[..a.ndim() - 2].to_vec())
    };

    if stod_obs::armed() {
        stod_obs::count("kernel/batched_matmul/calls", 1);
        stod_obs::count("kernel/batched_matmul/elements", (batch * m * n) as u64);
    }
    let mut out = arena::alloc_raw(batch * m * n);
    let a_step = if batch_a == 1 && a.ndim() == 2 {
        0
    } else {
        m * k
    };
    let b_step = if batch_b == 1 && b.ndim() == 2 {
        0
    } else {
        k * n
    };
    let blocked = gemm::uses_blocked(m, k, n);
    let item = |t: usize, out: &mut [f32]| {
        let a_t = Lhs::rows(&a.data()[t * a_step..t * a_step + m * k], k);
        let b_t = &b.data()[t * b_step..t * b_step + k * n];
        gemm::gemm_serial(blocked, a_t, b_t, out, m, k, n);
    };
    if batch == 1 {
        // A single item: the row-parallel 2-D path covers it.
        gemm::gemm(
            Lhs::rows(&a.data()[..m * k], k),
            &b.data()[..k * n],
            &mut out,
            m,
            k,
            n,
        );
    } else if par::should_parallelize(batch * m * k * n) {
        // Batch items are fully independent — distribute them whole.
        par::for_each_row_chunk(&mut out, batch, m * n, |items, chunk| {
            for (local, t) in items.enumerate() {
                item(t, &mut chunk[local * m * n..(local + 1) * m * n]);
            }
        });
    } else {
        for t in 0..batch {
            item(t, &mut out[t * m * n..(t + 1) * m * n]);
        }
    }
    let mut dims = batch_dims;
    dims.push(m);
    dims.push(n);
    Tensor::from_vec(&dims, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_basic() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![3.0, -1.0, 2.0, 5.0]);
        let i = Tensor::eye(2);
        assert_eq!(matmul(&a, &i), a);
        assert_eq!(matmul(&i, &a), a);
    }

    #[test]
    #[should_panic(expected = "inner dims mismatch")]
    fn matmul_dim_mismatch() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[2, 3]));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, -1.0, 2.0, 1.0, 3.0]);
        let x = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let y = matvec(&a, &x);
        assert_eq!(y.data(), &[-2.0, 13.0]);
    }

    #[test]
    fn batched_same_batch() {
        let a = Tensor::from_vec(&[2, 1, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2, 1], vec![1.0, 1.0, 2.0, 0.5]);
        let c = batched_matmul(&a, &b);
        assert_eq!(c.dims(), &[2, 1, 1]);
        assert_eq!(c.data(), &[3.0, 8.0]);
    }

    #[test]
    fn batched_broadcast_rhs() {
        // One shared rhs across a batch of lhs matrices.
        let a = Tensor::from_vec(&[3, 1, 2], vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let b = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let c = batched_matmul(&a, &b);
        assert_eq!(c.dims(), &[3, 1, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 4.0, 6.0]);
    }

    #[test]
    fn batched_broadcast_lhs() {
        let a = Tensor::eye(2);
        let b = Tensor::from_vec(&[2, 2, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let c = batched_matmul(&a, &b);
        assert_eq!(c, b);
    }

    fn arb(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = crate::rng::Rng64::new(seed);
        let n: usize = dims.iter().product();
        Tensor::from_vec(dims, (0..n).map(|_| rng.next_gaussian() as f32).collect())
    }

    #[test]
    fn matmul_bitwise_identical_serial_vs_parallel() {
        let a = arb(&[37, 19], 1);
        let b = arb(&[19, 23], 2);
        let serial = crate::par::with_forced_threads(1, || matmul(&a, &b));
        for t in [2, 4, 7] {
            let par = crate::par::with_forced_threads(t, || matmul(&a, &b));
            assert_eq!(par, serial, "threads={t}");
        }
    }

    #[test]
    fn matvec_bitwise_identical_serial_vs_parallel() {
        let a = arb(&[53, 17], 3);
        let x = arb(&[17], 4);
        let serial = crate::par::with_forced_threads(1, || matvec(&a, &x));
        for t in [2, 4] {
            let par = crate::par::with_forced_threads(t, || matvec(&a, &x));
            assert_eq!(par, serial, "threads={t}");
        }
    }

    #[test]
    fn batched_matmul_bitwise_identical_serial_vs_parallel() {
        let a = arb(&[6, 5, 4], 5);
        let b = arb(&[6, 4, 3], 6);
        let shared = arb(&[4, 3], 7);
        let serial = crate::par::with_forced_threads(1, || {
            (batched_matmul(&a, &b), batched_matmul(&a, &shared))
        });
        for t in [2, 4] {
            let par = crate::par::with_forced_threads(t, || {
                (batched_matmul(&a, &b), batched_matmul(&a, &shared))
            });
            assert_eq!(par, serial, "threads={t}");
        }
    }

    #[test]
    fn deep_batch_dims() {
        let a = Tensor::ones(&[2, 3, 2, 2]);
        let b = Tensor::ones(&[2, 3, 2, 4]);
        let c = batched_matmul(&a, &b);
        assert_eq!(c.dims(), &[2, 3, 2, 4]);
        assert!(c.data().iter().all(|&x| x == 2.0));
    }
}
