//! Layout-changing kernels: transpose/permute, concatenation, stacking,
//! slicing and padding. All of them copy — tensors stay contiguous.

use crate::arena;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Edge, in blocks, of the square tiles [`transpose_blocks`] walks.
const TILE: usize = 16;

/// Swaps two axes, copying into a new contiguous tensor.
pub fn transpose(a: &Tensor, ax0: usize, ax1: usize) -> Tensor {
    let mut perm: Vec<usize> = (0..a.ndim()).collect();
    perm.swap(ax0, ax1);
    permute(a, &perm)
}

/// Reorders axes according to `perm` (a permutation of `0..ndim`).
///
/// # Panics
/// Panics if `perm` is not a permutation of the axis indices.
pub fn permute(a: &Tensor, perm: &[usize]) -> Tensor {
    assert_eq!(perm.len(), a.ndim(), "permutation rank mismatch");
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        assert!(p < perm.len() && !seen[p], "invalid permutation {perm:?}");
        seen[p] = true;
    }
    let src_dims = a.dims();
    let out_dims: Vec<usize> = perm.iter().map(|&p| src_dims[p]).collect();
    if let Some((outer, rows, cols, inner)) = block_swap(src_dims, perm) {
        // A swap of two axis groups (every permutation the models use):
        // one block transpose per outer plane, into an arena buffer.
        let mut data = arena::alloc_raw(a.numel());
        let plane = rows * cols * inner;
        for o in 0..outer {
            let span = o * plane..(o + 1) * plane;
            transpose_blocks(
                &a.data()[span.clone()],
                inner,
                &mut data[span],
                inner,
                rows,
                cols,
                inner,
            );
        }
        return Tensor::from_vec(&out_dims, data);
    }
    let out_shape = Shape::new(&out_dims);
    let src_strides = a.shape().strides();
    // Stride of output axis i in the source buffer.
    let strides_in_src: Vec<usize> = perm.iter().map(|&p| src_strides[p]).collect();
    let n = out_shape.numel();
    let mut data = Vec::with_capacity(n);
    let mut idx = vec![0usize; out_dims.len()];
    let mut src_off = 0usize;
    for _ in 0..n {
        data.push(a.data()[src_off]);
        for axis in (0..out_dims.len()).rev() {
            idx[axis] += 1;
            src_off += strides_in_src[axis];
            if idx[axis] < out_dims[axis] {
                break;
            }
            idx[axis] = 0;
            src_off -= strides_in_src[axis] * out_dims[axis];
        }
    }
    Tensor::from_vec(&out_dims, data)
}

/// Recognizes a permutation that swaps two groups of axes. With source
/// axes merged wherever they stay adjacent and in order, the source reads
/// as `[outer, rows, cols, inner]` and the output as
/// `[outer, cols, rows, inner]` (any extent may be 1). Returns those four
/// extents, or `None` for any other reordering.
fn block_swap(dims: &[usize], perm: &[usize]) -> Option<(usize, usize, usize, usize)> {
    // Runs of source axes that stay consecutive, in output order, as
    // half-open source-axis ranges.
    let mut runs: Vec<(usize, usize)> = Vec::with_capacity(perm.len());
    for &p in perm {
        match runs.last_mut() {
            Some(run) if run.1 == p => run.1 += 1,
            _ => runs.push((p, p + 1)),
        }
    }
    // Source rank of each run, listed in output order.
    let mut by_src: Vec<usize> = (0..runs.len()).collect();
    by_src.sort_by_key(|&i| runs[i].0);
    let mut rank = vec![0usize; runs.len()];
    for (r, &i) in by_src.iter().enumerate() {
        rank[i] = r;
    }
    let extent = |r: usize| -> usize {
        let (lo, hi) = runs[by_src[r]];
        dims[lo..hi].iter().product()
    };
    match rank.as_slice() {
        [0] => Some((1, 1, 1, extent(0))),
        [1, 0] => Some((1, extent(0), extent(1), 1)),
        [0, 2, 1] => Some((extent(0), extent(1), extent(2), 1)),
        [1, 0, 2] => Some((1, extent(0), extent(1), extent(2))),
        [0, 2, 1, 3] => Some((extent(0), extent(1), extent(2), extent(3))),
        _ => None,
    }
}

/// Block transpose: copies a `rows × cols` grid of `inner`-float blocks
/// from `src`, where block `(r, c)` starts at `(r·cols + c)·src_ld`, to
/// `dst`, where it lands at `(c·rows + r)·dst_ld`.
///
/// With `inner = src_ld = dst_ld = 1` this is the plain 2-D transpose.
/// Wider strides let a caller gather from, or
/// scatter into, one column block of a wider row-major matrix (the
/// node-major panels of the Cheby-Net layer). A pure copy: every value
/// moves bit for bit.
///
/// # Panics
/// Panics if either slice is too short for the grid.
pub fn transpose_blocks(
    src: &[f32],
    src_ld: usize,
    dst: &mut [f32],
    dst_ld: usize,
    rows: usize,
    cols: usize,
    inner: usize,
) {
    if rows * cols * inner == 0 {
        return;
    }
    let last = rows * cols - 1;
    assert!(
        src.len() >= last * src_ld + inner && dst.len() >= last * dst_ld + inner,
        "transpose_blocks: a {rows}×{cols} grid of {inner}-blocks overruns its buffers"
    );
    // Square tiles keep both the blocks read and the blocks written
    // cache-resident, whichever side is strided.
    for r0 in (0..rows).step_by(TILE) {
        let r1 = (r0 + TILE).min(rows);
        for c0 in (0..cols).step_by(TILE) {
            let c1 = (c0 + TILE).min(cols);
            for c in c0..c1 {
                for r in r0..r1 {
                    let (s, d) = ((r * cols + c) * src_ld, (c * rows + r) * dst_ld);
                    if inner == 1 {
                        dst[d] = src[s];
                    } else {
                        dst[d..d + inner].copy_from_slice(&src[s..s + inner]);
                    }
                }
            }
        }
    }
}

/// Concatenates tensors along `axis`. All other dimensions must agree.
///
/// # Panics
/// Panics on an empty input list or mismatched non-concat dimensions.
pub fn concat(parts: &[&Tensor], axis: usize) -> Tensor {
    assert!(!parts.is_empty(), "concat of zero tensors");
    let first = parts[0];
    let ndim = first.ndim();
    assert!(axis < ndim, "concat axis out of range");
    for p in parts {
        assert_eq!(p.ndim(), ndim, "concat rank mismatch");
        for d in 0..ndim {
            if d != axis {
                assert_eq!(
                    p.dim(d),
                    first.dim(d),
                    "concat non-axis dim mismatch at {d}"
                );
            }
        }
    }
    let outer: usize = first.dims()[..axis].iter().product();
    let inner: usize = first.dims()[axis + 1..].iter().product();
    let total_axis: usize = parts.iter().map(|p| p.dim(axis)).sum();
    let mut out_dims = first.dims().to_vec();
    out_dims[axis] = total_axis;
    let mut data = Vec::with_capacity(outer * total_axis * inner);
    for o in 0..outer {
        for p in parts {
            let mid = p.dim(axis);
            let start = o * mid * inner;
            data.extend_from_slice(&p.data()[start..start + mid * inner]);
        }
    }
    Tensor::from_vec(&out_dims, data)
}

/// Stacks tensors of identical shape along a new leading `axis`.
pub fn stack(parts: &[&Tensor], axis: usize) -> Tensor {
    assert!(!parts.is_empty(), "stack of zero tensors");
    let unsq: Vec<Tensor> = parts
        .iter()
        .map(|p| {
            let mut dims = p.dims().to_vec();
            dims.insert(axis, 1);
            p.reshape(&dims)
        })
        .collect();
    let refs: Vec<&Tensor> = unsq.iter().collect();
    concat(&refs, axis)
}

/// Takes the half-open range `[start, end)` of `axis`.
///
/// # Panics
/// Panics if the range is invalid for the axis extent.
pub fn slice_axis(a: &Tensor, axis: usize, start: usize, end: usize) -> Tensor {
    assert!(axis < a.ndim(), "slice axis out of range");
    assert!(
        start <= end && end <= a.dim(axis),
        "invalid slice [{start},{end}) on axis {axis}"
    );
    let outer: usize = a.dims()[..axis].iter().product();
    let mid = a.dim(axis);
    let inner: usize = a.dims()[axis + 1..].iter().product();
    let take = end - start;
    let mut out_dims = a.dims().to_vec();
    out_dims[axis] = take;
    let mut data = Vec::with_capacity(outer * take * inner);
    for o in 0..outer {
        let base = (o * mid + start) * inner;
        data.extend_from_slice(&a.data()[base..base + take * inner]);
    }
    Tensor::from_vec(&out_dims, data)
}

/// Selects rows of `axis` by index (duplicates allowed), akin to
/// `index_select`.
pub fn index_select(a: &Tensor, axis: usize, indices: &[usize]) -> Tensor {
    assert!(axis < a.ndim(), "index_select axis out of range");
    let outer: usize = a.dims()[..axis].iter().product();
    let mid = a.dim(axis);
    let inner: usize = a.dims()[axis + 1..].iter().product();
    let mut out_dims = a.dims().to_vec();
    out_dims[axis] = indices.len();
    let mut data = Vec::with_capacity(outer * indices.len() * inner);
    for o in 0..outer {
        for &ix in indices {
            assert!(ix < mid, "index {ix} out of range for axis extent {mid}");
            let base = (o * mid + ix) * inner;
            data.extend_from_slice(&a.data()[base..base + inner]);
        }
    }
    Tensor::from_vec(&out_dims, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_2d() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = transpose(&a, 0, 1);
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(transpose(&transpose(&a, 0, 1), 0, 1), a);
    }

    #[test]
    fn permute_3d() {
        let a = Tensor::from_vec(&[2, 3, 4], (0..24).map(|x| x as f32).collect());
        let p = permute(&a, &[2, 0, 1]);
        assert_eq!(p.dims(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), a.at(&[0, 2, 1]));
        assert_eq!(p.at(&[3, 1, 0]), a.at(&[1, 0, 3]));
    }

    /// The odometer walk every permutation used before the block-swap
    /// fast path existed; the fast path must reproduce it exactly.
    fn permute_reference(a: &Tensor, perm: &[usize]) -> Tensor {
        let out_dims: Vec<usize> = perm.iter().map(|&p| a.dim(p)).collect();
        let n = a.numel();
        let mut out = Tensor::zeros(&out_dims);
        let mut src_idx = vec![0usize; perm.len()];
        for flat in 0..n {
            let mut rem = flat;
            for axis in (0..out_dims.len()).rev() {
                src_idx[perm[axis]] = rem % out_dims[axis];
                rem /= out_dims[axis];
            }
            out.data_mut()[flat] = a.at(&src_idx);
        }
        out
    }

    #[test]
    fn block_swaps_match_the_odometer_walk() {
        let a = Tensor::from_vec(&[3, 5, 4, 2], (0..120).map(|x| x as f32).collect());
        for perm in [
            [0, 2, 1, 3],
            [1, 0, 2, 3],
            [0, 1, 3, 2],
            [2, 3, 0, 1],
            [0, 3, 1, 2],
            [3, 2, 1, 0],
            [1, 2, 0, 3],
            [0, 1, 2, 3],
        ] {
            let got = permute(&a, &perm);
            assert_eq!(got, permute_reference(&a, &perm), "perm {perm:?}");
        }
        // Larger than one tile in both directions, with ragged edges.
        let m = Tensor::from_vec(&[70, 45], (0..3150).map(|x| x as f32).collect());
        assert_eq!(transpose(&m, 0, 1), permute_reference(&m, &[1, 0]));
    }

    #[test]
    fn block_swap_classifies_only_two_group_swaps() {
        assert_eq!(block_swap(&[2, 3], &[1, 0]), Some((1, 2, 3, 1)));
        assert_eq!(block_swap(&[2, 3, 4], &[1, 0, 2]), Some((1, 2, 3, 4)));
        assert_eq!(block_swap(&[2, 3, 4], &[0, 2, 1]), Some((2, 3, 4, 1)));
        assert_eq!(
            block_swap(&[2, 3, 4, 5], &[2, 3, 0, 1]),
            Some((1, 6, 20, 1))
        );
        assert_eq!(block_swap(&[2, 3, 4], &[0, 1, 2]), Some((1, 1, 1, 24)));
        assert_eq!(block_swap(&[2, 3, 4], &[2, 0, 1]), Some((1, 6, 4, 1)));
        assert_eq!(block_swap(&[2, 3, 4], &[2, 1, 0]), None);
    }

    #[test]
    fn strided_block_transpose_scatters_into_a_column_block() {
        // A [2 × 3] grid of 2-float blocks scattered into the second
        // 2-column block of a [3·2, 4] matrix.
        let src: Vec<f32> = (0..12).map(|x| x as f32).collect();
        let mut dst = [-1.0f32; 6 * 4];
        transpose_blocks(&src, 2, &mut dst[2..], 4, 2, 3, 2);
        for c in 0..3 {
            for r in 0..2 {
                let d = (c * 2 + r) * 4 + 2;
                let s = (r * 3 + c) * 2;
                assert_eq!(&dst[d..d + 2], &src[s..s + 2], "block ({r},{c})");
                assert_eq!(&dst[d - 2..d], &[-1.0, -1.0], "left block untouched");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid permutation")]
    fn bad_permutation() {
        permute(&Tensor::zeros(&[2, 2]), &[0, 0]);
    }

    #[test]
    fn concat_axis0_and_1() {
        let a = Tensor::from_vec(&[1, 2], vec![1.0, 2.0]);
        let b = Tensor::from_vec(&[1, 2], vec![3.0, 4.0]);
        let c0 = concat(&[&a, &b], 0);
        assert_eq!(c0.dims(), &[2, 2]);
        assert_eq!(c0.data(), &[1.0, 2.0, 3.0, 4.0]);
        let c1 = concat(&[&a, &b], 1);
        assert_eq!(c1.dims(), &[1, 4]);
        assert_eq!(c1.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn stack_creates_new_axis() {
        let a = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        let b = Tensor::from_vec(&[2], vec![3.0, 4.0]);
        let s = stack(&[&a, &b], 0);
        assert_eq!(s.dims(), &[2, 2]);
        let s1 = stack(&[&a, &b], 1);
        assert_eq!(s1.dims(), &[2, 2]);
        assert_eq!(s1.data(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn slice_middle() {
        let a = Tensor::from_vec(&[2, 4], (0..8).map(|x| x as f32).collect());
        let s = slice_axis(&a, 1, 1, 3);
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.data(), &[1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn slice_concat_roundtrip() {
        let a = Tensor::from_vec(&[3, 2], (0..6).map(|x| x as f32).collect());
        let top = slice_axis(&a, 0, 0, 1);
        let rest = slice_axis(&a, 0, 1, 3);
        assert_eq!(concat(&[&top, &rest], 0), a);
    }

    #[test]
    fn index_select_rows() {
        let a = Tensor::from_vec(&[3, 2], (0..6).map(|x| x as f32).collect());
        let g = index_select(&a, 0, &[2, 0, 2]);
        assert_eq!(g.dims(), &[3, 2]);
        assert_eq!(g.data(), &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
    }
}
