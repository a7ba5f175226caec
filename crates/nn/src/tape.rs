//! Reverse-mode automatic differentiation over [`stod_tensor::Tensor`].
//!
//! A [`Tape`] is a freshly-built computation graph per forward pass. Every
//! operation evaluates eagerly, records its parents and a backward closure,
//! and returns a [`Var`] handle. [`Tape::backward`] walks the nodes in
//! reverse topological order (creation order is already topological) and
//! accumulates gradients into the parameter leaves.
//!
//! Constant nodes (`requires_grad == false`) cut gradient propagation, so
//! multiplying by fixed matrices — scaled Laplacians, masks — costs nothing
//! on the backward pass.
//!
//! # No-grad tapes
//!
//! A forward that nothing differentiates — a served forecast, a validation
//! or test evaluation — runs on a [`Tape::no_grad`] tape. Its parameter
//! leaves are constants, so no node requires gradients and `push` prunes
//! every op's backward closure as the op records it: whatever a closure
//! captured (a fused op's `Z`, pooling winners, dropout masks) is freed
//! back to the arena when the op returns instead of living until the
//! tape drops. Fused ops that would do backward-only work ask
//! [`Tape::requires_grad`] first and skip it (`cheby_pool` pools without
//! winner codes). Every op computes its value the same way on either
//! tape, so forward values are bitwise equal; [`Tape::backward`] on a
//! no-grad tape panics.
//!
//! Every node carries a static op name (`matmul`, `cheby_conv`, …). When
//! the observability layer is armed, [`Tape::backward`] times each node's
//! backward closure under an `nn/bwd/<op>` span, so backward time is
//! attributed per op; disarmed, the cost is one relaxed load per node.

use crate::params::{ParamId, ParamStore};
use std::collections::BTreeMap;
use stod_tensor::ops::{elementwise as ew, matmul as mm, softmax as sm, transform as tf};
use stod_tensor::rng::Rng64;
use stod_tensor::Tensor;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// Backward closure: `(grad_out, parent_values, own_value, parent_needs)`
/// returns one optional gradient per parent (`None` where not needed).
///
/// Public so fused operations living outside this crate (e.g. the sparse
/// masked recovery kernel in `stod-core`) can register themselves via
/// [`Tape::custom_op`].
pub type BackwardFn = Box<dyn Fn(&Tensor, &[&Tensor], &Tensor, &[bool]) -> Vec<Option<Tensor>>>;

struct Node {
    /// Op name, for per-op backward attribution.
    op: &'static str,
    value: Tensor,
    parents: Vec<usize>,
    backward: Option<BackwardFn>,
    requires_grad: bool,
}

/// Result of a backward pass: gradients for the parameter leaves used in
/// the forward pass.
pub struct Gradients {
    by_param: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. a parameter, if the parameter
    /// participated in the graph.
    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.by_param.get(id.index()).and_then(Option::as_ref)
    }

    /// Mutable access to one parameter's gradient (fault-injection tests
    /// use this to poison gradients in place).
    pub fn get_mut(&mut self, id: ParamId) -> Option<&mut Tensor> {
        self.by_param.get_mut(id.index()).and_then(Option::as_mut)
    }

    /// Global L2 norm across all parameter gradients.
    pub fn global_norm(&self) -> f32 {
        let mut s = 0.0f64;
        for g in self.by_param.iter().flatten() {
            s += g.frob_sq() as f64;
        }
        (s as f32).sqrt()
    }

    /// Scales every gradient in place (used for clipping).
    pub fn scale(&mut self, factor: f32) {
        for g in self.by_param.iter_mut().flatten() {
            g.map_inplace(|x| x * factor);
        }
    }

    /// Accumulates `other` into `self` (`self += other`), element-wise per
    /// parameter.
    ///
    /// Used to merge per-shard gradients: the trainer folds shard
    /// gradients in fixed shard order on one thread, so the merged sum is
    /// independent of how the shards were scheduled across the pool.
    ///
    /// # Panics
    /// Panics if a parameter's gradient shapes disagree.
    pub fn add_assign(&mut self, other: &Gradients) {
        if other.by_param.len() > self.by_param.len() {
            self.by_param.resize_with(other.by_param.len(), || None);
        }
        for (i, g) in other.by_param.iter().enumerate() {
            let Some(g) = g else { continue };
            match &mut self.by_param[i] {
                Some(acc) => {
                    assert_eq!(acc.dims(), g.dims(), "gradient shape mismatch");
                    for (a, &b) in acc.data_mut().iter_mut().zip(g.data()) {
                        *a += b;
                    }
                }
                slot => *slot = Some(g.clone()),
            }
        }
    }

    /// Iterates over `(ParamId, gradient)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.by_param
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|g| (ParamId(i), g)))
    }
}

/// A reverse-mode autodiff tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// `(node index, param id)` for every parameter leaf on this tape.
    param_leaves: Vec<(usize, ParamId)>,
    /// Set by [`Tape::no_grad`]: every leaf is a constant.
    no_grad: bool,
}

/// Sums a gradient down to `target_dims`, undoing NumPy-style broadcasting.
fn reduce_to_shape(grad: Tensor, target_dims: &[usize]) -> Tensor {
    if grad.dims() == target_dims {
        return grad;
    }
    let mut g = grad;
    // Collapse leading broadcast dimensions.
    while g.ndim() > target_dims.len() {
        g = stod_tensor::sum_axis(&g, 0, false);
    }
    // Collapse size-1 dimensions that were broadcast.
    for (axis, &target) in target_dims.iter().enumerate() {
        if target == 1 && g.dim(axis) != 1 {
            g = stod_tensor::sum_axis(&g, axis, true);
        }
    }
    assert_eq!(g.dims(), target_dims, "broadcast gradient reduction failed");
    g
}

impl Tape {
    /// Creates an empty training tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Creates an empty no-grad tape, for forwards that nothing
    /// differentiates: [`Tape::param`] and [`Tape::leaf`] record
    /// `constant` leaves, so no op keeps a backward closure and
    /// [`Tape::backward`] panics. Forward values are bitwise those of a
    /// [`Tape::new`] tape.
    pub fn no_grad() -> Self {
        Tape {
            no_grad: true,
            ..Tape::default()
        }
    }

    /// Whether anything can differentiate `v`: false for constants, for
    /// values computed only from constants, and for every node of a
    /// no-grad tape. Fused ops ask before doing backward-only work.
    pub fn requires_grad(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of recorded nodes per op name (`leaf` and `constant`
    /// included), in name order: the tape's work profile, which
    /// `tests/work_pin.rs` pins.
    pub fn op_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for node in &self.nodes {
            *counts.entry(node.op).or_insert(0) += 1;
        }
        counts
    }

    /// The value computed at `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    fn push(
        &mut self,
        op: &'static str,
        value: Tensor,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
    ) -> Var {
        let requires_grad =
            backward.is_some() && parents.iter().any(|&p| self.nodes[p].requires_grad);
        self.nodes.push(Node {
            op,
            value,
            parents,
            backward: if requires_grad { backward } else { None },
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    /// Registers a fused operation computed outside the tape: `op` names
    /// it for backward attribution (`nn/bwd/<op>`), `value` is the eagerly
    /// evaluated result, `parents` the inputs it was computed from, and
    /// `backward` the hand-written gradient. The closure receives
    /// `(grad_out, parent_values, own_value, parent_needs)` and must return
    /// one optional gradient per parent, shaped like that parent.
    ///
    /// A parent may be listed more than once. Its gradients then
    /// accumulate in list order, which lets a fused op reproduce the
    /// accumulation order of the ops it replaces bit for bit.
    ///
    /// The tape applies the same pruning as built-in ops: if no parent
    /// requires gradients the closure is dropped and the node becomes a
    /// constant.
    pub fn custom_op(
        &mut self,
        op: &'static str,
        value: Tensor,
        parents: &[Var],
        backward: BackwardFn,
    ) -> Var {
        self.push(
            op,
            value,
            parents.iter().map(|v| v.0).collect(),
            Some(backward),
        )
    }

    /// Registers a fused operation whose output nothing can
    /// differentiate (no parent [`Tape::requires_grad`]): a node named
    /// `op` over `parents` with no backward, for ops that skip building
    /// backward state they would only drop.
    ///
    /// # Panics
    /// Panics if a parent requires gradients.
    pub fn custom_op_no_grad(&mut self, op: &'static str, value: Tensor, parents: &[Var]) -> Var {
        assert!(
            !parents.iter().any(|&p| self.requires_grad(p)),
            "{op}: a parent requires gradients, so the op needs a backward"
        );
        self.push(op, value, parents.iter().map(|v| v.0).collect(), None)
    }

    /// Adds a constant (non-differentiable) leaf.
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.nodes.push(Node {
            op: "constant",
            value: t,
            parents: vec![],
            backward: None,
            requires_grad: false,
        });
        Var(self.nodes.len() - 1)
    }

    /// Adds a differentiable leaf that is *not* a registered parameter
    /// (used by gradient checks); a constant on a no-grad tape.
    pub fn leaf(&mut self, t: Tensor) -> Var {
        if self.no_grad {
            return self.constant(t);
        }
        self.nodes.push(Node {
            op: "leaf",
            value: t,
            parents: vec![],
            backward: None,
            requires_grad: true,
        });
        Var(self.nodes.len() - 1)
    }

    /// Adds a parameter leaf reading its current value from `store`; a
    /// constant on a no-grad tape.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let v = self.leaf(store.get(id).clone());
        if !self.no_grad {
            self.param_leaves.push((v.0, id));
        }
        v
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic
    // ------------------------------------------------------------------

    /// Broadcasting addition.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = ew::add(self.value(a), self.value(b));
        self.push(
            "add",
            value,
            vec![a.0, b.0],
            Some(Box::new(|g, ps, _, needs| {
                vec![
                    needs[0].then(|| reduce_to_shape(g.clone(), ps[0].dims())),
                    needs[1].then(|| reduce_to_shape(g.clone(), ps[1].dims())),
                ]
            })),
        )
    }

    /// Broadcasting subtraction `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = ew::sub(self.value(a), self.value(b));
        self.push(
            "sub",
            value,
            vec![a.0, b.0],
            Some(Box::new(|g, ps, _, needs| {
                vec![
                    needs[0].then(|| reduce_to_shape(g.clone(), ps[0].dims())),
                    needs[1].then(|| reduce_to_shape(ew::neg(g), ps[1].dims())),
                ]
            })),
        )
    }

    /// Broadcasting elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = ew::mul(self.value(a), self.value(b));
        self.push(
            "mul",
            value,
            vec![a.0, b.0],
            Some(Box::new(|g, ps, _, needs| {
                vec![
                    needs[0].then(|| reduce_to_shape(ew::mul(g, ps[1]), ps[0].dims())),
                    needs[1].then(|| reduce_to_shape(ew::mul(g, ps[0]), ps[1].dims())),
                ]
            })),
        )
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let value = ew::neg(self.value(a));
        self.push(
            "neg",
            value,
            vec![a.0],
            Some(Box::new(|g, _, _, _| vec![Some(ew::neg(g))])),
        )
    }

    /// Multiplication by a compile-time scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = ew::scale(self.value(a), s);
        self.push(
            "scale",
            value,
            vec![a.0],
            Some(Box::new(move |g, _, _, _| vec![Some(ew::scale(g, s))])),
        )
    }

    /// Addition of a compile-time scalar.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let value = ew::add_scalar(self.value(a), s);
        self.push(
            "add_scalar",
            value,
            vec![a.0],
            Some(Box::new(|g, _, _, _| vec![Some(g.clone())])),
        )
    }

    /// `1 - a`, a common idiom in gated units.
    pub fn one_minus(&mut self, a: Var) -> Var {
        let n = self.neg(a);
        self.add_scalar(n, 1.0)
    }

    // ------------------------------------------------------------------
    // Nonlinearities
    // ------------------------------------------------------------------

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = ew::sigmoid(self.value(a));
        self.push(
            "sigmoid",
            value,
            vec![a.0],
            Some(Box::new(|g, _, y, _| {
                // dσ = σ(1-σ)
                let dy = ew::mul(g, &y.map(|s| s * (1.0 - s)));
                vec![Some(dy)]
            })),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = ew::tanh(self.value(a));
        self.push(
            "tanh",
            value,
            vec![a.0],
            Some(Box::new(|g, _, y, _| {
                let dy = ew::mul(g, &y.map(|t| 1.0 - t * t));
                vec![Some(dy)]
            })),
        )
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = ew::relu(self.value(a));
        self.push(
            "relu",
            value,
            vec![a.0],
            Some(Box::new(|g, ps, _, _| {
                let mask = ps[0].map(|x| if x > 0.0 { 1.0 } else { 0.0 });
                vec![Some(ew::mul(g, &mask))]
            })),
        )
    }

    /// Elementwise exponential. Test-only: no model records it;
    /// gradcheck's `sigmoid_tanh_relu_exp` keeps it as a checked op.
    #[cfg(test)]
    pub fn exp(&mut self, a: Var) -> Var {
        let value = ew::exp(self.value(a));
        self.push(
            "exp",
            value,
            vec![a.0],
            Some(Box::new(|g, _, y, _| vec![Some(ew::mul(g, y))])),
        )
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// 2-D matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = mm::matmul(self.value(a), self.value(b));
        self.push(
            "matmul",
            value,
            vec![a.0, b.0],
            Some(Box::new(|g, ps, _, needs| {
                vec![
                    needs[0].then(|| mm::matmul(g, &tf::transpose(ps[1], 0, 1))),
                    needs[1].then(|| mm::matmul_tn(ps[0], g)),
                ]
            })),
        )
    }

    /// Batched matrix product over leading dimensions; a 2-D operand is
    /// broadcast across the other operand's batch (its gradient is summed).
    pub fn batched_matmul(&mut self, a: Var, b: Var) -> Var {
        let value = mm::batched_matmul(self.value(a), self.value(b));
        self.push(
            "batched_matmul",
            value,
            vec![a.0, b.0],
            Some(Box::new(|g, ps, _, needs| {
                let (a, b) = (ps[0], ps[1]);
                let ga = needs[0].then(|| {
                    let bt = transpose_last2(b);
                    let full = mm::batched_matmul(g, &bt);
                    reduce_batched(full, a.dims())
                });
                let gb = needs[1].then(|| {
                    let at = transpose_last2(a);
                    let full = mm::batched_matmul(&at, g);
                    reduce_batched(full, b.dims())
                });
                vec![ga, gb]
            })),
        )
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reshape (element count must match).
    pub fn reshape(&mut self, a: Var, dims: &[usize]) -> Var {
        let value = self.value(a).reshape(dims);
        self.push(
            "reshape",
            value,
            vec![a.0],
            Some(Box::new(|g, ps, _, _| vec![Some(g.reshape(ps[0].dims()))])),
        )
    }

    /// Axis permutation.
    pub fn permute(&mut self, a: Var, perm: &[usize]) -> Var {
        let value = tf::permute(self.value(a), perm);
        let perm_owned = perm.to_vec();
        self.push(
            "permute",
            value,
            vec![a.0],
            Some(Box::new(move |g, _, _, _| {
                // Invert the permutation for the gradient.
                let mut inv = vec![0usize; perm_owned.len()];
                for (i, &p) in perm_owned.iter().enumerate() {
                    inv[p] = i;
                }
                vec![Some(tf::permute(g, &inv))]
            })),
        )
    }

    /// Swaps two axes.
    pub fn transpose(&mut self, a: Var, ax0: usize, ax1: usize) -> Var {
        let mut perm: Vec<usize> = (0..self.value(a).ndim()).collect();
        perm.swap(ax0, ax1);
        self.permute(a, &perm)
    }

    /// Concatenation along `axis`.
    pub fn concat(&mut self, parts: &[Var], axis: usize) -> Var {
        assert!(!parts.is_empty(), "concat of zero vars");
        let tensors: Vec<&Tensor> = parts.iter().map(|&v| self.value(v)).collect();
        let value = tf::concat(&tensors, axis);
        let parents: Vec<usize> = parts.iter().map(|v| v.0).collect();
        self.push(
            "concat",
            value,
            parents,
            Some(Box::new(move |g, ps, _, needs| {
                let mut out = Vec::with_capacity(ps.len());
                let mut start = 0usize;
                for (p, &need) in ps.iter().zip(needs.iter()) {
                    let len = p.dim(axis);
                    out.push(need.then(|| tf::slice_axis(g, axis, start, start + len)));
                    start += len;
                }
                out
            })),
        )
    }

    /// Half-open slice of `axis`.
    pub fn slice_axis(&mut self, a: Var, axis: usize, start: usize, end: usize) -> Var {
        let value = tf::slice_axis(self.value(a), axis, start, end);
        self.push(
            "slice_axis",
            value,
            vec![a.0],
            Some(Box::new(move |g, ps, _, _| {
                // Scatter the slice gradient back into a zero tensor.
                let src = ps[0];
                let mut full = Tensor::zeros(src.dims());
                let outer: usize = src.dims()[..axis].iter().product();
                let mid = src.dim(axis);
                let inner: usize = src.dims()[axis + 1..].iter().product();
                let take = end - start;
                for o in 0..outer {
                    let dst_base = (o * mid + start) * inner;
                    let src_base = o * take * inner;
                    full.data_mut()[dst_base..dst_base + take * inner]
                        .copy_from_slice(&g.data()[src_base..src_base + take * inner]);
                }
                vec![Some(full)]
            })),
        )
    }

    /// Gathers rows of `axis` by index (duplicates allowed); the backward
    /// pass scatter-adds.
    pub fn index_select(&mut self, a: Var, axis: usize, indices: &[usize]) -> Var {
        let value = tf::index_select(self.value(a), axis, indices);
        let idx = indices.to_vec();
        self.push(
            "index_select",
            value,
            vec![a.0],
            Some(Box::new(move |g, ps, _, _| {
                let src = ps[0];
                let mut full = Tensor::zeros(src.dims());
                let outer: usize = src.dims()[..axis].iter().product();
                let mid = src.dim(axis);
                let inner: usize = src.dims()[axis + 1..].iter().product();
                for o in 0..outer {
                    for (j, &ix) in idx.iter().enumerate() {
                        let src_base = (o * idx.len() + j) * inner;
                        let dst_base = (o * mid + ix) * inner;
                        for t in 0..inner {
                            full.data_mut()[dst_base + t] += g.data()[src_base + t];
                        }
                    }
                }
                vec![Some(full)]
            })),
        )
    }

    // ------------------------------------------------------------------
    // Softmax / reductions / losses
    // ------------------------------------------------------------------

    /// Softmax along `axis`.
    pub fn softmax(&mut self, a: Var, axis: usize) -> Var {
        let value = sm::softmax(self.value(a), axis);
        self.push(
            "softmax",
            value,
            vec![a.0],
            Some(Box::new(move |g, _, y, _| {
                // dx = y ⊙ (g − Σ_axis(g ⊙ y))
                let gy = ew::mul(g, y);
                let s = stod_tensor::sum_axis(&gy, axis, true);
                let centered = ew::sub(g, &s);
                vec![Some(ew::mul(y, &centered))]
            })),
        )
    }

    /// Sum of all elements → scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Tensor::scalar(self.value(a).sum());
        self.push(
            "sum_all",
            value,
            vec![a.0],
            Some(Box::new(|g, ps, _, _| {
                let s = g.item();
                vec![Some(Tensor::full(ps[0].dims(), s))]
            })),
        )
    }

    /// Mean of all elements → scalar. Test-only: no model records it;
    /// gradcheck's `sum_and_mean_reductions` keeps it as a checked op.
    #[cfg(test)]
    pub fn mean_all(&mut self, a: Var) -> Var {
        let n = self.value(a).numel() as f32;
        let s = self.sum_all(a);
        self.scale(s, 1.0 / n)
    }

    /// Sum along one axis. Test-only: no model records it; gradcheck's
    /// `sum_and_mean_reductions` keeps it as a checked op.
    #[cfg(test)]
    pub fn sum_axis(&mut self, a: Var, axis: usize, keepdim: bool) -> Var {
        let value = stod_tensor::sum_axis(self.value(a), axis, keepdim);
        self.push(
            "sum_axis",
            value,
            vec![a.0],
            Some(Box::new(move |g, ps, _, _| {
                let src = ps[0];
                let g_keep = if keepdim {
                    g.clone()
                } else {
                    let mut dims = src.dims().to_vec();
                    dims[axis] = 1;
                    g.reshape(&dims)
                };
                // Broadcast back over the reduced axis.
                vec![Some(ew::add(&g_keep, &Tensor::zeros(src.dims())))]
            })),
        )
    }

    /// Squared Frobenius norm → scalar (used by the Eq. 4 regularizers).
    pub fn frob_sq(&mut self, a: Var) -> Var {
        let value = Tensor::scalar(self.value(a).frob_sq());
        self.push(
            "frob_sq",
            value,
            vec![a.0],
            Some(Box::new(|g, ps, _, _| {
                let s = 2.0 * g.item();
                vec![Some(ps[0].map(|x| s * x))]
            })),
        )
    }

    /// Masked squared error `Σ mask ⊙ (pred − target)²` → scalar.
    ///
    /// `target` and `mask` are plain tensors (no gradient flows to them),
    /// matching the paper's Eq. 4/11 loss over non-empty ground-truth cells.
    pub fn masked_sq_err(&mut self, pred: Var, target: &Tensor, mask: &Tensor) -> Var {
        assert_eq!(
            self.value(pred).dims(),
            target.dims(),
            "masked_sq_err target shape"
        );
        assert_eq!(
            self.value(pred).dims(),
            mask.dims(),
            "masked_sq_err mask shape"
        );
        let diff = ew::sub(self.value(pred), target);
        let masked = ew::mul(&diff, mask);
        let value = Tensor::scalar(
            masked
                .data()
                .iter()
                .zip(diff.data())
                .map(|(&m, &d)| (m * d) as f64)
                .sum::<f64>() as f32,
        );
        let target = target.clone();
        let mask = mask.clone();
        self.push(
            "masked_sq_err",
            value,
            vec![pred.0],
            Some(Box::new(move |g, ps, _, _| {
                let s = 2.0 * g.item();
                let diff = ew::sub(ps[0], &target);
                let mut grad = ew::mul(&diff, &mask);
                grad.map_inplace(|x| x * s);
                vec![Some(grad)]
            })),
        )
    }

    /// Inverted dropout: with probability `p` an element is zeroed, the
    /// survivors are scaled by `1/(1-p)`. Identity when `training == false`.
    pub fn dropout(&mut self, a: Var, p: f32, training: bool, rng: &mut Rng64) -> Var {
        if !training || p <= 0.0 {
            return a;
        }
        assert!(p < 1.0, "dropout probability must be < 1");
        let keep = 1.0 - p;
        let mask_data: Vec<f32> = (0..self.value(a).numel())
            .map(|_| if rng.next_f32() < p { 0.0 } else { 1.0 / keep })
            .collect();
        let mask = Tensor::from_vec(self.value(a).dims(), mask_data);
        let value = ew::mul(self.value(a), &mask);
        self.push(
            "dropout",
            value,
            vec![a.0],
            Some(Box::new(move |g, _, _, _| vec![Some(ew::mul(g, &mask))])),
        )
    }

    /// Average pooling along `axis` with the given pool size. The axis
    /// extent must be divisible by `pool`. Test-only: no model pools by
    /// average; gradcheck's `pooling_ops` keeps it as a checked op.
    #[cfg(test)]
    pub fn avg_pool_axis(&mut self, a: Var, axis: usize, pool: usize) -> Var {
        let src = self.value(a);
        let mid = src.dim(axis);
        assert!(
            pool > 0 && mid.is_multiple_of(pool),
            "axis extent {mid} not divisible by pool {pool}"
        );
        let outer: usize = src.dims()[..axis].iter().product();
        let inner: usize = src.dims()[axis + 1..].iter().product();
        let out_mid = mid / pool;
        let mut out_dims = src.dims().to_vec();
        out_dims[axis] = out_mid;
        let mut out = vec![0.0f32; outer * out_mid * inner];
        for o in 0..outer {
            for m in 0..out_mid {
                for q in 0..pool {
                    let base = (o * mid + m * pool + q) * inner;
                    let dst = &mut out[(o * out_mid + m) * inner..(o * out_mid + m + 1) * inner];
                    for (d, &s) in dst.iter_mut().zip(&src.data()[base..base + inner]) {
                        *d += s / pool as f32;
                    }
                }
            }
        }
        let value = Tensor::from_vec(&out_dims, out);
        self.push(
            "avg_pool",
            value,
            vec![a.0],
            Some(Box::new(move |g, ps, _, _| {
                let src = ps[0];
                let mid = src.dim(axis);
                let outer: usize = src.dims()[..axis].iter().product();
                let inner: usize = src.dims()[axis + 1..].iter().product();
                let out_mid = mid / pool;
                let mut full = Tensor::zeros(src.dims());
                for o in 0..outer {
                    for m in 0..out_mid {
                        let g_base = (o * out_mid + m) * inner;
                        for q in 0..pool {
                            let dst_base = (o * mid + m * pool + q) * inner;
                            for t in 0..inner {
                                full.data_mut()[dst_base + t] += g.data()[g_base + t] / pool as f32;
                            }
                        }
                    }
                }
                vec![Some(full)]
            })),
        )
    }

    /// Max pooling along `axis` with the given pool size; the winning index
    /// per pool is recorded at forward time for the backward scatter.
    /// Test-only: the models pool inside the fused
    /// [`crate::layers::ChebyPool`] op, whose unit suite keeps this as
    /// part of the composed oracle.
    #[cfg(test)]
    pub fn max_pool_axis(&mut self, a: Var, axis: usize, pool: usize) -> Var {
        let src = self.value(a);
        let mid = src.dim(axis);
        assert!(
            pool > 0 && mid.is_multiple_of(pool),
            "axis extent {mid} not divisible by pool {pool}"
        );
        let outer: usize = src.dims()[..axis].iter().product();
        let inner: usize = src.dims()[axis + 1..].iter().product();
        let out_mid = mid / pool;
        let mut out_dims = src.dims().to_vec();
        out_dims[axis] = out_mid;
        let mut out = vec![f32::NEG_INFINITY; outer * out_mid * inner];
        let mut winners = vec![0usize; outer * out_mid * inner];
        for o in 0..outer {
            for m in 0..out_mid {
                for q in 0..pool {
                    let base = (o * mid + m * pool + q) * inner;
                    for t in 0..inner {
                        let v = src.data()[base + t];
                        let slot = (o * out_mid + m) * inner + t;
                        if v > out[slot] {
                            out[slot] = v;
                            winners[slot] = base + t;
                        }
                    }
                }
            }
        }
        let value = Tensor::from_vec(&out_dims, out);
        self.push(
            "max_pool",
            value,
            vec![a.0],
            Some(Box::new(move |g, ps, _, _| {
                let mut full = Tensor::zeros(ps[0].dims());
                for (slot, &w) in winners.iter().enumerate() {
                    full.data_mut()[w] += g.data()[slot];
                }
                vec![Some(full)]
            })),
        )
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Runs reverse-mode differentiation from the scalar `loss` node and
    /// returns gradients for every parameter leaf on the tape. Gradients
    /// for parameters used multiple times accumulate.
    ///
    /// # Panics
    /// Panics if `loss` is not a scalar (1-element) node, or on a no-grad
    /// tape.
    pub fn backward(&self, loss: Var) -> Gradients {
        let _span = stod_obs::span!("nn/backward");
        let grads = self.propagate(loss, &[]);

        // Collect parameter gradients (accumulate duplicates of the same id).
        let max_id = self
            .param_leaves
            .iter()
            .map(|&(_, id)| id.index() + 1)
            .max()
            .unwrap_or(0);
        let mut by_param: Vec<Option<Tensor>> = (0..max_id).map(|_| None).collect();
        for &(node, id) in &self.param_leaves {
            if let Some(g) = &grads[node] {
                match &mut by_param[id.index()] {
                    Some(acc) => {
                        for (a, b) in acc.data_mut().iter_mut().zip(g.data()) {
                            *a += b;
                        }
                    }
                    slot @ None => *slot = Some(g.clone()),
                }
            }
        }
        Gradients { by_param }
    }

    /// Gradient w.r.t. arbitrary nodes (for gradient checking).
    pub fn backward_wrt(&self, loss: Var, leaves: &[Var]) -> Vec<Option<Tensor>> {
        let grads = self.propagate(loss, leaves);
        leaves.iter().map(|v| grads[v.0].clone()).collect()
    }

    /// The reverse sweep shared by [`Tape::backward`] and
    /// [`Tape::backward_wrt`]: every node's gradient, with the nodes in
    /// `keep` holding theirs after their own backward ran (the others
    /// hand theirs to the closure by value).
    fn propagate(&self, loss: Var, keep: &[Var]) -> Vec<Option<Tensor>> {
        assert!(
            !self.no_grad,
            "backward on a no-grad tape (Tape::no_grad): it records no backward closures"
        );
        assert_eq!(
            self.nodes[loss.0].value.numel(),
            1,
            "backward requires a scalar loss"
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Tensor::full(self.nodes[loss.0].value.dims(), 1.0));

        for i in (0..=loss.0).rev() {
            if grads[i].is_none() || !self.nodes[i].requires_grad {
                continue;
            }
            let node = &self.nodes[i];
            let Some(bw) = &node.backward else {
                continue;
            };
            let g = if keep.contains(&Var(i)) {
                grads[i].clone().expect("checked above")
            } else {
                grads[i].take().expect("checked above")
            };
            let parent_vals: Vec<&Tensor> =
                node.parents.iter().map(|&p| &self.nodes[p].value).collect();
            let needs: Vec<bool> = node
                .parents
                .iter()
                .map(|&p| self.nodes[p].requires_grad)
                .collect();
            let pgrads = {
                let _span = stod_obs::armed().then(|| bwd_span(node.op));
                bw(&g, &parent_vals, &node.value, &needs)
            };
            debug_assert_eq!(pgrads.len(), node.parents.len());
            for (&p, pg) in node.parents.iter().zip(pgrads) {
                let Some(pg) = pg else { continue };
                if !self.nodes[p].requires_grad {
                    continue;
                }
                debug_assert_eq!(
                    pg.dims(),
                    self.nodes[p].value.dims(),
                    "gradient shape mismatch"
                );
                match &mut grads[p] {
                    Some(acc) => {
                        for (a, b) in acc.data_mut().iter_mut().zip(pg.data()) {
                            *a += b;
                        }
                    }
                    slot @ None => *slot = Some(pg),
                }
            }
        }
        grads
    }
}

/// Opens the `nn/bwd/<op>` span for one node's backward closure. Span
/// names must be `&'static str`, so each op's name is interned once per
/// thread. The span aggregates into the span tree but records no trace
/// event: a training step runs thousands of node closures, which would
/// evict the stage-level events from the bounded trace ring.
#[cold]
fn bwd_span(op: &'static str) -> stod_obs::SpanGuard {
    use std::cell::RefCell;
    thread_local! {
        static NAMES: RefCell<Vec<(&'static str, &'static str)>> = const { RefCell::new(Vec::new()) };
    }
    let name = NAMES.with(|names| {
        let mut names = names.borrow_mut();
        match names.iter().find(|(o, _)| std::ptr::eq(*o, op)) {
            Some(&(_, name)) => name,
            None => {
                let name = stod_obs::intern(&format!("nn/bwd/{op}"));
                names.push((op, name));
                name
            }
        }
    });
    stod_obs::SpanGuard::enter_untraced(name)
}

/// Transposes the last two axes of a stacked-matrix tensor.
fn transpose_last2(t: &Tensor) -> Tensor {
    let nd = t.ndim();
    tf::transpose(t, nd - 2, nd - 1)
}

/// Sums a batched-matmul gradient back down to a (possibly 2-D broadcast)
/// operand shape.
fn reduce_batched(grad: Tensor, target_dims: &[usize]) -> Tensor {
    if grad.dims() == target_dims {
        return grad;
    }
    // The operand was 2-D and broadcast over the batch: sum leading dims.
    let mut g = grad;
    while g.ndim() > target_dims.len() {
        g = stod_tensor::sum_axis(&g, 0, false);
    }
    assert_eq!(g.dims(), target_dims, "batched gradient reduction failed");
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values_match_tensor_ops() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        let b = tape.leaf(Tensor::from_vec(&[2, 2], vec![0.5, 0.5, 0.5, 0.5]));
        let c = tape.mul(a, b);
        assert_eq!(tape.value(c).data(), &[0.5, 1.0, 1.5, 2.0]);
        let d = tape.matmul(a, b);
        assert_eq!(tape.value(d).data(), &[1.5, 1.5, 3.5, 3.5]);
    }

    #[test]
    fn simple_chain_gradient() {
        // loss = Σ (2a)² → dloss/da = 8a
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(&[3], vec![1.0, -2.0, 0.5]));
        let b = tape.scale(a, 2.0);
        let sq = tape.mul(b, b);
        let loss = tape.sum_all(sq);
        let g = tape.backward_wrt(loss, &[a]);
        let expect = Tensor::from_vec(&[3], vec![8.0, -16.0, 4.0]);
        assert!(g[0].as_ref().unwrap().approx_eq(&expect, 1e-5));
    }

    #[test]
    fn gradient_accumulates_on_reuse() {
        // loss = Σ (a + a) → grad = 2
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::ones(&[2]));
        let s = tape.add(a, a);
        let loss = tape.sum_all(s);
        let g = tape.backward_wrt(loss, &[a]);
        assert_eq!(g[0].as_ref().unwrap().data(), &[2.0, 2.0]);
    }

    #[test]
    fn constants_block_gradients() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::ones(&[2]));
        let c = tape.constant(Tensor::from_vec(&[2], vec![3.0, 4.0]));
        let m = tape.mul(a, c);
        let loss = tape.sum_all(m);
        let g = tape.backward_wrt(loss, &[a, c]);
        assert_eq!(g[0].as_ref().unwrap().data(), &[3.0, 4.0]);
        assert!(g[1].is_none(), "constants must not receive gradients");
    }

    #[test]
    fn param_gradients_via_store() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(&[2], vec![2.0, 3.0]));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let sq = tape.mul(wv, wv);
        let loss = tape.sum_all(sq);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(w).unwrap().data(), &[4.0, 6.0]);
        assert!((grads.global_norm() - (16.0f32 + 36.0).sqrt()).abs() < 1e-5);
    }

    #[test]
    fn broadcast_add_reduces_gradient() {
        // y = M + row; dL/drow must sum over rows.
        let mut tape = Tape::new();
        let m = tape.leaf(Tensor::ones(&[3, 2]));
        let row = tape.leaf(Tensor::zeros(&[2]));
        let y = tape.add(m, row);
        let loss = tape.sum_all(y);
        let g = tape.backward_wrt(loss, &[m, row]);
        assert_eq!(g[0].as_ref().unwrap().dims(), &[3, 2]);
        assert_eq!(g[1].as_ref().unwrap().data(), &[3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_nonscalar_panics() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::ones(&[2]));
        tape.backward(a);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut tape = Tape::new();
        let mut rng = Rng64::new(1);
        let a = tape.leaf(Tensor::ones(&[4]));
        let d = tape.dropout(a, 0.5, false, &mut rng);
        assert_eq!(d, a);
    }

    #[test]
    fn dropout_train_scales_survivors() {
        let mut tape = Tape::new();
        let mut rng = Rng64::new(1);
        let a = tape.leaf(Tensor::ones(&[1000]));
        let d = tape.dropout(a, 0.5, true, &mut rng);
        let vals = tape.value(d).data();
        assert!(vals.iter().all(|&x| x == 0.0 || x == 2.0));
        let mean = tape.value(d).mean();
        assert!(
            (mean - 1.0).abs() < 0.15,
            "inverted dropout keeps the mean, got {mean}"
        );
    }

    #[test]
    fn avg_pool_forward_and_backward() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(&[1, 4], vec![1.0, 3.0, 5.0, 7.0]));
        let p = tape.avg_pool_axis(a, 1, 2);
        assert_eq!(tape.value(p).data(), &[2.0, 6.0]);
        let loss = tape.sum_all(p);
        let g = tape.backward_wrt(loss, &[a]);
        assert_eq!(g[0].as_ref().unwrap().data(), &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn max_pool_routes_gradient_to_winner() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(&[1, 4], vec![1.0, 3.0, 7.0, 5.0]));
        let p = tape.max_pool_axis(a, 1, 2);
        assert_eq!(tape.value(p).data(), &[3.0, 7.0]);
        let loss = tape.sum_all(p);
        let g = tape.backward_wrt(loss, &[a]);
        assert_eq!(g[0].as_ref().unwrap().data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn no_grad_tape_records_parameters_as_constants() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(&[2], vec![2.0, 3.0]));
        let mut tape = Tape::no_grad();
        let wv = tape.param(&store, w);
        let x = tape.leaf(Tensor::ones(&[2]));
        let y = tape.mul(wv, x);
        assert_eq!(tape.value(y).data(), &[2.0, 3.0]);
        assert!(![wv, x, y].iter().any(|&v| tape.requires_grad(v)));
        let counts = tape.op_counts();
        assert_eq!(counts.get("constant"), Some(&2));
        assert_eq!(counts.get("leaf"), None);
        assert_eq!(counts.get("mul"), Some(&1));
    }

    /// The bits of a small graph mixing every op family, on `tape`.
    fn chain_bits(mut tape: Tape) -> Vec<u32> {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(3);
        let w = store.register("w", Tensor::randn(&[3, 4], 1.0, &mut rng));
        let x = tape.constant(Tensor::randn(&[2, 3], 1.0, &mut rng));
        let wv = tape.param(&store, w);
        let h = tape.matmul(x, wv);
        let h = tape.sigmoid(h);
        let h = tape.dropout(h, 0.3, true, &mut rng);
        let h = tape.transpose(h, 0, 1);
        let s = tape.softmax(h, 1);
        tape.value(s).data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn no_grad_values_match_a_training_tape_bitwise() {
        assert_eq!(chain_bits(Tape::no_grad()), chain_bits(Tape::new()));
    }

    #[test]
    fn no_grad_op_frees_its_backward_state_when_it_returns() {
        use std::rc::Rc;
        let state = Rc::new(());
        for (mut tape, holders) in [(Tape::new(), 2), (Tape::no_grad(), 1)] {
            let x = tape.leaf(Tensor::ones(&[2]));
            let captured = Rc::clone(&state);
            tape.custom_op(
                "probe",
                Tensor::ones(&[2]),
                &[x],
                Box::new(move |g, _, _, _| {
                    let _ = &captured;
                    vec![Some(g.clone())]
                }),
            );
            assert_eq!(Rc::strong_count(&state), holders);
        }
    }

    #[test]
    fn custom_op_no_grad_records_a_named_node_without_backward() {
        let mut tape = Tape::no_grad();
        let x = tape.leaf(Tensor::ones(&[2]));
        let y = tape.custom_op_no_grad("probe", Tensor::zeros(&[2]), &[x]);
        assert!(!tape.requires_grad(y));
        assert_eq!(tape.op_counts().get("probe"), Some(&1));
    }

    #[test]
    #[should_panic(expected = "requires gradients")]
    fn custom_op_no_grad_rejects_a_differentiable_parent() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[2]));
        tape.custom_op_no_grad("probe", Tensor::zeros(&[2]), &[x]);
    }

    #[test]
    #[should_panic(expected = "no-grad tape")]
    fn backward_on_a_no_grad_tape_panics() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::ones(&[2]));
        let mut tape = Tape::no_grad();
        let wv = tape.param(&store, w);
        let loss = tape.sum_all(wv);
        tape.backward(loss);
    }

    #[test]
    fn masked_sq_err_ignores_masked_cells() {
        let mut tape = Tape::new();
        let pred = tape.leaf(Tensor::from_vec(&[2], vec![1.0, 5.0]));
        let target = Tensor::from_vec(&[2], vec![0.0, 0.0]);
        let mask = Tensor::from_vec(&[2], vec![1.0, 0.0]);
        let loss = tape.masked_sq_err(pred, &target, &mask);
        assert_eq!(tape.value(loss).item(), 1.0);
        let g = tape.backward_wrt(loss, &[pred]);
        assert_eq!(g[0].as_ref().unwrap().data(), &[2.0, 0.0]);
    }
}
