//! Optimizers and learning-rate scheduling.
//!
//! The paper trains with Adam at an initial learning rate of 0.001, decayed
//! by a factor 0.8 every 5 epochs ([`StepDecay`]), dropout 0.2 and implicit
//! gradient clipping; all of that is provided here.

use crate::params::{put_tensor, read_tensor, ParamStore, StoreError};
use crate::tape::Gradients;
use stod_faultline::codec::{Reader, Writer};
use stod_tensor::Tensor;

/// Outcome of [`clip_global_norm`].
///
/// Clipping compares the norm against the threshold with `>`, and a NaN norm
/// fails every comparison — so without an explicit status a single NaN
/// gradient element would silently disable clipping *and* then poison the
/// optimizer state on the next step. Callers must branch on `NonFinite`
/// (skip the batch, roll back, or halt) instead of stepping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClipStatus {
    /// All gradient elements were finite; `clipped` says whether the
    /// rescale was applied.
    Finite {
        /// Global L2 norm before clipping.
        pre_norm: f32,
        /// Whether `pre_norm > max_norm` triggered a rescale.
        clipped: bool,
    },
    /// At least one gradient element was NaN or ±Inf. The gradients are
    /// left untouched; the caller must not apply them.
    NonFinite,
}

impl ClipStatus {
    /// The pre-clip norm when finite, `None` otherwise.
    pub fn pre_norm(&self) -> Option<f32> {
        match self {
            ClipStatus::Finite { pre_norm, .. } => Some(*pre_norm),
            ClipStatus::NonFinite => None,
        }
    }

    /// True when every gradient element was finite.
    pub fn is_finite(&self) -> bool {
        matches!(self, ClipStatus::Finite { .. })
    }
}

/// Clips gradients to a maximum global L2 norm.
///
/// The global norm is finite iff every gradient element is finite (squares
/// are accumulated in `f64`, which cannot overflow for any finite `f32`
/// inputs), so the single norm computation doubles as the non-finite
/// detector. On a non-finite norm the gradients are returned untouched and
/// [`ClipStatus::NonFinite`] is reported.
pub fn clip_global_norm(grads: &mut Gradients, max_norm: f32) -> ClipStatus {
    let norm = grads.global_norm();
    if !norm.is_finite() {
        return ClipStatus::NonFinite;
    }
    let clipped = norm > max_norm && norm > 0.0;
    if clipped {
        grads.scale(max_norm / norm);
    }
    ClipStatus::Finite {
        pre_norm: norm,
        clipped,
    }
}

/// Adam optimizer (Kingma & Ba) with optional decoupled weight decay.
pub struct Adam {
    /// Current learning rate (mutable so schedules can adjust it).
    pub lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard β = (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Adds decoupled (AdamW-style) weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Serializes the full optimizer state (hyperparameters, step count,
    /// and both moment vectors) for crash-safe checkpointing. The format is
    /// an internal fragment embedded in `TrainCheckpoint`; it carries no
    /// magic/checksum of its own because the enclosing checkpoint does.
    /// Each moment slot is a presence byte, then (when present) the tensor
    /// in the parameter-store encoding.
    pub fn state_to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.t);
        for h in [self.lr, self.beta1, self.beta2, self.eps, self.weight_decay] {
            w.f32(h);
        }
        debug_assert_eq!(self.m.len(), self.v.len());
        w.u32(self.m.len() as u32);
        for slot in self.m.iter().chain(&self.v) {
            match slot {
                None => w.u8(0),
                Some(t) => {
                    w.u8(1);
                    put_tensor(&mut w, t);
                }
            }
        }
        w.into_bytes()
    }

    /// Restores state previously captured by [`Adam::state_to_bytes`],
    /// resuming the moment estimates and bias-correction step count bitwise.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let mut r = Reader::new(bytes);
        let t = r.u64()?;
        let [lr, beta1, beta2, eps, weight_decay] =
            [r.f32()?, r.f32()?, r.f32()?, r.f32()?, r.f32()?];
        let n = r.u32()? as usize;
        if n > 1 << 20 {
            return Err(StoreError::Malformed(format!(
                "optimizer slot count {n} implausible"
            )));
        }
        let mut slots = (0..2 * n)
            .map(|_| match r.u8()? {
                0 => Ok(None),
                1 => read_tensor(&mut r).map(Some),
                k => Err(StoreError::Malformed(format!("bad tensor slot flag {k}"))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        r.finish()?;
        self.v = slots.split_off(n);
        self.m = slots;
        (
            self.t,
            self.lr,
            self.beta1,
            self.beta2,
            self.eps,
            self.weight_decay,
        ) = (t, lr, beta1, beta2, eps, weight_decay);
        Ok(())
    }

    /// Applies one Adam step to every parameter with a gradient.
    pub fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        let _span = stod_obs::span!("nn/adam_step");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (id, g) in grads.iter() {
            let idx = id.index();
            if self.m.len() <= idx {
                self.m.resize_with(idx + 1, || None);
                self.v.resize_with(idx + 1, || None);
            }
            let p = store.get_mut(id);
            let m = self.m[idx].get_or_insert_with(|| Tensor::zeros(p.dims()));
            let v = self.v[idx].get_or_insert_with(|| Tensor::zeros(p.dims()));
            debug_assert_eq!(m.dims(), p.dims(), "Adam state shape drift");
            for (((w, &gw), ms), vs) in p
                .data_mut()
                .iter_mut()
                .zip(g.data())
                .zip(m.data_mut())
                .zip(v.data_mut())
            {
                *ms = self.beta1 * *ms + (1.0 - self.beta1) * gw;
                *vs = self.beta2 * *vs + (1.0 - self.beta2) * gw * gw;
                let m_hat = *ms / bc1;
                let v_hat = *vs / bc2;
                let mut upd = self.lr * m_hat / (v_hat.sqrt() + self.eps);
                if self.weight_decay > 0.0 {
                    upd += self.lr * self.weight_decay * *w;
                }
                *w -= upd;
            }
        }
    }
}

/// Step-decay learning-rate schedule: `lr = lr₀ · decayᵏ` where `k` is the
/// number of completed periods of `every` epochs.
///
/// The paper uses `lr₀ = 0.001`, `decay = 0.8`, `every = 5`.
#[derive(Debug, Clone, Copy)]
pub struct StepDecay {
    /// Initial learning rate.
    pub initial: f32,
    /// Multiplicative decay applied once per period.
    pub decay: f32,
    /// Period length in epochs.
    pub every: usize,
}

impl StepDecay {
    /// The paper's schedule (0.001, ×0.8 every 5 epochs).
    pub fn paper() -> Self {
        StepDecay {
            initial: 1e-3,
            decay: 0.8,
            every: 5,
        }
    }

    /// Learning rate to use during `epoch` (0-based).
    pub fn lr_at(&self, epoch: usize) -> f32 {
        self.initial * self.decay.powi((epoch / self.every) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use stod_tensor::rng::Rng64;

    /// Minimizes ‖w − target‖² and expects convergence.
    fn converges_with(optim: &mut dyn FnMut(&mut ParamStore, &Gradients)) -> f32 {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(0);
        let w = store.register("w", Tensor::randn(&[4], 1.0, &mut rng));
        let target = Tensor::from_vec(&[4], vec![1.0, -2.0, 3.0, 0.5]);
        let mask = Tensor::ones(&[4]);
        for _ in 0..400 {
            let mut tape = Tape::new();
            let wv = tape.param(&store, w);
            let loss = tape.masked_sq_err(wv, &target, &mask);
            let grads = tape.backward(loss);
            optim(&mut store, &grads);
        }
        store.get(w).max_abs_diff(&target)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.05);
        let err = converges_with(&mut |s, g| adam.step(s, g));
        assert!(err < 1e-2, "Adam residual {err}");
    }

    #[test]
    fn adam_weight_decay_shrinks_unused_weights() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::ones(&[2]));
        let mut adam = Adam::new(0.1).with_weight_decay(0.5);
        // Zero gradient except decay: emulate by supplying explicit zero grads.
        for _ in 0..100 {
            let mut tape = Tape::new();
            let wv = tape.param(&store, w);
            let z = tape.scale(wv, 0.0);
            let loss = tape.sum_all(z);
            let grads = tape.backward(loss);
            adam.step(&mut store, &grads);
        }
        assert!(store.get(w).max() < 0.1, "weight decay must shrink weights");
    }

    #[test]
    fn clipping_preserves_direction() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(&[2], vec![10.0, 0.0]));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let sq = tape.mul(wv, wv);
        let loss = tape.sum_all(sq);
        let mut grads = tape.backward(loss);
        let status = clip_global_norm(&mut grads, 1.0);
        match status {
            ClipStatus::Finite { pre_norm, clipped } => {
                assert!(pre_norm > 1.0);
                assert!(clipped);
            }
            ClipStatus::NonFinite => panic!("finite gradients misclassified"),
        }
        assert!((grads.global_norm() - 1.0).abs() < 1e-5);
        let g = grads.get(w).unwrap();
        assert!(g.data()[0] > 0.0 && g.data()[1].abs() < 1e-7);
    }

    /// Regression: a NaN gradient makes `norm > max_norm` false, so the old
    /// `clip_global_norm` silently skipped clipping and let callers step on
    /// poisoned gradients. The status must now flag it and leave the
    /// gradients untouched for diagnostics.
    #[test]
    fn clipping_flags_nonfinite_gradients() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut store = ParamStore::new();
            let w = store.register("w", Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]));
            let mut tape = Tape::new();
            let wv = tape.param(&store, w);
            let sq = tape.mul(wv, wv);
            let loss = tape.sum_all(sq);
            let mut grads = tape.backward(loss);
            grads.get_mut(w).unwrap().data_mut()[1] = bad;
            let before: Vec<u32> = grads
                .get(w)
                .unwrap()
                .data()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(clip_global_norm(&mut grads, 1.0), ClipStatus::NonFinite);
            let after: Vec<u32> = grads
                .get(w)
                .unwrap()
                .data()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(before, after, "non-finite gradients must be left untouched");
        }
    }

    #[test]
    fn clipping_below_threshold_reports_unclipped() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(&[2], vec![0.01, 0.0]));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let sq = tape.mul(wv, wv);
        let loss = tape.sum_all(sq);
        let mut grads = tape.backward(loss);
        match clip_global_norm(&mut grads, 1.0) {
            ClipStatus::Finite { clipped, .. } => assert!(!clipped),
            ClipStatus::NonFinite => panic!("finite gradients misclassified"),
        }
    }

    /// Adam state must roundtrip bitwise: resuming from a checkpoint and
    /// continuing must match the uninterrupted run exactly.
    #[test]
    fn adam_state_roundtrip_is_bitwise() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(7);
        let w = store.register("w", Tensor::randn(&[5], 1.0, &mut rng));
        let target = Tensor::from_vec(&[5], vec![0.5, -1.0, 2.0, 0.0, -0.5]);
        let mask = Tensor::ones(&[5]);
        let mut adam = Adam::new(0.01).with_weight_decay(0.1);
        let step = |store: &mut ParamStore, adam: &mut Adam| {
            let mut tape = Tape::new();
            let wv = tape.param(store, w);
            let loss = tape.masked_sq_err(wv, &target, &mask);
            let grads = tape.backward(loss);
            adam.step(store, &grads);
        };
        for _ in 0..10 {
            step(&mut store, &mut adam);
        }
        let snapshot = adam.state_to_bytes();
        let weights_at_ckpt: Vec<u32> = store.get(w).data().iter().map(|x| x.to_bits()).collect();

        // Continue the original run for 10 more steps.
        for _ in 0..10 {
            step(&mut store, &mut adam);
        }
        let final_direct: Vec<u32> = store.get(w).data().iter().map(|x| x.to_bits()).collect();

        // Resume a fresh optimizer from the snapshot and replay.
        let mut store2 = ParamStore::new();
        let data: Vec<f32> = weights_at_ckpt.iter().map(|&b| f32::from_bits(b)).collect();
        let w2 = store2.register("w", Tensor::from_vec(&[5], data));
        assert_eq!(w2, w);
        let mut adam2 = Adam::new(999.0); // hyperparameters overwritten by restore
        adam2.restore_state(&snapshot).unwrap();
        assert_eq!(adam2.steps(), 10);
        for _ in 0..10 {
            step(&mut store2, &mut adam2);
        }
        let final_resumed: Vec<u32> = store2.get(w).data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            final_direct, final_resumed,
            "resume must be bitwise identical"
        );
    }

    #[test]
    fn adam_state_rejects_truncation_and_garbage() {
        let mut adam = Adam::new(0.01);
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::ones(&[3]));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let loss = tape.sum_all(wv);
        let grads = tape.backward(loss);
        adam.step(&mut store, &grads);
        let bytes = adam.state_to_bytes();
        let mut fresh = Adam::new(0.01);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                fresh.restore_state(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(fresh.restore_state(&padded).is_err());
        // And the intact state still restores after the failed attempts.
        fresh.restore_state(&bytes).unwrap();
        assert_eq!(fresh.steps(), 1);
    }

    #[test]
    fn step_decay_schedule() {
        let s = StepDecay::paper();
        assert!((s.lr_at(0) - 1e-3).abs() < 1e-9);
        assert!((s.lr_at(4) - 1e-3).abs() < 1e-9);
        assert!((s.lr_at(5) - 8e-4).abs() < 1e-9);
        assert!((s.lr_at(10) - 6.4e-4).abs() < 1e-9);
    }
}
