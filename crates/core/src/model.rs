//! The `OdForecaster` trait shared by BF, AF and the deep baselines, which
//! lets one trainer and one evaluator drive every model.

use stod_nn::{ParamStore, Tape, Var};
use stod_tensor::rng::Rng64;
use stod_tensor::Tensor;

/// Forward-pass mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Training: dropout active at the given probability.
    Train {
        /// Dropout probability applied by layers that support it.
        dropout: f32,
    },
    /// Evaluation: deterministic.
    Eval,
}

impl Mode {
    /// True during training.
    pub fn is_train(&self) -> bool {
        matches!(self, Mode::Train { .. })
    }

    /// Effective dropout probability (0 during evaluation).
    pub fn dropout(&self) -> f32 {
        match self {
            Mode::Train { dropout } => *dropout,
            Mode::Eval => 0.0,
        }
    }
}

/// Result of a model forward pass.
pub struct ModelOutput {
    /// One predicted full tensor per future step, each `[B, N, N', K]`,
    /// already recovered (softmaxed histograms per cell).
    pub predictions: Vec<Var>,
    /// Optional scalar regularization term (the λ_R‖R̂‖² + λ_C‖Ĉ‖² part of
    /// Eq. 4 / Eq. 11), to be *added* to the data loss. Built only in
    /// [`Mode::Train`]: `None` in [`Mode::Eval`], whose callers read only
    /// the predictions.
    pub regularizer: Option<Var>,
}

/// A trainable stochastic-OD-matrix forecaster.
///
/// The `Send + Sync` bound is part of the contract: the trainer fans
/// minibatch shards across the [`stod_tensor::par`] pool, which requires
/// sharing `&dyn OdForecaster` between worker threads. `forward` takes
/// `&self`, so implementations are naturally thread-safe as long as they
/// avoid interior mutability (all current models are plain data).
pub trait OdForecaster: Send + Sync {
    /// Human-readable model name (used in experiment tables).
    fn name(&self) -> &str;

    /// The model's parameters.
    fn params(&self) -> &ParamStore;

    /// Mutable access to the parameters (for the optimizer).
    fn params_mut(&mut self) -> &mut ParamStore;

    /// Builds the forward computation for a batch of input steps (each
    /// `[B, N, N', K]`) and returns `horizon` predictions.
    fn forward(
        &self,
        tape: &mut Tape,
        inputs: &[Tensor],
        horizon: usize,
        mode: Mode,
        rng: &mut Rng64,
    ) -> ModelOutput;

    /// Like [`OdForecaster::forward`], but with the per-step Eq. 4 loss
    /// masks (`[B, N, N', K]`, one per horizon step) available so the
    /// recovery stage can skip empty `(o, d)` cells. The contract: the
    /// masked loss and all parameter gradients are **bitwise identical**
    /// to [`OdForecaster::forward`]'s — only predictions at masked cells
    /// may differ (they are uniform on the sparse path). The default
    /// implementation ignores the masks; factorization models override it.
    fn forward_masked(
        &self,
        tape: &mut Tape,
        inputs: &[Tensor],
        horizon: usize,
        mode: Mode,
        rng: &mut Rng64,
        masks: &[Tensor],
    ) -> ModelOutput {
        let _ = masks;
        self.forward(tape, inputs, horizon, mode, rng)
    }

    /// Total number of scalar weights (the `#weights` column of Table I).
    fn num_weights(&self) -> usize {
        self.params().num_weights()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_accessors() {
        let t = Mode::Train { dropout: 0.3 };
        assert!(t.is_train());
        assert!((t.dropout() - 0.3).abs() < 1e-9);
        assert!(!Mode::Eval.is_train());
        assert_eq!(Mode::Eval.dropout(), 0.0);
    }
}
