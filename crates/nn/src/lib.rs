//! # stod-nn
//!
//! A compact reverse-mode automatic-differentiation engine plus the neural
//! building blocks the paper requires:
//!
//! * [`tape::Tape`] — a dynamically-built computation graph. Every
//!   operation evaluates eagerly and records a backward closure; calling
//!   [`tape::Tape::backward`] propagates gradients to parameter leaves.
//! * [`params::ParamStore`] — named parameter tensors with CRC-checked
//!   binary save/load (framed by `stod_faultline::codec`), shared across
//!   forward passes.
//! * [`layers`] — `Linear`, `GruCell`, `ChebyConv` (Cheby-Net graph
//!   convolution), `GcGruCell` (the paper's CNRNN cell, Eqs. 7–10) and
//!   sequence-to-sequence drivers.
//! * [`optim`] — SGD and Adam with gradient clipping and the step-decay
//!   learning-rate schedule the paper trains with.
//! * [`gradcheck`] — central finite-difference validation used throughout
//!   the test suite.
//!
//! Every differentiable op ships with a gradient-check test; the layers are
//! additionally checked end-to-end through composed losses.

pub mod gradcheck;
pub mod layers;
pub mod optim;
pub mod params;
pub mod tape;

pub use gradcheck::{analytic_gradients, assert_grad_ok_at_threads, gradient_check};
pub use optim::ClipStatus;
pub use params::{ParamId, ParamStore, StoreError};
pub use tape::{BackwardFn, Gradients, Tape, Var};
