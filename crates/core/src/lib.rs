//! # stod-core
//!
//! The paper's contribution: the **Basic Framework (BF)** and the
//! **Advanced Framework (AF)** for stochastic origin–destination matrix
//! forecasting.
//!
//! Both frameworks follow the Factorization → Forecasting → Recovery
//! pipeline of Figure 3:
//!
//! * [`bf::BfModel`] (§IV) factorizes each sparse tensor with
//!   fully-connected layers into an origin factor `R ∈ R^{N×β×K}` and a
//!   destination factor `C ∈ R^{β×N'×K}`, forecasts both factor sequences
//!   with sequence-to-sequence GRUs, and recovers full tensors by
//!   per-bucket factor multiplication followed by a softmax.
//! * [`af::AfModel`] (§V) upgrades both stages with spatial structure: the
//!   factorization uses Cheby-Net graph convolutions + geometric pooling
//!   over the *proximity graphs* of origin and destination regions, and
//!   the forecaster replaces the GRUs with CNRNNs (graph-convolutional
//!   GRUs). Its loss regularizes the predicted factors with the Dirichlet
//!   norm (Eq. 11). The AF struct exposes ablation switches
//!   (FC-factorization, plain GRU, Frobenius regularizer) used by the
//!   `ablations` bench.
//!
//! Supporting modules: [`batch`] (window → tensor batching), [`recovery`]
//! (the shared R·C + softmax recovery), [`model`] (the `OdForecaster`
//! trait), [`train`] (the one training loop: Adam, step decay, checkpoints
//! and resume), [`checkpoint`] (its on-disk state), [`evaluate`]
//! (DisSim-based evaluation incl. the per-figure groupings) and
//! [`config`] (hyper-parameters incl. the Table I presets).

pub mod af;
pub mod batch;
pub mod bf;
pub mod checkpoint;
pub mod config;
pub mod evaluate;
pub mod model;
pub mod recovery;
pub mod train;

pub use af::AfModel;
pub use bf::BfModel;
pub use checkpoint::TrainCheckpoint;
pub use config::{AfConfig, BfConfig, TrainConfig};
pub use evaluate::{evaluate, EvalReport};
pub use model::{Mode, ModelOutput, OdForecaster};
pub use train::{
    fine_tune_resume, train, train_resume, train_robust, FaultPolicy, RobustConfig, TrainError,
    TrainReport,
};
