//! Hyper-parameter configurations, including presets mirroring the paper's
//! Table I.

use stod_graph::ProximityParams;
use stod_nn::optim::StepDecay;

/// Configuration of the Basic Framework (§IV).
#[derive(Debug, Clone, Copy)]
pub struct BfConfig {
    /// Factorization rank β (Table I: r = 5).
    pub rank: usize,
    /// Bottleneck width of the factorization encoder. The paper's Table I
    /// encodes the flattened tensor through a very small FC before the
    /// GRU; a direct `l → N·β·K` map would need tens of millions of
    /// weights at N = 67.
    pub encode_dim: usize,
    /// GRU hidden size of the two factor forecasters.
    pub gru_hidden: usize,
    /// Factor-regularization weights λ_R and λ_C of Eq. 4.
    pub lambda_r: f32,
    /// See `lambda_r`.
    pub lambda_c: f32,
    /// Use an attention-based decoder (the paper's §VII outlook) instead
    /// of the plain seq2seq GRU.
    pub attention: bool,
}

impl Default for BfConfig {
    fn default() -> Self {
        // λ selected on the validation set (§VI-A.5); larger values
        // over-smooth the recovered factors and cost accuracy.
        BfConfig {
            rank: 5,
            encode_dim: 64,
            gru_hidden: 64,
            lambda_r: 1e-6,
            lambda_c: 1e-6,
            attention: false,
        }
    }
}

/// One graph-convolution + pooling stage of the AF factorization
/// (the paper's `GC^{Q×S}` – `P_p` notation).
#[derive(Debug, Clone, Copy)]
pub struct GcStage {
    /// Number of filters Q.
    pub filters: usize,
    /// Chebyshev order S (filter size).
    pub order: usize,
    /// Pooling levels after the convolution (pool size = 2^levels).
    pub pool_levels: usize,
}

/// Configuration of the Advanced Framework (§V) with ablation switches.
#[derive(Debug, Clone)]
pub struct AfConfig {
    /// Factorization rank β after the projection that follows the last
    /// pooling stage (Table I: r = 5).
    pub rank: usize,
    /// Graph convolution stages of the spatial factorization. The last
    /// stage's filter count is forced to K at construction (the paper sets
    /// `Q = K` at the end so factors keep one slice per bucket).
    pub stages: Vec<GcStage>,
    /// Chebyshev order of the CNRNN gates.
    pub rnn_order: usize,
    /// Hidden features per node of the CNRNN.
    pub rnn_hidden: usize,
    /// Proximity-matrix parameters (σ, α) for both graphs.
    pub proximity: ProximityParams,
    /// Factor-regularization weights λ_R and λ_C of Eq. 11.
    pub lambda_r: f32,
    /// See `lambda_r`.
    pub lambda_c: f32,
    /// Ablation D2: use a plain FC factorization instead of GCNN+pooling.
    pub fc_factorization: bool,
    /// Ablation D3: use a plain GRU instead of the CNRNN forecaster.
    pub plain_rnn: bool,
    /// Ablation D4: use Frobenius instead of Dirichlet regularization.
    pub frobenius_reg: bool,
}

impl Default for AfConfig {
    fn default() -> Self {
        AfConfig {
            rank: 5,
            stages: vec![
                GcStage {
                    filters: 16,
                    order: 3,
                    pool_levels: 1,
                },
                GcStage {
                    filters: 7,
                    order: 3,
                    pool_levels: 1,
                },
            ],
            rnn_order: 2,
            rnn_hidden: 16,
            proximity: ProximityParams::default(),
            // λ selected on the validation set, as in §VI-A.5.
            lambda_r: 1e-6,
            lambda_c: 1e-6,
            fc_factorization: false,
            plain_rnn: false,
            frobenius_reg: false,
        }
    }
}

impl AfConfig {
    /// A configuration shaped like the paper's NYC column of Table I:
    /// `GC^{32×8}_4 – P4 – GC^{32×4}_2` then 2-layer CNRNN with 32 filters
    /// of size 4 (scaled-down filter counts keep CPU training tractable).
    pub fn paper_nyc() -> AfConfig {
        AfConfig {
            stages: vec![
                GcStage {
                    filters: 32,
                    order: 4,
                    pool_levels: 2,
                },
                GcStage {
                    filters: 32,
                    order: 2,
                    pool_levels: 1,
                },
            ],
            rnn_order: 4,
            rnn_hidden: 32,
            ..AfConfig::default()
        }
    }
}

/// Training hyper-parameters (§VI-A.5).
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Minibatch size (windows per step).
    pub batch_size: usize,
    /// Learning-rate schedule; the paper uses 0.001 decayed ×0.8 every 5
    /// epochs.
    pub schedule: StepDecay,
    /// Dropout probability (paper: 0.2).
    pub dropout: f32,
    /// Global-norm gradient clip.
    pub clip_norm: f32,
    /// Random seed for shuffling and dropout.
    pub seed: u64,
    /// Print one progress line per epoch.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 12,
            batch_size: 16,
            schedule: StepDecay::paper(),
            dropout: 0.2,
            clip_norm: 5.0,
            seed: 42,
            verbose: false,
        }
    }
}

impl TrainConfig {
    /// A fast configuration for unit tests.
    pub fn fast_test() -> TrainConfig {
        TrainConfig {
            epochs: 3,
            batch_size: 8,
            schedule: StepDecay {
                initial: 5e-3,
                decay: 0.9,
                every: 2,
            },
            dropout: 0.0,
            ..TrainConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let bf = BfConfig::default();
        assert_eq!(bf.rank, 5);
        assert!(bf.encode_dim > 0 && bf.gru_hidden > 0);
        let af = AfConfig::default();
        assert!(!af.stages.is_empty());
        assert!(af.rnn_order >= 1);
        let tc = TrainConfig::default();
        assert!((tc.schedule.initial - 1e-3).abs() < 1e-9);
        assert!((tc.dropout - 0.2).abs() < 1e-9);
    }

    #[test]
    fn paper_nyc_preset_matches_table1_shape() {
        let af = AfConfig::paper_nyc();
        assert_eq!(af.stages.len(), 2);
        assert_eq!(af.stages[0].order, 4);
        assert_eq!(af.stages[0].pool_levels, 2); // P4
        assert_eq!(af.rnn_hidden, 32);
    }
}
