//! Continual-adaptation configuration.
//!
//! Callers fill [`AdaptConfig`] in code. Its fields shape the
//! determinism contract (identical ingest gives identical candidates and
//! decisions), so tests and probes pin them in code rather than reading
//! them from a mutable process environment.

/// Continual-adaptation configuration for one city's [`crate::CityAdapter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptConfig {
    /// Fine-tune epochs per cycle.
    pub epochs: usize,
    /// Trailing snapshot intervals held out from training and used for
    /// shadow + confirm evaluation. Split in half chronologically: the
    /// shadow slice decides promotion, the confirm slice decides rollback.
    pub holdout: usize,
    /// Relative EMD improvement the candidate must clear against the
    /// incumbent to promote, as a fraction (`0.02` = 2 %).
    pub margin: f64,
    /// Minimum training windows the snapshot must yield before a cycle is
    /// attempted at all; below it the cycle is a typed skip, not a
    /// fine-tune on noise.
    pub min_windows: usize,
    /// Historical steps `s` per training window.
    pub lookback: usize,
    /// Fine-tune minibatch size.
    pub batch_size: usize,
    /// Initial fine-tune learning rate (decayed ×0.9 every 2 epochs).
    pub lr: f32,
    /// Base seed; each cycle's candidate seed is derived from it and the
    /// snapshot's last interval, so identical ingest yields identical
    /// candidates across runs and processes.
    pub seed: u64,
    /// Crash-safe checkpoint cadence of the fine-tune (optimizer steps).
    pub ckpt_every_steps: u64,
    /// Kalman process noise `q` of the online corrector.
    pub kalman_q: f64,
    /// Kalman observation noise `r` of the online corrector. Deliberately
    /// large (slow gain): the corrector doubles as the always-on cheap
    /// baseline, and a twitchy gain would thrash on interval noise.
    pub kalman_r: f64,
    /// Initial per-pair estimate variance `p0` of the online corrector.
    pub kalman_p0: f64,
}

impl Default for AdaptConfig {
    fn default() -> AdaptConfig {
        AdaptConfig {
            epochs: 4,
            holdout: 4,
            margin: 0.02,
            min_windows: 4,
            lookback: 2,
            batch_size: 8,
            lr: 5e-3,
            seed: 0xADA9,
            ckpt_every_steps: 4,
            kalman_q: 0.005,
            kalman_r: 0.35,
            kalman_p0: 0.25,
        }
    }
}
