//! # stod-adapt
//!
//! Continual adaptation for the serving fleet: the closed loop that keeps
//! a deployed OD-matrix forecaster current as the traffic it serves
//! drifts away from what it was trained on.
//!
//! The loop, per city (see [`CityAdapter`]):
//!
//! * **Snapshot** — the shard's sliding-window ingest becomes ordinary
//!   training tensors via [`stod_serve::IngestSnapshot`] (consistent,
//!   interval-aligned, no torn reads against the live feed).
//! * **Fine-tune** — a candidate is warm-started from the live
//!   incumbent's exported weights and trained for a few epochs with the
//!   crash-safe trainer ([`stod_core::fine_tune_resume`]); a kill
//!   mid-run resumes bitwise on the next cycle.
//! * **Shadow eval** — candidate, incumbent, and the always-on
//!   [`OnlineCorrector`] (per-pair Kalman over histograms) are scored on
//!   the same held-out recent intervals with the paper's EMD/JS metrics
//!   ([`stod_metrics::ShadowReport`]).
//! * **Promote / hold / rollback** — promotion requires beating the
//!   incumbent by a margin *and* the corrector outright; the decision is
//!   made durable before the registry hot-swap (crash between the two is
//!   recoverable), and a confirm-slice regression rolls the incumbent
//!   back in.
//!
//! Everything is deterministic given seeds: identical ingest produces an
//! identical decision sequence and bitwise-identical promoted weights
//! across runs, thread counts, and crash/retry schedules — the property
//! the `adapt_gate` tier-1 tests pin down.

#![warn(missing_docs)]

pub mod config;
pub mod corrector;
pub mod pipeline;
pub mod stats;

pub use config::AdaptConfig;
pub use corrector::OnlineCorrector;
pub use pipeline::{AdaptError, CityAdapter, CycleOutcome, Decision, SkipReason};
pub use stats::{AdaptObsPaths, AdaptSnapshot, AdaptStats};

#[cfg(test)]
mod send_sync {
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn shared_types_are_send_sync() {
        assert_send_sync::<crate::AdaptStats>();
        assert_send_sync::<crate::OnlineCorrector>();
        assert_send_sync::<crate::CityAdapter>();
    }
}
