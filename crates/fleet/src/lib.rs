//! # stod-fleet
//!
//! City-scale serving: the paper forecasts one city's OD tensor; a
//! production deployment serves many cities to millions of riders. This
//! crate layers a multi-tenant fleet over `stod-serve`:
//!
//! * [`shard::Shard`] — one city's complete serving stack (versioned
//!   registry, micro-batching broker, sliding-window trip ingest, NH
//!   fallback, per-tenant stats), isolated from every other tenant.
//! * [`cache::ForecastCache`] — a fleet-wide forecast result cache keyed
//!   `(city, t_end, horizon, version)` with exact LRU eviction, byte
//!   accounting, and hot-swap invalidation. One model invocation predicts
//!   a full `N² × horizon` tensor, so one entry answers every pair query
//!   against its key — the structural amplification the fleet's
//!   throughput rides on.
//! * [`router::Fleet`] — the per-request flow: result cache, then
//!   admission control (requests a deep queue could never answer in time
//!   are *shed* to the NH baseline with a typed outcome), then the
//!   shard's circuit breaker (an open breaker answers *degraded* from the
//!   baseline instead of feeding a broken shard), then the shard's
//!   broker.
//! * [`breaker::CircuitBreaker`] — per-shard closed → open → half-open
//!   failure isolation with deterministic seeded backoff; repeated worker
//!   panics or deadline misses trip it, a successful probe closes it.
//! * Durability — [`router::Fleet::from_replay_durable`] attaches a
//!   per-shard segmented write-ahead trip log
//!   ([`stod_serve::TripWal`]); [`router::Fleet::recover`] rebuilds the
//!   fleet after a kill at any instant: sealed windows come back bitwise
//!   up to the last fsynced record, and every registry checkpoint is
//!   CRC-scrubbed before it can serve again.
//!
//! ## The request-conservation ledger, per tenant
//!
//! Every shard's books must balance exactly:
//!
//! ```text
//! requests = model_invocations + failed_jobs + worker_panics
//!          + batched_joins + cache_hits + result_cache_hits + shed
//!          + degraded
//! ```
//!
//! Each router stage and broker outcome increments exactly one term, so
//! the residual ([`stod_serve::StatsSnapshot::ledger_balance`]) is zero
//! for every tenant at quiescence — under arbitrary concurrency, cache
//! configuration, and injected faults. The same terms mirror into
//! per-shard obs counters (`fleet/shard{i}/…`) when observability is
//! armed.
//!
//! ## Configuration
//!
//! Every setting is a struct field the caller fills in code:
//! [`config::FleetConfig`] (shards, result cache, shed depth),
//! [`shard::ShardConfig`] (workers, window, per-shard
//! [`breaker::BreakerConfig`]) and [`router::DurabilityConfig`] (log
//! root and [`stod_serve::WalConfig`]). No environment variable
//! overrides them.

pub mod breaker;
pub mod cache;
pub mod config;
pub mod router;
pub mod shard;

pub use breaker::{Admission, BreakerConfig, BreakerSnapshot, BreakerState, CircuitBreaker};
pub use cache::{CacheKey, ForecastCache};
pub use config::FleetConfig;
pub use router::{
    DurabilityConfig, Fleet, FleetForecast, FleetHealth, FleetRequest, FleetSnapshot, FleetSource,
    RecoveryReport, ShardHealth, ShardRecovery, ShardSnapshot,
};
pub use shard::{Shard, ShardConfig};

/// The fleet is shared across client threads; keep the central types
/// `Send + Sync` (compile-time check).
fn _assert_thread_safe() {
    fn check<T: Send + Sync>() {}
    check::<Fleet>();
    check::<ForecastCache>();
    check::<Shard>();
}

/// A small, fast fleet over replayed cities, shared by this crate's unit
/// tests (and cheap enough to build per test).
#[cfg(test)]
pub(crate) mod testfleet {
    use super::*;
    use stod_core::BfConfig;
    use stod_serve::ModelKind;
    use stod_traffic::{generate_fleet, FleetSimConfig};

    /// Two heterogeneous cities, 6 sealed intervals, BF models, 1 broker
    /// worker per shard.
    pub fn tiny(cache_enabled: bool, shed_depth: usize) -> Fleet {
        let cities = generate_fleet(&FleetSimConfig {
            num_cities: 2,
            num_days: 1,
            intervals_per_day: 6,
            seed: 0xF1EE7,
        });
        let cfg = FleetConfig {
            shards: 2,
            cache_capacity: 16,
            shed_depth,
            cache_enabled,
        };
        let shard_cfg = ShardConfig {
            workers: 1,
            lookback: 2,
            window_capacity: 8,
            broker_cache_capacity: 8,
            retain_results: true,
            breaker: BreakerConfig::default(),
        };
        Fleet::from_replay(
            &cfg,
            &cities,
            &shard_cfg,
            |_| {
                ModelKind::Bf(BfConfig {
                    encode_dim: 8,
                    gru_hidden: 8,
                    ..BfConfig::default()
                })
            },
            42,
        )
    }
}
