//! Fleet sizing: shard count, result cache and admission control.
//!
//! Callers fill [`FleetConfig`] in code. Circuit breakers are tuned
//! through [`crate::breaker::BreakerConfig`] (one per shard, inside
//! [`crate::ShardConfig`]) and the WAL through
//! [`stod_serve::wal::WalConfig`].

/// Fleet-level configuration (shard count, result cache, admission
/// control). Per-shard serving knobs live in [`crate::ShardConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of per-city shards; requests carry a `city` id in
    /// `0..shards`.
    pub shards: usize,
    /// Capacity of the fleet-wide forecast result cache, in entries.
    pub cache_capacity: usize,
    /// Admission control: a request that misses the result cache is shed
    /// (answered from the NH baseline with a typed outcome) when its
    /// shard's broker queue is already `shed_depth` deep or deeper. With
    /// the queue at that depth, the request would sit behind at least
    /// `shed_depth` model invocations — past any sane deadline — so
    /// answering from the baseline immediately is strictly better than
    /// letting it ride the queue to a deadline fallback. `0` sheds every
    /// cache miss (a degenerate setting used by tests).
    pub shed_depth: usize,
    /// Whether the forecast result cache is consulted at all. Off,
    /// combined with `retain_results = false` on the shard brokers, is the
    /// honest no-cache baseline the benchmark's `serve_cold` workload runs.
    pub cache_enabled: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            shards: 4,
            cache_capacity: 256,
            shed_depth: 64,
            cache_enabled: true,
        }
    }
}
