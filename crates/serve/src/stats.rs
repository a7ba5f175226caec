//! Serving telemetry: lock-free counters plus a latency histogram with
//! percentile estimates, exported as a JSON-serializable snapshot.
//!
//! The latency histogram follows the same spirit as the equi-width speed
//! histograms of `stod_traffic::HistogramSpec` — fixed buckets, counts,
//! quantiles read off the cumulative mass — but uses power-of-two bucket
//! widths because request latencies span several orders of magnitude
//! (a cache hit is microseconds, a cold AF forward pass can be seconds).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use stod_obs::json::{self, ToJson};

/// Number of log2 latency buckets: bucket `b` covers `[2^b, 2^{b+1})` µs,
/// so the range spans 1 µs … ~1.2 h, far beyond any sane deadline.
const LATENCY_BUCKETS: usize = 32;

/// A fixed-bucket log2 histogram of request latencies in microseconds.
#[derive(Default)]
pub struct LatencyHistogram {
    counts: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// Records one latency observation.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().max(1) as u64;
        let bucket = (63 - us.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0 < q ≤ 1`) in microseconds, estimated as the
    /// upper edge of the bucket holding the quantile's cumulative mass.
    /// Returns 0 when nothing has been recorded.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let snapshot: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = snapshot.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (b, &c) in snapshot.iter().enumerate() {
            cum += c;
            if cum >= target {
                return 1u64 << (b + 1);
            }
        }
        1u64 << LATENCY_BUCKETS
    }
}

/// Number of log2 size buckets: bucket `b` covers `[2^b, 2^{b+1})`, so the
/// range spans 1 … 65536 — far beyond any sane micro-batch fan-out.
const SIZE_BUCKETS: usize = 16;

/// A fixed-bucket log2 histogram of small integer sizes (micro-batch
/// fan-outs), with an exact running maximum alongside the bucketed
/// quantiles.
#[derive(Default)]
pub struct SizeHistogram {
    counts: [AtomicU64; SIZE_BUCKETS],
    max: AtomicU64,
}

impl SizeHistogram {
    /// Records one size observation.
    pub fn record(&self, size: u64) {
        let v = size.max(1);
        let bucket = (63 - v.leading_zeros() as usize).min(SIZE_BUCKETS - 1);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(size, Ordering::Relaxed);
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Largest recorded size (exact, not a bucket edge).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0 < q ≤ 1`), estimated as the upper edge of the
    /// bucket holding the quantile's cumulative mass, clamped to the exact
    /// observed maximum so the estimate never exceeds a value that was
    /// actually seen. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let snapshot: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = snapshot.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        let max = self.max();
        for (b, &c) in snapshot.iter().enumerate() {
            cum += c;
            if cum >= target {
                return (1u64 << (b + 1)).min(max);
            }
        }
        (1u64 << SIZE_BUCKETS).min(max)
    }
}

/// Interned observability paths mirroring one serving stack's ledger
/// counters under a per-shard prefix (`fleet/shard3/requests`, …).
///
/// The flat `serve/*` counters aggregate every stack in the process; a
/// fleet needs the same ledger *per tenant*, and the obs registry keys on
/// `&'static str`, so the paths are interned once at stack construction
/// (see [`stod_obs::intern`]) and reused on every request.
pub struct LedgerObsPaths {
    /// Mirror of [`ServeStats::requests_total`].
    pub requests: &'static str,
    /// Mirror of [`ServeStats::model_invocations`].
    pub model_invocations: &'static str,
    /// Mirror of [`ServeStats::batched_joins`].
    pub batched_joins: &'static str,
    /// Mirror of [`ServeStats::cache_hits`].
    pub cache_hits: &'static str,
    /// Mirror of [`ServeStats::result_cache_hits`].
    pub result_cache_hits: &'static str,
    /// Mirror of [`ServeStats::shed`].
    pub shed: &'static str,
    /// Mirror of [`ServeStats::degraded`].
    pub degraded: &'static str,
    /// Mirror of [`ServeStats::worker_panics`].
    pub worker_panics: &'static str,
    /// Mirror of [`ServeStats::failed_jobs`].
    pub failed_jobs: &'static str,
}

/// Counters and latency telemetry for one serving stack. All methods take
/// `&self`; share the struct behind an `Arc` between registry, broker and
/// observers.
#[derive(Default)]
pub struct ServeStats {
    /// Per-shard obs mirror paths (`None` for a plain, unprefixed stack).
    obs_paths: Option<LedgerObsPaths>,
    /// Forecast requests received.
    pub requests_total: AtomicU64,
    /// Model forward passes actually executed.
    pub model_invocations: AtomicU64,
    /// Requests that joined an already-in-flight identical computation.
    pub batched_joins: AtomicU64,
    /// Requests answered from the interval tensor cache.
    pub cache_hits: AtomicU64,
    /// Requests answered from the fleet-level forecast result cache
    /// (`(city, t_end, horizon, version)` keyed, LRU) without entering the
    /// broker at all.
    pub result_cache_hits: AtomicU64,
    /// Requests that missed the fleet-level result cache and went on to
    /// the broker.
    pub result_cache_misses: AtomicU64,
    /// Fleet result-cache entries of this tenant evicted by the LRU policy.
    pub result_cache_evictions: AtomicU64,
    /// Fleet result-cache entries of this tenant invalidated by a registry
    /// hot-swap (stale version dropped before it could ever be served).
    pub result_cache_invalidations: AtomicU64,
    /// Requests shed by admission control (queue beyond deadline-feasible
    /// depth) and answered from the NH baseline with a typed outcome.
    pub shed: AtomicU64,
    /// Requests answered in degraded mode — the shard's circuit breaker
    /// was open (or the shard had crashed in place), so the answer came
    /// from the NH baseline without touching the broker. Typed outcome;
    /// a term of the conservation ledger.
    pub degraded: AtomicU64,
    /// The subset of [`ServeStats::degraded`] rejected *by* an open
    /// breaker (as opposed to an in-place shard crash). Diagnostic, not a
    /// ledger term: every breaker-open reject is already counted in
    /// `degraded`.
    pub breaker_open_rejects: AtomicU64,
    /// Broker jobs that completed without a model invocation (no promoted
    /// model, missing feature window); each closes its leader's slot in
    /// the conservation ledger.
    pub failed_jobs: AtomicU64,
    /// Requests that fell back to NH because the deadline expired.
    pub fallbacks_deadline: AtomicU64,
    /// Requests that fell back to NH because no model was promoted (or the
    /// broker was shutting down).
    pub fallbacks_no_model: AtomicU64,
    /// Requests that fell back to NH because the feature store lacked the
    /// input window.
    pub fallbacks_no_features: AtomicU64,
    /// Requests that fell back to NH because the worker computing their
    /// forecast panicked.
    pub fallbacks_worker_panic: AtomicU64,
    /// Model promotions that replaced an already-active model.
    pub hot_swaps: AtomicU64,
    /// Worker panics contained by the broker supervisor (each one also
    /// produces a respawn and a fallback for the affected waiters).
    pub worker_panics: AtomicU64,
    /// Broker workers restarted after a contained panic.
    pub respawns: AtomicU64,
    /// Checkpoints the registry refused (unreadable, corrupt, malformed,
    /// or layout-mismatched).
    pub checkpoint_rejects: AtomicU64,
    /// Registered versions invalidated by a bit-rot scrub
    /// (`Registry::scrub`): the backing checkpoint no longer carries the
    /// CRC it was validated with.
    pub scrub_rejects: AtomicU64,
    /// Batches whose loss or gradients were non-finite during training
    /// (reported by the trainer when it shares this stats instance).
    pub nonfinite_batches: AtomicU64,
    /// End-to-end request latencies.
    pub latency: LatencyHistogram,
    /// End-to-end latencies of requests answered by the model.
    pub latency_model: LatencyHistogram,
    /// End-to-end latencies of requests answered by a fallback path.
    pub latency_fallback: LatencyHistogram,
    /// End-to-end latencies of requests answered from the fleet result
    /// cache.
    pub latency_cache: LatencyHistogram,
    /// End-to-end latencies of requests shed by admission control.
    pub latency_shed: LatencyHistogram,
    /// End-to-end latencies of requests answered in degraded mode.
    pub latency_degraded: LatencyHistogram,
    /// Micro-batch fan-out sizes: how many waiters each finished job
    /// answered (leader included).
    pub batch_sizes: SizeHistogram,
    /// Jobs currently enqueued or executing in the worker pool.
    pub queue_depth: AtomicU64,
    /// High-water mark of [`ServeStats::queue_depth`].
    pub queue_depth_max: AtomicU64,
}

impl ServeStats {
    /// Fresh, all-zero stats.
    pub fn new() -> ServeStats {
        ServeStats::default()
    }

    /// Fresh stats whose ledger counters additionally mirror into obs
    /// counters under `prefix` (e.g. `fleet/shard3`), so a multi-tenant
    /// process can read the conservation ledger per shard from one
    /// [`stod_obs::snapshot`]. Paths are interned here, once; the
    /// request-path mirror is then an ordinary `&'static str` counter bump.
    pub fn with_obs_prefix(prefix: &str) -> ServeStats {
        let path = |suffix: &str| stod_obs::intern(&format!("{prefix}/{suffix}"));
        ServeStats {
            obs_paths: Some(LedgerObsPaths {
                requests: path("requests"),
                model_invocations: path("model_invocations"),
                batched_joins: path("batched_joins"),
                cache_hits: path("cache_hits"),
                result_cache_hits: path("result_cache_hits"),
                shed: path("shed"),
                degraded: path("degraded"),
                worker_panics: path("worker_panics"),
                failed_jobs: path("failed_jobs"),
            }),
            ..ServeStats::default()
        }
    }

    /// Bumps the per-shard obs mirror of one ledger counter (chosen by
    /// `pick`) when this stack has a prefix and observability is armed.
    /// Disarmed or unprefixed cost: one relaxed load.
    #[inline]
    pub fn obs_mirror(&self, pick: impl FnOnce(&LedgerObsPaths) -> &'static str) {
        if !stod_obs::armed() {
            return;
        }
        if let Some(paths) = &self.obs_paths {
            stod_obs::count(pick(paths), 1);
        }
    }

    /// Folds a finished training run's fault counters into the serving
    /// ledger, so a train-then-serve deployment surfaces training-side
    /// non-finite batches through the same JSON stats export as the
    /// serving-side fault counters.
    pub fn record_train_report(&self, report: &stod_core::TrainReport) {
        self.nonfinite_batches
            .fetch_add(report.nonfinite_batches, Ordering::Relaxed);
    }

    /// One job entered the worker queue; tracks the depth high-water mark
    /// and mirrors the depth into the observability gauge when armed.
    pub fn job_enqueued(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
        if stod_obs::armed() {
            stod_obs::gauge_set("serve/queue_depth", depth as i64);
        }
    }

    /// One job left the queue for execution.
    pub fn job_dequeued(&self) {
        let prev = self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "queue depth underflow");
        if stod_obs::armed() {
            stod_obs::gauge_set("serve/queue_depth", prev.saturating_sub(1) as i64);
        }
    }

    /// A point-in-time copy of every counter plus latency percentiles.
    pub fn snapshot(&self) -> StatsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsSnapshot {
            requests_total: load(&self.requests_total),
            model_invocations: load(&self.model_invocations),
            batched_joins: load(&self.batched_joins),
            cache_hits: load(&self.cache_hits),
            result_cache_hits: load(&self.result_cache_hits),
            result_cache_misses: load(&self.result_cache_misses),
            result_cache_evictions: load(&self.result_cache_evictions),
            result_cache_invalidations: load(&self.result_cache_invalidations),
            shed: load(&self.shed),
            degraded: load(&self.degraded),
            breaker_open_rejects: load(&self.breaker_open_rejects),
            failed_jobs: load(&self.failed_jobs),
            fallbacks_deadline: load(&self.fallbacks_deadline),
            fallbacks_no_model: load(&self.fallbacks_no_model),
            fallbacks_no_features: load(&self.fallbacks_no_features),
            fallbacks_worker_panic: load(&self.fallbacks_worker_panic),
            hot_swaps: load(&self.hot_swaps),
            worker_panics: load(&self.worker_panics),
            respawns: load(&self.respawns),
            checkpoint_rejects: load(&self.checkpoint_rejects),
            scrub_rejects: load(&self.scrub_rejects),
            nonfinite_batches: load(&self.nonfinite_batches),
            latency_count: self.latency.count(),
            p50_us: self.latency.quantile_us(0.50),
            p95_us: self.latency.quantile_us(0.95),
            p99_us: self.latency.quantile_us(0.99),
            model_latency_count: self.latency_model.count(),
            model_p50_us: self.latency_model.quantile_us(0.50),
            model_p99_us: self.latency_model.quantile_us(0.99),
            fallback_latency_count: self.latency_fallback.count(),
            fallback_p50_us: self.latency_fallback.quantile_us(0.50),
            fallback_p99_us: self.latency_fallback.quantile_us(0.99),
            cache_latency_count: self.latency_cache.count(),
            cache_p50_us: self.latency_cache.quantile_us(0.50),
            cache_p99_us: self.latency_cache.quantile_us(0.99),
            shed_latency_count: self.latency_shed.count(),
            shed_p50_us: self.latency_shed.quantile_us(0.50),
            shed_p99_us: self.latency_shed.quantile_us(0.99),
            degraded_latency_count: self.latency_degraded.count(),
            degraded_p50_us: self.latency_degraded.quantile_us(0.50),
            degraded_p99_us: self.latency_degraded.quantile_us(0.99),
            batch_count: self.batch_sizes.count(),
            batch_p50: self.batch_sizes.quantile(0.50),
            batch_max: self.batch_sizes.max(),
            queue_depth_max: load(&self.queue_depth_max),
        }
    }
}

/// A frozen copy of [`ServeStats`], cheap to pass around and serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// See [`ServeStats::requests_total`].
    pub requests_total: u64,
    /// See [`ServeStats::model_invocations`].
    pub model_invocations: u64,
    /// See [`ServeStats::batched_joins`].
    pub batched_joins: u64,
    /// See [`ServeStats::cache_hits`].
    pub cache_hits: u64,
    /// See [`ServeStats::result_cache_hits`].
    pub result_cache_hits: u64,
    /// See [`ServeStats::result_cache_misses`].
    pub result_cache_misses: u64,
    /// See [`ServeStats::result_cache_evictions`].
    pub result_cache_evictions: u64,
    /// See [`ServeStats::result_cache_invalidations`].
    pub result_cache_invalidations: u64,
    /// See [`ServeStats::shed`].
    pub shed: u64,
    /// See [`ServeStats::degraded`].
    pub degraded: u64,
    /// See [`ServeStats::breaker_open_rejects`].
    pub breaker_open_rejects: u64,
    /// See [`ServeStats::failed_jobs`].
    pub failed_jobs: u64,
    /// See [`ServeStats::fallbacks_deadline`].
    pub fallbacks_deadline: u64,
    /// See [`ServeStats::fallbacks_no_model`].
    pub fallbacks_no_model: u64,
    /// See [`ServeStats::fallbacks_no_features`].
    pub fallbacks_no_features: u64,
    /// See [`ServeStats::fallbacks_worker_panic`].
    pub fallbacks_worker_panic: u64,
    /// See [`ServeStats::hot_swaps`].
    pub hot_swaps: u64,
    /// See [`ServeStats::worker_panics`].
    pub worker_panics: u64,
    /// See [`ServeStats::respawns`].
    pub respawns: u64,
    /// See [`ServeStats::checkpoint_rejects`].
    pub checkpoint_rejects: u64,
    /// See [`ServeStats::scrub_rejects`].
    pub scrub_rejects: u64,
    /// See [`ServeStats::nonfinite_batches`].
    pub nonfinite_batches: u64,
    /// Number of latency observations behind the percentiles.
    pub latency_count: u64,
    /// Median request latency (µs, bucket upper edge).
    pub p50_us: u64,
    /// 95th-percentile request latency (µs).
    pub p95_us: u64,
    /// 99th-percentile request latency (µs).
    pub p99_us: u64,
    /// Latency observations on the model-answered path.
    pub model_latency_count: u64,
    /// Median model-answered latency (µs, bucket upper edge).
    pub model_p50_us: u64,
    /// 99th-percentile model-answered latency (µs).
    pub model_p99_us: u64,
    /// Latency observations on the fallback path.
    pub fallback_latency_count: u64,
    /// Median fallback latency (µs, bucket upper edge).
    pub fallback_p50_us: u64,
    /// 99th-percentile fallback latency (µs).
    pub fallback_p99_us: u64,
    /// Latency observations on the result-cache path.
    pub cache_latency_count: u64,
    /// Median result-cache latency (µs, bucket upper edge).
    pub cache_p50_us: u64,
    /// 99th-percentile result-cache latency (µs).
    pub cache_p99_us: u64,
    /// Latency observations on the shed path.
    pub shed_latency_count: u64,
    /// Median shed latency (µs, bucket upper edge).
    pub shed_p50_us: u64,
    /// 99th-percentile shed latency (µs).
    pub shed_p99_us: u64,
    /// Latency observations on the degraded path.
    pub degraded_latency_count: u64,
    /// Median degraded latency (µs, bucket upper edge).
    pub degraded_p50_us: u64,
    /// 99th-percentile degraded latency (µs).
    pub degraded_p99_us: u64,
    /// Finished jobs behind the batch-size percentiles.
    pub batch_count: u64,
    /// Median micro-batch fan-out (bucket upper edge).
    pub batch_p50: u64,
    /// Largest micro-batch fan-out observed (exact).
    pub batch_max: u64,
    /// High-water mark of the worker job queue.
    pub queue_depth_max: u64,
}

impl StatsSnapshot {
    /// Requests that any fallback path answered.
    pub fn fallbacks_total(&self) -> u64 {
        self.fallbacks_deadline
            + self.fallbacks_no_model
            + self.fallbacks_no_features
            + self.fallbacks_worker_panic
    }

    /// Residual of the request-conservation ledger
    ///
    /// ```text
    /// requests = model_invocations + failed_jobs + worker_panics
    ///          + batched_joins + cache_hits + result_cache_hits
    ///          + shed + degraded
    /// ```
    ///
    /// Every request is exactly one of: shed by admission control,
    /// answered in degraded mode (breaker open or shard crashed), a
    /// result-cache hit, a broker cache hit, a joiner of an in-flight
    /// computation, or the leader of exactly one job — and every job ends
    /// as a model invocation, a failed job, or a contained worker panic.
    /// Zero means the ledger balances exactly; non-zero is an accounting
    /// bug (or requests still in flight when the snapshot was taken).
    pub fn ledger_balance(&self) -> i128 {
        self.requests_total as i128
            - (self.model_invocations
                + self.failed_jobs
                + self.worker_panics
                + self.batched_joins
                + self.cache_hits
                + self.result_cache_hits
                + self.shed
                + self.degraded) as i128
    }

    /// This snapshot as a JSON object string.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl ToJson for StatsSnapshot {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("requests_total", &self.requests_total);
            o.field("model_invocations", &self.model_invocations);
            o.field("batched_joins", &self.batched_joins);
            o.field("cache_hits", &self.cache_hits);
            o.field("result_cache_hits", &self.result_cache_hits);
            o.field("result_cache_misses", &self.result_cache_misses);
            o.field("result_cache_evictions", &self.result_cache_evictions);
            o.field(
                "result_cache_invalidations",
                &self.result_cache_invalidations,
            );
            o.field("shed", &self.shed);
            o.field("degraded", &self.degraded);
            o.field("breaker_open_rejects", &self.breaker_open_rejects);
            o.field("failed_jobs", &self.failed_jobs);
            o.field("fallbacks_deadline", &self.fallbacks_deadline);
            o.field("fallbacks_no_model", &self.fallbacks_no_model);
            o.field("fallbacks_no_features", &self.fallbacks_no_features);
            o.field("fallbacks_worker_panic", &self.fallbacks_worker_panic);
            o.field("hot_swaps", &self.hot_swaps);
            o.field("worker_panics", &self.worker_panics);
            o.field("respawns", &self.respawns);
            o.field("checkpoint_rejects", &self.checkpoint_rejects);
            o.field("scrub_rejects", &self.scrub_rejects);
            o.field("nonfinite_batches", &self.nonfinite_batches);
            o.field("latency_count", &self.latency_count);
            o.field("p50_us", &self.p50_us);
            o.field("p95_us", &self.p95_us);
            o.field("p99_us", &self.p99_us);
            o.field("model_latency_count", &self.model_latency_count);
            o.field("model_p50_us", &self.model_p50_us);
            o.field("model_p99_us", &self.model_p99_us);
            o.field("fallback_latency_count", &self.fallback_latency_count);
            o.field("fallback_p50_us", &self.fallback_p50_us);
            o.field("fallback_p99_us", &self.fallback_p99_us);
            o.field("cache_latency_count", &self.cache_latency_count);
            o.field("cache_p50_us", &self.cache_p50_us);
            o.field("cache_p99_us", &self.cache_p99_us);
            o.field("shed_latency_count", &self.shed_latency_count);
            o.field("shed_p50_us", &self.shed_p50_us);
            o.field("shed_p99_us", &self.shed_p99_us);
            o.field("degraded_latency_count", &self.degraded_latency_count);
            o.field("degraded_p50_us", &self.degraded_p50_us);
            o.field("degraded_p99_us", &self.degraded_p99_us);
            o.field("batch_count", &self.batch_count);
            o.field("batch_p50", &self.batch_p50);
            o.field("batch_max", &self.batch_max);
            o.field("queue_depth_max", &self.queue_depth_max);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        for _ in 0..90 {
            h.record(Duration::from_micros(100)); // bucket 6: [64, 128)
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(50)); // bucket 15: [32768, 65536)
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.50), 128);
        assert_eq!(h.quantile_us(0.90), 128);
        assert_eq!(h.quantile_us(0.99), 65536);
        // p95 falls inside the slow tail's bucket.
        assert_eq!(h.quantile_us(0.95), 65536);
    }

    #[test]
    fn zero_duration_counts_in_first_bucket() {
        let h = LatencyHistogram::default();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_us(1.0), 2);
    }

    #[test]
    fn ledger_balance_counts_every_outcome_once() {
        let s = ServeStats::new();
        s.requests_total.fetch_add(10, Ordering::Relaxed);
        s.model_invocations.fetch_add(2, Ordering::Relaxed);
        s.failed_jobs.fetch_add(1, Ordering::Relaxed);
        s.worker_panics.fetch_add(1, Ordering::Relaxed);
        s.batched_joins.fetch_add(2, Ordering::Relaxed);
        s.cache_hits.fetch_add(1, Ordering::Relaxed);
        s.result_cache_hits.fetch_add(2, Ordering::Relaxed);
        s.shed.fetch_add(1, Ordering::Relaxed);
        assert_eq!(s.snapshot().ledger_balance(), 0);
        s.requests_total.fetch_add(3, Ordering::Relaxed);
        assert_eq!(s.snapshot().ledger_balance(), 3);
        // Degraded answers are a ledger term: two degraded requests (one
        // of them a breaker-open reject — a diagnostic subset, not a
        // second term) close two of the three open slots.
        s.degraded.fetch_add(2, Ordering::Relaxed);
        s.breaker_open_rejects.fetch_add(1, Ordering::Relaxed);
        assert_eq!(s.snapshot().ledger_balance(), 1);
    }

    #[test]
    fn obs_prefix_mirrors_into_per_shard_counters() {
        let plain = ServeStats::new();
        let sharded = ServeStats::with_obs_prefix("stats-test/shard0");
        stod_obs::with_mode(stod_obs::ObsMode::On, || {
            stod_obs::reset();
            plain.obs_mirror(|p| p.requests); // no prefix: no-op
            sharded.obs_mirror(|p| p.requests);
            sharded.obs_mirror(|p| p.requests);
            sharded.obs_mirror(|p| p.shed);
            let snap = stod_obs::snapshot();
            assert_eq!(snap.counter("stats-test/shard0/requests"), 2);
            assert_eq!(snap.counter("stats-test/shard0/shed"), 1);
        });
    }

    #[test]
    fn snapshot_reflects_counters() {
        let s = ServeStats::new();
        s.requests_total.fetch_add(3, Ordering::Relaxed);
        s.cache_hits.fetch_add(1, Ordering::Relaxed);
        s.fallbacks_deadline.fetch_add(2, Ordering::Relaxed);
        s.latency.record(Duration::from_micros(10));
        let snap = s.snapshot();
        assert_eq!(snap.requests_total, 3);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.fallbacks_total(), 2);
        assert_eq!(snap.latency_count, 1);
    }

    #[test]
    fn snapshot_serializes_as_json_object() {
        let snap = ServeStats::new().snapshot();
        let js = json::to_string(&snap);
        assert!(js.starts_with('{') && js.ends_with('}'));
        assert!(js.contains("\"requests_total\":0"));
        assert!(js.contains("\"p99_us\":0"));
        for fault_field in [
            "worker_panics",
            "respawns",
            "checkpoint_rejects",
            "nonfinite_batches",
            "fallbacks_worker_panic",
            "result_cache_hits",
            "result_cache_misses",
            "result_cache_evictions",
            "result_cache_invalidations",
            "shed",
            "degraded",
            "breaker_open_rejects",
            "scrub_rejects",
            "failed_jobs",
        ] {
            assert!(
                js.contains(&format!("\"{fault_field}\":0")),
                "fault-ledger field {fault_field} missing from JSON export"
            );
        }
    }
}
