//! Serving telemetry: lock-free counters plus log2 histograms of request
//! latencies and micro-batch sizes, exported as a JSON-serializable
//! snapshot.
//!
//! The histograms follow the same spirit as the equi-width speed
//! histograms of `stod_traffic::HistogramSpec` — fixed buckets, counts,
//! quantiles read off the cumulative mass — but use power-of-two bucket
//! widths because request latencies span several orders of magnitude
//! (a cache hit is microseconds, a cold AF forward pass can be seconds).
//!
//! Each request's latency is recorded once, in the histogram of the path
//! that answered it ([`Answer`]); the all-requests percentiles are read
//! off the bucketwise sum of those five histograms.

use crate::broker::FallbackReason;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use stod_obs::json::{self, ToJson};

/// Number of log2 buckets: bucket `b` covers `[2^b, 2^{b+1})`, so a
/// latency in µs spans 1 µs … ~1.2 h, far beyond any sane deadline.
const BUCKETS: usize = 32;

/// A fixed-bucket log2 histogram of `u64` values (latencies in µs,
/// micro-batch fan-outs) with an exact running maximum. 0 counts in the
/// first bucket; values past the last bucket saturate into it.
#[derive(Default)]
pub(crate) struct Log2Histogram {
    counts: [AtomicU64; BUCKETS],
    max: AtomicU64,
}

impl Log2Histogram {
    /// Records one observation.
    pub(crate) fn record(&self, v: u64) {
        let bucket = (63 - v.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    fn buckets(&self) -> Buckets {
        Buckets(std::array::from_fn(|b| {
            self.counts[b].load(Ordering::Relaxed)
        }))
    }
}

/// Frozen bucket counts of one or more [`Log2Histogram`]s.
#[derive(Clone, Copy, Default)]
struct Buckets([u64; BUCKETS]);

impl Buckets {
    /// Total number of observations.
    fn count(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile (`0 < q ≤ 1`), estimated as the upper edge of the
    /// bucket holding the quantile's cumulative mass. 0 when empty.
    fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (b, &c) in self.0.iter().enumerate() {
            cum += c;
            if cum >= target {
                return 1u64 << (b + 1);
            }
        }
        1u64 << BUCKETS
    }

    /// The bucketwise sum: the histogram of both sets of observations.
    fn add(mut self, other: Buckets) -> Buckets {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
        self
    }
}

/// The path that answered a request; [`ServeStats::answered`] books each
/// answer under exactly one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// The promoted model (a fresh invocation, a joined one, or the
    /// broker's interval cache).
    Model,
    /// The broker's NH baseline, for this reason.
    Fallback(FallbackReason),
    /// The fleet-level forecast result cache.
    ResultCache,
    /// Admission control shed the request to the NH baseline.
    Shed,
    /// The shard's circuit breaker was open; the NH baseline answered in
    /// degraded mode.
    Degraded,
}

/// Counters and latency telemetry for one serving stack. All methods take
/// `&self`; share the struct behind an `Arc` between registry, broker and
/// observers.
#[derive(Default)]
pub struct ServeStats {
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
    /// End-to-end latencies (µs) of the requests each [`Answer`] path
    /// served: model, fallback, result cache, shed, degraded.
    latency: [Log2Histogram; 5],
    /// Micro-batch fan-out sizes: how many waiters each finished job
    /// answered (leader included).
    pub(crate) batch_sizes: Log2Histogram,
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

    /// Books one answered request: bumps its answer's ledger counter
    /// (a model answer has none of its own — its slot was booked when it
    /// led, joined or hit a job), records `latency` in that path's
    /// histogram, and mirrors both into the flat obs counter and
    /// histogram when observability is armed.
    pub fn answered(&self, answer: Answer, latency: Duration) {
        let (counter, path, obs_counter, obs_hist) = match answer {
            Answer::Model => (None, 0, None, "serve/latency/model"),
            Answer::Fallback(reason) => {
                let counter = match reason {
                    FallbackReason::Deadline => &self.fallbacks_deadline,
                    FallbackReason::NoModel => &self.fallbacks_no_model,
                    FallbackReason::NoFeatures => &self.fallbacks_no_features,
                    FallbackReason::WorkerPanic => &self.fallbacks_worker_panic,
                };
                (Some(counter), 1, None, "serve/latency/fallback")
            }
            Answer::ResultCache => (
                Some(&self.result_cache_hits),
                2,
                Some("fleet/result_cache_hits"),
                "fleet/latency/result_cache",
            ),
            Answer::Shed => (
                Some(&self.shed),
                3,
                Some("fleet/shed"),
                "fleet/latency/shed",
            ),
            Answer::Degraded => (
                Some(&self.degraded),
                4,
                Some("fleet/degraded"),
                "fleet/latency/degraded",
            ),
        };
        if let Some(counter) = counter {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(name) = obs_counter {
            stod_obs::count(name, 1);
        }
        self.latency[path].record(latency.as_micros() as u64);
        stod_obs::observe_duration(obs_hist, latency);
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
        stod_obs::gauge_set("serve/queue_depth", depth as i64);
    }

    /// One job left the queue for execution.
    pub fn job_dequeued(&self) {
        let prev = self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "queue depth underflow");
        stod_obs::gauge_set("serve/queue_depth", prev.saturating_sub(1) as i64);
    }

    /// A point-in-time copy of every counter plus latency percentiles.
    pub fn snapshot(&self) -> StatsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let paths = self.latency.each_ref().map(Log2Histogram::buckets);
        let all = paths.iter().fold(Buckets::default(), |sum, &p| sum.add(p));
        let [model, fallback, cache, shed, degraded] = paths;
        let batch = self.batch_sizes.buckets();
        let batch_max = self.batch_sizes.max.load(Ordering::Relaxed);
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
            latency_count: all.count(),
            p50_us: all.quantile(0.50),
            p95_us: all.quantile(0.95),
            p99_us: all.quantile(0.99),
            model_latency_count: model.count(),
            model_p50_us: model.quantile(0.50),
            model_p99_us: model.quantile(0.99),
            fallback_latency_count: fallback.count(),
            fallback_p50_us: fallback.quantile(0.50),
            fallback_p99_us: fallback.quantile(0.99),
            cache_latency_count: cache.count(),
            cache_p50_us: cache.quantile(0.50),
            cache_p99_us: cache.quantile(0.99),
            shed_latency_count: shed.count(),
            shed_p50_us: shed.quantile(0.50),
            shed_p99_us: shed.quantile(0.99),
            degraded_latency_count: degraded.count(),
            degraded_p50_us: degraded.quantile(0.50),
            degraded_p99_us: degraded.quantile(0.99),
            batch_count: batch.count(),
            // Clamped to the exact maximum, so the estimate never exceeds
            // a fan-out that was actually seen.
            batch_p50: batch.quantile(0.50).min(batch_max),
            batch_max,
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
    /// Latency observations across every answer path (the sum of the
    /// five per-path counts below).
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

    fn us(h: &Log2Histogram, q: f64) -> u64 {
        h.buckets().quantile(q)
    }

    #[test]
    fn latency_buckets_and_quantiles() {
        let h = Log2Histogram::default();
        assert_eq!(us(&h, 0.5), 0);
        for _ in 0..90 {
            h.record(100); // bucket 6: [64, 128) µs
        }
        for _ in 0..10 {
            h.record(50_000); // bucket 15: [32768, 65536) µs
        }
        assert_eq!(h.buckets().count(), 100);
        assert_eq!(us(&h, 0.50), 128);
        assert_eq!(us(&h, 0.90), 128);
        assert_eq!(us(&h, 0.99), 65536);
        // p95 falls inside the slow tail's bucket.
        assert_eq!(us(&h, 0.95), 65536);
    }

    #[test]
    fn zero_duration_counts_in_first_bucket() {
        let h = Log2Histogram::default();
        h.record(Duration::ZERO.as_micros() as u64);
        assert_eq!(h.buckets().count(), 1);
        assert_eq!(us(&h, 1.0), 2);
    }

    /// Every ledger counter of a snapshot, in declaration order.
    fn counters(s: &StatsSnapshot) -> [u64; 21] {
        [
            s.requests_total,
            s.model_invocations,
            s.batched_joins,
            s.cache_hits,
            s.result_cache_hits,
            s.result_cache_misses,
            s.result_cache_evictions,
            s.result_cache_invalidations,
            s.shed,
            s.degraded,
            s.failed_jobs,
            s.fallbacks_deadline,
            s.fallbacks_no_model,
            s.fallbacks_no_features,
            s.fallbacks_worker_panic,
            s.hot_swaps,
            s.worker_panics,
            s.respawns,
            s.checkpoint_rejects,
            s.scrub_rejects,
            s.nonfinite_batches,
        ]
    }

    #[test]
    fn each_answer_books_its_own_counter_and_histogram() {
        // (answer, index in `counters` it bumps, latency path it records)
        let cases = [
            (Answer::Model, None, 0),
            (Answer::Fallback(FallbackReason::Deadline), Some(11), 1),
            (Answer::Fallback(FallbackReason::NoModel), Some(12), 1),
            (Answer::Fallback(FallbackReason::NoFeatures), Some(13), 1),
            (Answer::Fallback(FallbackReason::WorkerPanic), Some(14), 1),
            (Answer::ResultCache, Some(4), 2),
            (Answer::Shed, Some(8), 3),
            (Answer::Degraded, Some(9), 4),
        ];
        for (answer, counter, path) in cases {
            let s = ServeStats::new();
            s.answered(answer, Duration::from_micros(300));
            let snap = s.snapshot();
            let mut want = [0; 21];
            if let Some(i) = counter {
                want[i] = 1;
            }
            assert_eq!(counters(&snap), want, "{answer:?}");
            let mut want_paths = [0; 5];
            want_paths[path] = 1;
            let paths = [
                snap.model_latency_count,
                snap.fallback_latency_count,
                snap.cache_latency_count,
                snap.shed_latency_count,
                snap.degraded_latency_count,
            ];
            assert_eq!(paths, want_paths, "{answer:?}");
            assert_eq!(snap.latency_count, 1, "{answer:?}");
            assert_eq!(snap.p50_us, 512, "{answer:?}");
        }

        // The all-requests percentiles, read off the five path histograms,
        // equal those of one histogram that recorded every latency.
        let s = ServeStats::new();
        let one = Log2Histogram::default();
        let answers = [
            Answer::Model,
            Answer::Fallback(FallbackReason::Deadline),
            Answer::ResultCache,
            Answer::Shed,
            Answer::Degraded,
        ];
        for i in 0..500u64 {
            let latency = Duration::from_micros((i * 7919) % 100_000);
            s.answered(answers[(i % 5) as usize], latency);
            one.record(latency.as_micros() as u64);
        }
        let snap = s.snapshot();
        let all = one.buckets();
        assert_eq!(snap.latency_count, all.count());
        assert_eq!(snap.p50_us, all.quantile(0.50));
        assert_eq!(snap.p95_us, all.quantile(0.95));
        assert_eq!(snap.p99_us, all.quantile(0.99));
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
        // Degraded answers are a ledger term: two degraded requests close
        // two of the three open slots.
        s.degraded.fetch_add(2, Ordering::Relaxed);
        assert_eq!(s.snapshot().ledger_balance(), 1);
    }

    #[test]
    fn snapshot_reflects_counters() {
        let s = ServeStats::new();
        s.requests_total.fetch_add(3, Ordering::Relaxed);
        s.cache_hits.fetch_add(1, Ordering::Relaxed);
        s.fallbacks_deadline.fetch_add(2, Ordering::Relaxed);
        s.answered(Answer::Model, Duration::from_micros(10));
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
