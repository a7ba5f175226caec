//! Request broker: a worker pool fed by one `std::sync::mpsc` job queue
//! that micro-batches concurrent forecast requests, caches computed
//! interval tensors, and degrades to the NH historical-average baseline
//! instead of erroring.
//!
//! One model forward pass predicts the *full* OD tensor for every horizon
//! step, so all concurrent requests that share a `(t_end, horizon,
//! version)` key — no matter which OD pair they ask about — are collapsed
//! into a single invocation: the first request enqueues the computation
//! and later ones attach themselves as waiters (`batched_joins`) or hit
//! the finished cache entry (`cache_hits`).
//!
//! Every request carries a deadline. If the computation does not finish in
//! time, or no checkpoint has been promoted, or the feature window is not
//! available, the request is answered from the NH baseline
//! ([`stod_baselines::NaiveHistograms`]) — a valid, if less sharp,
//! forecast — and the reason is counted in [`crate::ServeStats`].

use crate::ingest::FeatureStore;
use crate::registry::Registry;
use crate::stats::{Answer, ServeStats};
use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use stod_baselines::NaiveHistograms;
use stod_faultline::FaultSite;
use stod_obs::sync::lock;
use stod_tensor::Tensor;

/// Broker tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct BrokerConfig {
    /// Worker threads executing model invocations.
    pub workers: usize,
    /// Historical intervals `s` fed to the model per invocation.
    pub lookback: usize,
    /// Computed interval tensors kept in the cache.
    pub cache_capacity: usize,
    /// Keep finished computations in the cache (`true`, the default).
    /// With `false` a finished job still answers every in-flight waiter
    /// but its result is dropped immediately, so each new arrival pays a
    /// fresh model invocation — the honest "no result cache" baseline
    /// (the benchmark's `serve_cold` workload runs it).
    pub retain_results: bool,
}

impl Default for BrokerConfig {
    fn default() -> BrokerConfig {
        BrokerConfig {
            // Reuse the kernel pool's sizing (STOD_THREADS / available
            // cores): request-level parallelism is the serving tier's
            // dominant axis, so the broker takes the whole budget and
            // each worker runs its kernels with a proportional share.
            workers: stod_tensor::par::num_threads(),
            lookback: 4,
            cache_capacity: 32,
            retain_results: true,
        }
    }
}

/// One forecast request: the histogram of OD pair `(origin, dest)` for
/// future step `step` (0-based) of a `horizon`-step forecast anchored at
/// the last observed interval `t_end`.
#[derive(Debug, Clone, Copy)]
pub struct ForecastRequest {
    /// Origin region id.
    pub origin: usize,
    /// Destination region id.
    pub dest: usize,
    /// Last observed (sealed) interval the forecast conditions on.
    pub t_end: usize,
    /// Number of future steps to predict in one invocation.
    pub horizon: usize,
    /// Which of those steps to return (`step < horizon`).
    pub step: usize,
    /// Time budget; on expiry the NH fallback answers instead.
    pub deadline: Duration,
}

/// Why a request was answered by the NH baseline instead of the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The deadline expired before the model invocation finished.
    Deadline,
    /// No checkpoint was promoted (or the broker is shutting down).
    NoModel,
    /// The feature store had no sealed tensor for `t_end`.
    NoFeatures,
    /// The worker computing this request's forecast panicked; the broker
    /// contained the panic and answered every waiter from the baseline.
    WorkerPanic,
}

/// Who produced a forecast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The promoted model, at this checkpoint version.
    Model {
        /// Registry version that computed the forecast.
        version: u32,
    },
    /// The NH historical-average baseline.
    Fallback(FallbackReason),
}

/// A served forecast.
#[derive(Debug, Clone)]
pub struct ServedForecast {
    /// Predicted speed histogram (`K` buckets, sums to 1).
    pub histogram: Vec<f32>,
    /// Model or fallback provenance.
    pub source: Source,
    /// End-to-end latency of this request.
    pub latency: Duration,
}

/// Cache/coalescing key: requests sharing it share one invocation. The
/// version is part of the key so a hot-swap never serves stale tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    t_end: usize,
    horizon: usize,
    version: u32,
}

/// A finished full-tensor computation (all horizon steps), shared between
/// the broker's coalescing cache, every waiter it answers, and — through
/// [`Broker::forecast_shared`] — the fleet-level forecast result cache.
pub struct ComputedForecast {
    /// Registry version that produced the predictions.
    pub version: u32,
    /// One `[1, N, N, K]` prediction tensor per horizon step.
    pub predictions: Vec<Tensor>,
}

impl ComputedForecast {
    /// The `(origin, dest)` speed histogram of horizon step `step`.
    pub fn pair_histogram(&self, origin: usize, dest: usize, step: usize) -> Vec<f32> {
        let pred = &self.predictions[step];
        let k = pred.dim(3);
        (0..k).map(|b| pred.at(&[0, origin, dest, b])).collect()
    }

    /// Approximate heap footprint of the prediction tensors, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.predictions
            .iter()
            .map(|t| std::mem::size_of_val(t.data()))
            .sum()
    }
}

type ComputeResult = Result<Arc<ComputedForecast>, FallbackReason>;

enum CacheEntry {
    /// Being computed; senders of requests waiting for the result.
    InFlight(Vec<SyncSender<ComputeResult>>),
    /// Finished; served straight from the cache.
    Done(ComputeResult),
}

struct Shared {
    registry: Arc<Registry>,
    features: Arc<FeatureStore>,
    fallback: NaiveHistograms,
    stats: Arc<ServeStats>,
    cfg: BrokerConfig,
    cache: Mutex<HashMap<Key, CacheEntry>>,
}

/// The serving broker. Cheap to share by reference across request
/// threads; dropping it shuts the worker pool down.
pub struct Broker {
    shared: Arc<Shared>,
    jobs: Option<Sender<Key>>,
    workers: Vec<JoinHandle<()>>,
}

impl Broker {
    /// Starts `cfg.workers` worker threads over the given registry,
    /// feature store and pre-fitted NH fallback.
    pub fn new(
        registry: Arc<Registry>,
        features: Arc<FeatureStore>,
        fallback: NaiveHistograms,
        stats: Arc<ServeStats>,
        cfg: BrokerConfig,
    ) -> Broker {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.cache_capacity >= 1, "need a non-empty cache");
        let shared = Arc::new(Shared {
            registry,
            features,
            fallback,
            stats,
            cfg,
            cache: Mutex::new(HashMap::new()),
        });
        let (jobs, job_rx) = mpsc::channel::<Key>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        // Split the kernel pool's thread budget across the workers so a
        // fully busy broker does not oversubscribe the machine: N workers
        // each run their model invocation on ~num_threads/N threads.
        // (Purely a scheduling choice — kernels are bitwise identical at
        // any thread count.)
        let kernel_threads = (stod_tensor::par::num_threads() / cfg.workers).max(1);
        let workers = (0..cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&job_rx);
                std::thread::spawn(move || Broker::worker_loop(&shared, &rx, kernel_threads))
            })
            .collect();
        Broker {
            shared,
            jobs: Some(jobs),
            workers,
        }
    }

    /// The NH fallback this broker answers with.
    pub fn fallback(&self) -> &NaiveHistograms {
        &self.shared.fallback
    }

    /// Serving statistics shared with this broker.
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Answers one forecast request, micro-batching with concurrent
    /// requests for the same key and falling back to NH on any failure.
    pub fn forecast(&self, req: ForecastRequest) -> ServedForecast {
        self.shared
            .stats
            .requests_total
            .fetch_add(1, Ordering::Relaxed);
        stod_obs::count("serve/requests", 1);
        self.forecast_shared(req).0
    }

    /// Like [`Broker::forecast`], but additionally hands back the shared
    /// full-tensor computation when the model answered, so a caller-side
    /// result cache (the fleet's `(city, t_end, horizon, version)` cache)
    /// can retain it without recomputing or copying.
    ///
    /// Does **not** increment `requests_total` — the caller owns request
    /// accounting (the plain [`Broker::forecast`] wrapper does it for the
    /// single-broker stack).
    pub fn forecast_shared(
        &self,
        req: ForecastRequest,
    ) -> (ServedForecast, Option<Arc<ComputedForecast>>) {
        let _span = stod_obs::span!("serve/forecast");
        let n = self.shared.features.num_regions();
        assert!(req.origin < n && req.dest < n, "region id out of range");
        assert!(req.step < req.horizon, "step must be < horizon");
        let start = Instant::now();

        let result = match self.shared.registry.active_version() {
            None => Err(FallbackReason::NoModel),
            Some(version) => {
                let key = Key {
                    t_end: req.t_end,
                    horizon: req.horizon,
                    version,
                };
                match self.join_or_enqueue(key) {
                    Joined::Ready(result) => result,
                    Joined::Wait(rx) => {
                        let remaining = req.deadline.saturating_sub(start.elapsed());
                        match rx.recv_timeout(remaining) {
                            // The deadline is enforced at hand-back, not
                            // just as a receive timeout: a computation that
                            // finishes after the budget — even if its result
                            // happens to be sitting in the channel already —
                            // is discarded in favor of the fallback. (The
                            // tensor still lands in the cache for later
                            // requests.)
                            Ok(_) if start.elapsed() > req.deadline => {
                                Err(FallbackReason::Deadline)
                            }
                            Ok(result) => result,
                            Err(RecvTimeoutError::Timeout) => Err(FallbackReason::Deadline),
                            Err(RecvTimeoutError::Disconnected) => Err(FallbackReason::NoModel),
                        }
                    }
                }
            }
        };

        let mut shared_result = None;
        let (histogram, source, answer) = match result {
            Ok(computed) => {
                let hist = computed.pair_histogram(req.origin, req.dest, req.step);
                let source = Source::Model {
                    version: computed.version,
                };
                shared_result = Some(computed);
                (hist, source, Answer::Model)
            }
            Err(reason) => (
                self.shared
                    .fallback
                    .pair_histogram(req.origin, req.dest)
                    .to_vec(),
                Source::Fallback(reason),
                Answer::Fallback(reason),
            ),
        };

        let latency = start.elapsed();
        self.shared.stats.answered(answer, latency);
        (
            ServedForecast {
                histogram,
                source,
                latency,
            },
            shared_result,
        )
    }

    /// Joins an in-flight computation, hits the cache, or becomes the
    /// leader that enqueues a new job.
    fn join_or_enqueue(&self, key: Key) -> Joined {
        // Each waiter gets its own one-slot reply channel, and the job
        // sends exactly one result into it, so that send never blocks.
        let (tx, rx) = mpsc::sync_channel::<ComputeResult>(1);
        {
            let mut cache = lock(&self.shared.cache);
            match cache.get_mut(&key) {
                Some(CacheEntry::Done(result)) => {
                    self.shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    stod_obs::count("serve/cache_hits", 1);
                    return Joined::Ready(result.clone());
                }
                Some(CacheEntry::InFlight(waiters)) => {
                    self.shared
                        .stats
                        .batched_joins
                        .fetch_add(1, Ordering::Relaxed);
                    stod_obs::count("serve/batched_joins", 1);
                    waiters.push(tx);
                    return Joined::Wait(rx);
                }
                None => {
                    cache.insert(key, CacheEntry::InFlight(vec![tx]));
                }
            }
        }
        // Leader path: hand the key to the worker pool. A send can only
        // fail during shutdown; surface that as the no-model fallback.
        // Depth is counted *before* the send: a worker may receive (and
        // dequeue) the key the instant it lands in the channel.
        self.shared.stats.job_enqueued();
        match self.jobs.as_ref().expect("broker running").send(key) {
            Ok(()) => Joined::Wait(rx),
            Err(_) => {
                self.shared.stats.job_dequeued();
                lock(&self.shared.cache).remove(&key);
                Joined::Ready(Err(FallbackReason::NoModel))
            }
        }
    }

    /// One worker's supervisor: receives keys and executes jobs until the
    /// job channel closes. A panic inside a job — injected by the chaos
    /// harness or a genuine model bug — must not take the worker (and with
    /// it a share of the pool's capacity) down, and must not strand the
    /// requests waiting on the in-flight entry until their deadlines
    /// expire. The supervisor contains the panic with `catch_unwind`,
    /// fails the poisoned job so every waiter is answered immediately from
    /// the NH baseline, records the panic + respawn in the ledger, and
    /// starts a fresh worker incarnation on the same OS thread.
    fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<Key>>, kernel_threads: usize) {
        loop {
            // The key being executed when a panic unwinds; `Cell` because
            // the catch_unwind closure only gets a shared borrow.
            let current = Cell::new(None::<Key>);
            let run = catch_unwind(AssertUnwindSafe(|| {
                // The workers share one receiver. This worker holds its
                // lock only while it waits for a key, never while a job
                // runs, so an idle worker can take the next key.
                while let Some(key) = Broker::next_job(rx) {
                    current.set(Some(key));
                    shared.stats.job_dequeued();
                    stod_tensor::par::with_threads(kernel_threads, || {
                        Broker::run_job(shared, key);
                    });
                    current.set(None);
                }
            }));
            match run {
                // Channel closed: clean shutdown.
                Ok(()) => return,
                Err(_) => {
                    shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                    stod_obs::count("serve/worker_panics", 1);
                    if let Some(key) = current.get() {
                        Broker::fail_job(shared, key);
                    }
                    shared.stats.respawns.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// The next queued key, or `None` once the job channel has closed. The
    /// receiver's guard drops on return, before the caller runs the job.
    fn next_job(rx: &Mutex<Receiver<Key>>) -> Option<Key> {
        lock(rx).recv().ok()
    }

    /// Fails an in-flight computation after a worker panic: removes the
    /// cache entry (so a later request can recompute the key) and answers
    /// every waiter with the worker-panic fallback instead of leaving them
    /// to ride out their deadlines.
    fn fail_job(shared: &Shared, key: Key) {
        let waiters = {
            let mut cache = lock(&shared.cache);
            match cache.remove(&key) {
                Some(CacheEntry::InFlight(waiters)) => waiters,
                Some(done @ CacheEntry::Done(_)) => {
                    // The job already published its result; the panic came
                    // later (e.g. while fanning out). Keep the result.
                    cache.insert(key, done);
                    Vec::new()
                }
                None => Vec::new(),
            }
        };
        for waiter in waiters {
            let _ = waiter.send(Err(FallbackReason::WorkerPanic));
        }
    }

    /// Executes one keyed computation on a worker thread and fans the
    /// result out to every waiter.
    fn run_job(shared: &Shared, key: Key) {
        let _span = stod_obs::span!("serve/job");
        // Chaos injection points, evaluated with no locks held. The stall
        // drives requests onto the deadline-miss path; the panic is
        // contained by `worker_loop`'s supervisor.
        if let Some(ms) = stod_faultline::fire(FaultSite::SlowWorker) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        if stod_faultline::fire(FaultSite::WorkerPanic).is_some() {
            panic!("injected broker-worker panic (stod-faultline)");
        }
        let result: ComputeResult = match shared.registry.get(key.version) {
            None => Err(FallbackReason::NoModel),
            Some(model) => {
                match shared
                    .features
                    .window_inputs(key.t_end, shared.cfg.lookback)
                {
                    None => Err(FallbackReason::NoFeatures),
                    Some(inputs) => {
                        let predictions = model.forecast(&inputs, key.horizon);
                        shared
                            .stats
                            .model_invocations
                            .fetch_add(1, Ordering::Relaxed);
                        stod_obs::count("serve/model_invocations", 1);
                        Ok(Arc::new(ComputedForecast {
                            version: key.version,
                            predictions,
                        }))
                    }
                }
            }
        };
        // A job that completed without invoking the model (no promoted
        // version, missing feature window) closes its leader's slot in the
        // request-conservation ledger: requests = model_invocations +
        // failed_jobs + worker_panics + batched_joins + cache_hits (+ the
        // fleet-level result-cache hits and sheds).
        if result.is_err() {
            shared.stats.failed_jobs.fetch_add(1, Ordering::Relaxed);
            stod_obs::count("serve/failed_jobs", 1);
        }
        let waiters = {
            let mut cache = lock(&shared.cache);
            let waiters = if shared.cfg.retain_results {
                match cache.insert(key, CacheEntry::Done(result.clone())) {
                    Some(CacheEntry::InFlight(waiters)) => waiters,
                    _ => Vec::new(),
                }
            } else {
                // No-retention mode: answer the in-flight waiters, then
                // forget the computation so the next arrival recomputes.
                match cache.remove(&key) {
                    Some(CacheEntry::InFlight(waiters)) => waiters,
                    _ => Vec::new(),
                }
            };
            // Evict oldest finished entries beyond capacity; in-flight
            // entries are never evicted (their waiters must be answered).
            while cache.len() > shared.cfg.cache_capacity {
                let oldest = cache
                    .iter()
                    .filter(|(k, e)| matches!(e, CacheEntry::Done(_)) && **k != key)
                    .map(|(k, _)| *k)
                    .min_by_key(|k| k.t_end);
                match oldest {
                    Some(k) => cache.remove(&k),
                    None => break,
                };
            }
            waiters
        };
        // The fan-out width is the micro-batch size this job answered:
        // the leader plus every request that joined while it was in flight.
        shared.stats.batch_sizes.record(waiters.len() as u64);
        stod_obs::observe("serve/batch_size", waiters.len() as u64);
        for waiter in waiters {
            let _ = waiter.send(result.clone());
        }
    }
}

enum Joined {
    /// The result is already available.
    Ready(ComputeResult),
    /// Wait on this receiver (bounded by the request deadline).
    Wait(Receiver<ComputeResult>),
}

impl Drop for Broker {
    fn drop(&mut self) {
        // Closing the job channel stops the workers after the jobs already
        // queued; waiters of any remaining in-flight entries see their
        // sender side dropped and fall back.
        self.jobs = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ModelConfig, ModelKind};
    use stod_core::BfConfig;
    use stod_nn::ParamStore;
    use stod_traffic::{CityModel, HistogramSpec, OdDataset, SimConfig, Trip};

    const N: usize = 4;
    const LOOKBACK: usize = 2;

    fn dataset() -> OdDataset {
        let cfg = SimConfig {
            num_days: 1,
            intervals_per_day: 16,
            trips_per_interval: 80.0,
            ..SimConfig::small(11)
        };
        OdDataset::generate(CityModel::small(N), &cfg)
    }

    fn serving_stack(promote: bool) -> (Broker, Arc<ServeStats>) {
        let ds = dataset();
        let stats = Arc::new(ServeStats::new());
        let config = ModelConfig {
            kind: ModelKind::Bf(BfConfig {
                encode_dim: 8,
                gru_hidden: 8,
                ..BfConfig::default()
            }),
            centroids: ds.city.centroids(),
            num_buckets: ds.spec.num_buckets,
        };
        let registry = Arc::new(Registry::new(config.clone(), Arc::clone(&stats)));
        if promote {
            let model = config.build(1);
            let store = ParamStore::from_bytes(model.params().to_bytes()).unwrap();
            let v = registry.register_store(store).unwrap();
            registry.promote(v).unwrap();
        }
        let features = Arc::new(FeatureStore::new(N, ds.spec, 8));
        for t in 0..8 {
            features.insert_tensor(t, ds.tensors[t].clone());
        }
        let fallback = NaiveHistograms::fit(&ds, 8);
        let cfg = BrokerConfig {
            workers: 2,
            lookback: LOOKBACK,
            cache_capacity: 4,
            ..BrokerConfig::default()
        };
        (
            Broker::new(registry, features, fallback, stats.clone(), cfg),
            stats,
        )
    }

    fn req(t_end: usize) -> ForecastRequest {
        ForecastRequest {
            origin: 0,
            dest: 1,
            t_end,
            horizon: 2,
            step: 0,
            deadline: Duration::from_secs(30),
        }
    }

    fn assert_valid_hist(h: &[f32]) {
        assert_eq!(h.len(), 7);
        let sum: f32 = h.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "histogram sums to {sum}");
        assert!(h.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn model_answers_within_deadline() {
        let (broker, stats) = serving_stack(true);
        let fc = broker.forecast(req(5));
        assert!(matches!(fc.source, Source::Model { version: 1 }));
        assert_valid_hist(&fc.histogram);
        let snap = stats.snapshot();
        assert_eq!(snap.requests_total, 1);
        assert_eq!(snap.model_invocations, 1);
        assert_eq!(snap.fallbacks_total(), 0);
    }

    #[test]
    fn repeat_requests_hit_cache() {
        let (broker, stats) = serving_stack(true);
        broker.forecast(req(5));
        let second = broker.forecast(req(5));
        assert!(matches!(second.source, Source::Model { .. }));
        let snap = stats.snapshot();
        assert_eq!(
            snap.model_invocations, 1,
            "second request must not recompute"
        );
        assert_eq!(snap.cache_hits, 1);
    }

    #[test]
    fn forecast_shared_hands_back_the_cached_tensors() {
        let (broker, _stats) = serving_stack(true);
        let (fc, shared) = broker.forecast_shared(req(5));
        assert!(matches!(fc.source, Source::Model { version: 1 }));
        let shared = shared.expect("model answers carry the shared tensors");
        assert_eq!(shared.version, 1);
        assert_eq!(shared.predictions.len(), 2);
        assert_eq!(
            shared.pair_histogram(0, 1, 0),
            fc.histogram,
            "shared tensors must agree with the served histogram bitwise"
        );
        assert!(shared.approx_bytes() > 0);
    }

    #[test]
    fn no_retention_recomputes_every_arrival() {
        let ds = dataset();
        let stats = Arc::new(ServeStats::new());
        let config = ModelConfig {
            kind: ModelKind::Bf(BfConfig {
                encode_dim: 8,
                gru_hidden: 8,
                ..BfConfig::default()
            }),
            centroids: ds.city.centroids(),
            num_buckets: ds.spec.num_buckets,
        };
        let registry = Arc::new(Registry::new(config.clone(), Arc::clone(&stats)));
        let model = config.build(1);
        let store = ParamStore::from_bytes(model.params().to_bytes()).unwrap();
        let v = registry.register_store(store).unwrap();
        registry.promote(v).unwrap();
        let features = Arc::new(FeatureStore::new(N, ds.spec, 8));
        for t in 0..8 {
            features.insert_tensor(t, ds.tensors[t].clone());
        }
        let fallback = NaiveHistograms::fit(&ds, 8);
        let broker = Broker::new(
            registry,
            features,
            fallback,
            stats.clone(),
            BrokerConfig {
                workers: 1,
                lookback: LOOKBACK,
                cache_capacity: 4,
                retain_results: false,
            },
        );
        let first = broker.forecast(req(5));
        let second = broker.forecast(req(5));
        assert!(matches!(first.source, Source::Model { .. }));
        assert!(matches!(second.source, Source::Model { .. }));
        assert_eq!(
            first.histogram, second.histogram,
            "recomputation must be deterministic"
        );
        let snap = stats.snapshot();
        assert_eq!(
            snap.model_invocations, 2,
            "without retention every sequential arrival recomputes"
        );
        assert_eq!(snap.cache_hits, 0);
        assert_eq!(snap.ledger_balance(), 0);
    }

    #[test]
    fn no_model_falls_back_to_nh() {
        let (broker, stats) = serving_stack(false);
        let fc = broker.forecast(req(5));
        assert_eq!(fc.source, Source::Fallback(FallbackReason::NoModel));
        assert_valid_hist(&fc.histogram);
        assert_eq!(stats.snapshot().fallbacks_no_model, 1);
    }

    #[test]
    fn unsealed_interval_falls_back_to_nh() {
        let (broker, stats) = serving_stack(true);
        let fc = broker.forecast(req(99));
        assert_eq!(fc.source, Source::Fallback(FallbackReason::NoFeatures));
        assert_valid_hist(&fc.histogram);
        assert_eq!(stats.snapshot().fallbacks_no_features, 1);
    }

    #[test]
    fn zero_deadline_falls_back_to_nh() {
        let (broker, stats) = serving_stack(true);
        let fc = broker.forecast(ForecastRequest {
            deadline: Duration::ZERO,
            ..req(5)
        });
        assert_eq!(fc.source, Source::Fallback(FallbackReason::Deadline));
        assert_valid_hist(&fc.histogram);
        assert_eq!(stats.snapshot().fallbacks_deadline, 1);
    }

    #[test]
    fn concurrent_identical_requests_share_one_invocation() {
        let (broker, stats) = serving_stack(true);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| broker.forecast(req(6))))
                .collect();
            for h in handles {
                let fc = h.join().unwrap();
                assert!(matches!(fc.source, Source::Model { .. }));
                assert_valid_hist(&fc.histogram);
            }
        });
        let snap = stats.snapshot();
        assert_eq!(snap.requests_total, 4);
        assert_eq!(
            snap.model_invocations, 1,
            "4 identical requests, 1 forward pass"
        );
        assert_eq!(
            snap.batched_joins + snap.cache_hits,
            3,
            "the 3 followers must have joined or hit the cache"
        );
    }

    #[test]
    fn different_pairs_same_interval_share_one_invocation() {
        let (broker, stats) = serving_stack(true);
        for (o, d) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            let fc = broker.forecast(ForecastRequest {
                origin: o,
                dest: d,
                ..req(7)
            });
            assert!(matches!(fc.source, Source::Model { .. }));
        }
        assert_eq!(stats.snapshot().model_invocations, 1);
    }

    #[test]
    fn trips_streamed_live_can_be_served() {
        let ds = dataset();
        let stats = Arc::new(ServeStats::new());
        let config = ModelConfig {
            kind: ModelKind::Bf(BfConfig {
                encode_dim: 8,
                gru_hidden: 8,
                ..BfConfig::default()
            }),
            centroids: ds.city.centroids(),
            num_buckets: ds.spec.num_buckets,
        };
        let registry = Arc::new(Registry::new(config.clone(), Arc::clone(&stats)));
        let model = config.build(2);
        let v = registry
            .register_store(ParamStore::from_bytes(model.params().to_bytes()).unwrap())
            .unwrap();
        registry.promote(v).unwrap();
        let features = Arc::new(FeatureStore::new(N, HistogramSpec::paper(), 4));
        for t in 0..3 {
            for o in 0..N {
                features
                    .push_trip(Trip {
                        origin: o,
                        dest: (o + 1) % N,
                        interval: t,
                        distance_km: 2.0,
                        speed_ms: 8.0,
                    })
                    .unwrap();
            }
            assert_eq!(features.seal_interval(t), N);
        }
        let fallback = NaiveHistograms::fit(&ds, 8);
        let cfg = BrokerConfig {
            workers: 1,
            lookback: LOOKBACK,
            cache_capacity: 4,
            ..BrokerConfig::default()
        };
        let broker = Broker::new(registry, features, fallback, stats, cfg);
        let fc = broker.forecast(req(2));
        assert!(matches!(fc.source, Source::Model { .. }));
        assert_valid_hist(&fc.histogram);
    }
}
