//! One tenant's serving stack: registry, broker, sliding-window ingest.
//!
//! A [`Shard`] owns everything request processing for one city needs —
//! its own versioned [`Registry`], its own [`Broker`] worker pool, its
//! own [`FeatureStore`] fed by that city's trip stream, its own NH
//! fallback, and its own [`ServeStats`] — so tenants are isolated by
//! construction: a worker panic, a queue pile-up, or a hot-swap in one
//! city cannot touch another city's pipeline. The only things shards
//! share are the fleet-level result cache and the process-wide kernel
//! thread pool, both of which are tenant-attributed by the router.

use crate::breaker::{BreakerConfig, CircuitBreaker};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use stod_baselines::NaiveHistograms;
use stod_nn::ParamStore;
use stod_serve::{
    Broker, BrokerConfig, FeatureStore, IngestError, ModelConfig, Registry, RegistryError,
    ServeStats, TripWal, WalRecord, WalStats,
};
use stod_traffic::{HistogramSpec, Trip};

/// Per-shard serving knobs (the fleet-level ones live in
/// [`crate::FleetConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Broker worker threads per shard.
    pub workers: usize,
    /// Historical intervals `s` fed to the model per invocation.
    pub lookback: usize,
    /// Sealed intervals the feature store retains (≥ `lookback`).
    pub window_capacity: usize,
    /// The broker's internal coalescing-cache capacity.
    pub broker_cache_capacity: usize,
    /// Whether the broker retains finished computations (see
    /// [`BrokerConfig::retain_results`]); `false` is the honest
    /// no-result-cache baseline.
    pub retain_results: bool,
    /// Circuit-breaker tuning (threshold, backoff, jitter seed).
    pub breaker: BreakerConfig,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            workers: 2,
            lookback: 4,
            window_capacity: 32,
            broker_cache_capacity: 32,
            retain_results: true,
            breaker: BreakerConfig::default(),
        }
    }
}

/// One city's complete serving stack.
pub struct Shard {
    city_id: usize,
    name: String,
    registry: Arc<Registry>,
    features: Arc<FeatureStore>,
    stats: Arc<ServeStats>,
    /// Owns the shard's one NH fallback, which also answers shed and
    /// degraded requests.
    broker: Broker,
    /// This tenant's circuit breaker; the router consults it between the
    /// shed check and broker dispatch.
    breaker: CircuitBreaker,
    /// The write-ahead trip log, when the fleet was built durable.
    wal: Option<TripWal>,
    /// Set by the `ShardCrash` fault injection: the in-memory window was
    /// wiped in place. Cleared by [`Shard::rebuild_from_wal`].
    crashed: AtomicBool,
}

impl Shard {
    /// Builds a shard: fresh per-tenant stats (its exact ledger, read
    /// through `Fleet::snapshot`), registry, feature store, and a running
    /// broker worker pool.
    pub fn new(
        city_id: usize,
        name: String,
        model: ModelConfig,
        spec: HistogramSpec,
        fallback: NaiveHistograms,
        cfg: &ShardConfig,
    ) -> Shard {
        assert!(
            cfg.window_capacity >= cfg.lookback,
            "feature window must hold at least the lookback"
        );
        let stats = Arc::new(ServeStats::new());
        let num_regions = model.num_regions();
        let registry = Arc::new(Registry::new(model, Arc::clone(&stats)));
        let features = Arc::new(FeatureStore::new(num_regions, spec, cfg.window_capacity));
        let broker = Broker::new(
            Arc::clone(&registry),
            Arc::clone(&features),
            fallback,
            Arc::clone(&stats),
            BrokerConfig {
                workers: cfg.workers,
                lookback: cfg.lookback,
                cache_capacity: cfg.broker_cache_capacity,
                retain_results: cfg.retain_results,
            },
        );
        // Each shard jitters its probe backoffs differently (seed is
        // city-salted) so a fleet-wide incident doesn't synchronize every
        // tenant's probes, while any single shard stays deterministic.
        let breaker = CircuitBreaker::with_gauge(
            BreakerConfig {
                seed: cfg.breaker.seed ^ city_id as u64,
                ..cfg.breaker
            },
            Some(stod_obs::intern(&format!(
                "fleet/shard{city_id}/breaker_state"
            ))),
        );
        Shard {
            city_id,
            name,
            registry,
            features,
            stats,
            broker,
            breaker,
            wal: None,
            crashed: AtomicBool::new(false),
        }
    }

    /// Tenant id (dense, 0-based; the fleet routes on it).
    pub fn city_id(&self) -> usize {
        self.city_id
    }

    /// Human-readable tenant name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of regions `N` of this city.
    pub fn num_regions(&self) -> usize {
        self.features.num_regions()
    }

    /// This shard's stats (shared with its registry and broker).
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.stats
    }

    /// This shard's checkpoint registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// This shard's broker.
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// Current broker queue depth (jobs enqueued or executing).
    pub fn queue_depth(&self) -> u64 {
        self.stats.queue_depth.load(Ordering::Relaxed)
    }

    /// The shard's NH answer for a pair — the shed and degraded paths.
    pub fn shed_histogram(&self, origin: usize, dest: usize) -> Vec<f32> {
        self.broker.fallback().pair_histogram(origin, dest).to_vec()
    }

    /// Registers and promotes a checkpoint in one step, returning the new
    /// active version. (Result-cache invalidation is the fleet's job —
    /// use [`crate::Fleet::hot_swap`] unless the shard is cache-less.)
    pub fn install_checkpoint(&self, store: ParamStore) -> Result<u32, RegistryError> {
        let version = self.registry.register_store(store)?;
        self.registry.promote(version)?;
        Ok(version)
    }

    /// This shard's circuit breaker.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Attaches a write-ahead log; every subsequent accepted
    /// `ingest_trip` / `seal_interval` is also appended to it. Called by
    /// the fleet's durable constructors before the shard serves traffic.
    pub(crate) fn set_wal(&mut self, wal: TripWal) {
        self.wal = Some(wal);
    }

    /// The WAL's counters, when this shard is durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(TripWal::stats)
    }

    /// True when a torn write killed the WAL handle: in-memory serving
    /// continues, but nothing after the tear is durable — the honest
    /// state a restart will recover to.
    pub fn wal_dead(&self) -> bool {
        self.wal.as_ref().is_some_and(TripWal::is_dead)
    }

    /// Sealed intervals currently held in the sliding window.
    pub fn sealed_intervals(&self) -> usize {
        self.features.len()
    }

    /// True after a `ShardCrash` injection wiped the in-memory window.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// Crashes this shard in place: the ingest window is wiped (exactly
    /// what a process kill loses) and the breaker is force-opened so the
    /// router serves degraded until a probe triggers
    /// [`Shard::rebuild_from_wal`].
    pub fn simulate_crash(&self) {
        self.features.clear();
        self.crashed.store(true, Ordering::Relaxed);
        self.breaker.trip_now();
    }

    /// Replays the WAL into the (wiped) feature store — the self-healing
    /// path after [`Shard::simulate_crash`]. Returns `true` when a WAL
    /// existed and the window was rebuilt.
    pub fn rebuild_from_wal(&self) -> bool {
        let Some(wal) = &self.wal else {
            return false;
        };
        let Ok(records) = wal.replay_records() else {
            return false;
        };
        self.features.clear();
        self.apply_wal_records(&records);
        self.crashed.store(false, Ordering::Relaxed);
        true
    }

    /// Applies replayed WAL records to the feature store *without*
    /// re-logging them. Records were validated before they were ever
    /// logged, so validation failures here are impossible by construction
    /// (and ignored defensively rather than poisoning the replay).
    pub(crate) fn apply_wal_records(&self, records: &[WalRecord]) {
        for rec in records {
            match rec {
                WalRecord::Push(trip) => {
                    let _ = self.features.push_trip(*trip);
                }
                WalRecord::Seal(t) => {
                    self.features.seal_interval(*t as usize);
                }
            }
        }
    }

    /// Streams one trip into the feature store's open interval.
    ///
    /// Order is apply-then-log: the store validates and buffers the trip
    /// first, then the accepted record is appended to the WAL (rejected
    /// trips never reach the log, so a replay cannot re-poison the
    /// window). A WAL append failure does not un-ingest the trip —
    /// serving continues from memory — but the handle goes dead and
    /// [`Shard::wal_dead`] / `Fleet::health()` surface that durability
    /// stopped at that instant.
    pub fn ingest_trip(&self, trip: Trip) -> Result<(), IngestError> {
        self.features.push_trip(trip)?;
        if let Some(wal) = &self.wal {
            let _ = wal.append_push(&trip);
        }
        Ok(())
    }

    /// A consistent, interval-aligned read-snapshot of this shard's sealed
    /// ingest window (see [`stod_serve::IngestSnapshot`]): the adaptation
    /// pipeline's training-data source. Safe to take while the live feed
    /// keeps pushing trips — open intervals are excluded by construction,
    /// so no torn reads. Returns `None` before the first seal.
    pub fn ingest_snapshot(&self) -> Option<stod_serve::IngestSnapshot> {
        self.features.snapshot_window()
    }

    /// Closes an interval, binning its buffered trips into the sliding
    /// window; returns how many trips were binned. Logged to the WAL
    /// after the in-memory seal (same contract as [`Shard::ingest_trip`]).
    pub fn seal_interval(&self, t: usize) -> usize {
        let n = self.features.seal_interval(t);
        if let Some(wal) = &self.wal {
            let _ = wal.append_seal(t);
        }
        n
    }
}
