//! The fleet router: per-request flow across tenant shards.
//!
//! Every request walks the same three-stage gauntlet, cheapest first:
//!
//! 1. **Result cache** — look up `(city, t_end, horizon, active_version)`
//!    in the fleet-wide [`ForecastCache`]; a hit answers in microseconds
//!    without touching the shard's broker at all.
//! 2. **Admission control** — on a miss, check the shard's broker queue
//!    depth; at or beyond `shed_depth` the request is *shed*: answered
//!    immediately from the shard's NH baseline with the typed
//!    [`FleetSource::Shed`] outcome rather than queued past its deadline.
//!    The check runs after the cache lookup on purpose — a deep queue is
//!    no reason to refuse a request the cache can answer.
//! 3. **Circuit breaker** — each shard carries a
//!    [`CircuitBreaker`](crate::breaker::CircuitBreaker); while it is
//!    open the request is answered *degraded* from the NH baseline with
//!    the typed [`FleetSource::Degraded`] outcome instead of being fed to
//!    a shard that keeps panicking or missing deadlines. A half-open
//!    breaker admits exactly one probe — and if a crash injection wiped
//!    the shard's window, the probe first rebuilds it from the
//!    write-ahead log ([`Shard::rebuild_from_wal`]).
//! 4. **Broker** — dispatch through [`Broker::forecast_shared`](stod_serve::Broker::forecast_shared)
//!    (coalescing, deadline, fallback semantics unchanged from
//!    `stod-serve`); when the model answered, the shared full-tensor
//!    result is inserted into the cache for every later request. The
//!    outcome feeds back into the breaker: a model answer (or an honest
//!    no-model / no-features fallback) counts as success, a worker panic
//!    or deadline miss as failure.
//!
//! Each stage increments exactly one ledger counter, keeping the per-shard
//! request-conservation invariant (see [`StatsSnapshot::ledger_balance`])
//! exact under arbitrary concurrency.
//!
//! Durable fleets ([`Fleet::from_replay_durable`]) additionally append
//! every accepted trip and seal to a per-shard write-ahead log;
//! [`Fleet::recover`] rebuilds the same fleet after a crash by replaying
//! those logs and scrubbing every registry checkpoint.

use crate::breaker::{Admission, BreakerSnapshot, BreakerState};
use crate::cache::{CacheKey, ForecastCache};
use crate::config::FleetConfig;
use crate::shard::{Shard, ShardConfig};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use stod_baselines::NaiveHistograms;
use stod_faultline::FaultSite;
use stod_nn::ParamStore;
use stod_obs::json::{self, ToJson};
use stod_serve::{
    Answer, FallbackReason, ForecastRequest, ModelConfig, ModelKind, RegistryError, ScrubReport,
    Source, StatsSnapshot, TripWal, WalConfig, WalStats,
};
use stod_traffic::FleetCity;

/// One fleet request: a [`ForecastRequest`] plus the tenant to route to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetRequest {
    /// Tenant (shard) id.
    pub city: usize,
    /// Origin region id (within the city).
    pub origin: usize,
    /// Destination region id (within the city).
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

/// Who answered a fleet request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetSource {
    /// The fleet result cache, at this checkpoint version.
    ResultCache {
        /// Version of the cached forecast (always the active one — stale
        /// versions are structurally unreachable).
        version: u32,
    },
    /// The shard's model, at this checkpoint version.
    Model {
        /// Registry version that computed the forecast.
        version: u32,
    },
    /// The shard's NH baseline, for a broker-level reason.
    Fallback(FallbackReason),
    /// Admission control shed the request (queue beyond `shed_depth`);
    /// answered from the NH baseline.
    Shed,
    /// The shard's circuit breaker was open (repeated worker panics,
    /// deadline misses, or an in-place crash); answered from the NH
    /// baseline. Distinct from [`FleetSource::Shed`] so dashboards can
    /// tell "overloaded" from "broken".
    Degraded,
}

/// A served fleet forecast.
#[derive(Debug, Clone)]
pub struct FleetForecast {
    /// Tenant that answered.
    pub city: usize,
    /// Predicted speed histogram (`K` buckets, sums to 1).
    pub histogram: Vec<f32>,
    /// Which path answered.
    pub source: FleetSource,
    /// End-to-end latency of this request.
    pub latency: Duration,
}

/// The serving fleet: a router over per-city shards plus the shared
/// result cache.
pub struct Fleet {
    shards: Vec<Shard>,
    cache: Option<ForecastCache>,
    shed_depth: usize,
}

impl Fleet {
    /// Assembles a fleet from already-built shards. Shard `i` must carry
    /// `city_id == i` (requests route by index), and the shard count must
    /// match `cfg.shards` — a mismatch means the configuration and the
    /// actual fleet disagree, which would silently skew every per-shard
    /// number the harness reports.
    pub fn new(cfg: &FleetConfig, shards: Vec<Shard>) -> Fleet {
        assert_eq!(
            shards.len(),
            cfg.shards,
            "fleet has {} shards but the configuration says {}",
            shards.len(),
            cfg.shards
        );
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(shard.city_id(), i, "shard ids must be dense and ordered");
        }
        Fleet {
            shards,
            cache: cfg
                .cache_enabled
                .then(|| ForecastCache::new(cfg.cache_capacity)),
            shed_depth: cfg.shed_depth,
        }
    }

    /// Builds a fleet over a replayed city set (see
    /// [`stod_traffic::generate_fleet`]): one shard per city with the
    /// architecture `kind(city_id)` chooses, a freshly-initialized
    /// checkpoint (seeded `checkpoint_seed ^ city_id`) registered and
    /// promoted, the NH fallback fitted on the city's full dataset, and
    /// every interval's trips replayed through the live-ingest path
    /// (`push_trip` + `seal_interval`) — the offline tensors are never
    /// copied in, so serving conditions on exactly what a production feed
    /// would have delivered.
    pub fn from_replay(
        cfg: &FleetConfig,
        cities: &[FleetCity],
        shard_cfg: &ShardConfig,
        kind: impl Fn(usize) -> ModelKind,
        checkpoint_seed: u64,
    ) -> Fleet {
        let shards = cities
            .iter()
            .map(|city| {
                let shard = build_shard(city, shard_cfg, &kind, checkpoint_seed);
                replay_city(&shard, city);
                shard
            })
            .collect();
        Fleet::new(cfg, shards)
    }

    /// [`Fleet::from_replay`] with a write-ahead trip log attached to
    /// every shard *before* the dataset replays, so the full ingest
    /// stream is durable from the first trip. Expects fresh (or empty)
    /// log directories — replaying a dataset on top of surviving WAL
    /// records would double-count, so a non-empty log is a typed error
    /// pointing at [`Fleet::recover`] instead.
    pub fn from_replay_durable(
        cfg: &FleetConfig,
        cities: &[FleetCity],
        shard_cfg: &ShardConfig,
        kind: impl Fn(usize) -> ModelKind,
        checkpoint_seed: u64,
        durability: &DurabilityConfig,
    ) -> io::Result<Fleet> {
        let mut shards = Vec::with_capacity(cities.len());
        for city in cities {
            let mut shard = build_shard(city, shard_cfg, &kind, checkpoint_seed);
            let (wal, replay) = TripWal::open(
                &durability.shard_dir(city.city_id),
                city.city_id as u32,
                shard_cfg.window_capacity,
                durability.wal,
            )?;
            if !replay.records.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "WAL dir for shard {} already holds {} records; use Fleet::recover",
                        city.city_id,
                        replay.records.len()
                    ),
                ));
            }
            shard.set_wal(wal);
            replay_city(&shard, city);
            shards.push(shard);
        }
        Ok(Fleet::new(cfg, shards))
    }

    /// Rebuilds a durable fleet after a crash (or a clean shutdown — the
    /// two are indistinguishable on purpose). Shards are constructed
    /// exactly as [`Fleet::from_replay_durable`] built them — same model
    /// architectures, same seeded base checkpoint — but the ingest window
    /// is rebuilt from the write-ahead log instead of the dataset:
    /// everything the WAL made durable before the kill comes back
    /// bitwise, everything after the last fsync is honestly gone. Every
    /// registry is then scrubbed ([`Registry::scrub`]) so a checkpoint
    /// that bit-rotted while the process was down can never serve.
    ///
    /// [`Registry::scrub`]: stod_serve::Registry::scrub
    pub fn recover(
        cfg: &FleetConfig,
        cities: &[FleetCity],
        shard_cfg: &ShardConfig,
        kind: impl Fn(usize) -> ModelKind,
        checkpoint_seed: u64,
        durability: &DurabilityConfig,
    ) -> io::Result<(Fleet, RecoveryReport)> {
        let started = Instant::now();
        let mut shards = Vec::with_capacity(cities.len());
        let mut recovered = Vec::with_capacity(cities.len());
        for city in cities {
            let shard_started = Instant::now();
            let mut shard = build_shard(city, shard_cfg, &kind, checkpoint_seed);
            let (wal, replay) = TripWal::open(
                &durability.shard_dir(city.city_id),
                city.city_id as u32,
                shard_cfg.window_capacity,
                durability.wal,
            )?;
            shard.apply_wal_records(&replay.records);
            shard.set_wal(wal);
            let scrub = shard.registry().scrub();
            if stod_obs::armed() {
                stod_obs::observe_duration("fleet/recovery_time/shard", shard_started.elapsed());
            }
            recovered.push(ShardRecovery {
                city: city.city_id,
                replayed: replay.records.len(),
                truncated_tails: replay.truncated_tails,
                segments: replay.segments,
                scrub,
            });
            shards.push(shard);
        }
        if stod_obs::armed() {
            stod_obs::observe_duration("fleet/recovery_time", started.elapsed());
        }
        Ok((
            Fleet::new(cfg, shards),
            RecoveryReport { shards: recovered },
        ))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard by tenant id.
    pub fn shard(&self, city: usize) -> &Shard {
        &self.shards[city]
    }

    /// The result cache, when enabled.
    pub fn cache(&self) -> Option<&ForecastCache> {
        self.cache.as_ref()
    }

    /// Registers a checkpoint on one shard and [activates](Fleet::activate)
    /// it, returning the new version.
    pub fn hot_swap(&self, city: usize, store: ParamStore) -> Result<u32, RegistryError> {
        let version = self.shards[city].registry().register_store(store)?;
        self.activate(city, version)?;
        Ok(version)
    }

    /// Promotes an *already registered* version on one shard — the
    /// adaptation pipeline's swap step after its candidate cleared shadow
    /// evaluation (the candidate was registered earlier, through the
    /// checkpoint-validation path), and its rollback, which promotes the
    /// older, immutable version again — then invalidates that tenant's stale
    /// result-cache entries. The version is part of the cache key, so
    /// stale entries were already unreachable the instant the promotion
    /// landed; invalidation here reclaims their memory and records the
    /// count in the tenant's `result_cache_invalidations`.
    pub fn activate(&self, city: usize, version: u32) -> Result<(), RegistryError> {
        self.shards[city].registry().promote(version)?;
        if let Some(cache) = &self.cache {
            let dropped = cache.invalidate_city_except(city, version);
            if !dropped.is_empty() {
                self.shards[city]
                    .stats()
                    .result_cache_invalidations
                    .fetch_add(dropped.len() as u64, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Answers one request: result cache, then admission control, then the
    /// shard's broker.
    pub fn forecast(&self, req: FleetRequest) -> FleetForecast {
        let start = Instant::now();
        let shard = &self.shards[req.city];
        let stats = shard.stats();
        stats.requests_total.fetch_add(1, Ordering::Relaxed);
        stod_obs::count("fleet/requests", 1);
        // The router's own answers (cache hit, shed, degraded) are booked
        // here; the broker books the model and fallback answers.
        let reply = |answer: Answer, histogram: Vec<f32>, source: FleetSource| {
            let latency = start.elapsed();
            stats.answered(answer, latency);
            FleetForecast {
                city: req.city,
                histogram,
                source,
                latency,
            }
        };

        // Stage 1: the result cache, keyed at the *active* version — a
        // hot-swap makes older entries unreachable by construction.
        let active = shard.registry().active_version();
        if let (Some(cache), Some(version)) = (&self.cache, active) {
            let key = CacheKey {
                city: req.city,
                t_end: req.t_end,
                horizon: req.horizon,
                version,
            };
            if let Some(hit) = cache.get(&key) {
                return reply(
                    Answer::ResultCache,
                    hit.pair_histogram(req.origin, req.dest, req.step),
                    FleetSource::ResultCache { version },
                );
            }
            stats.result_cache_misses.fetch_add(1, Ordering::Relaxed);
        }

        // Stage 2: admission control. Only requests that would join the
        // broker queue are sheddable; the depth gate approximates "could
        // this request still meet a deadline behind that many jobs".
        if shard.queue_depth() >= self.shed_depth as u64 {
            return reply(
                Answer::Shed,
                shard.shed_histogram(req.origin, req.dest),
                FleetSource::Shed,
            );
        }

        // Stage 2½: fault injection can crash this shard in place — the
        // in-memory window is wiped (exactly what a process kill loses)
        // and the breaker force-opens, so this very request and everything
        // behind it degrades instead of serving from an empty window.
        if stod_faultline::fire(FaultSite::ShardCrash).is_some() {
            shard.simulate_crash();
        }

        // Stage 3: the circuit breaker. Open → degraded NH answer, typed
        // and counted in `degraded`. Half-open admits exactly one probe;
        // if a crash wiped the window, the probe rebuilds it from the WAL
        // before dispatching.
        match shard.breaker().admit() {
            Admission::Reject => {
                return reply(
                    Answer::Degraded,
                    shard.shed_histogram(req.origin, req.dest),
                    FleetSource::Degraded,
                );
            }
            Admission::Probe | Admission::Admit => {
                if shard.is_crashed() {
                    shard.rebuild_from_wal();
                }
            }
        }

        // Stage 4: the shard's broker (coalescing, deadline, fallback).
        let (served, computed) = shard.broker().forecast_shared(ForecastRequest {
            origin: req.origin,
            dest: req.dest,
            t_end: req.t_end,
            horizon: req.horizon,
            step: req.step,
            deadline: req.deadline,
        });
        // Feed the outcome back into the breaker: panics and deadline
        // misses are shard-health failures; a model answer — or an honest
        // structural fallback (no model promoted yet, window not warm) —
        // is not.
        match served.source {
            Source::Model { .. } => shard.breaker().record_success(),
            Source::Fallback(FallbackReason::WorkerPanic | FallbackReason::Deadline) => {
                shard.breaker().record_failure();
            }
            Source::Fallback(_) => shard.breaker().record_success(),
        }
        if let (Some(cache), Some(computed)) = (&self.cache, computed) {
            let key = CacheKey {
                city: req.city,
                t_end: req.t_end,
                horizon: req.horizon,
                version: computed.version,
            };
            for evicted in cache.insert(key, computed) {
                self.shards[evicted.city]
                    .stats()
                    .result_cache_evictions
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        FleetForecast {
            city: req.city,
            histogram: served.histogram,
            source: match served.source {
                Source::Model { version } => FleetSource::Model { version },
                Source::Fallback(reason) => FleetSource::Fallback(reason),
            },
            latency: served.latency,
        }
    }

    /// Liveness and durability view of every shard: breaker state, WAL
    /// counters, crash/dead flags, window occupancy, incumbent version.
    /// The stats snapshot says what *happened*; health says what is wrong
    /// *right now* — it is what an operator pages on.
    pub fn health(&self) -> FleetHealth {
        FleetHealth {
            shards: self
                .shards
                .iter()
                .map(|s| ShardHealth {
                    city: s.city_id(),
                    name: s.name().to_string(),
                    breaker: s.breaker().snapshot(),
                    wal: s.wal_stats(),
                    wal_dead: s.wal_dead(),
                    crashed: s.is_crashed(),
                    sealed_intervals: s.sealed_intervals(),
                    active_version: s.registry().active_version(),
                })
                .collect(),
        }
    }

    /// A point-in-time copy of every shard's stats plus cache occupancy.
    pub fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot {
            shards: self
                .shards
                .iter()
                .map(|s| ShardSnapshot {
                    city: s.city_id(),
                    name: s.name().to_string(),
                    stats: s.stats().snapshot(),
                })
                .collect(),
            cache_entries: self.cache.as_ref().map_or(0, ForecastCache::len),
            cache_bytes: self.cache.as_ref().map_or(0, ForecastCache::approx_bytes),
        }
    }
}

/// Builds one city's shard — model config, NH fallback, seeded base
/// checkpoint registered and promoted — *without* replaying any trips.
/// Deterministic given the same inputs, which is what lets
/// [`Fleet::recover`] reconstruct the exact pre-crash fleet and only
/// replay the WAL on top.
fn build_shard(
    city: &FleetCity,
    shard_cfg: &ShardConfig,
    kind: &impl Fn(usize) -> ModelKind,
    checkpoint_seed: u64,
) -> Shard {
    let model = ModelConfig {
        kind: kind(city.city_id),
        centroids: city.dataset.city.centroids(),
        num_buckets: city.dataset.spec.num_buckets,
    };
    let fallback = NaiveHistograms::fit(&city.dataset, city.num_intervals());
    let shard = Shard::new(
        city.city_id,
        city.dataset.city.name.clone(),
        model.clone(),
        city.dataset.spec,
        fallback,
        shard_cfg,
    );
    let built = model.build(checkpoint_seed ^ city.city_id as u64);
    shard
        .install_checkpoint(built.params().clone())
        .expect("freshly-built checkpoint matches its own config");
    shard
}

/// Replays a city's dataset through the live-ingest path (`ingest_trip` +
/// `seal_interval`) — the offline tensors are never copied in, so serving
/// conditions on exactly what a production feed would have delivered.
fn replay_city(shard: &Shard, city: &FleetCity) {
    for (t, trips) in city.trips.iter().enumerate() {
        for trip in trips {
            shard
                .ingest_trip(*trip)
                .expect("generated dataset trips are valid");
        }
        shard.seal_interval(t);
    }
}

/// Where a durable fleet keeps its write-ahead logs and how it syncs
/// them. Shard `i` logs under `root/shard{i}/`.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory for the fleet's per-shard log directories.
    pub root: PathBuf,
    /// WAL tuning (fsync batching, segment rotation size).
    pub wal: WalConfig,
}

impl DurabilityConfig {
    /// A durability config rooted at `root` with default WAL tuning.
    pub fn new(root: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            root: root.into(),
            wal: WalConfig::default(),
        }
    }

    /// The log directory for one shard.
    pub fn shard_dir(&self, city: usize) -> PathBuf {
        self.root.join(format!("shard{city}"))
    }
}

/// What [`Fleet::recover`] rebuilt, per shard.
#[derive(Debug)]
pub struct ShardRecovery {
    /// Tenant id.
    pub city: usize,
    /// WAL records replayed into the window.
    pub replayed: usize,
    /// Torn/corrupt tails truncated during the scan.
    pub truncated_tails: u64,
    /// Segment files scanned.
    pub segments: usize,
    /// What the post-replay registry scrub found.
    pub scrub: ScrubReport,
}

/// What [`Fleet::recover`] rebuilt.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Per-shard recovery outcomes, ordered by tenant id.
    pub shards: Vec<ShardRecovery>,
}

impl RecoveryReport {
    /// Total WAL records replayed across the fleet.
    pub fn total_replayed(&self) -> usize {
        self.shards.iter().map(|s| s.replayed).sum()
    }

    /// True when no tail was truncated and every scrub came back clean —
    /// i.e. the restart recovered a cleanly shut-down fleet.
    pub fn is_clean(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.truncated_tails == 0 && s.scrub.is_clean())
    }
}

/// One shard's liveness/durability state (see [`Fleet::health`]).
#[derive(Debug, Clone)]
pub struct ShardHealth {
    /// Tenant id.
    pub city: usize,
    /// Tenant name.
    pub name: String,
    /// Circuit-breaker state and counters.
    pub breaker: BreakerSnapshot,
    /// WAL counters, when the shard is durable.
    pub wal: Option<WalStats>,
    /// True when a torn write killed the WAL handle (serving continues
    /// from memory, but durability stopped at that instant).
    pub wal_dead: bool,
    /// True between a `ShardCrash` injection and the WAL rebuild.
    pub crashed: bool,
    /// Sealed intervals currently in the sliding window.
    pub sealed_intervals: usize,
    /// The registry's incumbent version, if any.
    pub active_version: Option<u32>,
}

/// Fleet-wide liveness/durability view, ordered by tenant id.
#[derive(Debug, Clone)]
pub struct FleetHealth {
    /// Per-shard health.
    pub shards: Vec<ShardHealth>,
}

impl FleetHealth {
    /// True when every breaker is closed and no shard is crashed or has
    /// a dead WAL — the all-green steady state.
    pub fn all_healthy(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.breaker.state == BreakerState::Closed && !s.crashed && !s.wal_dead)
    }

    /// This health view as a JSON object string.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl ToJson for ShardHealth {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("city", &self.city);
            o.field("name", &self.name);
            o.field("breaker", &self.breaker);
            o.field("wal", &self.wal);
            o.field("wal_dead", &self.wal_dead);
            o.field("crashed", &self.crashed);
            o.field("sealed_intervals", &self.sealed_intervals);
            o.field("active_version", &self.active_version);
        });
    }
}

impl ToJson for FleetHealth {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("shards", &self.shards);
            o.field("all_healthy", &self.all_healthy());
        });
    }
}

/// One shard's frozen stats, tagged with its tenant identity.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Tenant id.
    pub city: usize,
    /// Tenant name.
    pub name: String,
    /// The shard's serving stats.
    pub stats: StatsSnapshot,
}

/// A frozen view of the whole fleet.
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    /// Per-shard snapshots, ordered by tenant id.
    pub shards: Vec<ShardSnapshot>,
    /// Result-cache entries at snapshot time.
    pub cache_entries: usize,
    /// Approximate result-cache bytes at snapshot time.
    pub cache_bytes: usize,
}

impl FleetSnapshot {
    /// Sums one counter across shards.
    pub fn total(&self, pick: impl Fn(&StatsSnapshot) -> u64) -> u64 {
        self.shards.iter().map(|s| pick(&s.stats)).sum()
    }

    /// Global conservation residual: the sum of every shard's ledger
    /// balance. Zero iff every tenant's ledger balances (shard residuals
    /// cannot cancel — each is independently asserted non-negative by the
    /// gate tests).
    pub fn global_ledger_balance(&self) -> i128 {
        self.shards.iter().map(|s| s.stats.ledger_balance()).sum()
    }

    /// Per-shard ledger residuals, ordered by tenant id.
    pub fn ledger_residuals(&self) -> Vec<i128> {
        self.shards
            .iter()
            .map(|s| s.stats.ledger_balance())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfleet;

    fn req(city: usize, t_end: usize) -> FleetRequest {
        FleetRequest {
            city,
            origin: 0,
            dest: 1,
            t_end,
            horizon: 2,
            step: 0,
            deadline: Duration::from_secs(30),
        }
    }

    #[test]
    fn repeat_request_hits_the_result_cache_bitwise() {
        let fleet = testfleet::tiny(true, 64);
        let first = fleet.forecast(req(0, 3));
        assert!(matches!(first.source, FleetSource::Model { version: 1 }));
        let second = fleet.forecast(req(0, 3));
        assert!(matches!(
            second.source,
            FleetSource::ResultCache { version: 1 }
        ));
        assert_eq!(
            first.histogram, second.histogram,
            "cache must serve the model's bytes"
        );
        let snap = fleet.snapshot();
        assert_eq!(snap.shards[0].stats.model_invocations, 1);
        assert_eq!(snap.shards[0].stats.result_cache_hits, 1);
        assert_eq!(snap.shards[0].stats.result_cache_misses, 1);
        assert_eq!(snap.cache_entries, 1);
        assert!(snap.cache_bytes > 0);
        assert_eq!(snap.ledger_residuals(), vec![0, 0]);
    }

    #[test]
    fn tenants_do_not_share_cache_entries() {
        let fleet = testfleet::tiny(true, 64);
        fleet.forecast(req(0, 3));
        let other = fleet.forecast(req(1, 3));
        assert!(
            matches!(other.source, FleetSource::Model { .. }),
            "same (t_end, horizon) in another city must not hit city 0's entry"
        );
        let snap = fleet.snapshot();
        assert_eq!(snap.shards[1].stats.result_cache_hits, 0);
        assert_eq!(snap.cache_entries, 2);
    }

    #[test]
    fn shed_depth_zero_sheds_every_cache_miss_but_not_hits() {
        let fleet = testfleet::tiny(true, 0);
        let shed = fleet.forecast(req(0, 3));
        assert_eq!(shed.source, FleetSource::Shed);
        let sum: f32 = shed.histogram.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "shed answers a valid histogram");
        let snap = fleet.snapshot();
        assert_eq!(snap.shards[0].stats.shed, 1);
        assert_eq!(snap.shards[0].stats.model_invocations, 0);
        assert_eq!(snap.ledger_residuals(), vec![0, 0]);
    }

    #[test]
    fn cache_off_fleet_never_consults_a_cache() {
        let fleet = testfleet::tiny(false, 64);
        assert!(fleet.cache().is_none());
        fleet.forecast(req(0, 3));
        fleet.forecast(req(0, 3));
        let snap = fleet.snapshot();
        assert_eq!(snap.shards[0].stats.result_cache_hits, 0);
        assert_eq!(snap.shards[0].stats.result_cache_misses, 0);
        assert_eq!(snap.cache_entries, 0);
        assert_eq!(snap.ledger_residuals(), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "configuration says")]
    fn shard_count_mismatch_panics() {
        let fleet = testfleet::tiny(true, 64);
        let _ = fleet; // the tiny fleet itself is fine; rebuild with a lie
        let cities = stod_traffic::generate_fleet(&stod_traffic::FleetSimConfig {
            num_cities: 2,
            num_days: 1,
            intervals_per_day: 6,
            seed: 1,
        });
        let bad = FleetConfig {
            shards: 3,
            ..FleetConfig::default()
        };
        Fleet::from_replay(
            &bad,
            &cities,
            &crate::ShardConfig::default(),
            |_| {
                stod_serve::ModelKind::Bf(stod_core::BfConfig {
                    encode_dim: 8,
                    gru_hidden: 8,
                    ..stod_core::BfConfig::default()
                })
            },
            1,
        );
    }
}
