//! Tier-1 fleet serving gate (ISSUE 6 tentpole + satellites).
//!
//! End-to-end checks on the city-scale serving fleet:
//!
//! * the fleet's sizing is fixed in `FleetConfig::default()`, and the
//!   workspace's one knob parser (the registry's `STOD_MODEL_MEM`)
//!   rejects garbage with typed errors, never silent defaults;
//! * a hot-swap never lets a stale cached forecast escape — the version
//!   is part of the cache key, verified bitwise across a swap;
//! * the result cache's exact LRU never exceeds its capacity under
//!   multi-tenant traffic;
//! * cache-on and cache-off fleets answer bitwise identically, at forced
//!   1 and 4 kernel threads, with exact model-invocation and result-cache
//!   hit counts on both;
//! * every tenant's request-conservation ledger balances exactly under
//!   concurrent mixed traffic, and the per-shard obs counters
//!   (`fleet/shard{i}/…`) mirror the ledger terms exactly;
//! * injected worker panics/stalls in one shard leave every other tenant
//!   serving (from the result cache while the faults rage, from the
//!   model once they stop) with all books still balanced.

use od_forecast::core::BfConfig;
use od_forecast::faultline::{install, FaultPlan, FaultSite};
use od_forecast::fleet::{Fleet, FleetConfig, FleetRequest, FleetSource, ShardConfig};
use od_forecast::nn::ParamStore;
use od_forecast::obs;
use od_forecast::serve::{ModelConfig, ModelKind};
use od_forecast::tensor::{par, parse_knob, KnobError};
use od_forecast::traffic::{generate_fleet, FleetCity, FleetSimConfig};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the traffic-driving tests. Obs arming and fault injection
/// are process-global, so concurrent fleet traffic from a sibling test
/// would bleed into `fleet/shard{i}/…` counters and fault schedules.
static TRAFFIC: Mutex<()> = Mutex::new(());

fn lock_traffic() -> std::sync::MutexGuard<'static, ()> {
    TRAFFIC.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_kind(_: usize) -> ModelKind {
    ModelKind::Bf(BfConfig {
        encode_dim: 8,
        gru_hidden: 8,
        ..BfConfig::default()
    })
}

fn fleet_cities(n: usize, seed: u64) -> Vec<FleetCity> {
    generate_fleet(&FleetSimConfig {
        num_cities: n,
        num_days: 1,
        intervals_per_day: 8,
        seed,
    })
}

fn build_fleet(
    cities: &[FleetCity],
    cache_enabled: bool,
    cache_capacity: usize,
    shed_depth: usize,
    retain_results: bool,
    workers: usize,
) -> Fleet {
    let cfg = FleetConfig {
        shards: cities.len(),
        cache_capacity,
        shed_depth,
        cache_enabled,
    };
    let shard_cfg = ShardConfig {
        workers,
        lookback: 2,
        window_capacity: 8,
        broker_cache_capacity: 8,
        retain_results,
        breaker: stod_fleet::BreakerConfig::default(),
    };
    Fleet::from_replay(&cfg, cities, &shard_cfg, small_kind, 0xC0FFEE)
}

fn req(city: usize, origin: usize, dest: usize, t_end: usize, horizon: usize) -> FleetRequest {
    FleetRequest {
        city,
        origin,
        dest,
        t_end,
        horizon,
        step: 0,
        deadline: Duration::from_secs(30),
    }
}

fn assert_valid_hist(h: &[f32], what: &str) {
    let sum: f32 = h.iter().sum();
    assert!(
        (sum - 1.0).abs() < 1e-3 && h.iter().all(|p| *p >= 0.0),
        "{what}: invalid histogram (sum {sum})"
    );
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The fleet's defaults are fixed in code, and the parser `Registry`
/// reads `STOD_MODEL_MEM` through rejects set-but-invalid values with
/// typed errors naming the variable, never a silent default.
#[test]
fn env_knobs_validate_with_typed_errors_not_silent_defaults() {
    assert_eq!(
        FleetConfig::default(),
        FleetConfig {
            shards: 4,
            cache_capacity: 256,
            shed_depth: 64,
            cache_enabled: true,
        }
    );

    let parse = |v: &str| parse_knob("STOD_MODEL_MEM", v, 1, u64::MAX);
    for bad in ["fourr", "-1", "4.0", " 8"] {
        let err = parse(bad).unwrap_err();
        assert_eq!(
            err,
            KnobError::NotANumber {
                var: "STOD_MODEL_MEM",
                value: bad.to_string()
            },
            "{bad:?} must be rejected as not-a-number"
        );
        assert!(
            err.to_string().contains("STOD_MODEL_MEM"),
            "error must name the knob: {err}"
        );
    }
    for (bad, value) in [("0", 0), ("18446744073709551616", u64::MAX)] {
        let err = parse(bad).unwrap_err();
        assert_eq!(
            err,
            KnobError::OutOfRange {
                var: "STOD_MODEL_MEM",
                value,
                min: 1,
                max: u64::MAX
            },
            "{bad:?} must be rejected as out of range"
        );
        assert!(
            err.to_string().contains("STOD_MODEL_MEM"),
            "error must name the knob: {err}"
        );
    }
}

/// Satellite 3: across a hot-swap the stale version is never served —
/// the version is part of the cache key, checked bitwise.
#[test]
fn hot_swap_never_serves_a_stale_cached_forecast() {
    let _g = lock_traffic();
    let cities = fleet_cities(2, 0x5A11);
    let fleet = build_fleet(&cities, true, 16, 64, true, 1);
    let r = req(0, 0, 1, 3, 2);

    let fresh = fleet.forecast(r);
    assert!(matches!(fresh.source, FleetSource::Model { version: 1 }));
    let cached = fleet.forecast(r);
    assert!(matches!(
        cached.source,
        FleetSource::ResultCache { version: 1 }
    ));
    assert_eq!(
        fresh.histogram, cached.histogram,
        "cache serves the model's bytes"
    );

    // Swap in a checkpoint with different weights (different init seed).
    let model = ModelConfig {
        kind: small_kind(0),
        centroids: cities[0].dataset.city.centroids(),
        num_buckets: cities[0].dataset.spec.num_buckets,
    };
    let store = ParamStore::from_bytes(model.build(0xD1FF).params().to_bytes()).unwrap();
    let v2 = fleet.hot_swap(0, store).unwrap();
    assert_eq!(v2, 2);
    assert!(
        fleet.shard(0).stats().snapshot().result_cache_invalidations >= 1,
        "the swap must reclaim the tenant's stale entries"
    );

    // Same request after the swap: must be recomputed at v2, and must not
    // be version-1 bytes.
    let swapped = fleet.forecast(r);
    assert!(
        matches!(swapped.source, FleetSource::Model { version } if version == v2),
        "post-swap answer must come from the new model, got {:?}",
        swapped.source
    );
    assert_ne!(
        swapped.histogram, fresh.histogram,
        "post-swap forecast still carries the old version's bytes"
    );
    let recached = fleet.forecast(r);
    assert!(matches!(recached.source, FleetSource::ResultCache { version } if version == v2));
    assert_eq!(swapped.histogram, recached.histogram);
    assert_eq!(fleet.snapshot().ledger_residuals(), vec![0, 0]);
}

/// Satellite 3: the exact-LRU result cache never exceeds its capacity,
/// whatever the traffic does, and evictions are tenant-attributed.
#[test]
fn lru_cache_never_exceeds_capacity_under_multi_tenant_traffic() {
    let _g = lock_traffic();
    const CAP: usize = 4;
    let cities = fleet_cities(2, 0x10CA);
    let fleet = build_fleet(&cities, true, CAP, 64, true, 1);
    let mut distinct = 0;
    for t_end in 3..=6 {
        for horizon in 1..=3 {
            for city in 0..2 {
                let fc = fleet.forecast(req(city, 0, 1, t_end, horizon));
                assert_valid_hist(&fc.histogram, "lru traffic");
                distinct += 1;
                let cache = fleet.cache().unwrap();
                assert!(
                    cache.len() <= CAP,
                    "cache holds {} entries, capacity {CAP}",
                    cache.len()
                );
            }
        }
    }
    assert!(distinct > CAP, "traffic must overflow the cache");
    let snap = fleet.snapshot();
    let evictions = snap.total(|s| s.result_cache_evictions);
    assert_eq!(
        evictions,
        (distinct - CAP) as u64,
        "every overflow is exactly one attributed eviction"
    );
    assert_eq!(snap.ledger_residuals(), vec![0, 0]);
}

/// Satellite 3: the cache is an optimization, not a model: cache-on and
/// cache-off fleets agree bitwise on every answer, at forced 1 and 4
/// kernel threads, and the model work each fleet does is exact (one
/// invocation per key with the cache, one per request without).
#[test]
fn cache_on_and_cache_off_fleets_agree_bitwise_across_thread_counts() {
    let _g = lock_traffic();
    let run = |threads: usize| -> Vec<Vec<f32>> {
        par::with_threads(threads, || {
            let cities = fleet_cities(2, 0xB17);
            let on = build_fleet(&cities, true, 64, 64, true, 1);
            let off = build_fleet(&cities, false, 64, 64, false, 1);
            let mut answers = Vec::new();
            for t_end in 3..=5 {
                for horizon in 1..=2 {
                    for city in 0..2 {
                        for (o, d) in [(0, 1), (1, 0), (0, 0)] {
                            let r = req(city, o, d, t_end, horizon);
                            // Ask the cache-on fleet twice so the second
                            // answer is a genuine cache hit.
                            let a1 = on.forecast(r);
                            let a2 = on.forecast(r);
                            let b = off.forecast(r);
                            assert!(matches!(b.source, FleetSource::Model { .. }));
                            assert_eq!(a1.histogram, a2.histogram);
                            assert_eq!(
                                a1.histogram, b.histogram,
                                "cache-on and cache-off disagree at {threads} threads"
                            );
                            answers.push(b.histogram);
                        }
                    }
                }
            }
            // The work is pinned, not timed: the cache-on fleet runs the
            // model once per (city, t_end, horizon) key and answers every
            // other request from the result cache; the cache-off fleet
            // runs it once per request.
            let (on, off) = (on.snapshot(), off.snapshot());
            assert_eq!(on.total(|s| s.requests_total), 72);
            assert_eq!(on.total(|s| s.model_invocations), 12);
            assert_eq!(on.total(|s| s.result_cache_hits), 60);
            assert_eq!(off.total(|s| s.requests_total), 36);
            assert_eq!(off.total(|s| s.model_invocations), 36);
            assert_eq!(on.ledger_residuals(), vec![0, 0]);
            assert_eq!(off.ledger_residuals(), vec![0, 0]);
            answers
        })
    };
    assert_eq!(
        run(1),
        run(4),
        "forecasts must not depend on the thread count"
    );
}

/// Satellite 1: under concurrent mixed traffic every tenant's
/// conservation ledger balances exactly, and the per-shard obs counters
/// mirror the ledger terms exactly.
#[test]
fn concurrent_traffic_balances_every_ledger_and_obs_mirror() {
    let _g = lock_traffic();
    let cities = fleet_cities(3, 0x0B5);
    let fleet = build_fleet(&cities, true, 32, 64, true, 2);
    const CLIENTS: usize = 6;
    const ROUNDS: usize = 24;
    obs::with_mode(obs::ObsMode::On, || {
        obs::reset();
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let fleet = &fleet;
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        let i = client * ROUNDS + round;
                        let fc =
                            fleet.forecast(req(i % 3, i % 4, (i + 1) % 4, 3 + i % 4, 1 + i % 3));
                        assert_valid_hist(&fc.histogram, "concurrent traffic");
                    }
                });
            }
        });
        let snap = fleet.snapshot();
        assert_eq!(
            snap.total(|s| s.requests_total),
            (CLIENTS * ROUNDS) as u64,
            "lost requests"
        );
        for (i, residual) in snap.ledger_residuals().into_iter().enumerate() {
            assert_eq!(residual, 0, "shard {i}: ledger out of balance");
        }
        assert_eq!(snap.global_ledger_balance(), 0);
        assert!(
            snap.total(|s| s.result_cache_hits) > 0,
            "mixed traffic must hit"
        );

        // The obs mirror: per-shard counters equal the ledger terms.
        let o = obs::snapshot();
        for shard in &snap.shards {
            let c = |suffix: &str| o.counter(&format!("fleet/shard{}/{suffix}", shard.city));
            assert_eq!(
                c("requests"),
                shard.stats.requests_total,
                "shard {}",
                shard.city
            );
            assert_eq!(c("model_invocations"), shard.stats.model_invocations);
            assert_eq!(c("batched_joins"), shard.stats.batched_joins);
            assert_eq!(c("cache_hits"), shard.stats.cache_hits);
            assert_eq!(c("result_cache_hits"), shard.stats.result_cache_hits);
            assert_eq!(c("shed"), shard.stats.shed);
            assert_eq!(c("worker_panics"), shard.stats.worker_panics);
            assert_eq!(c("failed_jobs"), shard.stats.failed_jobs);
        }
        obs::reset();
    });
}

/// Admission control: a zero shed depth sheds every cache miss with the
/// typed outcome, answers stay valid, and the books still balance.
#[test]
fn shed_path_answers_immediately_with_a_typed_outcome() {
    let _g = lock_traffic();
    let cities = fleet_cities(2, 0x5ED);
    let fleet = build_fleet(&cities, true, 16, 0, true, 1);
    for i in 0..8 {
        let fc = fleet.forecast(req(i % 2, 0, 1, 3 + i % 3, 1));
        assert_eq!(fc.source, FleetSource::Shed);
        assert_valid_hist(&fc.histogram, "shed answer");
    }
    let snap = fleet.snapshot();
    assert_eq!(snap.total(|s| s.shed), 8);
    assert_eq!(snap.total(|s| s.model_invocations), 0);
    assert_eq!(snap.global_ledger_balance(), 0);
}

/// Satellite 4: worker panics and stalls injected while one shard is
/// hammered leave every other tenant serving — from the result cache
/// during the faults, from the model afterwards — and every ledger
/// balances once the storm passes.
#[test]
fn faults_in_one_shard_leave_other_tenants_serving() {
    let _g = lock_traffic();
    let cities = fleet_cities(3, 0xFA17);
    let fleet = build_fleet(&cities, true, 32, 64, true, 2);

    // Prewarm: one cached forecast per healthy tenant, before any faults.
    let warm: Vec<_> = (1..3)
        .map(|city| fleet.forecast(req(city, 0, 1, 3, 2)))
        .collect();
    for w in &warm {
        assert!(matches!(w.source, FleetSource::Model { .. }));
    }

    let guard = install(
        FaultPlan::new(0xFA17)
            .with(FaultSite::WorkerPanic, 0.4, 0)
            .with(FaultSite::SlowWorker, 0.3, 3),
    );
    std::thread::scope(|scope| {
        // Hammer shard 0 with mostly-distinct keys so panicked jobs keep
        // being re-led.
        for client in 0..4 {
            let fleet = &fleet;
            scope.spawn(move || {
                for round in 0..6 {
                    let i = client * 6 + round;
                    let fc = fleet.forecast(req(0, i % 4, (i + 1) % 4, 3 + i % 4, 1 + i % 2));
                    assert_valid_hist(&fc.histogram, "faulted shard");
                }
            });
        }
        // Meanwhile the healthy tenants answer their warm keys from the
        // cache — no worker, so no injected fault can touch them.
        for (idx, city) in (1..3).enumerate() {
            let fleet = &fleet;
            let warm = &warm;
            scope.spawn(move || {
                for _ in 0..10 {
                    let fc = fleet.forecast(req(city, 0, 1, 3, 2));
                    assert!(
                        matches!(fc.source, FleetSource::ResultCache { .. }),
                        "tenant {city} fell off the cache during the fault storm: {:?}",
                        fc.source
                    );
                    assert_eq!(
                        fc.histogram, warm[idx].histogram,
                        "tenant {city} bytes drifted"
                    );
                }
            });
        }
    });
    drop(guard);

    // Post-storm: shard 0's workers respawned, every panic contained.
    wait_until("respawns to catch panics", || {
        let s = fleet.shard(0).stats().snapshot();
        s.respawns == s.worker_panics
    });
    // Healthy tenants still compute fresh keys from the model.
    for city in 1..3 {
        let fc = fleet.forecast(req(city, 1, 0, 5, 2));
        assert!(
            matches!(fc.source, FleetSource::Model { .. }),
            "tenant {city} cannot reach its model after the storm: {:?}",
            fc.source
        );
    }
    let snap = fleet.snapshot();
    for (i, residual) in snap.ledger_residuals().into_iter().enumerate() {
        assert_eq!(residual, 0, "shard {i}: ledger out of balance after faults");
    }
    assert_eq!(
        snap.shards[1].stats.worker_panics + snap.shards[2].stats.worker_panics,
        0,
        "faults must stay contained in the hammered shard"
    );
}
