//! Concurrency stress test for the serving broker (ISSUE satellite 4).
//!
//! Hammers a single broker from many client threads at once — mixed
//! request keys, repeated rounds, and a starvation phase where a
//! one-worker pool faces near-zero deadlines — and checks that
//!
//! * the broker never deadlocks (a watchdog thread fails the test if the
//!   barrage has not drained in time),
//! * every response is a valid histogram from a coherent source,
//! * the stats ledger stays consistent: every request is accounted for
//!   exactly once across model answers, in-flight joins, cache hits, and
//!   fallbacks,
//! * deadline starvation degrades to the NH fallback instead of hanging,
//!   and
//! * injected worker panics are contained and respawned, with the
//!   `worker_panics` / `respawns` / `checkpoint_rejects` /
//!   `nonfinite_batches` fault counters carried through the JSON stats
//!   export.
//!
//! Fault plans installed via `stod_faultline::install` are process-global,
//! so every test here holds a `FaultGuard` for its whole body —
//! `stod_faultline::quiet()` for the fault-free tests — which serializes
//! them against the injection test and shields them from any
//! `STOD_FAULTS` environment plan.

use od_forecast::baselines::NaiveHistograms;
use od_forecast::core::{train, BfConfig, BfModel, OdForecaster, TrainConfig, TrainReport};
use od_forecast::faultline::{install, quiet, FaultPlan, FaultSite};
use od_forecast::serve::{
    Broker, BrokerConfig, FallbackReason, FeatureStore, ForecastRequest, ModelConfig, ModelKind,
    Registry, ServeStats, Source,
};
use od_forecast::traffic::{CityModel, OdDataset, SimConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 5;
const LOOKBACK: usize = 3;

fn build_stack(workers: usize, seed: u64) -> (Broker, Arc<ServeStats>, OdDataset) {
    let sim = SimConfig {
        num_days: 2,
        intervals_per_day: 16,
        trips_per_interval: 100.0,
        ..SimConfig::small(seed)
    };
    let ds = OdDataset::generate(CityModel::small(N), &sim);
    let windows = ds.windows(LOOKBACK, 1);
    let split = ds.split(&windows, 0.7, 0.0);
    let bf = BfConfig {
        encode_dim: 8,
        gru_hidden: 8,
        ..BfConfig::default()
    };
    let mut model = BfModel::new(N, ds.spec.num_buckets, bf, seed);
    let train_report = train(
        &mut model,
        &ds,
        &split.train,
        None,
        &TrainConfig::fast_test(),
    );
    let ckpt = std::env::temp_dir().join(format!("stod_serve_stress_{seed}.stpw"));
    model.params().save(&ckpt).unwrap();

    let stats = Arc::new(ServeStats::new());
    stats.record_train_report(&train_report);
    let config = ModelConfig {
        kind: ModelKind::Bf(bf),
        centroids: ds.city.centroids(),
        num_buckets: ds.spec.num_buckets,
    };
    let registry = Arc::new(Registry::new(config, Arc::clone(&stats)));
    let v = registry.register_file(&ckpt).unwrap();
    registry.promote(v).unwrap();
    std::fs::remove_file(&ckpt).unwrap();

    let features = Arc::new(FeatureStore::new(N, ds.spec, ds.num_intervals()));
    for (t, tensor) in ds.tensors.iter().enumerate() {
        features.insert_tensor(t, tensor.clone());
    }
    let fallback = NaiveHistograms::fit(&ds, ds.num_intervals() * 7 / 10);
    let broker = Broker::new(
        registry,
        features,
        fallback,
        Arc::clone(&stats),
        BrokerConfig {
            workers,
            lookback: LOOKBACK,
            cache_capacity: 8, // smaller than the key space → eviction churn
            ..BrokerConfig::default()
        },
    );
    (broker, stats, ds)
}

fn assert_valid_hist(h: &[f32], what: &str) {
    let sum: f32 = h.iter().sum();
    assert!((sum - 1.0).abs() < 1e-3, "{what}: histogram sums to {sum}");
    assert!(h.iter().all(|&p| p >= 0.0), "{what}: negative mass");
}

/// Runs `body` under a watchdog: if it has not finished within `limit`
/// the process aborts with a diagnostic instead of hanging CI forever.
fn with_deadlock_watchdog<R>(limit: Duration, what: &str, body: impl FnOnce() -> R) -> R {
    let done = Arc::new(AtomicBool::new(false));
    let watcher = {
        let done = Arc::clone(&done);
        let what = what.to_string();
        std::thread::spawn(move || {
            let step = Duration::from_millis(50);
            let mut waited = Duration::ZERO;
            while !done.load(Ordering::Acquire) {
                if waited >= limit {
                    eprintln!("DEADLOCK: {what} did not finish within {limit:?}");
                    std::process::abort();
                }
                std::thread::sleep(step);
                waited += step;
            }
        })
    };
    let out = body();
    done.store(true, Ordering::Release);
    watcher.join().unwrap();
    out
}

#[test]
fn broker_survives_concurrent_barrage_with_consistent_stats() {
    let _quiet = quiet();
    let (broker, stats, _ds) = build_stack(2, 29);
    const CLIENTS: usize = 12;
    const ROUNDS: usize = 6;

    with_deadlock_watchdog(Duration::from_secs(120), "concurrent barrage", || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let broker = &broker;
                    scope.spawn(move || {
                        for round in 0..ROUNDS {
                            // Mixed keys: collisions within and across
                            // clients exercise join-in-flight and the
                            // cache; distinct t_ends exercise eviction.
                            let req = ForecastRequest {
                                origin: client % N,
                                dest: (client + 1 + round) % N,
                                t_end: 8 + ((client + round) % 5),
                                horizon: 1,
                                step: 0,
                                deadline: Duration::from_secs(30),
                            };
                            let fc = broker.forecast(req);
                            match fc.source {
                                Source::Model { .. } => {}
                                other => panic!("client {client} bounced to {other:?}"),
                            }
                            assert_valid_hist(&fc.histogram, "barrage response");
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    });

    let snap = stats.snapshot();
    let total = (CLIENTS * ROUNDS) as u64;
    assert_eq!(
        snap.requests_total, total,
        "lost or double-counted requests"
    );
    assert_eq!(snap.latency_count, total, "latency ledger out of sync");
    assert_eq!(
        snap.fallbacks_total(),
        0,
        "no fallback under slack deadlines"
    );
    // Every request either invoked the model, joined an in-flight
    // computation of its key, or hit the cache — exactly once each.
    assert_eq!(
        snap.model_invocations + snap.batched_joins + snap.cache_hits,
        total,
        "outcome ledger inconsistent: {} invocations + {} joins + {} hits != {total}",
        snap.model_invocations,
        snap.batched_joins,
        snap.cache_hits
    );
    // With 72 requests over 25 distinct keys there must be real reuse.
    assert!(
        snap.model_invocations <= 25,
        "micro-batching/cache defeated"
    );
    assert!(snap.batched_joins + snap.cache_hits >= total - 25);
}

#[test]
fn starved_single_worker_degrades_to_deadline_fallback_without_deadlock() {
    let _quiet = quiet();
    let (broker, stats, _ds) = build_stack(1, 31);
    const CLIENTS: usize = 8;

    // Prime one key so the cache also answers under starvation.
    let warm = broker.forecast(ForecastRequest {
        origin: 0,
        dest: 1,
        t_end: 9,
        horizon: 1,
        step: 0,
        deadline: Duration::from_secs(30),
    });
    assert!(matches!(warm.source, Source::Model { .. }));

    with_deadlock_watchdog(Duration::from_secs(120), "starvation barrage", || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let broker = &broker;
                    scope.spawn(move || {
                        // Distinct keys queued behind one worker with a
                        // deadline nothing can meet: every miss must come
                        // back as a fallback histogram, promptly.
                        let fc = broker.forecast(ForecastRequest {
                            origin: client % N,
                            dest: (client + 2) % N,
                            t_end: 10 + client,
                            horizon: 1,
                            step: 0,
                            deadline: Duration::ZERO,
                        });
                        assert_valid_hist(&fc.histogram, "starved response");
                        fc
                    })
                })
                .collect();
            let mut deadline_falls = 0u64;
            for h in handles {
                let fc = h.join().unwrap();
                match fc.source {
                    Source::Fallback(FallbackReason::Deadline) => deadline_falls += 1,
                    // A cache hit or an unusually fast model answer is
                    // legitimate; hanging is not.
                    Source::Model { .. } => {}
                    other => panic!("unexpected source under starvation: {other:?}"),
                }
            }
            assert!(
                deadline_falls >= 1,
                "zero-deadline starvation never triggered the deadline fallback"
            );
        });
    });

    let snap = stats.snapshot();
    assert_eq!(snap.requests_total, 1 + CLIENTS as u64);
    assert_eq!(snap.latency_count, snap.requests_total);
    assert_eq!(snap.fallbacks_deadline, snap.fallbacks_total());
    // The broker stays healthy after starvation: a slack-deadline request
    // is answered by the model again.
    let recovered = broker.forecast(ForecastRequest {
        origin: 1,
        dest: 3,
        t_end: 9,
        horizon: 1,
        step: 0,
        deadline: Duration::from_secs(30),
    });
    assert!(
        matches!(recovered.source, Source::Model { .. }),
        "broker did not recover after starvation: {:?}",
        recovered.source
    );
}

/// Injected worker panics under concurrent load (ISSUE satellite 4): the
/// broker contains and respawns every panic, no request is dropped, the
/// fault counters balance the request ledger, and `worker_panics` /
/// `respawns` / `checkpoint_rejects` / `nonfinite_batches` all ride the
/// existing JSON stats export.
#[test]
fn injected_worker_panics_are_contained_respawned_and_exported() {
    let guard = install(FaultPlan::new(41).with(FaultSite::WorkerPanic, 0.5, 0));
    let (broker, stats, ds) = build_stack(2, 37);
    const CLIENTS: usize = 10;
    const ROUNDS: usize = 4;

    with_deadlock_watchdog(Duration::from_secs(120), "panic barrage", || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let broker = &broker;
                    scope.spawn(move || {
                        for round in 0..ROUNDS {
                            let fc = broker.forecast(ForecastRequest {
                                origin: client % N,
                                dest: (client + 2) % N,
                                t_end: 5 + (client * ROUNDS + round) % 16,
                                horizon: 1,
                                step: 0,
                                deadline: Duration::from_secs(30),
                            });
                            assert_valid_hist(&fc.histogram, "panic-chaos response");
                            match fc.source {
                                Source::Model { .. }
                                | Source::Fallback(FallbackReason::WorkerPanic) => {}
                                other => panic!("unexpected source under panic chaos: {other:?}"),
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    });

    // The respawn increment lands a beat after the panicked job's waiters
    // are answered; wait for the ledger to settle before reading it.
    let settle_deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let s = stats.snapshot();
        if s.respawns == s.worker_panics {
            break;
        }
        assert!(
            std::time::Instant::now() < settle_deadline,
            "respawn ledger did not settle"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let snap = stats.snapshot();
    let total = (CLIENTS * ROUNDS) as u64;
    assert_eq!(snap.requests_total, total, "lost requests under chaos");
    assert_eq!(snap.latency_count, total, "latency ledger out of sync");
    assert!(
        snap.worker_panics > 0,
        "the chaos plan never fired; raise the probability"
    );
    assert_eq!(
        snap.worker_panics,
        guard.injected(FaultSite::WorkerPanic),
        "every injected panic must be contained and counted exactly once"
    );
    assert_eq!(snap.respawns, snap.worker_panics);
    // Each request is exactly one of: job leader (whose job completed as
    // a model invocation or died to a contained panic), in-flight join,
    // or cache hit.
    assert_eq!(
        snap.model_invocations + snap.worker_panics + snap.batched_joins + snap.cache_hits,
        total,
        "fault-aware outcome ledger inconsistent: {snap:?}"
    );
    drop(guard);

    // The pool survives: a clean request is answered by the model again.
    let recovered = broker.forecast(ForecastRequest {
        origin: 0,
        dest: 1,
        t_end: 9,
        horizon: 1,
        step: 0,
        deadline: Duration::from_secs(30),
    });
    assert!(
        matches!(recovered.source, Source::Model { .. }),
        "broker did not recover after panic chaos: {:?}",
        recovered.source
    );

    // A rejected checkpoint and a trainer-reported non-finite count land
    // in the same ledger: register garbage bytes against a registry that
    // shares this stats instance, and fold in a training report...
    let garbage = std::env::temp_dir().join("stod_serve_stress_garbage.stpw");
    std::fs::write(&garbage, b"not a checkpoint").unwrap();
    let registry = Registry::new(
        ModelConfig {
            kind: ModelKind::Bf(BfConfig {
                encode_dim: 8,
                gru_hidden: 8,
                ..BfConfig::default()
            }),
            centroids: ds.city.centroids(),
            num_buckets: ds.spec.num_buckets,
        },
        Arc::clone(&stats),
    );
    assert!(registry.register_file(&garbage).is_err());
    std::fs::remove_file(&garbage).unwrap();
    stats.record_train_report(&TrainReport {
        nonfinite_batches: 3,
        ..TrainReport::default()
    });

    // ...and every fault counter is carried through the JSON export.
    let js = stats.snapshot().to_json();
    for (field, value) in [
        ("worker_panics", snap.worker_panics),
        ("respawns", snap.respawns),
        ("checkpoint_rejects", 1),
        ("nonfinite_batches", 3),
    ] {
        assert!(
            js.contains(&format!("\"{field}\":{value}")),
            "JSON export missing {field}={value}: {js}"
        );
    }
}
