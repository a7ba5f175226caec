//! Tier-1 chaos smoke gate (ISSUE 4 tentpole + satellite 6).
//!
//! Drives seeded, randomized fault schedules through the serve and train
//! paths and asserts the system always ends in a valid, explainable
//! state:
//!
//! * injected broker-worker panics are contained, every waiter is
//!   answered (model or NH fallback), the worker is respawned, and the
//!   stats ledger accounts for every request and every injected fault;
//! * corrupted checkpoint loads are rejected by checksum/layout
//!   validation while the previously active model keeps serving;
//! * injected save failures (full disk, interrupted write) never damage
//!   the on-disk checkpoint and never perturb the training trajectory;
//! * seeded mid-training aborts plus `train_resume` converge to the
//!   uninterrupted run bitwise, at forced 1 and 4 kernel threads.
//!
//! Without any flag this runs a small seed slice as part of tier-1;
//! `STOD_CHAOS=full` (set by `scripts/verify.sh --chaos`) widens the
//! seed matrix.

mod common;

use common::TmpDir;
use od_forecast::baselines::NaiveHistograms;
use od_forecast::core::{
    train_resume, train_robust, BfConfig, BfModel, OdForecaster, RobustConfig, TrainCheckpoint,
    TrainConfig, TrainError,
};
use od_forecast::faultline::{install, quiet, FaultPlan, FaultSite};
use od_forecast::nn::ParamStore;
use od_forecast::serve::{
    Broker, BrokerConfig, FeatureStore, ForecastRequest, ModelConfig, ModelKind, Registry,
    ServeStats, Source,
};
use od_forecast::traffic::{CityModel, OdDataset, SimConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 4;
const LOOKBACK: usize = 2;

fn is_full_matrix() -> bool {
    std::env::var_os("STOD_CHAOS").is_some()
}

/// Seeds of the fault schedules. Tier-1 runs the short slice; the
/// `--chaos` verify stage widens it via `STOD_CHAOS=full`.
fn chaos_seeds() -> Vec<u64> {
    if is_full_matrix() {
        (0..6).map(|i| 101 + 31 * i).collect()
    } else {
        vec![101, 163]
    }
}

fn tmp_dir(test: &str) -> TmpDir {
    TmpDir::new("chaos", test)
}

/// A promoted serving stack over an untrained (but architecturally valid)
/// BF model — chaos tests exercise control flow, not forecast quality.
fn serve_stack(seed: u64, workers: usize) -> (Broker, Arc<ServeStats>, Arc<Registry>) {
    let sim = SimConfig {
        num_days: 1,
        intervals_per_day: 16,
        trips_per_interval: 60.0,
        ..SimConfig::small(seed)
    };
    let ds = OdDataset::generate(CityModel::small(N), &sim);
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
    let model = config.build(seed);
    let store = ParamStore::from_bytes(model.params().to_bytes()).unwrap();
    let v = registry.register_store(store).unwrap();
    registry.promote(v).unwrap();
    let features = Arc::new(FeatureStore::new(N, ds.spec, ds.num_intervals()));
    for (t, tensor) in ds.tensors.iter().enumerate() {
        features.insert_tensor(t, tensor.clone());
    }
    let fallback = NaiveHistograms::fit(&ds, ds.num_intervals());
    let broker = Broker::new(
        Arc::clone(&registry),
        features,
        fallback,
        Arc::clone(&stats),
        BrokerConfig {
            workers,
            lookback: LOOKBACK,
            cache_capacity: 6,
            ..BrokerConfig::default()
        },
    );
    (broker, stats, registry)
}

fn req(t_end: usize, origin: usize, dest: usize) -> ForecastRequest {
    ForecastRequest {
        origin,
        dest,
        t_end,
        horizon: 1,
        step: 0,
        deadline: Duration::from_secs(30),
    }
}

fn assert_valid_hist(h: &[f32], what: &str) {
    let sum: f32 = h.iter().sum();
    assert!((sum - 1.0).abs() < 1e-3, "{what}: histogram sums to {sum}");
    assert!(h.iter().all(|&p| p >= 0.0), "{what}: negative mass");
}

/// Aborts the process with a diagnostic if `body` wedges — a chaos
/// schedule must degrade, never deadlock.
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

/// Spin until `cond` holds (the respawn counter lands a beat after the
/// panicked job's waiters are answered).
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "{what} did not settle");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Injected worker panics and stalls: the broker contains every panic,
/// respawns the worker, answers every request (model or NH), and the
/// ledger accounts for every request and every injected fault.
#[test]
fn injected_panics_and_stalls_leave_an_explainable_serving_state() {
    for seed in chaos_seeds() {
        let (broker, stats, _registry) = serve_stack(seed, 2);
        const CLIENTS: usize = 8;
        const ROUNDS: usize = 4;
        let guard = install(
            FaultPlan::new(seed)
                .with(FaultSite::WorkerPanic, 0.4, 0)
                .with(FaultSite::SlowWorker, 0.3, 3),
        );
        with_deadlock_watchdog(Duration::from_secs(120), "chaos barrage", || {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|client| {
                        let broker = &broker;
                        scope.spawn(move || {
                            for round in 0..ROUNDS {
                                // Mostly-distinct keys so panicked jobs keep
                                // being re-led and the schedule keeps firing.
                                let t_end = LOOKBACK + (client * ROUNDS + round) % 12;
                                let fc = broker.forecast(req(t_end, client % N, (client + 1) % N));
                                assert_valid_hist(&fc.histogram, "chaos response");
                                match fc.source {
                                    Source::Model { .. } | Source::Fallback(_) => {}
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
        wait_until("respawn ledger", || {
            let s = stats.snapshot();
            s.respawns == s.worker_panics
        });
        let snap = stats.snapshot();
        let total = (CLIENTS * ROUNDS) as u64;
        assert_eq!(snap.requests_total, total, "seed {seed}: lost requests");
        assert_eq!(snap.latency_count, total, "seed {seed}: latency ledger");
        assert_eq!(
            snap.worker_panics,
            guard.injected(FaultSite::WorkerPanic),
            "seed {seed}: every injected panic must be contained exactly once"
        );
        assert_eq!(snap.respawns, snap.worker_panics, "seed {seed}");
        // Each request is exactly one of: job leader (whose job either
        // completed as a model invocation or died to a panic and was
        // re-led later), join-in-flight, or cache hit.
        assert_eq!(
            snap.model_invocations + snap.worker_panics + snap.batched_joins + snap.cache_hits,
            total,
            "seed {seed}: outcome ledger inconsistent: {snap:?}"
        );
        drop(guard);
        // The pool recovered: a clean request is a model answer again.
        let _quiet = quiet();
        let fc = broker.forecast(req(LOOKBACK + 1, 0, 1));
        assert!(
            matches!(fc.source, Source::Model { .. }),
            "seed {seed}: broker did not recover after panic chaos: {:?}",
            fc.source
        );
    }
}

/// Injected checkpoint corruption (bit-flip, truncation, emptied file):
/// the registry rejects every damaged load via checksum/format validation,
/// records it, keeps the previously active version serving, and accepts
/// the very same file once the fault clears.
#[test]
fn corrupt_checkpoint_loads_are_rejected_and_the_active_model_keeps_serving() {
    let dir = tmp_dir("corrupt_checkpoint");
    for seed in chaos_seeds() {
        let (broker, stats, registry) = serve_stack(seed, 1);
        let path = dir.join(format!("ckpt_chaos_{seed}.stpw"));
        let candidate = registry.config().build(seed + 1);
        std::fs::write(&path, candidate.params().to_bytes()).unwrap();

        for mode in 0..3u64 {
            let guard = install(FaultPlan::new(seed).with(FaultSite::CkptCorrupt, 1.0, mode));
            let result = registry.register_file(&path);
            assert!(
                result.is_err(),
                "seed {seed} mode {mode}: corrupted checkpoint must be rejected"
            );
            assert_eq!(guard.injected(FaultSite::CkptCorrupt), 1);
        }
        // Fault-free from here on: another test's worker-panic plan must
        // not knock these forecasts off the model path.
        let _quiet = quiet();
        let snap = stats.snapshot();
        assert_eq!(snap.checkpoint_rejects, 3, "seed {seed}: rejects ledger");
        assert_eq!(registry.num_versions(), 1, "seed {seed}: registry grew");
        assert_eq!(registry.active_version(), Some(1), "seed {seed}");
        let fc = broker.forecast(req(LOOKBACK, 0, 1));
        assert!(
            matches!(fc.source, Source::Model { version: 1 }),
            "seed {seed}: previously active model must keep serving, got {:?}",
            fc.source
        );

        // Fault cleared: the identical bytes register and promote fine.
        let v = registry.register_file(&path).unwrap();
        assert_eq!(v, 2);
        registry.promote(v).unwrap();
        let fc = broker.forecast(req(LOOKBACK + 3, 0, 1));
        assert!(matches!(fc.source, Source::Model { version: 2 }));
        std::fs::remove_file(&path).unwrap();
    }
}

fn train_ds() -> OdDataset {
    let cfg = SimConfig {
        num_days: 2,
        intervals_per_day: 12,
        trips_per_interval: 100.0,
        ..SimConfig::small(7)
    };
    OdDataset::generate(CityModel::small(N), &cfg)
}

fn train_cfg(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 2,
        seed,
        ..TrainConfig::fast_test()
    }
}

fn loss_bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

/// Randomized save-failure schedules (full disk + interrupted write):
/// training completes, the trajectory is bitwise unperturbed, every
/// failure is counted, and whatever checkpoint file survives on disk
/// always loads cleanly.
#[test]
fn randomized_save_faults_never_corrupt_checkpoints_or_the_trajectory() {
    let dir = tmp_dir("save_faults");
    let ds = train_ds();
    let windows = ds.windows(2, 1);
    let mut total_failures = 0u64;
    for seed in chaos_seeds() {
        let cfg = train_cfg(seed);
        let mut base_model = BfModel::new(N, 7, BfConfig::default(), seed);
        let base = {
            let _quiet = quiet();
            train_robust(
                &mut base_model,
                &ds,
                &windows,
                None,
                &cfg,
                &RobustConfig::default(),
            )
            .unwrap()
        };

        let path = dir.join(format!("save_chaos_{seed}.stck"));
        let _ = std::fs::remove_file(&path);
        let rcfg = RobustConfig {
            ckpt_path: Some(path.clone()),
            ckpt_every_steps: 2,
            ..RobustConfig::default()
        };
        let mut model = BfModel::new(N, 7, BfConfig::default(), seed);
        let report = {
            let _guard = install(
                FaultPlan::new(seed)
                    .with(FaultSite::SaveDiskFull, 0.4, 0)
                    .with(FaultSite::SaveInterrupt, 0.4, 0),
            );
            train_robust(&mut model, &ds, &windows, None, &cfg, &rcfg).unwrap()
        };
        assert_eq!(
            loss_bits(&report.epoch_losses),
            loss_bits(&base.epoch_losses),
            "seed {seed}: save faults must not perturb the trajectory"
        );
        assert_eq!(
            model.params().to_bytes(),
            base_model.params().to_bytes(),
            "seed {seed}: save faults must not perturb the weights"
        );
        // Cadence saves (every 2 steps) + one save per epoch boundary:
        // every attempt either succeeded or was counted as a failure.
        let attempts = report.steps / 2 + cfg.epochs as u64;
        assert!(
            report.ckpt_save_failures <= attempts,
            "seed {seed}: {} failures out of {attempts} attempts",
            report.ckpt_save_failures
        );
        total_failures += report.ckpt_save_failures;
        if path.exists() {
            TrainCheckpoint::load(&path).unwrap_or_else(|e| {
                panic!("seed {seed}: surviving checkpoint must load cleanly: {e}")
            });
            std::fs::remove_file(&path).unwrap();
        }
    }
    assert!(
        total_failures > 0,
        "no save fault ever fired across the seed matrix; raise the probabilities"
    );
}

/// Seeded mid-training aborts + supervisor-style `train_resume` retries
/// converge to the uninterrupted run bitwise — at forced 1 and 4 kernel
/// threads, which must also agree with each other.
#[test]
fn abort_chaos_with_resume_converges_bitwise_at_one_and_four_threads() {
    let dir = tmp_dir("abort_resume");
    let ds = train_ds();
    let windows = ds.windows(2, 1);
    let heavy_seeds = if is_full_matrix() { 3 } else { 1 };
    for seed in chaos_seeds().into_iter().take(heavy_seeds) {
        let cfg = train_cfg(seed);
        let mut fingerprints = Vec::new();
        for &threads in &[1usize, 4] {
            let fp = od_forecast::tensor::par::with_forced_threads(threads, || {
                let mut base_model = BfModel::new(N, 7, BfConfig::default(), seed);
                let base = {
                    let _quiet = quiet();
                    train_robust(
                        &mut base_model,
                        &ds,
                        &windows,
                        None,
                        &cfg,
                        &RobustConfig::default(),
                    )
                    .unwrap()
                };

                let path = dir.join(format!("abort_chaos_{seed}_{threads}.stck"));
                let _ = std::fs::remove_file(&path);
                let rcfg = RobustConfig {
                    ckpt_path: Some(path.clone()),
                    ckpt_every_steps: 1,
                    ..RobustConfig::default()
                };
                let _guard = install(FaultPlan::new(seed).with(FaultSite::TrainAbort, 0.15, 0));
                let mut model = BfModel::new(N, 7, BfConfig::default(), seed);
                let mut attempts = 0;
                let report = loop {
                    attempts += 1;
                    assert!(attempts < 200, "abort chaos did not converge");
                    match train_resume(&mut model, &ds, &windows, None, &cfg, &rcfg) {
                        Ok(report) => break report,
                        Err(TrainError::Aborted { .. }) => {
                            // Fresh process: the checkpoint restores the state.
                            model = BfModel::new(N, 7, BfConfig::default(), seed);
                        }
                        Err(other) => panic!("unexpected error under abort chaos: {other}"),
                    }
                };
                assert_eq!(
                    loss_bits(&report.epoch_losses),
                    loss_bits(&base.epoch_losses),
                    "seed {seed} threads {threads}: resumed trajectory diverged"
                );
                assert_eq!(
                    model.params().to_bytes(),
                    base_model.params().to_bytes(),
                    "seed {seed} threads {threads}: resumed weights diverged"
                );
                let _ = std::fs::remove_file(&path);
                model.params().to_bytes().to_vec()
            });
            fingerprints.push(fp);
        }
        assert_eq!(
            fingerprints[0], fingerprints[1],
            "seed {seed}: 1-thread and 4-thread chaos end states must be bitwise identical"
        );
    }
}
