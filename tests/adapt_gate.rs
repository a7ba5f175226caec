//! Tier-1 streaming-adaptation gate (ISSUE 7 tentpole + satellites).
//!
//! End-to-end checks on the continual-adaptation pipeline:
//!
//! * under a rush-hour regime shift the adapted candidate's shadow EMD
//!   beats both the frozen incumbent and the online Kalman corrector,
//!   and the pipeline auto-promotes it via registry hot-swap while two
//!   clients keep forecasting (each answered, the serve ledger balanced);
//! * under stationary traffic no cycle ever promotes (no churn);
//! * chaos matrix — a kill mid-fine-tune resumes bitwise and still
//!   promotes; a corrupted candidate checkpoint is a typed reject that
//!   leaves the incumbent serving; a crash between the durable promotion
//!   record and the hot-swap recovers on restart serving the promoted
//!   weights;
//! * identical ingest yields an identical decision sequence and
//!   bitwise-identical promoted weights across runs and thread counts,
//!   and promotion invalidates the fleet result cache (bitwise-fresh
//!   answers);
//! * the shard's ingest snapshot is consistent under concurrent live
//!   pushes (no torn reads);
//! * every adaptation ledger balances, and the `adapt/city{i}/…` obs
//!   counters mirror the pipeline's counters exactly.
//!
//! Without any flag this runs a small seed slice as part of tier-1;
//! `STOD_CHAOS=full` (set by `scripts/verify.sh --adapt`) widens the
//! seed matrix.

mod common;

use common::TmpDir;
use od_forecast::adapt::{AdaptConfig, AdaptError, CityAdapter, CycleOutcome, Decision};
use od_forecast::baselines::NaiveHistograms;
use od_forecast::core::{train_robust, BfConfig, RobustConfig, TrainConfig};
use od_forecast::faultline::{install, FaultPlan, FaultSite};
use od_forecast::fleet::{Fleet, FleetConfig, FleetRequest, FleetSource, Shard, ShardConfig};
use od_forecast::nn::optim::StepDecay;
use od_forecast::nn::ParamStore;
use od_forecast::obs;
use od_forecast::serve::{FeatureStore, ModelConfig, ModelKind};
use od_forecast::tensor::par;
use od_forecast::traffic::{
    generate_drift, CityModel, DriftConfig, DriftKind, HistogramSpec, OdDataset, SimConfig, Trip,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Duration;

/// Serializes the traffic-driving tests: obs arming and fault injection
/// are process-global.
static TRAFFIC: Mutex<()> = Mutex::new(());

fn lock_traffic() -> std::sync::MutexGuard<'static, ()> {
    TRAFFIC.lock().unwrap_or_else(|e| e.into_inner())
}

const N: usize = 6;
const IPD: usize = 12;
const LOOKBACK: usize = 2;
const WINDOW_CAP: usize = 24;

/// Scenario seeds whose regime change is pronounced enough that the
/// fine-tuned candidate beats the always-on Kalman corrector on the
/// shadow slice. At milder seeds the corrector is the better forecaster
/// and a *hold* is the correct decision — that side of the policy is
/// pinned by [`stationary_traffic_never_promotes`], so the promotion
/// tests deliberately run where promotion is the right answer.
const DRIFT_SEEDS: [u64; 4] = [53279, 53291, 53293, 53294];

/// The tentpole's regime change: the whole daily demand + congestion
/// profile slides forward a quarter day, so every OD pair's speed
/// distribution moves — the incumbent's learned time-of-day alignment is
/// stale, and the corrector's time-of-day-blind per-pair average cannot
/// recover it.
fn drift_kind() -> DriftKind {
    DriftKind::RushHourShift { shift_intervals: 3 }
}

fn drift_seeds() -> Vec<u64> {
    if std::env::var_os("STOD_CHAOS").is_some() {
        DRIFT_SEEDS.to_vec()
    } else {
        vec![DRIFT_SEEDS[0]]
    }
}

fn sim_cfg(seed: u64) -> SimConfig {
    SimConfig {
        num_days: 3,
        intervals_per_day: IPD,
        trips_per_interval: 600.0,
        ..SimConfig::small(seed)
    }
}

fn bf_kind() -> ModelKind {
    ModelKind::Bf(BfConfig {
        encode_dim: 8,
        gru_hidden: 8,
        ..BfConfig::default()
    })
}

fn adapt_cfg() -> AdaptConfig {
    AdaptConfig {
        epochs: 20,
        holdout: 8,
        min_windows: 4,
        lookback: LOOKBACK,
        ckpt_every_steps: 1,
        ..AdaptConfig::default()
    }
}

fn tmp_dir(name: &str) -> TmpDir {
    TmpDir::new("adapt", name)
}

fn clone_store(store: &ParamStore) -> ParamStore {
    ParamStore::from_bytes(store.to_bytes()).unwrap()
}

/// One city's drift scenario: a stationary past (which trained the
/// incumbent and fitted the NH prior) and a drifting live stream.
struct Scenario {
    city: CityModel,
    drifted: OdDataset,
    trips: Vec<Vec<Trip>>,
    incumbent: ParamStore,
    nh: NaiveHistograms,
}

impl Scenario {
    fn new(seed: u64, kind: DriftKind) -> Scenario {
        let city = CityModel::small(N);
        let cfg = sim_cfg(seed);
        let (stationary, _) = generate_drift(city.clone(), &cfg, &DriftConfig::stationary());
        let (drifted, trips) =
            generate_drift(city.clone(), &cfg, &DriftConfig { kind, onset: IPD });
        // Incumbent: properly trained on the stationary regime.
        let model_cfg = Scenario::model_config_for(&city, &stationary);
        let mut model = model_cfg.build(seed ^ 0x1BC);
        let windows = stationary.windows(LOOKBACK, 1);
        let tcfg = TrainConfig {
            epochs: 4,
            batch_size: 8,
            schedule: StepDecay {
                initial: 5e-3,
                decay: 0.9,
                every: 2,
            },
            dropout: 0.0,
            clip_norm: 5.0,
            seed,
            verbose: false,
        };
        train_robust(
            model.as_mut(),
            &stationary,
            &windows,
            None,
            &tcfg,
            &RobustConfig::default(),
        )
        .unwrap();
        let incumbent = ParamStore::from_bytes(model.params().to_bytes()).unwrap();
        let nh = NaiveHistograms::fit(&stationary, stationary.num_intervals());
        Scenario {
            city,
            drifted,
            trips,
            incumbent,
            nh,
        }
    }

    fn model_config_for(city: &CityModel, ds: &OdDataset) -> ModelConfig {
        ModelConfig {
            kind: bf_kind(),
            centroids: city.centroids(),
            num_buckets: ds.spec.num_buckets,
        }
    }

    fn model_config(&self) -> ModelConfig {
        Scenario::model_config_for(&self.city, &self.drifted)
    }

    /// A single-shard fleet with the incumbent installed and the first
    /// `seal_upto` intervals of the live stream replayed and sealed.
    fn build_fleet(&self, seal_upto: usize) -> Fleet {
        let shard = Shard::new(
            0,
            self.city.name.clone(),
            self.model_config(),
            self.drifted.spec,
            self.nh.clone(),
            &ShardConfig {
                workers: 1,
                lookback: LOOKBACK,
                window_capacity: WINDOW_CAP,
                broker_cache_capacity: 8,
                retain_results: true,
                breaker: stod_fleet::BreakerConfig::default(),
            },
        );
        shard
            .install_checkpoint(clone_store(&self.incumbent))
            .unwrap();
        let fleet = Fleet::new(
            &FleetConfig {
                shards: 1,
                cache_capacity: 16,
                shed_depth: 64,
                cache_enabled: true,
            },
            vec![shard],
        );
        self.seal_range(&fleet, 0, seal_upto);
        fleet
    }

    /// Replays and seals intervals `[from, to)` of the live stream.
    fn seal_range(&self, fleet: &Fleet, from: usize, to: usize) {
        let shard = fleet.shard(0);
        for t in from..to {
            for trip in &self.trips[t] {
                shard.ingest_trip(*trip).unwrap();
            }
            shard.seal_interval(t);
        }
    }

    fn adapter(&self, dir: &std::path::Path) -> CityAdapter {
        CityAdapter::new(
            0,
            self.city.clone(),
            IPD,
            self.nh.clone(),
            self.drifted.spec.num_buckets,
            adapt_cfg(),
            dir.to_path_buf(),
        )
        .unwrap()
    }
}

fn req(t_end: usize) -> FleetRequest {
    FleetRequest {
        city: 0,
        origin: 0,
        dest: 1,
        t_end,
        horizon: 1,
        step: 0,
        deadline: Duration::from_secs(30),
    }
}

/// Tentpole: under a rush-hour shift the fine-tuned candidate beats both
/// the frozen incumbent and the online corrector on the shadow slice, and
/// the pipeline promotes it while two clients keep forecasting. The
/// adaptation ledger and the shard's serve ledger balance, and the obs
/// counters mirror the adaptation ledger exactly.
#[test]
fn drift_cycle_auto_promotes_when_candidate_beats_incumbent_and_corrector() {
    const CLIENTS: usize = 2;
    let _g = lock_traffic();
    for seed in drift_seeds() {
        let sc = Scenario::new(seed, drift_kind());
        let fleet = sc.build_fleet(3 * IPD);
        let dir = tmp_dir(&format!("drift_{seed}"));
        let mut adapter = sc.adapter(&dir);
        obs::with_mode(obs::ObsMode::On, || {
            obs::reset();
            // The clients are running when the cycle starts, and stop
            // when it returns.
            let start = Barrier::new(CLIENTS + 1);
            let cycle_done = AtomicBool::new(false);
            let (outcome, answers) = std::thread::scope(|scope| {
                let clients: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        let (fleet, start, cycle_done) = (&fleet, &start, &cycle_done);
                        scope.spawn(move || {
                            start.wait();
                            let mut answers = 0usize;
                            while !cycle_done.load(Ordering::Relaxed) {
                                let n = answers + c;
                                fleet.forecast(FleetRequest {
                                    origin: n % N,
                                    dest: (n + 1) % N,
                                    ..req(3 * IPD - 1)
                                });
                                answers += 1;
                            }
                            answers
                        })
                    })
                    .collect();
                start.wait();
                let outcome = adapter.run_cycle(&fleet);
                cycle_done.store(true, Ordering::Relaxed);
                let answers: Vec<usize> = clients.into_iter().map(|h| h.join().unwrap()).collect();
                (outcome.unwrap(), answers)
            });
            assert!(
                answers.iter().all(|&a| a >= 1),
                "seed {seed}: every client must be answered during the cycle, got {answers:?}"
            );
            assert_eq!(
                fleet.shard(0).stats().snapshot().ledger_balance(),
                0,
                "seed {seed}: serve ledger"
            );
            let CycleOutcome::Promoted {
                version, shadow, ..
            } = outcome
            else {
                panic!("seed {seed}: expected a promotion under drift, got {outcome:?}");
            };
            assert_eq!(version, 2, "seed {seed}");
            assert!(
                shadow.candidate.emd < shadow.incumbent.emd * (1.0 - adapt_cfg().margin),
                "seed {seed}: candidate {:.4} must beat incumbent {:.4} by the margin",
                shadow.candidate.emd,
                shadow.incumbent.emd
            );
            assert!(
                shadow.candidate.emd < shadow.corrector.emd,
                "seed {seed}: candidate {:.4} must beat the corrector {:.4}",
                shadow.candidate.emd,
                shadow.corrector.emd
            );
            assert_eq!(fleet.shard(0).registry().active_version(), Some(2));

            let snap = adapter.stats().snapshot();
            assert_eq!(snap.ledger_balance(), 0, "seed {seed}: adapt ledger");
            assert_eq!(
                (snap.promotions, snap.promoted_clean, snap.rollbacks),
                (1, 1, 0),
                "seed {seed}"
            );
            let o = obs::snapshot();
            let c = |suffix: &str| o.counter(&format!("adapt/city0/{suffix}"));
            assert_eq!(c("cycles"), snap.cycles_started, "seed {seed}");
            assert_eq!(c("fine_tunes"), snap.fine_tunes, "seed {seed}");
            assert_eq!(c("promotions"), snap.promotions, "seed {seed}");
            assert_eq!(c("rollbacks"), snap.rollbacks, "seed {seed}");
            assert_eq!(
                c("candidate_rejects"),
                snap.rejected_candidates,
                "seed {seed}"
            );
            assert_eq!(c("holds"), snap.held, "seed {seed}");
            obs::reset();
        });
    }
}

/// Satellite: each candidate keeps its own backing file. Two promoting
/// cycles over different snapshots leave every registered version
/// scrubbing clean and the second promotion active; with one shared file
/// the second candidate would overwrite the first one's checkpoint.
#[test]
fn two_cycles_leave_every_candidate_file_scrubbing_clean() {
    let _g = lock_traffic();
    let sc = Scenario::new(DRIFT_SEEDS[0], drift_kind());
    let fleet = sc.build_fleet(30);
    let dir = tmp_dir("two_cycles_scrub");
    let mut adapter = sc.adapter(&dir);
    adapter.run_cycle(&fleet).unwrap();
    sc.seal_range(&fleet, 30, 3 * IPD);
    adapter.run_cycle(&fleet).unwrap();
    let decisions: Vec<Decision> = adapter.decisions().iter().map(|&(_, d)| d).collect();
    assert_eq!(decisions, [Decision::Promoted, Decision::Promoted]);
    assert_eq!(adapter.stats().snapshot().ledger_balance(), 0);
    let registry = fleet.shard(0).registry();
    let report = registry.scrub();
    assert!(report.is_clean(), "scrub rejected {:?}", report.rejects);
    assert_eq!(report.checked, 3);
    assert_eq!(registry.active_version(), Some(3));
}

/// Satellite: under stationary traffic the pipeline never promotes — the
/// corrector bar keeps a same-regime fine-tune from churning the registry.
#[test]
fn stationary_traffic_never_promotes() {
    let _g = lock_traffic();
    let sc = Scenario::new(0x57A7, DriftKind::Stationary);
    let fleet = sc.build_fleet(3 * IPD - 2);
    let dir = tmp_dir("stationary");
    let mut adapter = sc.adapter(&dir);

    let first = adapter.run_cycle(&fleet).unwrap();
    assert!(
        matches!(first, CycleOutcome::Held(_)),
        "cycle 1 must hold under stationary traffic, got {first:?}"
    );
    // More stationary intervals arrive; still no reason to churn.
    sc.seal_range(&fleet, 3 * IPD - 2, 3 * IPD);
    let second = adapter.run_cycle(&fleet).unwrap();
    assert!(
        matches!(second, CycleOutcome::Held(_)),
        "cycle 2 must hold under stationary traffic, got {second:?}"
    );
    assert_eq!(
        fleet.shard(0).registry().active_version(),
        Some(1),
        "the incumbent must still be serving"
    );
    let snap = adapter.stats().snapshot();
    assert_eq!(snap.promotions, 0, "no churn");
    assert_eq!(snap.held, 2);
    assert_eq!(snap.ledger_balance(), 0);
    assert!(
        !adapter.promoted_path().exists(),
        "no durable promotion record may exist when nothing was promoted"
    );
}

/// Chaos: aborts rain on the fine-tune; every retry resumes from the
/// cadence checkpoint, the eventual promotion happens anyway, and the
/// promoted weights are bitwise identical to an uninterrupted control run.
#[test]
fn kill_mid_fine_tune_resumes_bitwise_and_still_promotes() {
    let _g = lock_traffic();
    let sc = Scenario::new(DRIFT_SEEDS[0], drift_kind());

    // Control: one uninterrupted cycle.
    let control_fleet = sc.build_fleet(3 * IPD);
    let control_dir = tmp_dir("kill_control");
    let mut control = sc.adapter(&control_dir);
    let outcome = control.run_cycle(&control_fleet).unwrap();
    assert!(
        matches!(outcome, CycleOutcome::Promoted { .. }),
        "control run must promote, got {outcome:?}"
    );
    let want = std::fs::read(control.promoted_path()).unwrap();

    // Chaos: every retry is the *same* run_cycle call; fine_tune_resume
    // picks the per-step checkpoint back up.
    let fleet = sc.build_fleet(3 * IPD);
    let dir = tmp_dir("kill_chaos");
    let mut adapter = sc.adapter(&dir);
    let guard = install(FaultPlan::new(0xAB07).with(FaultSite::TrainAbort, 0.10, 0));
    let mut aborts = 0u64;
    let outcome = loop {
        match adapter.run_cycle(&fleet) {
            Ok(o) => break o,
            Err(AdaptError::Aborted { .. }) => {
                aborts += 1;
                assert!(aborts < 200, "fine-tune never converged under abort chaos");
            }
            Err(e) => panic!("unexpected adapt error under abort chaos: {e}"),
        }
    };
    assert!(
        guard.injected(FaultSite::TrainAbort) > 0,
        "the abort chaos must actually have fired"
    );
    drop(guard);
    assert!(
        aborts > 0,
        "at prob 0.10 over dozens of steps, aborts are certain"
    );
    assert!(
        matches!(outcome, CycleOutcome::Promoted { .. }),
        "chaos run must still promote, got {outcome:?}"
    );
    let got = std::fs::read(adapter.promoted_path()).unwrap();
    assert_eq!(
        got, want,
        "kill+resume promoted weights must be bitwise identical to the uninterrupted run"
    );
    let snap = adapter.stats().snapshot();
    assert_eq!(snap.aborted, aborts);
    assert_eq!(snap.promoted_clean, 1);
    assert_eq!(snap.ledger_balance(), 0, "every aborted cycle is accounted");
}

/// Chaos: a corrupted candidate checkpoint (all three corruption modes)
/// is a typed reject — the incumbent keeps serving, the registry reject
/// counter and the adapter ledger both record it — and a clean retry
/// promotes normally.
#[test]
fn corrupt_candidate_is_typed_reject_and_incumbent_keeps_serving() {
    let _g = lock_traffic();
    let sc = Scenario::new(DRIFT_SEEDS[0], drift_kind());
    let fleet = sc.build_fleet(3 * IPD);
    let dir = tmp_dir("corrupt");
    let mut adapter = sc.adapter(&dir);
    let incumbent_before = fleet
        .shard(0)
        .registry()
        .active()
        .unwrap()
        .export_store()
        .to_bytes();

    for mode in 0..3u64 {
        let guard = install(FaultPlan::new(0xC0 + mode).with(FaultSite::CkptCorrupt, 1.0, mode));
        let outcome = adapter.run_cycle(&fleet).unwrap();
        assert!(
            guard.injected(FaultSite::CkptCorrupt) > 0,
            "mode {mode}: corruption must actually have fired"
        );
        drop(guard);
        assert!(
            matches!(outcome, CycleOutcome::RejectedCandidate(_)),
            "mode {mode}: expected a typed reject, got {outcome:?}"
        );
        assert_eq!(
            fleet.shard(0).registry().active_version(),
            Some(1),
            "mode {mode}: the incumbent must keep serving through the reject"
        );
    }
    assert_eq!(
        fleet
            .shard(0)
            .registry()
            .active()
            .unwrap()
            .export_store()
            .to_bytes(),
        incumbent_before,
        "the serving incumbent's weights must be untouched by rejected candidates"
    );
    assert_eq!(fleet.shard(0).stats().snapshot().checkpoint_rejects, 3);
    let snap = adapter.stats().snapshot();
    assert_eq!(snap.rejected_candidates, 3);
    assert_eq!(snap.ledger_balance(), 0);

    // With the corruption gone, the very same cycle promotes.
    let outcome = adapter.run_cycle(&fleet).unwrap();
    let CycleOutcome::Promoted { version, .. } = outcome else {
        panic!("clean retry must promote, got {outcome:?}");
    };
    assert_eq!(fleet.shard(0).registry().active_version(), Some(version));
    assert_eq!(adapter.stats().snapshot().ledger_balance(), 0);
}

/// Chaos: a crash between the durable promotion record and the registry
/// hot-swap loses nothing — a restarted fleet plus [`CityAdapter::recover`]
/// serves exactly the weights the crashed process had decided to promote.
#[test]
fn promote_crash_recovers_serving_the_promoted_weights() {
    let _g = lock_traffic();
    let sc = Scenario::new(DRIFT_SEEDS[0], drift_kind());

    // Control: the promotion this crash should have completed.
    let control_fleet = sc.build_fleet(3 * IPD);
    let control_dir = tmp_dir("crash_control");
    let mut control = sc.adapter(&control_dir);
    assert!(matches!(
        control.run_cycle(&control_fleet).unwrap(),
        CycleOutcome::Promoted { .. }
    ));
    let want = std::fs::read(control.promoted_path()).unwrap();

    let fleet = sc.build_fleet(3 * IPD);
    let dir = tmp_dir("crash");
    let mut adapter = sc.adapter(&dir);
    let guard = install(FaultPlan::new(0xCAFE).with(FaultSite::PromoteCrash, 1.0, 0));
    let err = adapter.run_cycle(&fleet).unwrap_err();
    assert!(guard.injected(FaultSite::PromoteCrash) > 0);
    drop(guard);
    assert!(
        matches!(err, AdaptError::Crashed { .. }),
        "expected the typed promote-crash, got {err}"
    );
    assert_eq!(
        fleet.shard(0).registry().active_version(),
        Some(1),
        "the crash hit before the swap: the old fleet still serves the incumbent"
    );
    assert_eq!(
        std::fs::read(adapter.promoted_path()).unwrap(),
        want,
        "the durable promotion record must already hold the candidate weights"
    );
    let snap = adapter.stats().snapshot();
    assert_eq!(snap.crashed, 1);
    assert_eq!(snap.ledger_balance(), 0);

    // "Restart": a fresh fleet over the same replay; recovery replays the
    // durable record into the registry.
    let restarted = sc.build_fleet(3 * IPD);
    let recovered = adapter
        .recover(&restarted)
        .unwrap()
        .expect("the durable record must recover a version");
    assert_eq!(
        restarted.shard(0).registry().active_version(),
        Some(recovered)
    );
    let served = restarted
        .shard(0)
        .registry()
        .active()
        .unwrap()
        .export_store()
        .to_bytes();
    assert_eq!(
        served,
        ParamStore::load(&control.promoted_path())
            .unwrap()
            .to_bytes(),
        "the restarted fleet must serve the promoted weights bitwise"
    );
    // And the two fleets agree on live forecasts.
    let a = control_fleet.forecast(req(3 * IPD - 1));
    let b = restarted.forecast(req(3 * IPD - 1));
    assert_eq!(a.histogram, b.histogram);
}

/// Satellite: the whole multi-cycle adaptation is a pure function of
/// (seeds, ingest) — the decision sequence and the promoted weights are
/// identical across independent runs and across forced 1 vs 4 kernel
/// threads.
#[test]
fn identical_ingest_gives_identical_decisions_and_weights_across_runs_and_threads() {
    let _g = lock_traffic();
    let run = |threads: usize, tag: &str| -> (Vec<(usize, Decision)>, Vec<u8>, Vec<f32>) {
        par::with_threads(threads, || {
            let sc = Scenario::new(DRIFT_SEEDS[0], drift_kind());
            let fleet = sc.build_fleet(3 * IPD - 2);
            let dir = tmp_dir(tag);
            let mut adapter = sc.adapter(&dir);
            adapter.run_cycle(&fleet).unwrap();
            sc.seal_range(&fleet, 3 * IPD - 2, 3 * IPD);
            adapter.run_cycle(&fleet).unwrap();
            let weights = std::fs::read(adapter.promoted_path()).unwrap_or_default();
            let fc = fleet.forecast(req(3 * IPD - 1));
            (adapter.decisions().to_vec(), weights, fc.histogram)
        })
    };
    let a = run(1, "det_a");
    let b = run(1, "det_b");
    assert_eq!(a.0, b.0, "decision sequences must be identical across runs");
    assert_eq!(
        a.1, b.1,
        "promoted weights must be bitwise identical across runs"
    );
    assert_eq!(
        a.2, b.2,
        "served forecasts must be bitwise identical across runs"
    );
    let c = run(4, "det_c");
    assert_eq!(
        a.0, c.0,
        "decision sequence must not depend on thread count"
    );
    assert_eq!(a.1, c.1, "promoted weights must not depend on thread count");
    assert_eq!(a.2, c.2, "served forecasts must not depend on thread count");
    assert!(
        a.0.iter().any(|(_, d)| *d == Decision::Promoted),
        "the determinism scenario must actually exercise a promotion, got {:?}",
        a.0
    );
}

/// Satellite: a promotion invalidates the fleet's result cache — the next
/// answer comes from the new model, bitwise equal to a never-cached fleet
/// serving the same weights.
#[test]
fn promotion_invalidates_fleet_result_cache_bitwise_fresh() {
    let _g = lock_traffic();
    let sc = Scenario::new(DRIFT_SEEDS[0], drift_kind());
    let fleet = sc.build_fleet(3 * IPD);
    let r = req(3 * IPD - 1);
    let warm = fleet.forecast(r);
    assert!(matches!(warm.source, FleetSource::Model { version: 1 }));
    let cached = fleet.forecast(r);
    assert!(
        matches!(cached.source, FleetSource::ResultCache { version: 1 }),
        "the second ask must be a cache hit, got {:?}",
        cached.source
    );

    let dir = tmp_dir("cache_inval");
    let mut adapter = sc.adapter(&dir);
    let CycleOutcome::Promoted { version, .. } = adapter.run_cycle(&fleet).unwrap() else {
        panic!("scenario must promote");
    };

    let fresh = fleet.forecast(r);
    assert!(
        matches!(fresh.source, FleetSource::Model { version: v } if v == version),
        "a stale cached forecast escaped across the promotion: {:?}",
        fresh.source
    );
    assert_ne!(
        fresh.histogram, cached.histogram,
        "the adapted model must actually answer differently here"
    );

    // Bitwise-fresh: a second fleet that never cached anything and serves
    // the promoted weights directly gives the same answer.
    let reference = sc.build_fleet(3 * IPD);
    reference
        .hot_swap(0, ParamStore::load(&adapter.promoted_path()).unwrap())
        .unwrap();
    let direct = reference.forecast(r);
    assert!(matches!(direct.source, FleetSource::Model { .. }));
    assert_eq!(fresh.histogram, direct.histogram);
}

/// Satellite (regression): [`FeatureStore::snapshot_window`] under a
/// concurrent storm of `push_trip` calls never tears — sealed
/// intervals are immutable, so every in-race snapshot must agree bitwise
/// with the final state wherever they overlap.
#[test]
fn ingest_snapshot_is_consistent_under_concurrent_pushes() {
    const INTERVALS: usize = 512;
    const TRIPS_PER_INTERVAL: usize = 40;
    let store = FeatureStore::new(4, HistogramSpec::paper(), 8);
    let barrier = std::sync::Barrier::new(2);
    let snapshots = std::thread::scope(|scope| {
        let store = &store;
        let barrier = &barrier;
        let pusher = scope.spawn(move || {
            barrier.wait();
            for t in 0..INTERVALS {
                for i in 0..TRIPS_PER_INTERVAL {
                    let trip = Trip {
                        origin: i % 4,
                        dest: (i + 1) % 4,
                        interval: t,
                        distance_km: 1.0 + (i % 7) as f64,
                        speed_ms: 3.0 + (i % 11) as f64,
                    };
                    store.push_trip(trip).unwrap();
                }
                store.seal_interval(t);
            }
        });
        let mut snaps = Vec::new();
        barrier.wait();
        while !pusher.is_finished() {
            if let Some(snap) = store.snapshot_window() {
                snaps.push(snap);
            }
        }
        pusher.join().unwrap();
        snaps
    });
    assert!(
        !snapshots.is_empty(),
        "the snapshotting thread must have raced the pusher at least once"
    );
    let last = store.snapshot_window().unwrap();
    assert_eq!(last.last(), Some(INTERVALS - 1));
    // Sealed intervals are immutable, so wherever two snapshots overlap —
    // consecutive in-race ones, or an in-race one against the final state —
    // they must agree bitwise.
    let compare = |a: &od_forecast::serve::IngestSnapshot,
                   b: &od_forecast::serve::IngestSnapshot| {
        assert!(a.len() <= 8, "snapshot wider than the store's capacity");
        for (i, tensor) in a.tensors.iter().enumerate() {
            let t = a.first + i;
            if t < b.first || t > b.last().unwrap() {
                continue;
            }
            let other = &b.tensors[t - b.first];
            assert_eq!(
                tensor.data, other.data,
                "torn read: interval {t} changed after it was sealed"
            );
            assert_eq!(tensor.mask, other.mask, "torn mask at interval {t}");
        }
    };
    for pair in snapshots.windows(2) {
        compare(&pair[0], &pair[1]);
    }
    for snap in &snapshots {
        compare(snap, &last);
    }
}
