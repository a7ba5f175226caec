//! Crash-safe training: kill-at-any-minibatch + resume must reproduce the
//! uninterrupted run bitwise, at any thread count; non-finite faults must
//! follow the configured policy; checkpoint I/O faults must never damage
//! the previous checkpoint.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use stod_core::config::BfConfig;
use stod_core::{
    train, train_resume, train_robust, BfModel, FaultPolicy, Mode, ModelOutput, OdForecaster,
    RobustConfig, TrainConfig, TrainError, TrainReport,
};
use stod_faultline::{install, quiet, FaultPlan, FaultSite};
use stod_nn::{ParamStore, StoreError, Tape};
use stod_tensor::rng::Rng64;
use stod_tensor::Tensor;
use stod_traffic::{CityModel, OdDataset, SimConfig, Window};

fn tiny_ds() -> OdDataset {
    let cfg = SimConfig {
        num_days: 2,
        intervals_per_day: 12,
        trips_per_interval: 100.0,
        ..SimConfig::small(7)
    };
    OdDataset::generate(CityModel::small(4), &cfg)
}

fn fast_cfg(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 2,
        seed,
        ..TrainConfig::fast_test()
    }
}

/// One test's own scratch directory, removed on drop unless the thread is
/// panicking, so a failed test keeps its checkpoints.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(test: &str) -> TmpDir {
        let dir = std::env::temp_dir().join(format!("stod_resume_{}_{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TmpDir(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

fn fresh_model(seed: u64) -> BfModel {
    BfModel::new(4, 7, BfConfig::default(), seed)
}

/// Bitwise fingerprint of a finished run: parameter bytes + report bits.
fn fingerprint(model: &BfModel, report: &TrainReport) -> (Vec<u8>, Vec<u32>, Vec<u64>, u64) {
    (
        model.params().to_bytes().to_vec(),
        report.epoch_losses.iter().map(|l| l.to_bits()).collect(),
        report.val_emd.iter().map(|v| v.to_bits()).collect(),
        report.steps,
    )
}

/// The tentpole guarantee: for several seeds and kill points, at 1 and 4
/// threads, kill-at-minibatch + resume reproduces the uninterrupted run's
/// loss trajectory, validation curve, and final weights bitwise.
#[test]
fn kill_and_resume_is_bitwise_identical() {
    let dir = TmpDir::new("kill_and_resume");
    // Fault-free: the chaos tests in this binary arm plans process-wide.
    let _quiet = quiet();
    let ds = tiny_ds();
    let windows = ds.windows(2, 1);
    let val = &windows[..4];

    for &threads in &[1usize, 4] {
        stod_tensor::par::with_forced_threads(threads, || {
            for seed in [11u64, 23] {
                let cfg = fast_cfg(seed);

                // Uninterrupted baseline (no checkpoint I/O at all —
                // checkpointing must not influence the trajectory).
                let mut base_model = fresh_model(seed);
                let base = train_robust(
                    &mut base_model,
                    &ds,
                    &windows,
                    Some(val),
                    &cfg,
                    &RobustConfig::default(),
                )
                .unwrap();
                let base_fp = fingerprint(&base_model, &base);
                assert!(
                    base.steps >= 6,
                    "test needs several steps, got {}",
                    base.steps
                );

                for kill_at in [1u64, 4, base.steps - 1] {
                    let path = dir.file(&format!("kill_{threads}_{seed}_{kill_at}.stck"));
                    let _ = std::fs::remove_file(&path);
                    let rcfg = RobustConfig {
                        ckpt_path: Some(path.clone()),
                        ckpt_every_steps: 3,
                        stop_after_steps: Some(kill_at),
                        ..RobustConfig::default()
                    };
                    let mut killed_model = fresh_model(seed);
                    match train_robust(&mut killed_model, &ds, &windows, Some(val), &cfg, &rcfg) {
                        Err(TrainError::Aborted { steps }) => assert_eq!(steps, kill_at),
                        other => panic!("expected abort at {kill_at}, got {other:?}"),
                    }

                    // Resume in a fresh process-equivalent: new model (the
                    // checkpoint overwrites its weights), same configs.
                    let rcfg_resume = RobustConfig {
                        stop_after_steps: None,
                        ..rcfg
                    };
                    let mut resumed_model = fresh_model(seed);
                    let resumed = train_resume(
                        &mut resumed_model,
                        &ds,
                        &windows,
                        Some(val),
                        &cfg,
                        &rcfg_resume,
                    )
                    .unwrap();
                    assert_eq!(
                        fingerprint(&resumed_model, &resumed),
                        base_fp,
                        "threads={threads} seed={seed} kill_at={kill_at}"
                    );
                    let _ = std::fs::remove_file(&path);
                }
            }
        });
    }
}

/// Thread count must not change the robust trajectory either (the plain
/// trainer already guarantees this; the robust loop must preserve it).
#[test]
fn robust_trajectory_thread_invariant() {
    // Fault-free: the chaos tests in this binary arm plans process-wide.
    let _quiet = quiet();
    let ds = tiny_ds();
    let windows = ds.windows(2, 1);
    let cfg = fast_cfg(5);
    let run = |threads: usize| {
        stod_tensor::par::with_forced_threads(threads, || {
            let mut model = fresh_model(5);
            let report = train_robust(
                &mut model,
                &ds,
                &windows,
                None,
                &cfg,
                &RobustConfig::default(),
            )
            .unwrap();
            fingerprint(&model, &report)
        })
    };
    assert_eq!(run(1), run(4));
}

/// `train_resume` without an existing checkpoint file starts fresh.
#[test]
fn resume_without_checkpoint_starts_fresh() {
    let dir = TmpDir::new("fresh_start");
    // Fault-free: the chaos tests in this binary arm plans process-wide.
    let _quiet = quiet();
    let ds = tiny_ds();
    let windows = ds.windows(2, 1);
    let cfg = fast_cfg(3);
    let path = dir.file("fresh_start.stck");
    let _ = std::fs::remove_file(&path);
    let rcfg = RobustConfig {
        ckpt_path: Some(path.clone()),
        ..RobustConfig::default()
    };
    let mut model = fresh_model(3);
    let report = train_resume(&mut model, &ds, &windows, None, &cfg, &rcfg).unwrap();
    assert_eq!(report.epoch_losses.len(), cfg.epochs);
    assert!(path.exists(), "epoch-boundary checkpoint must be written");
    let _ = std::fs::remove_file(&path);
}

/// A damaged checkpoint is a hard, typed resume error — never a panic,
/// never a silent restart.
#[test]
fn resume_rejects_damaged_checkpoint() {
    let dir = TmpDir::new("damaged");
    // Fault-free: the chaos tests in this binary arm plans process-wide.
    let _quiet = quiet();
    let ds = tiny_ds();
    let windows = ds.windows(2, 1);
    let cfg = fast_cfg(4);

    let garbage = dir.file("garbage.stck");
    std::fs::write(&garbage, b"not a checkpoint at all").unwrap();
    let rcfg = RobustConfig {
        ckpt_path: Some(garbage.clone()),
        ..RobustConfig::default()
    };
    let mut model = fresh_model(4);
    assert!(matches!(
        train_resume(&mut model, &ds, &windows, None, &cfg, &rcfg),
        Err(TrainError::Resume(_))
    ));

    // A real checkpoint with one flipped bit must fail the CRC.
    let path = dir.file("flipped.stck");
    let _ = std::fs::remove_file(&path);
    let rcfg = RobustConfig {
        ckpt_path: Some(path.clone()),
        ckpt_every_steps: 2,
        stop_after_steps: Some(3),
        ..RobustConfig::default()
    };
    let mut model = fresh_model(4);
    let _ = train_robust(&mut model, &ds, &windows, None, &cfg, &rcfg);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&path, &bytes).unwrap();
    let mut model = fresh_model(4);
    match train_resume(&mut model, &ds, &windows, None, &cfg, &rcfg) {
        Err(TrainError::Resume(StoreError::Checksum { .. })) => {}
        other => panic!("expected checksum resume error, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&garbage);
}

/// Injected save failures (full disk, interrupted write) must leave the
/// previous checkpoint intact and must not alter the training trajectory.
#[test]
fn injected_save_faults_never_damage_previous_checkpoint() {
    let dir = TmpDir::new("save_faults");
    let ds = tiny_ds();
    let windows = ds.windows(2, 1);
    let cfg = fast_cfg(6);
    let path = dir.file("savefault.stck");
    let _ = std::fs::remove_file(&path);
    let rcfg = RobustConfig {
        ckpt_path: Some(path.clone()),
        ckpt_every_steps: 2,
        ..RobustConfig::default()
    };

    // Fault-free baseline.
    let quiet_baseline = quiet();
    let mut base_model = fresh_model(6);
    let base = train_robust(
        &mut base_model,
        &ds,
        &windows,
        None,
        &cfg,
        &RobustConfig::default(),
    )
    .unwrap();
    let good_ckpt = std::fs::read({
        // Produce a valid first checkpoint file to be "the previous one".
        let mut m = fresh_model(6);
        let pre = RobustConfig {
            stop_after_steps: Some(2),
            ..rcfg.clone()
        };
        let _ = train_robust(&mut m, &ds, &windows, None, &cfg, &pre);
        &path
    })
    .unwrap();
    drop(quiet_baseline);

    // Every subsequent save fails (alternating fault kinds by seed).
    for (fault_seed, site) in [
        (31u64, FaultSite::SaveDiskFull),
        (32, FaultSite::SaveInterrupt),
    ] {
        let _g = install(FaultPlan::new(fault_seed).with(site, 1.0, 0));
        let mut model = fresh_model(6);
        let report = train_robust(&mut model, &ds, &windows, None, &cfg, &rcfg).unwrap();
        assert!(
            report.ckpt_save_failures > 0,
            "{site:?}: save failures must be counted"
        );
        assert_eq!(
            report
                .epoch_losses
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>(),
            base.epoch_losses
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>(),
            "{site:?}: checkpoint I/O failures must not change the trajectory"
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            good_ckpt,
            "{site:?}: previous checkpoint must survive every failed save"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// The seeded `train-abort` chaos site kills training mid-run; resume
/// from the cadence checkpoint completes and matches the baseline.
#[test]
fn injected_abort_then_resume_matches_baseline() {
    let dir = TmpDir::new("abort_resume");
    let ds = tiny_ds();
    let windows = ds.windows(2, 1);
    let cfg = fast_cfg(8);
    let path = dir.file("chaos_abort.stck");
    let _ = std::fs::remove_file(&path);
    let rcfg = RobustConfig {
        ckpt_path: Some(path.clone()),
        ckpt_every_steps: 1,
        ..RobustConfig::default()
    };

    let mut base_model = fresh_model(8);
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

    let mut model = fresh_model(8);
    {
        let _g = install(FaultPlan::new(77).with(FaultSite::TrainAbort, 0.2, 0));
        // Keep resuming under injected aborts until a run survives; each
        // retry continues from the last checkpoint like a supervisor
        // restarting a crashed job.
        let mut attempts = 0;
        loop {
            attempts += 1;
            assert!(attempts < 200, "chaos loop did not converge");
            match train_resume(&mut model, &ds, &windows, None, &cfg, &rcfg) {
                Ok(report) => {
                    assert_eq!(
                        report
                            .epoch_losses
                            .iter()
                            .map(|l| l.to_bits())
                            .collect::<Vec<_>>(),
                        base.epoch_losses
                            .iter()
                            .map(|l| l.to_bits())
                            .collect::<Vec<_>>(),
                    );
                    break;
                }
                Err(TrainError::Aborted { .. }) => {
                    model = fresh_model(8); // simulate a fresh process
                }
                Err(other) => panic!("unexpected error under abort chaos: {other}"),
            }
        }
    }
    assert_eq!(
        base_model.params().to_bytes(),
        model.params().to_bytes(),
        "post-chaos weights must match the uninterrupted run bitwise"
    );
    let _ = std::fs::remove_file(&path);
}

/// A model wrapper whose training-mode loss turns NaN on every forward,
/// for exercising the non-finite fault policies deterministically.
struct Poisoned {
    inner: BfModel,
    forwards: AtomicU64,
}

impl Poisoned {
    fn new(seed: u64) -> Poisoned {
        Poisoned {
            inner: fresh_model(seed),
            forwards: AtomicU64::new(0),
        }
    }
}

impl OdForecaster for Poisoned {
    fn name(&self) -> &str {
        "poisoned"
    }
    fn params(&self) -> &ParamStore {
        self.inner.params()
    }
    fn params_mut(&mut self) -> &mut ParamStore {
        self.inner.params_mut()
    }
    fn forward(
        &self,
        tape: &mut Tape,
        inputs: &[Tensor],
        horizon: usize,
        mode: Mode,
        rng: &mut Rng64,
    ) -> ModelOutput {
        let mut out = self.inner.forward(tape, inputs, horizon, mode, rng);
        if mode.is_train() {
            self.forwards.fetch_add(1, Ordering::Relaxed);
            let s = tape.sum_all(out.predictions[0]);
            let nan = tape.scale(s, f32::NAN);
            out.regularizer = Some(match out.regularizer {
                Some(r) => tape.add(r, nan),
                None => nan,
            });
        }
        out
    }
}

#[test]
fn halt_policy_stops_on_first_poisoned_batch() {
    // Fault-free: the chaos tests in this binary arm plans process-wide.
    let _quiet = quiet();
    let ds = tiny_ds();
    let windows = ds.windows(2, 1);
    let cfg = fast_cfg(1);
    let mut model = Poisoned::new(1);
    match train_robust(
        &mut model,
        &ds,
        &windows,
        None,
        &cfg,
        &RobustConfig::default(),
    ) {
        Err(TrainError::NonFinite {
            epoch: 0,
            minibatch: 0,
        }) => {}
        other => panic!("expected NonFinite at (0, 0), got {other:?}"),
    }
}

/// `train` is the same loop under `FaultPolicy::Halt`: the first
/// poisoned batch stops it, in release builds too, with the
/// `TrainError::NonFinite` text.
#[test]
#[should_panic(expected = "non-finite loss/gradients at epoch 0 minibatch 0")]
fn train_panics_on_the_first_poisoned_batch() {
    // Fault-free: the chaos tests in this binary arm plans process-wide.
    let _quiet = quiet();
    let ds = tiny_ds();
    let windows = ds.windows(2, 1);
    let mut model = Poisoned::new(1);
    train(&mut model, &ds, &windows, None, &fast_cfg(1));
}

#[test]
fn skip_policy_completes_and_counts_every_poisoned_batch() {
    // Fault-free: the chaos tests in this binary arm plans process-wide.
    let _quiet = quiet();
    let ds = tiny_ds();
    let windows = ds.windows(2, 1);
    let cfg = fast_cfg(2);
    let rcfg = RobustConfig {
        policy: FaultPolicy::SkipBatch,
        ..RobustConfig::default()
    };
    let mut model = Poisoned::new(2);
    let before = model.params().to_bytes();
    let report = train_robust(&mut model, &ds, &windows, None, &cfg, &rcfg).unwrap();
    let chunks_per_epoch = windows.len().div_ceil(cfg.batch_size) as u64;
    assert_eq!(
        report.nonfinite_batches,
        chunks_per_epoch * cfg.epochs as u64
    );
    assert_eq!(report.steps, 0, "no poisoned batch may reach the optimizer");
    assert_eq!(
        model.params().to_bytes(),
        before,
        "weights must be untouched when every batch is skipped"
    );
    assert_eq!(report.epoch_losses.len(), cfg.epochs);
}

#[test]
fn rollback_policy_gives_up_after_max_rollbacks() {
    // Fault-free: the chaos tests in this binary arm plans process-wide.
    let _quiet = quiet();
    let ds = tiny_ds();
    let windows = ds.windows(2, 1);
    let cfg = fast_cfg(3);
    let rcfg = RobustConfig {
        policy: FaultPolicy::RollbackToCheckpoint,
        max_rollbacks: 3,
        ..RobustConfig::default()
    };
    let mut model = Poisoned::new(3);
    match train_robust(&mut model, &ds, &windows, None, &cfg, &rcfg) {
        Err(TrainError::TooManyRollbacks { rollbacks }) => assert_eq!(rollbacks, 4),
        other => panic!("expected TooManyRollbacks, got {other:?}"),
    }
}

/// Windows vector sanity for the suite (catches dataset shrinkage that
/// would silently weaken the kill-grid above).
#[test]
fn suite_has_enough_minibatches() {
    let ds = tiny_ds();
    let windows: Vec<Window> = ds.windows(2, 1);
    assert!(windows.len() >= 8, "only {} windows", windows.len());
}
