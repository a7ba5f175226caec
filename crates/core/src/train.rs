//! The training loop (§VI-A.5): Adam with the paper's step-decay schedule,
//! dropout, gradient clipping, and masked-loss normalization.
//!
//! There is one loop, and it is crash-safe. [`train`] runs it without
//! checkpoints and panics on a non-finite minibatch; [`train_robust`],
//! [`train_resume`] and [`fine_tune_resume`] configure it through
//! [`RobustConfig`]: cadence checkpoints, resume after a kill, and a
//! [`FaultPolicy`] for non-finite minibatches.
//!
//! # Data-parallel shards, deterministically
//!
//! Each minibatch is cut into fixed [`SHARD_GRAIN`]-sample shards whose
//! boundaries depend only on the minibatch size — never on the thread
//! count. Shards build independent tapes, run the forward/backward pass
//! (with a per-shard RNG stream pre-drawn in shard order from the
//! training RNG), and their gradients are merged in shard order on the
//! calling thread. Scheduling shards across the [`stod_tensor::par`]
//! pool therefore cannot change a single bit of the result: the loss
//! trajectory at `STOD_THREADS=4` is identical to `STOD_THREADS=1`.

use crate::batch::{make_batch, Batch};
use crate::checkpoint::TrainCheckpoint;
use crate::config::TrainConfig;
use crate::evaluate::evaluate;
use crate::model::{Mode, OdForecaster};
use std::path::PathBuf;
use stod_metrics::Metric;
use stod_nn::optim::{clip_global_norm, Adam, ClipStatus};
use stod_nn::{Gradients, ParamStore, StoreError, Tape, Var};
use stod_tensor::rng::Rng64;
use stod_traffic::{OdDataset, Window};

/// Samples per gradient shard. A constant — deriving it from the thread
/// count would move shard boundaries (and the f32 summation grouping)
/// between machines, breaking the bitwise-determinism contract.
const SHARD_GRAIN: usize = 8;

/// Per-epoch training diagnostics.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Mean validation EMD per epoch (empty when no validation set given).
    pub val_emd: Vec<f64>,
    /// Learning rate used in each epoch.
    pub epoch_lrs: Vec<f32>,
    /// Optimizer steps taken.
    pub steps: u64,
    /// Minibatches whose loss or gradients were non-finite. Always 0
    /// under [`FaultPolicy::Halt`], which stops at the first: [`train`]
    /// panics, [`train_robust`] returns [`TrainError::NonFinite`].
    pub nonfinite_batches: u64,
    /// Times training rolled back to the last checkpoint.
    pub rollbacks: u64,
    /// Checkpoint saves that failed; training continued and the previous
    /// checkpoint file, if any, remained intact.
    pub ckpt_save_failures: u64,
    /// Best (lowest) validation EMD and the 0-based epoch it occurred in.
    pub best_val: Option<(u64, f64)>,
    /// Pre-clip global gradient norm of every finite optimizer step, in
    /// step order — the gradient-health time series. Deterministic (same
    /// at any `STOD_THREADS` / `STOD_OBS`), but *not* checkpointed: a
    /// resumed run's series restarts at the resume point.
    pub grad_norms: Vec<f32>,
    /// Wall-clock milliseconds of each completed epoch. Timing only —
    /// varies run to run and is not checkpointed.
    pub epoch_wall_ms: Vec<f64>,
}

impl TrainReport {
    /// Final training loss.
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::NAN)
    }

    /// Whether training reduced the loss overall.
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(&a), Some(&b)) => b < a,
            _ => false,
        }
    }
}

/// Trains `model` on the given windows by minimizing the masked squared
/// error (normalized by the number of observed cells) plus the model's
/// regularizer — Eq. 4 for BF, Eq. 11 for AF.
///
/// This is [`train_robust`] with [`RobustConfig::default()`]: no
/// checkpoint, and [`FaultPolicy::Halt`].
///
/// # Panics
/// Panics on zero windows, and with the [`TrainError`] text when a
/// minibatch's loss or gradients come out non-finite or the `train-abort`
/// fault site fires.
pub fn train(
    model: &mut dyn OdForecaster,
    ds: &OdDataset,
    windows: &[Window],
    val: Option<&[Window]>,
    cfg: &TrainConfig,
) -> TrainReport {
    train_robust(model, ds, windows, val, cfg, &RobustConfig::default())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Runs the forward/backward pass of one minibatch across fixed-grain
/// shards and reduces the result in shard order: the merged gradients and
/// summed loss are bitwise independent of `STOD_THREADS`. Draws one seed
/// per shard from `rng`, in shard order, before any parallel work starts.
fn minibatch_outcome(
    model: &dyn OdForecaster,
    ds: &OdDataset,
    mb: &[Window],
    dropout: f32,
    rng: &mut Rng64,
) -> (Gradients, f64) {
    // Fixed-grain shards and their RNG seeds, both laid out in shard
    // order *before* any parallel work starts.
    let shards = stod_tensor::par::grain_blocks(mb.len(), SHARD_GRAIN);
    let seeds: Vec<u64> = shards.iter().map(|_| rng.next_u64()).collect();
    let shard_batches: Vec<Batch> = shards
        .iter()
        .map(|r| make_batch(ds, &mb[r.clone()]))
        .collect();
    // Eq. 4 normalizes by the observed cells of the *whole* minibatch;
    // shard regularizers (per-shard means) are scaled by bₛ/B so their
    // sum is the full-batch mean.
    let observed_total = shard_batches
        .iter()
        .map(|b| b.masks.iter().map(stod_tensor::Tensor::sum).sum::<f32>())
        .sum::<f32>()
        .max(1.0);
    let total_b = mb.len() as f32;
    let horizon = shard_batches[0].targets.len();

    let outcomes: Vec<(Gradients, f32)> = {
        let run_shard = |i: usize| -> (Gradients, f32) {
            let batch = &shard_batches[i];
            let mut shard_rng = Rng64::new(seeds[i]);
            let mut tape = Tape::new();
            let fwd_span = stod_obs::span!("train/fwd");
            let out = model.forward_masked(
                &mut tape,
                &batch.inputs,
                horizon,
                Mode::Train { dropout },
                &mut shard_rng,
                &batch.masks,
            );
            assert_eq!(
                out.predictions.len(),
                horizon,
                "model returned wrong horizon"
            );
            let mut data_loss: Option<Var> = None;
            for j in 0..horizon {
                let l = tape.masked_sq_err(out.predictions[j], &batch.targets[j], &batch.masks[j]);
                data_loss = Some(match data_loss {
                    Some(acc) => tape.add(acc, l),
                    None => l,
                });
            }
            let mut loss = tape.scale(data_loss.expect("horizon ≥ 1"), 1.0 / observed_total);
            if let Some(reg) = out.regularizer {
                let reg = tape.scale(reg, batch.len() as f32 / total_b);
                loss = tape.add(loss, reg);
            }
            // A non-finite loss is *not* asserted here: the loop
            // detects it after the shard-order reduction and applies
            // its fault policy.
            let loss_val = tape.value(loss).item();
            drop(fwd_span);
            let _bwd_span = stod_obs::span!("train/bwd");
            (tape.backward(loss), loss_val)
        };
        let work = mb.len() * model.num_weights();
        if shards.len() > 1 && stod_tensor::par::should_parallelize(work) {
            stod_tensor::par::map(shards.len(), run_shard)
        } else {
            (0..shards.len()).map(run_shard).collect()
        }
    };

    // Shard-order reduction on this thread: the merged gradient and
    // minibatch loss are independent of the schedule above.
    let mut merged: Option<Gradients> = None;
    let mut mb_loss = 0.0f64;
    for (g, loss_val) in outcomes {
        mb_loss += loss_val as f64;
        match &mut merged {
            Some(m) => m.add_assign(&g),
            slot => *slot = Some(g),
        }
    }
    (merged.expect("≥ 1 shard"), mb_loss)
}

/// What training does when a minibatch's loss or gradients come out
/// non-finite (NaN or ±Inf).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Stop training and return [`TrainError::NonFinite`].
    Halt,
    /// Drop the poisoned minibatch (no optimizer step, no loss
    /// contribution) and continue with the next one.
    SkipBatch,
    /// Restore the last checkpoint (on-disk cadence checkpoint, or the
    /// initial state before any was written) and re-run from there. A
    /// *deterministically* poisoned batch will recur, so
    /// [`RobustConfig::max_rollbacks`] bounds the retries.
    RollbackToCheckpoint,
}

/// Crash-safety knobs for [`train_robust`] / [`train_resume`], layered on
/// top of the ordinary [`TrainConfig`].
#[derive(Debug, Clone)]
pub struct RobustConfig {
    /// Where to persist checkpoints; `None` disables checkpoint I/O
    /// (the rollback policy then restores an in-memory snapshot, and the
    /// other policies keep none).
    pub ckpt_path: Option<PathBuf>,
    /// Checkpoint every N optimizer steps (0 = only at epoch
    /// boundaries). Epoch-boundary checkpoints are always written when
    /// `ckpt_path` is set.
    pub ckpt_every_steps: u64,
    /// Reaction to non-finite losses/gradients.
    pub policy: FaultPolicy,
    /// Cap on rollbacks before giving up (guards against a
    /// deterministically poisoned batch looping forever).
    pub max_rollbacks: u64,
    /// Simulate a crash by returning [`TrainError::Aborted`] after this
    /// many optimizer steps, *without* writing a final checkpoint — the
    /// resume must come from the last cadence checkpoint, exactly like a
    /// real `SIGKILL`.
    pub stop_after_steps: Option<u64>,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig {
            ckpt_path: None,
            ckpt_every_steps: 0,
            policy: FaultPolicy::Halt,
            max_rollbacks: 8,
            stop_after_steps: None,
        }
    }
}

/// Why robust training stopped without completing.
#[derive(Debug)]
pub enum TrainError {
    /// A non-finite loss/gradient under [`FaultPolicy::Halt`].
    NonFinite {
        /// Epoch of the poisoned minibatch.
        epoch: u64,
        /// Minibatch index within the epoch.
        minibatch: u64,
    },
    /// [`RobustConfig::max_rollbacks`] exceeded.
    TooManyRollbacks {
        /// Rollbacks performed before giving up.
        rollbacks: u64,
    },
    /// A simulated crash ([`RobustConfig::stop_after_steps`] or the
    /// `train-abort` fault-injection site).
    Aborted {
        /// Optimizer steps completed when the abort fired.
        steps: u64,
    },
    /// The checkpoint to resume from could not be loaded or applied.
    Resume(StoreError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::NonFinite { epoch, minibatch } => {
                write!(
                    f,
                    "non-finite loss/gradients at epoch {epoch} minibatch {minibatch}"
                )
            }
            TrainError::TooManyRollbacks { rollbacks } => {
                write!(f, "gave up after {rollbacks} rollbacks")
            }
            TrainError::Aborted { steps } => write!(f, "aborted after {steps} steps"),
            TrainError::Resume(e) => write!(f, "cannot resume: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<StoreError> for TrainError {
    fn from(e: StoreError) -> TrainError {
        TrainError::Resume(e)
    }
}

/// Mutable loop position shared by capture/restore; the model parameters
/// live in the model itself and the optimizer/RNG ride alongside.
#[derive(Default)]
struct LoopState {
    epoch: u64,
    next_mb: u64,
    order: Vec<Window>,
    epoch_loss: f64,
    batches: u64,
    report: TrainReport,
}

fn capture(model: &dyn OdForecaster, adam: &Adam, rng: &Rng64, st: &LoopState) -> TrainCheckpoint {
    TrainCheckpoint {
        epoch: st.epoch,
        next_mb: st.next_mb,
        order: st.order.clone(),
        rng: rng.state(),
        steps: st.report.steps,
        epoch_loss: st.epoch_loss,
        batches: st.batches,
        nonfinite_batches: st.report.nonfinite_batches,
        rollbacks: st.report.rollbacks,
        ckpt_save_failures: st.report.ckpt_save_failures,
        best_val: st.report.best_val,
        epoch_losses: st.report.epoch_losses.clone(),
        val_emd: st.report.val_emd.clone(),
        epoch_lrs: st.report.epoch_lrs.clone(),
        params: model.params().to_bytes(),
        opt: adam.state_to_bytes(),
    }
}

/// Restores a checkpoint into the live training state. When
/// `preserve_counters` is set (in-process rollback) the fault counters
/// keep their current values so rollbacks stay visible in the report;
/// a fresh resume takes the counters from the checkpoint instead.
fn apply(
    ck: &TrainCheckpoint,
    model: &mut dyn OdForecaster,
    adam: &mut Adam,
    rng: &mut Rng64,
    st: &mut LoopState,
    preserve_counters: bool,
) -> Result<(), TrainError> {
    let params = ParamStore::from_bytes(&ck.params)?;
    model.params_mut().copy_from(&params);
    adam.restore_state(&ck.opt)?;
    *rng = Rng64::from_state(ck.rng);
    st.epoch = ck.epoch;
    st.next_mb = ck.next_mb;
    st.order = ck.order.clone();
    st.epoch_loss = ck.epoch_loss;
    st.batches = ck.batches;
    st.report.steps = ck.steps;
    st.report.best_val = ck.best_val;
    st.report.epoch_losses = ck.epoch_losses.clone();
    st.report.val_emd = ck.val_emd.clone();
    st.report.epoch_lrs = ck.epoch_lrs.clone();
    if !preserve_counters {
        st.report.nonfinite_batches = ck.nonfinite_batches;
        st.report.rollbacks = ck.rollbacks;
        st.report.ckpt_save_failures = ck.ckpt_save_failures;
    }
    Ok(())
}

/// The training loop with crash-consistent checkpointing and a
/// [`FaultPolicy`] for non-finite minibatches, both set by `rcfg`.
///
/// Starts from scratch; combine with [`train_resume`] to continue after a
/// crash. An uninterrupted `train_robust` run, and any kill-at-step-k +
/// `train_resume` sequence over the same configuration, produce **bitwise
/// identical** loss trajectories, reports, and final weights — at any
/// `STOD_THREADS`.
pub fn train_robust(
    model: &mut dyn OdForecaster,
    ds: &OdDataset,
    windows: &[Window],
    val: Option<&[Window]>,
    cfg: &TrainConfig,
    rcfg: &RobustConfig,
) -> Result<TrainReport, TrainError> {
    run_robust(model, ds, windows, val, cfg, rcfg, None)
}

/// Resumes robust training from `rcfg.ckpt_path` when a valid checkpoint
/// exists there, and starts fresh otherwise (so the same call works for
/// attempt 1 and every retry after a crash).
///
/// A corrupt or malformed checkpoint file is a hard error
/// ([`TrainError::Resume`]) rather than a silent restart: restarting
/// would discard training time, and the caller should decide that.
pub fn train_resume(
    model: &mut dyn OdForecaster,
    ds: &OdDataset,
    windows: &[Window],
    val: Option<&[Window]>,
    cfg: &TrainConfig,
    rcfg: &RobustConfig,
) -> Result<TrainReport, TrainError> {
    let init = match &rcfg.ckpt_path {
        Some(path) if path.exists() => Some(TrainCheckpoint::load(path)?),
        _ => None,
    };
    run_robust(model, ds, windows, val, cfg, rcfg, init)
}

/// Warm-start fine-tuning with crash resume, the continual-adaptation
/// entry point: copies `init` (e.g. the live incumbent's weights exported
/// from the serving registry) into `model`, then runs [`train_resume`]
/// over the given windows.
///
/// `model` should be a freshly built instance of the same architecture
/// (`copy_from` panics on a layout mismatch, which would mean the caller
/// mixed architectures). Without a checkpoint at `rcfg.ckpt_path` the
/// optimizer/RNG state starts fresh from `cfg.seed`: a fine-tune is a new,
/// short training run seeded from live weights, not a continuation of the
/// original run's Adam moments. With a cadence checkpoint from an
/// interrupted fine-tune, training continues from it (its weights override
/// the warm-start copy). The same call therefore works for attempt 1 and
/// every retry after a kill, and the combined kill+resume trajectory is
/// bitwise identical to an uninterrupted fine-tune.
pub fn fine_tune_resume(
    model: &mut dyn OdForecaster,
    init: &ParamStore,
    ds: &OdDataset,
    windows: &[Window],
    cfg: &TrainConfig,
    rcfg: &RobustConfig,
) -> Result<TrainReport, TrainError> {
    model.params_mut().copy_from(init);
    train_resume(model, ds, windows, None, cfg, rcfg)
}

fn run_robust(
    model: &mut dyn OdForecaster,
    ds: &OdDataset,
    windows: &[Window],
    val: Option<&[Window]>,
    cfg: &TrainConfig,
    rcfg: &RobustConfig,
    init: Option<TrainCheckpoint>,
) -> Result<TrainReport, TrainError> {
    assert!(!windows.is_empty(), "cannot train on zero windows");
    assert!(cfg.batch_size >= 1, "batch size must be ≥ 1");
    let mut adam = Adam::new(cfg.schedule.initial);
    let mut rng = Rng64::new(cfg.seed);
    let mut st = LoopState::default();
    if let Some(ck) = &init {
        apply(ck, model, &mut adam, &mut rng, &mut st, false)?;
    }
    // The rollback target: the last checkpoint, or the initial state before
    // any step ran. It is kept only when something reads it, a checkpoint
    // file or the rollback policy: one capture serializes every weight and
    // both Adam moments.
    let keep_snapshot =
        rcfg.ckpt_path.is_some() || rcfg.policy == FaultPolicy::RollbackToCheckpoint;
    let mut snapshot = keep_snapshot.then(|| capture(model, &adam, &rng, &st));
    let checkpoint = |model: &dyn OdForecaster, adam: &Adam, rng: &Rng64, st: &mut LoopState| {
        let ck = capture(model, adam, rng, st);
        if let Some(path) = &rcfg.ckpt_path {
            if ck.save(path).is_err() {
                // Best-effort durability: the previous checkpoint file is
                // intact (atomic replace), training continues.
                st.report.ckpt_save_failures += 1;
            }
        }
        Some(ck)
    };

    let mut epoch_t0 = std::time::Instant::now();
    'training: while st.epoch < cfg.epochs as u64 {
        // The epoch's minibatches and validation; the epoch-end checkpoint
        // runs after it closes.
        let epoch_span = stod_obs::span!("train/epoch");
        if st.order.is_empty() {
            // Fresh epoch: set the learning rate and draw the shuffle.
            epoch_t0 = std::time::Instant::now();
            adam.lr = cfg.schedule.lr_at(st.epoch as usize);
            st.report.epoch_lrs.push(adam.lr);
            let mut order = windows.to_vec();
            rng.shuffle(&mut order);
            st.order = order;
            st.next_mb = 0;
            st.epoch_loss = 0.0;
            st.batches = 0;
        }
        let num_chunks = st.order.len().div_ceil(cfg.batch_size);
        while (st.next_mb as usize) < num_chunks {
            let lo = st.next_mb as usize * cfg.batch_size;
            let hi = (lo + cfg.batch_size).min(st.order.len());
            let _mb_span = stod_obs::span!("train/minibatch");
            let (mut grads, mb_loss) =
                minibatch_outcome(model, ds, &st.order[lo..hi], cfg.dropout, &mut rng);
            // The clip's norm doubles as the non-finite detector.
            let opt_span = stod_obs::span!("train/optimizer");
            let clip = clip_global_norm(&mut grads, cfg.clip_norm);
            if !mb_loss.is_finite() || !clip.is_finite() {
                st.report.nonfinite_batches += 1;
                match rcfg.policy {
                    FaultPolicy::Halt => {
                        return Err(TrainError::NonFinite {
                            epoch: st.epoch,
                            minibatch: st.next_mb,
                        })
                    }
                    FaultPolicy::SkipBatch => {
                        st.next_mb += 1;
                        continue;
                    }
                    FaultPolicy::RollbackToCheckpoint => {
                        st.report.rollbacks += 1;
                        if st.report.rollbacks > rcfg.max_rollbacks {
                            return Err(TrainError::TooManyRollbacks {
                                rollbacks: st.report.rollbacks,
                            });
                        }
                        let ck = snapshot.as_ref().expect("rollback keeps a snapshot");
                        apply(ck, model, &mut adam, &mut rng, &mut st, true)?;
                        continue 'training;
                    }
                }
            }
            adam.step(model.params_mut(), &grads);
            drop(opt_span);
            st.epoch_loss += mb_loss;
            st.batches += 1;
            if let ClipStatus::Finite { pre_norm, .. } = clip {
                st.report.grad_norms.push(pre_norm);
            }
            st.report.steps += 1;
            st.next_mb += 1;

            if keep_snapshot
                && rcfg.ckpt_every_steps > 0
                && st.report.steps % rcfg.ckpt_every_steps == 0
            {
                snapshot = checkpoint(model, &adam, &rng, &mut st);
            }
            // Simulated crashes: the explicit step budget, and the seeded
            // `train-abort` chaos site. Neither writes a final checkpoint.
            let abort_injected =
                stod_faultline::fire(stod_faultline::FaultSite::TrainAbort).is_some();
            if rcfg.stop_after_steps == Some(st.report.steps) || abort_injected {
                return Err(TrainError::Aborted {
                    steps: st.report.steps,
                });
            }
        }

        // Epoch end: mean loss, validation, best-val tracking.
        let mean_loss = (st.epoch_loss / st.batches.max(1) as f64) as f32;
        st.report.epoch_losses.push(mean_loss);
        st.report
            .epoch_wall_ms
            .push(epoch_t0.elapsed().as_secs_f64() * 1e3);
        if let Some(val_windows) = val {
            let emd = quick_val_emd(model, ds, val_windows, cfg.batch_size);
            st.report.val_emd.push(emd);
            if emd.is_finite() && st.report.best_val.is_none_or(|(_, b)| emd < b) {
                st.report.best_val = Some((st.epoch, emd));
            }
            if cfg.verbose {
                println!(
                    "epoch {:>3}  lr {:.5}  loss {mean_loss:.5}  val EMD {emd:.4}",
                    st.epoch, adam.lr
                );
            }
        } else if cfg.verbose {
            println!(
                "epoch {:>3}  lr {:.5}  loss {mean_loss:.5}",
                st.epoch, adam.lr
            );
        }
        drop(epoch_span);
        st.epoch += 1;
        st.order = Vec::new();
        st.next_mb = 0;
        st.epoch_loss = 0.0;
        st.batches = 0;
        // Epoch-boundary checkpoint (always, when a path is configured).
        if keep_snapshot {
            snapshot = checkpoint(model, &adam, &rng, &mut st);
        }
    }
    Ok(st.report)
}

/// Mean first-step EMD over a validation set (cheap per-epoch signal):
/// [`evaluate`] over the windows cut to `h = 1`, since an h-step
/// forecast's first step is bitwise the one-step forecast. `NaN` for an
/// empty set.
fn quick_val_emd(
    model: &dyn OdForecaster,
    ds: &OdDataset,
    windows: &[Window],
    batch_size: usize,
) -> f64 {
    if windows.is_empty() {
        return f64::NAN;
    }
    let _span = stod_obs::span!("train/validate");
    let one_step: Vec<Window> = windows.iter().map(|&w| Window { h: 1, ..w }).collect();
    evaluate(model, ds, &one_step, batch_size).step_mean(0, Metric::Emd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bf::BfModel;
    use crate::config::BfConfig;
    use stod_traffic::{CityModel, OdDataset, SimConfig};

    fn tiny_ds() -> OdDataset {
        let cfg = SimConfig {
            num_days: 2,
            intervals_per_day: 16,
            trips_per_interval: 120.0,
            ..SimConfig::small(7)
        };
        OdDataset::generate(CityModel::small(5), &cfg)
    }

    #[test]
    fn bf_training_reduces_loss() {
        let ds = tiny_ds();
        let windows = ds.windows(3, 1);
        let mut model = BfModel::new(5, 7, BfConfig::default(), 1);
        let cfg = TrainConfig {
            epochs: 6,
            ..TrainConfig::fast_test()
        };
        let report = train(&mut model, &ds, &windows, None, &cfg);
        assert_eq!(report.epoch_losses.len(), 6);
        assert!(
            report.improved(),
            "loss did not improve: {:?}",
            report.epoch_losses
        );
        assert!(report.final_loss().is_finite());
    }

    #[test]
    fn validation_tracking_works() {
        let ds = tiny_ds();
        let ws = ds.windows(2, 1);
        let split = ds.split(&ws, 0.7, 0.15);
        let mut model = BfModel::new(5, 7, BfConfig::default(), 2);
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::fast_test()
        };
        let report = train(&mut model, &ds, &split.train, Some(&split.val), &cfg);
        assert_eq!(report.val_emd.len(), 2);
        for v in &report.val_emd {
            assert!(v.is_finite() && *v >= 0.0);
        }
    }

    #[test]
    fn lr_schedule_applied() {
        let ds = tiny_ds();
        let windows = ds.windows(2, 1);
        let mut model = BfModel::new(5, 7, BfConfig::default(), 3);
        let cfg = TrainConfig {
            epochs: 4,
            schedule: stod_nn::optim::StepDecay {
                initial: 1e-3,
                decay: 0.5,
                every: 2,
            },
            ..TrainConfig::fast_test()
        };
        let report = train(&mut model, &ds, &windows, None, &cfg);
        assert!((report.epoch_lrs[0] - 1e-3).abs() < 1e-9);
        assert!((report.epoch_lrs[2] - 5e-4).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero windows")]
    fn empty_training_set_panics() {
        let ds = tiny_ds();
        let mut model = BfModel::new(5, 7, BfConfig::default(), 4);
        train(&mut model, &ds, &[], None, &TrainConfig::fast_test());
    }
}
