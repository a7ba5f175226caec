//! The adaptation cycle: snapshot → fine-tune → shadow eval → promote /
//! hold / rollback, with durable crash recovery at every stage.
//!
//! One [`CityAdapter`] owns one city's continual-adaptation state. Each
//! [`CityAdapter::run_cycle`] call walks a fixed state machine:
//!
//! ```text
//!            ┌────────────────────────────────────────────────────┐
//!            │ snapshot ingest window (consistent, interval-      │
//!            │ aligned; open intervals excluded by construction)  │
//!            └────────────┬───────────────────────────────────────┘
//!                         ▼
//!   too few windows ──► SKIPPED
//!                         ▼
//!            ┌────────────────────────────────────────────────────┐
//!            │ fine-tune candidate, warm-started from the live    │
//!            │ incumbent (crash-safe; kill ⇒ ABORTED, checkpoint  │
//!            │ retained; the next cycle resumes bitwise)          │
//!            └────────────┬───────────────────────────────────────┘
//!                         ▼
//!            ┌────────────────────────────────────────────────────┐
//!            │ persist + register candidate (corrupt bytes ⇒      │
//!            │ REJECTED, typed; incumbent untouched)              │
//!            └────────────┬───────────────────────────────────────┘
//!                         ▼
//!            ┌────────────────────────────────────────────────────┐
//!            │ shadow eval on held-out recent intervals:          │
//!            │ candidate vs incumbent vs online corrector (EMD)   │
//!            └────────────┬───────────────────────────────────────┘
//!              not better ─► HELD
//!                         ▼
//!            ┌────────────────────────────────────────────────────┐
//!            │ write durable promotion record, then hot-swap      │
//!            │ (crash between ⇒ CRASHED; restart replays the      │
//!            │ record via `recover`)                              │
//!            └────────────┬───────────────────────────────────────┘
//!                         ▼
//!            ┌────────────────────────────────────────────────────┐
//!            │ confirm slice: regression ⇒ ROLLED BACK (registry  │
//!            │ re-promotes the incumbent, record rewritten)       │
//!            └────────────┬───────────────────────────────────────┘
//!                         ▼
//!                     PROMOTED
//! ```
//!
//! Determinism: the candidate's seed is a pure function of the configured
//! base seed and the snapshot's last absolute interval, training data is a
//! pure function of the ingest stream, and the corrector consumes each
//! interval exactly once (monotonic clock) — so identical ingest yields an
//! identical decision sequence and bitwise-identical promoted weights
//! across runs, thread counts, and crash/retry schedules.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

use crate::config::AdaptConfig;
use crate::corrector::OnlineCorrector;
use crate::stats::AdaptStats;
use stod_baselines::{evaluate_predictor, NaiveHistograms};
use stod_core::{evaluate, EvalReport, TrainConfig, TrainError};
use stod_core::{fine_tune_resume, FaultPolicy, RobustConfig};
use stod_faultline::FaultSite;
use stod_fleet::Fleet;
use stod_metrics::{Metric, ShadowReport, ShadowScore};
use stod_nn::optim::StepDecay;
use stod_nn::ParamStore;
use stod_serve::{RegistryError, ServedModel};
use stod_traffic::{CityModel, OdDataset, Window};

/// Why a cycle was skipped before fine-tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The shard has not sealed any interval yet.
    NoSnapshot,
    /// The shard's registry has no active version to warm-start from.
    NoIncumbent,
    /// The snapshot yields too little data for a trustworthy cycle.
    TooFewWindows {
        /// Training windows available.
        train: usize,
        /// Evaluation windows available.
        eval: usize,
    },
}

/// How one adaptation cycle ended (the non-error outcomes; crashes and
/// aborts are [`AdaptError`]s because the caller must react to them).
#[derive(Debug)]
pub enum CycleOutcome {
    /// Nothing was attempted.
    Skipped(SkipReason),
    /// The candidate did not clear the promotion bar; incumbent kept.
    Held(ShadowReport),
    /// The candidate was promoted and confirmed.
    Promoted {
        /// The promoted registry version.
        version: u32,
        /// Shadow-slice report that justified the promotion.
        shadow: ShadowReport,
        /// Confirm-slice report that ratified it.
        confirm: ShadowReport,
    },
    /// The candidate was promoted, regressed on the confirm slice, and the
    /// incumbent was re-promoted.
    RolledBack {
        /// The briefly promoted candidate version.
        from: u32,
        /// The restored incumbent version.
        to: u32,
        /// Shadow-slice report that (mis)justified the promotion.
        shadow: ShadowReport,
        /// Confirm-slice report that triggered the rollback.
        confirm: ShadowReport,
    },
    /// The candidate checkpoint failed registry validation (corrupt or
    /// malformed bytes); the incumbent serves on untouched.
    RejectedCandidate(RegistryError),
}

/// A compact, comparable record of how each cycle decided — what the
/// determinism gate compares across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// See [`CycleOutcome::Skipped`].
    Skipped,
    /// See [`CycleOutcome::Held`].
    Held,
    /// See [`CycleOutcome::Promoted`].
    Promoted,
    /// See [`CycleOutcome::RolledBack`].
    RolledBack,
    /// See [`CycleOutcome::RejectedCandidate`].
    Rejected,
    /// See [`AdaptError::Aborted`].
    Aborted,
    /// See [`AdaptError::Crashed`].
    Crashed,
    /// See [`AdaptError::Train`] / [`AdaptError::Io`] / the rest.
    Failed,
}

/// A cycle that did not reach a serving decision; the caller must react
/// (resume, recover, or surface the fault).
#[derive(Debug)]
pub enum AdaptError {
    /// The fine-tune was killed mid-run. Its cadence checkpoint is
    /// retained; the next [`CityAdapter::run_cycle`] over the same
    /// snapshot resumes it bitwise.
    Aborted {
        /// Optimizer steps completed before the kill.
        steps: u64,
    },
    /// Crashed between the durable promotion record and the in-memory
    /// hot-swap. A restarted process calls [`CityAdapter::recover`] to
    /// replay the record.
    Crashed {
        /// The registered (but never activated) candidate version.
        version: u32,
    },
    /// The fine-tune failed terminally (non-finite loss under `Halt`,
    /// rollback budget exhausted, unreadable resume checkpoint).
    Train(TrainError),
    /// Candidate or promotion-record I/O failed.
    Io(std::io::Error),
    /// A checkpoint file could not be parsed during recovery.
    Store(stod_nn::StoreError),
    /// The registry refused an operation that should have been valid
    /// (e.g. rollback to a version that vanished) — a pipeline bug.
    Registry(RegistryError),
}

impl std::fmt::Display for AdaptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptError::Aborted { steps } => {
                write!(f, "fine-tune killed after {steps} steps (resumable)")
            }
            AdaptError::Crashed { version } => {
                write!(
                    f,
                    "crashed between durable promotion record and hot-swap (candidate v{version})"
                )
            }
            AdaptError::Train(e) => write!(f, "fine-tune failed: {e}"),
            AdaptError::Io(e) => write!(f, "adaptation I/O failed: {e}"),
            AdaptError::Store(e) => write!(f, "promotion record unreadable: {e}"),
            AdaptError::Registry(e) => write!(f, "registry refused: {e}"),
        }
    }
}

impl std::error::Error for AdaptError {}

/// Derives the candidate seed for one cycle: a pure function of the base
/// seed, the city, and the snapshot's last absolute interval, so identical
/// ingest produces identical candidates in any process.
fn candidate_seed(base: u64, city: u64, t_last: u64) -> u64 {
    let mut x = base
        ^ city.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ t_last.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One city's continual-adaptation loop.
pub struct CityAdapter {
    city: usize,
    city_model: CityModel,
    intervals_per_day: usize,
    cfg: AdaptConfig,
    corrector: OnlineCorrector,
    stats: AdaptStats,
    dir: PathBuf,
    decisions: Vec<(usize, Decision)>,
}

impl CityAdapter {
    /// Builds the adapter for one city. `prior` seeds the online
    /// corrector (typically the same NH the shard sheds from);
    /// `num_buckets` is the histogram width `K`; `dir` holds the
    /// pipeline's durable state (fine-tune checkpoints, candidate files,
    /// the promotion record) and is created if absent.
    pub fn new(
        city: usize,
        city_model: CityModel,
        intervals_per_day: usize,
        prior: NaiveHistograms,
        num_buckets: usize,
        cfg: AdaptConfig,
        dir: PathBuf,
    ) -> std::io::Result<CityAdapter> {
        std::fs::create_dir_all(&dir)?;
        let n = city_model.num_regions();
        let corrector = OnlineCorrector::new(
            prior,
            n,
            num_buckets,
            cfg.kalman_q,
            cfg.kalman_r,
            cfg.kalman_p0,
        );
        Ok(CityAdapter {
            city,
            city_model,
            intervals_per_day,
            cfg,
            corrector,
            stats: AdaptStats::with_obs_prefix(&format!("adapt/city{city}")),
            dir,
            decisions: Vec::new(),
        })
    }

    /// Tenant id this adapter drives.
    pub fn city(&self) -> usize {
        self.city
    }

    /// This adapter's counters.
    pub fn stats(&self) -> &AdaptStats {
        &self.stats
    }

    /// The online corrector (the always-on cheap baseline).
    pub fn corrector(&self) -> &OnlineCorrector {
        &self.corrector
    }

    /// The per-cycle decision log `(snapshot last interval, decision)`,
    /// in cycle order — the determinism gate compares these across runs.
    pub fn decisions(&self) -> &[(usize, Decision)] {
        &self.decisions
    }

    /// Path of the durable promotion record.
    pub fn promoted_path(&self) -> PathBuf {
        self.dir.join(format!("promoted_c{}.stpw", self.city))
    }

    /// One file per candidate: the registry keeps it as the version's
    /// backing file, which [`stod_serve::Registry::scrub`] re-reads. The
    /// snapshot and the incumbent determine the candidate, so a cycle
    /// that rewrites an existing file writes the same bytes.
    fn candidate_path(&self, t_last: usize, incumbent: u32) -> PathBuf {
        self.dir.join(format!(
            "candidate_c{}_t{t_last}_v{incumbent}.stpw",
            self.city
        ))
    }

    fn finetune_ckpt_path(&self, t_last: usize) -> PathBuf {
        self.dir
            .join(format!("finetune_c{}_t{t_last}.ck", self.city))
    }

    /// Deletes fine-tune checkpoints from other snapshots: a retained
    /// checkpoint is only resumable against the exact window set that
    /// produced it, so anything not keyed to the current snapshot is
    /// stale.
    fn sweep_stale_checkpoints(&self, keep: &Path) {
        let prefix = format!("finetune_c{}_", self.city);
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(&prefix) && path != keep {
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    /// Logs and books one cycle's outcome: its ledger counter and, for
    /// holds and rejects, the armed obs mirror. Every exit of
    /// [`CityAdapter::run_cycle`] makes exactly one call.
    fn decide(&mut self, t_last: usize, d: Decision) {
        self.decisions.push((t_last, d));
        let s = &self.stats;
        let counter = match d {
            Decision::Skipped => &s.skipped,
            Decision::Held => &s.held,
            Decision::Promoted => &s.promoted_clean,
            Decision::RolledBack => &s.rolled_back,
            Decision::Rejected => &s.rejected_candidates,
            Decision::Aborted => &s.aborted,
            Decision::Crashed => &s.crashed,
            Decision::Failed => &s.failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        match d {
            Decision::Held => s.obs_mirror(|p| p.holds),
            Decision::Rejected => s.obs_mirror(|p| p.candidate_rejects),
            _ => {}
        }
    }

    /// Books a failed cycle and hands `err` back to be returned.
    fn fail(&mut self, t_last: usize, err: AdaptError) -> AdaptError {
        self.decide(t_last, Decision::Failed);
        err
    }

    /// Replays the durable promotion record after a process restart: when
    /// a record exists, its weights are hot-swapped in (registering a new
    /// version on the fresh registry) and the new active version is
    /// returned. A missing record means nothing was ever promoted — no-op.
    pub fn recover(&self, fleet: &Fleet) -> Result<Option<u32>, AdaptError> {
        let path = self.promoted_path();
        if !path.exists() {
            return Ok(None);
        }
        let store = ParamStore::load(&path).map_err(AdaptError::Store)?;
        let version = fleet
            .hot_swap(self.city, store)
            .map_err(AdaptError::Registry)?;
        Ok(Some(version))
    }

    /// Runs one adaptation cycle against the fleet. See the module docs
    /// for the state machine; every return path lands in exactly one
    /// outcome counter of [`AdaptStats`].
    pub fn run_cycle(&mut self, fleet: &Fleet) -> Result<CycleOutcome, AdaptError> {
        let _span = stod_obs::span!("adapt/cycle");
        self.stats.cycles_started.fetch_add(1, Ordering::Relaxed);
        self.stats.obs_mirror(|p| p.cycles);

        let shard = fleet.shard(self.city);
        let Some(snapshot) = shard.ingest_snapshot() else {
            self.decide(0, Decision::Skipped);
            return Ok(CycleOutcome::Skipped(SkipReason::NoSnapshot));
        };
        let t_last = snapshot
            .last()
            .expect("snapshot_window never returns an empty snapshot");
        let Some(incumbent) = shard.registry().active() else {
            self.decide(t_last, Decision::Skipped);
            return Ok(CycleOutcome::Skipped(SkipReason::NoIncumbent));
        };

        // Snapshot tensors become an ordinary dataset; all window indices
        // below are snapshot-relative (tensor `i` is absolute interval
        // `snapshot.first + i`).
        let first = snapshot.first;
        let ds = OdDataset {
            city: self.city_model.clone(),
            spec: snapshot.spec,
            intervals_per_day: self.intervals_per_day,
            tensors: snapshot.tensors,
        };
        let total = ds.num_intervals();
        let holdout_start = total.saturating_sub(self.cfg.holdout);
        let all = ds.windows(self.cfg.lookback, 1);
        // A window trains iff its target stays out of the holdout.
        let (train, eval): (Vec<Window>, Vec<Window>) =
            all.into_iter().partition(|w| w.t_end + 1 < holdout_start);
        if train.len() < self.cfg.min_windows || eval.len() < 2 {
            self.decide(t_last, Decision::Skipped);
            return Ok(CycleOutcome::Skipped(SkipReason::TooFewWindows {
                train: train.len(),
                eval: eval.len(),
            }));
        }

        // The corrector sees exactly the intervals the fine-tune may train
        // on — never the holdout. Re-fed intervals (crash retries) are
        // no-ops by the corrector's monotonic clock.
        for i in 0..holdout_start {
            self.corrector.observe_interval(first + i, &ds.tensors[i]);
        }

        // Fine-tune the candidate, warm-started from the live incumbent.
        let ckpt = self.finetune_ckpt_path(first + t_last);
        self.sweep_stale_checkpoints(&ckpt);
        let seed = candidate_seed(self.cfg.seed, self.city as u64, (first + t_last) as u64);
        let mut candidate = shard.registry().config().build(seed);
        let init = incumbent.export_store();
        let tcfg = TrainConfig {
            epochs: self.cfg.epochs,
            batch_size: self.cfg.batch_size,
            schedule: StepDecay {
                initial: self.cfg.lr,
                decay: 0.9,
                every: 2,
            },
            dropout: 0.0,
            clip_norm: 5.0,
            seed,
            verbose: false,
        };
        let rcfg = RobustConfig {
            ckpt_path: Some(ckpt.clone()),
            ckpt_every_steps: self.cfg.ckpt_every_steps,
            policy: FaultPolicy::RollbackToCheckpoint,
            max_rollbacks: 4,
            stop_after_steps: None,
        };
        self.stats.fine_tunes.fetch_add(1, Ordering::Relaxed);
        self.stats.obs_mirror(|p| p.fine_tunes);
        let ft_start = Instant::now();
        let report = {
            let _span = stod_obs::span!("adapt/fine_tune");
            fine_tune_resume(candidate.as_mut(), &init, &ds, &train, &tcfg, &rcfg)
        };
        if stod_obs::armed() {
            stod_obs::observe_duration("adapt/latency/fine_tune", ft_start.elapsed());
        }
        let report = match report {
            Ok(r) => r,
            Err(TrainError::Aborted { steps }) => {
                // Killed mid-fine-tune: the cadence checkpoint stays on
                // disk and the next cycle over this snapshot resumes it.
                self.decide(t_last, Decision::Aborted);
                return Err(AdaptError::Aborted { steps });
            }
            Err(e) => return Err(self.fail(t_last, AdaptError::Train(e))),
        };
        self.stats
            .fine_tune_steps
            .fetch_add(report.steps, Ordering::Relaxed);
        let _ = std::fs::remove_file(&ckpt); // cycle completed; no resume state needed

        // Persist and register the candidate through the validation path
        // (checksum + layout); corrupt bytes are a typed reject that
        // leaves the incumbent serving.
        let cand_path = self.candidate_path(t_last, incumbent.version());
        candidate
            .params()
            .save(&cand_path)
            .map_err(|e| self.fail(t_last, AdaptError::Io(e)))?;
        let version = match shard.registry().register_file(&cand_path) {
            Ok(v) => v,
            Err(e) => {
                self.decide(t_last, Decision::Rejected);
                return Ok(CycleOutcome::RejectedCandidate(e));
            }
        };
        let registered = shard
            .registry()
            .get(version)
            .expect("version was just registered");

        // Shadow evaluation: earlier half of the holdout windows decides
        // promotion; the later half is reserved to confirm it.
        let mid = eval.len().div_ceil(2);
        let (shadow_windows, confirm_windows) = eval.split_at(mid);
        let se_start = Instant::now();
        let shadow = {
            let _span = stod_obs::span!("adapt/shadow_eval");
            self.report(&ds, shadow_windows, &registered, &incumbent)
        };
        if stod_obs::armed() {
            stod_obs::observe_duration("adapt/latency/shadow_eval", se_start.elapsed());
        }
        if shadow.decision() != stod_metrics::ShadowDecision::Promote {
            self.decide(t_last, Decision::Held);
            return Ok(CycleOutcome::Held(shadow));
        }

        // Durable promotion record FIRST, then the in-memory swap: a
        // crash between the two loses no decision — `recover` replays the
        // record on restart.
        let promote_start = Instant::now();
        candidate
            .params()
            .save(&self.promoted_path())
            .map_err(|e| self.fail(t_last, AdaptError::Io(e)))?;
        if stod_faultline::fire(FaultSite::PromoteCrash).is_some() {
            self.decide(t_last, Decision::Crashed);
            return Err(AdaptError::Crashed { version });
        }
        let prev = incumbent.version();
        fleet
            .activate(self.city, version)
            .map_err(|e| self.fail(t_last, AdaptError::Registry(e)))?;
        self.stats.promotions.fetch_add(1, Ordering::Relaxed);
        self.stats.obs_mirror(|p| p.promotions);
        if stod_obs::armed() {
            stod_obs::observe_duration("adapt/latency/promote", promote_start.elapsed());
        }

        // Confirm slice: an immediate regression check on windows the
        // promotion decision never saw.
        let confirm = self.report(&ds, confirm_windows, &registered, &incumbent);
        if confirm.regressed() {
            // Rolling back is promoting the older, immutable version again.
            fleet
                .activate(self.city, prev)
                .map_err(|e| self.fail(t_last, AdaptError::Registry(e)))?;
            self.stats.rollbacks.fetch_add(1, Ordering::Relaxed);
            self.stats.obs_mirror(|p| p.rollbacks);
            // The durable record must follow the registry: after a
            // rollback it points at the incumbent again.
            init.save(&self.promoted_path())
                .map_err(|e| self.fail(t_last, AdaptError::Io(e)))?;
            self.decide(t_last, Decision::RolledBack);
            return Ok(CycleOutcome::RolledBack {
                from: version,
                to: prev,
                shadow,
                confirm,
            });
        }
        self.decide(t_last, Decision::Promoted);
        Ok(CycleOutcome::Promoted {
            version,
            shadow,
            confirm,
        })
    }

    /// Scores candidate, incumbent and corrector on the same observed
    /// cells of `windows` (all `h = 1`), each read off step 0 of its
    /// [`evaluate()`] or [`evaluate_predictor`] report.
    fn report(
        &self,
        ds: &OdDataset,
        windows: &[Window],
        candidate: &ServedModel,
        incumbent: &ServedModel,
    ) -> ShadowReport {
        let step0 = |r: EvalReport| ShadowScore {
            emd: r.step_mean(0, Metric::Emd),
            js: r.step_mean(0, Metric::Js),
            cells: r.cells_per_step[0],
        };
        let served =
            |m: &ServedModel| step0(evaluate(m.forecaster(), ds, windows, self.cfg.batch_size));
        ShadowReport {
            candidate: served(candidate),
            incumbent: served(incumbent),
            corrector: step0(evaluate_predictor(&self.corrector, ds, windows)),
            intervals: windows.len(),
            margin: self.cfg.margin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_seed_is_a_pure_function_and_spreads() {
        assert_eq!(candidate_seed(1, 2, 3), candidate_seed(1, 2, 3));
        let a = candidate_seed(0xADA9, 0, 10);
        let b = candidate_seed(0xADA9, 0, 11);
        let c = candidate_seed(0xADA9, 1, 10);
        assert!(a != b && a != c && b != c);
    }
}
