//! Versioned model registry with atomic hot-swap.
//!
//! Checkpoints (the `ParamStore` binary format of `stod-nn`) are loaded,
//! validated against the registry's [`ModelConfig`] — every parameter must
//! exist with the exact name and shape the freshly-built architecture
//! declares — and kept as immutable versions. [`Registry::promote`] swaps
//! which version answers new requests by replacing an `Arc` under a
//! `std::sync::RwLock`; in-flight computations keep their own `Arc`
//! clone, so a promotion never drops or corrupts requests already running
//! against the previous version.

use crate::stats::ServeStats;
use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLock};
use stod_core::{AfConfig, BfConfig, Mode, OdForecaster};
use stod_nn::{ParamStore, Tape};
use stod_obs::sync::{read, write};
use stod_tensor::rng::Rng64;
use stod_tensor::Tensor;

/// Which architecture the registry serves.
#[derive(Debug, Clone)]
pub enum ModelKind {
    /// Basic Framework (FC factorization + GRU seq2seq).
    Bf(BfConfig),
    /// Advanced Framework (graph-convolutional dual-stage).
    Af(AfConfig),
}

/// Everything needed to rebuild the served architecture from scratch, so a
/// checkpoint can be validated parameter-by-parameter before promotion.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Architecture and hyperparameters.
    pub kind: ModelKind,
    /// Region centroids (km); their count fixes `N`.
    pub centroids: Vec<(f64, f64)>,
    /// Speed histogram buckets `K`.
    pub num_buckets: usize,
}

impl ModelConfig {
    /// Number of regions `N`.
    pub fn num_regions(&self) -> usize {
        self.centroids.len()
    }

    /// Builds a freshly-initialized model of the configured architecture.
    pub fn build(&self, seed: u64) -> Box<dyn OdForecaster + Send + Sync> {
        match &self.kind {
            ModelKind::Bf(cfg) => Box::new(stod_core::BfModel::new(
                self.num_regions(),
                self.num_buckets,
                *cfg,
                seed,
            )),
            ModelKind::Af(cfg) => Box::new(stod_core::AfModel::new(
                &self.centroids,
                self.num_buckets,
                cfg.clone(),
                seed,
            )),
        }
    }
}

/// Why a checkpoint was rejected or a lookup failed.
#[derive(Debug)]
pub enum RegistryError {
    /// The checkpoint file could not be read.
    Io(std::io::Error),
    /// The checkpoint failed its CRC-32 integrity check — a bit-flip,
    /// truncation, or torn write. Distinct from [`Self::Malformed`] so
    /// operators can tell storage corruption from a wrong-format file.
    Corrupt {
        /// CRC recorded in the checkpoint footer.
        expected: u32,
        /// CRC recomputed over the payload.
        found: u32,
    },
    /// The checkpoint bytes are structurally invalid (bad magic, version,
    /// or layout encoding) — e.g. an empty or foreign file.
    Malformed(String),
    /// The checkpoint's parameters do not match the configured
    /// architecture (wrong count, name or shape).
    LayoutMismatch(String),
    /// The checkpoint's resident f32 size exceeds the per-version
    /// serving memory budget (`STOD_MODEL_MEM`, bytes).
    OverBudget {
        /// Bytes the version would hold resident.
        needed: u64,
        /// The configured budget in bytes.
        budget: u64,
    },
    /// `STOD_MODEL_MEM` is set but not a valid byte count. Typed, never a
    /// silent default — the same contract as every other `STOD_*` knob.
    Config(stod_tensor::KnobError),
    /// No version with this number is registered.
    UnknownVersion(u32),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "checkpoint io error: {e}"),
            RegistryError::Corrupt { expected, found } => write!(
                f,
                "checkpoint corrupt: crc {expected:#010x} recorded, {found:#010x} computed"
            ),
            RegistryError::Malformed(d) => write!(f, "checkpoint malformed: {d}"),
            RegistryError::LayoutMismatch(d) => write!(f, "checkpoint layout mismatch: {d}"),
            RegistryError::OverBudget { needed, budget } => write!(
                f,
                "checkpoint needs {needed} resident bytes, over the STOD_MODEL_MEM budget of {budget}"
            ),
            RegistryError::Config(e) => write!(f, "registry config error: {e}"),
            RegistryError::UnknownVersion(v) => write!(f, "unknown model version {v}"),
        }
    }
}

impl From<stod_nn::StoreError> for RegistryError {
    fn from(e: stod_nn::StoreError) -> RegistryError {
        match e {
            stod_nn::StoreError::Io(e) => RegistryError::Io(e),
            stod_nn::StoreError::Checksum { expected, found } => {
                RegistryError::Corrupt { expected, found }
            }
            stod_nn::StoreError::Malformed(d) => RegistryError::Malformed(d),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One immutable registered model version.
pub struct ServedModel {
    version: u32,
    model: Box<dyn OdForecaster + Send + Sync>,
}

impl ServedModel {
    /// This version's number (1-based, in registration order).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The underlying model's display name.
    pub fn name(&self) -> &str {
        self.model.name()
    }

    /// This version's forecaster, for scoring it with
    /// [`stod_core::evaluate()`] (the adaptation pipeline's shadow eval).
    pub fn forecaster(&self) -> &dyn OdForecaster {
        self.model.as_ref()
    }

    /// Exports this version's weights as a standalone [`ParamStore`] —
    /// the warm-start seed for a continual fine-tune: the adaptation
    /// pipeline copies the live incumbent's parameters into a fresh model
    /// without racing in-flight forecasts (versions are immutable).
    pub fn export_store(&self) -> ParamStore {
        self.model.params().clone()
    }

    /// Resident parameter memory of this version in bytes (every weight
    /// is an f32 in memory). This is the quantity `STOD_MODEL_MEM`
    /// budgets.
    pub fn mem_bytes(&self) -> u64 {
        store_mem_bytes(self.model.params())
    }

    /// Runs one deterministic evaluation forward pass and materializes the
    /// predicted tensors (each `[B, N, N', K]`, one per horizon step).
    ///
    /// The forward runs on a no-grad tape ([`Tape::no_grad`]) in
    /// [`Mode::Eval`]: the weights are constants, no op keeps backward
    /// state and no regularizer is built, and the predictions are bitwise
    /// those of a training tape's eval forward.
    pub fn forecast(&self, inputs: &[Tensor], horizon: usize) -> Vec<Tensor> {
        let mut tape = Tape::no_grad();
        let mut rng = Rng64::new(0); // unused in Eval mode; forward needs one
        let out = self
            .model
            .forward(&mut tape, inputs, horizon, Mode::Eval, &mut rng);
        out.predictions
            .iter()
            .map(|v| tape.value(*v).clone())
            .collect()
    }
}

/// One registry slot: the immutable model plus what [`Registry::scrub`]
/// needs to re-verify it later — the CRC of the bytes it was validated
/// from and, for file-backed registrations, where those bytes live.
struct VersionEntry {
    model: Arc<ServedModel>,
    /// False once a scrub caught bit-rot; invalid versions are
    /// unreachable through [`Registry::get`] and never promoted.
    valid: bool,
    /// [`body_crc`] of the checkpoint bytes at registration.
    crc: u32,
    /// Backing file, when the version came through
    /// [`Registry::register_file`].
    source: Option<std::path::PathBuf>,
}

/// What a [`Registry::scrub`] pass found.
#[derive(Debug)]
pub struct ScrubReport {
    /// Versions whose integrity was re-verified (invalid ones are skipped).
    pub checked: usize,
    /// Versions newly rejected this pass, with the typed reason.
    pub rejects: Vec<(u32, RegistryError)>,
    /// The active version, when this pass invalidated it.
    pub demoted_active: Option<u32>,
    /// The replacement incumbent (newest surviving version), when a
    /// demotion happened and any valid version remained.
    pub new_active: Option<u32>,
}

impl ScrubReport {
    /// True when every checked version verified clean.
    pub fn is_clean(&self) -> bool {
        self.rejects.is_empty()
    }
}

/// Where the per-version memory budget comes from.
enum MemBudget {
    /// Read `STOD_MODEL_MEM` at each registration (the serving default:
    /// operators can tighten the budget without restarting).
    FromEnv,
    /// A fixed budget (or none), for tests and embedders that already
    /// resolved their configuration.
    Fixed(Option<u64>),
}

/// The versioned checkpoint registry.
pub struct Registry {
    config: ModelConfig,
    versions: RwLock<Vec<VersionEntry>>,
    active: RwLock<Option<Arc<ServedModel>>>,
    stats: Arc<ServeStats>,
    mem_budget: MemBudget,
}

impl Registry {
    /// An empty registry for one architecture. Nothing is active until a
    /// checkpoint is registered and promoted. The per-version memory
    /// budget is read from `STOD_MODEL_MEM` (bytes; unset means
    /// unlimited) at each registration.
    pub fn new(config: ModelConfig, stats: Arc<ServeStats>) -> Registry {
        Registry {
            config,
            versions: RwLock::new(Vec::new()),
            active: RwLock::new(None),
            stats,
            mem_budget: MemBudget::FromEnv,
        }
    }

    /// [`Registry::new`] with an explicit per-version memory budget in
    /// bytes (`None` = unlimited), bypassing `STOD_MODEL_MEM` — so tests
    /// can exercise the budget without mutating the process-global,
    /// test-parallel environment.
    pub fn with_mem_budget(
        config: ModelConfig,
        stats: Arc<ServeStats>,
        budget: Option<u64>,
    ) -> Registry {
        Registry {
            mem_budget: MemBudget::Fixed(budget),
            ..Registry::new(config, stats)
        }
    }

    /// The architecture this registry validates against.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Loads a checkpoint file and registers it; see
    /// [`Registry::register_store`].
    ///
    /// Any rejection — unreadable file, CRC mismatch, malformed bytes,
    /// layout mismatch — leaves the registry untouched (`num_versions` and
    /// the active version are unchanged) and is counted in the
    /// `checkpoint_rejects` stat. The [`stod_faultline::FaultSite::CkptCorrupt`]
    /// injection point corrupts the raw bytes here, between read and parse,
    /// so chaos tests exercise exactly the path a disk bit-flip would take.
    pub fn register_file(&self, path: &std::path::Path) -> Result<u32, RegistryError> {
        let result = (|| {
            let mut raw = std::fs::read(path).map_err(RegistryError::Io)?;
            stod_faultline::maybe_corrupt(stod_faultline::FaultSite::CkptCorrupt, &mut raw);
            let crc = body_crc(&raw);
            let store = ParamStore::from_bytes(raw)?;
            self.register_validated(store, crc, Some(path.to_path_buf()))
        })();
        if result.is_err() {
            self.stats
                .checkpoint_rejects
                .fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Validates a checkpoint against the configured architecture and
    /// registers it as a new (inactive) version, returning its number.
    pub fn register_store(&self, store: ParamStore) -> Result<u32, RegistryError> {
        let crc = body_crc(&store.to_bytes());
        let result = self.register_validated(store, crc, None);
        if result.is_err() {
            self.stats
                .checkpoint_rejects
                .fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn register_validated(
        &self,
        store: ParamStore,
        crc: u32,
        source: Option<std::path::PathBuf>,
    ) -> Result<u32, RegistryError> {
        let budget = match &self.mem_budget {
            MemBudget::Fixed(b) => *b,
            MemBudget::FromEnv => stod_tensor::env_knob("STOD_MODEL_MEM", 1, u64::MAX)
                .map_err(RegistryError::Config)?,
        };
        if let Some(budget) = budget {
            let needed = store_mem_bytes(&store);
            if needed > budget {
                return Err(RegistryError::OverBudget { needed, budget });
            }
        }
        let mut model = self.config.build(0);
        validate_layout(model.params(), &store)?;
        model.params_mut().copy_from(&store);
        let mut versions = write(&self.versions);
        let version = versions.len() as u32 + 1;
        versions.push(VersionEntry {
            model: Arc::new(ServedModel { version, model }),
            valid: true,
            crc,
            source,
        });
        Ok(version)
    }

    /// Re-verifies the integrity of every registered version — the
    /// bit-rot scrub. File-backed versions are re-read from their backing
    /// checkpoint, in-memory versions re-serialized from their live
    /// parameters; either way the bytes must carry the body CRC recorded
    /// at registration *and* parse as a structurally valid store.
    ///
    /// A version that fails is marked invalid: [`Registry::get`] stops
    /// returning it and it can never be promoted again. If the *active*
    /// version is among the casualties, the incumbency falls back to the
    /// newest surviving version (or to none — callers then serve NH
    /// fallback, which is degraded but honest, rather than forecasts from
    /// weights that no longer match any validated checkpoint). Every
    /// rejection is counted in the `scrub_rejects` stat and the
    /// `registry/scrub_rejects` obs counter.
    pub fn scrub(&self) -> ScrubReport {
        let mut versions = write(&self.versions);
        let mut rejects = Vec::new();
        for entry in versions.iter_mut() {
            if !entry.valid {
                continue;
            }
            let verdict = (|| {
                let bytes = match &entry.source {
                    Some(path) => std::fs::read(path).map_err(RegistryError::Io)?,
                    None => entry.model.model.params().to_bytes(),
                };
                let found = body_crc(&bytes);
                if found != entry.crc {
                    return Err(RegistryError::Corrupt {
                        expected: entry.crc,
                        found,
                    });
                }
                ParamStore::from_bytes(bytes)?;
                Ok(())
            })();
            if let Err(err) = verdict {
                entry.valid = false;
                rejects.push((entry.model.version, err));
            }
        }
        let checked = versions.iter().filter(|e| e.valid).count() + rejects.len();
        if !rejects.is_empty() {
            self.stats
                .scrub_rejects
                .fetch_add(rejects.len() as u64, Ordering::Relaxed);
            stod_obs::count("registry/scrub_rejects", rejects.len() as u64);
        }
        // Demote a now-invalid incumbent to the newest surviving version.
        let mut demoted_active = None;
        let mut new_active = None;
        let mut active = write(&self.active);
        if let Some(current) = active.as_ref() {
            let version = current.version;
            let invalidated = rejects.iter().any(|(v, _)| *v == version);
            if invalidated {
                demoted_active = Some(version);
                let replacement = versions.iter().rev().find(|e| e.valid);
                new_active = replacement.map(|e| e.model.version);
                *active = replacement.map(|e| Arc::clone(&e.model));
                if new_active.is_some() {
                    self.stats.hot_swaps.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        ScrubReport {
            checked,
            rejects,
            demoted_active,
            new_active,
        }
    }

    /// Atomically makes `version` the one answering new requests.
    ///
    /// Requests already computing against the previous version finish
    /// unharmed: they hold their own `Arc` to it.
    pub fn promote(&self, version: u32) -> Result<(), RegistryError> {
        let model = self
            .get(version)
            .ok_or(RegistryError::UnknownVersion(version))?;
        let mut active = write(&self.active);
        if active.is_some() {
            self.stats.hot_swaps.fetch_add(1, Ordering::Relaxed);
        }
        *active = Some(model);
        Ok(())
    }

    /// The currently active model, if any.
    pub fn active(&self) -> Option<Arc<ServedModel>> {
        read(&self.active).clone()
    }

    /// The active model's version number, if any.
    pub fn active_version(&self) -> Option<u32> {
        read(&self.active).as_ref().map(|m| m.version)
    }

    /// Looks a registered version up by number. Versions invalidated by a
    /// [`Registry::scrub`] are gone: they resolve to `None` like a number
    /// that was never registered.
    pub fn get(&self, version: u32) -> Option<Arc<ServedModel>> {
        let versions = read(&self.versions);
        let entry = versions.get(version.checked_sub(1)? as usize)?;
        entry.valid.then(|| Arc::clone(&entry.model))
    }

    /// Number of registered versions.
    pub fn num_versions(&self) -> usize {
        read(&self.versions).len()
    }
}

/// Resident f32 bytes of a parameter store: Σ numel × 4.
/// CRC-32 of a sealed checkpoint's bytes before its footer. For an intact
/// checkpoint it equals the footer, so it tells two checkpoints apart; the
/// CRC of a whole sealed buffer is the same residue for every intact one.
fn body_crc(sealed: &[u8]) -> u32 {
    let body = sealed.len().saturating_sub(stod_faultline::codec::CRC_LEN);
    stod_faultline::crc::crc32(&sealed[..body])
}

fn store_mem_bytes(store: &ParamStore) -> u64 {
    store
        .iter()
        .map(|(_, _, val)| val.data().len() as u64 * 4)
        .sum()
}

/// Checks that `store` has exactly the parameters (names, order, shapes)
/// of the freshly-built `expected` layout.
fn validate_layout(expected: &ParamStore, store: &ParamStore) -> Result<(), RegistryError> {
    if expected.len() != store.len() {
        return Err(RegistryError::LayoutMismatch(format!(
            "expected {} parameters, checkpoint has {}",
            expected.len(),
            store.len()
        )));
    }
    for ((_, want_name, want_val), (_, got_name, got_val)) in expected.iter().zip(store.iter()) {
        if want_name != got_name {
            return Err(RegistryError::LayoutMismatch(format!(
                "expected parameter '{want_name}', checkpoint has '{got_name}'"
            )));
        }
        if want_val.dims() != got_val.dims() {
            return Err(RegistryError::LayoutMismatch(format!(
                "parameter '{want_name}' shape {:?} != checkpoint {:?}",
                want_val.dims(),
                got_val.dims()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stod_faultline::quiet;
    use stod_tensor::stack;
    use stod_traffic::CityModel;

    fn bf_config(n: usize) -> ModelConfig {
        let bf = BfConfig {
            encode_dim: 8,
            gru_hidden: 8,
            ..BfConfig::default()
        };
        ModelConfig {
            kind: ModelKind::Bf(bf),
            centroids: CityModel::small(n).centroids(),
            num_buckets: 7,
        }
    }

    fn checkpoint_for(config: &ModelConfig, seed: u64) -> ParamStore {
        let model = config.build(seed);
        ParamStore::from_bytes(model.params().to_bytes()).unwrap()
    }

    #[test]
    fn register_validate_promote() {
        let config = bf_config(4);
        let reg = Registry::new(config.clone(), Arc::new(ServeStats::new()));
        assert!(reg.active().is_none());
        let v = reg.register_store(checkpoint_for(&config, 1)).unwrap();
        assert_eq!(v, 1);
        assert!(reg.active().is_none(), "registration must not auto-promote");
        reg.promote(v).unwrap();
        assert_eq!(reg.active_version(), Some(1));
        assert_eq!(reg.active().unwrap().name(), "BF");
    }

    #[test]
    fn layout_mismatch_rejected() {
        let config = bf_config(4);
        let reg = Registry::new(config, Arc::new(ServeStats::new()));
        // A checkpoint for a different city size has wrong shapes.
        let wrong = checkpoint_for(&bf_config(5), 1);
        match reg.register_store(wrong) {
            Err(RegistryError::LayoutMismatch(_)) => {}
            other => panic!("expected LayoutMismatch, got {other:?}"),
        }
        let mut empty = ParamStore::new();
        empty.register("bogus", Tensor::zeros(&[1]));
        assert!(matches!(
            reg.register_store(empty),
            Err(RegistryError::LayoutMismatch(_))
        ));
        assert_eq!(reg.num_versions(), 0);
    }

    /// This test's own scratch directory, removed on drop unless the
    /// thread is panicking, so a failed test keeps its files.
    struct TmpDir(std::path::PathBuf);

    impl TmpDir {
        fn new(test: &str) -> TmpDir {
            let dir =
                std::env::temp_dir().join(format!("stod_registry_{}_{test}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TmpDir(dir)
        }

        /// Writes `bytes` to `name` in this directory.
        fn write(&self, name: &str, bytes: &[u8]) -> std::path::PathBuf {
            let path = self.0.join(name);
            std::fs::write(&path, bytes).unwrap();
            path
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    /// Truncated, bit-flipped, and empty checkpoint files must all yield a
    /// typed error — never a panic — and must leave the registry untouched.
    #[test]
    fn register_file_rejects_damaged_checkpoints_without_state_change() {
        let dir = TmpDir::new("register_file_rejects");
        let _quiet = quiet();
        let config = bf_config(4);
        let stats = Arc::new(ServeStats::new());
        let reg = Registry::new(config.clone(), stats.clone());
        let v = reg.register_store(checkpoint_for(&config, 1)).unwrap();
        reg.promote(v).unwrap();

        let good = config.build(2).params().to_bytes().to_vec();

        let truncated = dir.write("trunc.stpw", &good[..good.len() / 2]);
        assert!(matches!(
            reg.register_file(&truncated),
            Err(RegistryError::Corrupt { .. })
        ));

        let mut flipped_bytes = good.clone();
        flipped_bytes[good.len() / 2] ^= 0x40;
        let flipped = dir.write("flip.stpw", &flipped_bytes);
        assert!(matches!(
            reg.register_file(&flipped),
            Err(RegistryError::Corrupt { .. })
        ));

        let empty = dir.write("empty.stpw", b"");
        assert!(matches!(
            reg.register_file(&empty),
            Err(RegistryError::Malformed(_))
        ));

        let missing = std::path::Path::new("/nonexistent/stod/ckpt.stpw");
        assert!(matches!(
            reg.register_file(missing),
            Err(RegistryError::Io(_))
        ));

        assert_eq!(reg.num_versions(), 1, "rejections must not register");
        assert_eq!(reg.active_version(), Some(1), "active model must survive");
        assert_eq!(stats.snapshot().checkpoint_rejects, 4);

        // The undamaged bytes still register fine afterwards.
        let ok = dir.write("good.stpw", &good);
        assert_eq!(reg.register_file(&ok).unwrap(), 2);
    }

    /// The faultline `CkptCorrupt` site corrupts bytes between read and
    /// parse; the CRC must catch every corruption mode it can inject.
    #[test]
    fn injected_checkpoint_corruption_is_always_rejected() {
        let dir = TmpDir::new("injected_corruption");
        use stod_faultline::{install, FaultPlan, FaultSite};
        let config = bf_config(4);
        let stats = Arc::new(ServeStats::new());
        let reg = Registry::new(config.clone(), stats.clone());
        let good = config.build(7).params().to_bytes().to_vec();
        let path = dir.write("chaos.stpw", &good);

        for param in 0..3 {
            let _g = install(FaultPlan::new(11 + param).with(FaultSite::CkptCorrupt, 1.0, param));
            match reg.register_file(&path) {
                Err(RegistryError::Corrupt { .. }) | Err(RegistryError::Malformed(_)) => {}
                other => panic!("corruption mode {param}: expected rejection, got {other:?}"),
            }
        }
        assert_eq!(reg.num_versions(), 0);
        assert_eq!(stats.snapshot().checkpoint_rejects, 3);

        // Disarmed, the same file registers.
        assert_eq!(reg.register_file(&path).unwrap(), 1);
    }

    /// Bit-rot on a registered checkpoint's backing file is caught by
    /// `scrub()`, the version becomes unreachable, and the incumbency
    /// falls back to the newest surviving version.
    #[test]
    fn scrub_rejects_bit_rotted_file_and_demotes_incumbent() {
        let dir = TmpDir::new("scrub_rejects");
        let _quiet = quiet();
        let config = bf_config(4);
        let stats = Arc::new(ServeStats::new());
        let reg = Registry::new(config.clone(), stats.clone());

        let v1_bytes = config.build(1).params().to_bytes().to_vec();
        let p1 = dir.write("scrub_v1.stpw", &v1_bytes);
        let v1 = reg.register_file(&p1).unwrap();
        let v2_bytes = config.build(2).params().to_bytes().to_vec();
        let p2 = dir.write("scrub_v2.stpw", &v2_bytes);
        let v2 = reg.register_file(&p2).unwrap();
        reg.promote(v2).unwrap();

        // Clean pass: nothing rejected, nothing demoted.
        let report = reg.scrub();
        assert!(report.is_clean());
        assert_eq!(report.checked, 2);
        assert_eq!(reg.active_version(), Some(v2));

        // Rot a byte in the incumbent's backing file.
        let mut rotted = v2_bytes.clone();
        rotted[v2_bytes.len() / 3] ^= 0x04;
        std::fs::write(&p2, &rotted).unwrap();

        let report = reg.scrub();
        assert_eq!(report.rejects.len(), 1);
        assert_eq!(report.rejects[0].0, v2);
        assert!(matches!(report.rejects[0].1, RegistryError::Corrupt { .. }));
        assert_eq!(report.demoted_active, Some(v2));
        assert_eq!(report.new_active, Some(v1));
        assert_eq!(reg.active_version(), Some(v1), "incumbency fell back");
        assert!(reg.get(v2).is_none(), "rotted version is unreachable");
        assert!(matches!(
            reg.promote(v2),
            Err(RegistryError::UnknownVersion(_))
        ));
        assert_eq!(stats.snapshot().scrub_rejects, 1);

        // A second pass skips the already-invalid version: idempotent.
        let report = reg.scrub();
        assert!(report.is_clean());
        assert_eq!(report.checked, 1);
        assert_eq!(stats.snapshot().scrub_rejects, 1);
    }

    /// When every version rots, scrub leaves the registry with no
    /// incumbent at all rather than serving unverifiable weights.
    #[test]
    fn scrub_with_no_survivor_clears_the_incumbent() {
        let dir = TmpDir::new("scrub_no_survivor");
        let _quiet = quiet();
        let config = bf_config(4);
        let reg = Registry::new(config.clone(), Arc::new(ServeStats::new()));
        let bytes = config.build(1).params().to_bytes().to_vec();
        let p = dir.write("scrub_only.stpw", &bytes);
        let v = reg.register_file(&p).unwrap();
        reg.promote(v).unwrap();
        std::fs::write(&p, b"not a checkpoint").unwrap();
        let report = reg.scrub();
        assert_eq!(report.rejects.len(), 1);
        assert_eq!(report.demoted_active, Some(v));
        assert_eq!(report.new_active, None);
        assert!(reg.active().is_none());
    }

    /// In-memory registrations scrub against their live parameters.
    #[test]
    fn scrub_passes_in_memory_versions() {
        let config = bf_config(4);
        let reg = Registry::new(config.clone(), Arc::new(ServeStats::new()));
        let v = reg.register_store(checkpoint_for(&config, 1)).unwrap();
        reg.promote(v).unwrap();
        let report = reg.scrub();
        assert!(report.is_clean());
        assert_eq!(report.checked, 1);
        assert_eq!(reg.active_version(), Some(v));
    }

    /// An in-memory version whose live weights changed after registration
    /// fails the scrub: one flipped bit changes its body CRC.
    #[test]
    fn scrub_rejects_an_in_memory_version_with_a_flipped_weight() {
        let config = bf_config(4);
        let reg = Registry::new(config.clone(), Arc::new(ServeStats::new()));
        let v1 = reg.register_store(checkpoint_for(&config, 1)).unwrap();
        reg.promote(v1).unwrap();
        let v2 = reg.register_store(checkpoint_for(&config, 2)).unwrap();
        {
            let mut versions = write(&reg.versions);
            let served = Arc::get_mut(&mut versions[1].model).expect("unpromoted, unshared");
            let id = served.model.params().ids()[0];
            let w = &mut served.model.params_mut().get_mut(id).data_mut()[0];
            *w = f32::from_bits(w.to_bits() ^ 1);
        }
        let report = reg.scrub();
        assert_eq!(report.rejects.len(), 1);
        assert_eq!(report.rejects[0].0, v2);
        assert!(matches!(report.rejects[0].1, RegistryError::Corrupt { .. }));
        assert_eq!(report.demoted_active, None);
        assert_eq!(reg.active_version(), Some(v1));
        assert!(reg.get(v2).is_none());
    }

    /// A backing file overwritten with another valid checkpoint fails the
    /// scrub although it parses: its body CRC is not the one registered.
    #[test]
    fn scrub_rejects_a_file_that_now_holds_another_checkpoint() {
        let dir = TmpDir::new("scrub_swapped_file");
        let _quiet = quiet();
        let config = bf_config(4);
        let reg = Registry::new(config.clone(), Arc::new(ServeStats::new()));
        let path = dir.write("swapped.stpw", &config.build(1).params().to_bytes());
        let v = reg.register_file(&path).unwrap();
        reg.promote(v).unwrap();
        std::fs::write(&path, config.build(2).params().to_bytes()).unwrap();
        let report = reg.scrub();
        assert_eq!(report.rejects.len(), 1);
        assert!(matches!(report.rejects[0].1, RegistryError::Corrupt { .. }));
        assert_eq!(report.demoted_active, Some(v));
        assert!(reg.active().is_none());
    }

    /// A version over the `STOD_MODEL_MEM` budget is refused with a typed
    /// error and the registry is left untouched; raising the budget
    /// admits the same checkpoint.
    #[test]
    fn mem_budget_rejects_oversized_versions() {
        let config = bf_config(4);
        let stats = Arc::new(ServeStats::new());
        let needed = {
            let model = config.build(1);
            model
                .params()
                .iter()
                .map(|(_, _, v)| v.data().len() as u64 * 4)
                .sum::<u64>()
        };
        let tight = Registry::with_mem_budget(config.clone(), stats.clone(), Some(needed - 1));
        match tight.register_store(checkpoint_for(&config, 1)) {
            Err(RegistryError::OverBudget { needed: n, budget }) => {
                assert_eq!(n, needed);
                assert_eq!(budget, needed - 1);
            }
            other => panic!("expected OverBudget, got {other:?}"),
        }
        assert_eq!(tight.num_versions(), 0);
        assert_eq!(stats.snapshot().checkpoint_rejects, 1);

        let roomy = Registry::with_mem_budget(config.clone(), stats, Some(needed));
        let v = roomy.register_store(checkpoint_for(&config, 1)).unwrap();
        assert_eq!(roomy.get(v).unwrap().mem_bytes(), needed);
    }

    #[test]
    fn promote_unknown_version_fails() {
        let reg = Registry::new(bf_config(4), Arc::new(ServeStats::new()));
        assert!(matches!(
            reg.promote(1),
            Err(RegistryError::UnknownVersion(1))
        ));
    }

    #[test]
    fn hot_swap_counts_and_changes_outputs() {
        let config = bf_config(4);
        let stats = Arc::new(ServeStats::new());
        let reg = Registry::new(config.clone(), stats.clone());
        let v1 = reg.register_store(checkpoint_for(&config, 1)).unwrap();
        let v2 = reg.register_store(checkpoint_for(&config, 2)).unwrap();
        reg.promote(v1).unwrap();
        assert_eq!(
            stats.snapshot().hot_swaps,
            0,
            "first promotion is not a swap"
        );

        let input = stack(&[&Tensor::ones(&[4, 4, 7])], 0);
        let before = reg
            .active()
            .unwrap()
            .forecast(std::slice::from_ref(&input), 1);
        reg.promote(v2).unwrap();
        assert_eq!(stats.snapshot().hot_swaps, 1);
        let after = reg.active().unwrap().forecast(&[input], 1);
        assert_ne!(
            before[0].data(),
            after[0].data(),
            "differently-seeded checkpoints must forecast differently"
        );
    }

    #[test]
    fn forecast_outputs_are_histograms() {
        let config = bf_config(4);
        let reg = Registry::new(config.clone(), Arc::new(ServeStats::new()));
        let v = reg.register_store(checkpoint_for(&config, 3)).unwrap();
        reg.promote(v).unwrap();
        let input = stack(&[&Tensor::ones(&[4, 4, 7])], 0);
        let preds = reg.active().unwrap().forecast(&[input], 2);
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].dims(), &[1, 4, 4, 7]);
        for o in 0..4 {
            for d in 0..4 {
                let sum: f32 = (0..7).map(|k| preds[0].at(&[0, o, d, k])).sum();
                assert!((sum - 1.0).abs() < 1e-4, "cell ({o},{d}) sums to {sum}");
            }
        }
    }
}
