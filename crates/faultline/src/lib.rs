//! # stod-faultline
//!
//! Seeded, deterministic fault injection plus the crash-consistency
//! primitives the rest of the workspace builds on.
//!
//! The paper's system is a long-running train-then-serve pipeline; to hit
//! the ROADMAP's production-scale north star every failure mode we can
//! inject must degrade gracefully, and we must be able to *replay* a fault
//! schedule from a single seed. Four pieces live here:
//!
//! * **The injector** — named [`FaultSite`]s are compiled into the train,
//!   checkpoint-I/O and serve paths. A [`FaultPlan`] (from the
//!   `STOD_FAULTS=seed:spec` environment variable or installed
//!   programmatically via [`install`]) arms a subset of sites with firing
//!   probabilities. Each evaluation of a site hashes
//!   `(seed, site, evaluation-counter)` — no shared RNG stream, no locks on
//!   the hot path — so a fixed seed yields a reproducible fault schedule
//!   per site. When no plan is armed, [`fire`] is a single relaxed atomic
//!   load returning `None`: zero overhead in production.
//! * **[`crc::crc32`]** — the CRC-32 (IEEE) checksum that footers every
//!   checkpoint byte format in the workspace.
//! * **[`codec`]** — the one binary framing those formats share: a
//!   CRC-checked file envelope, a CRC-checked log record frame, a
//!   bounds-checked little-endian reader and writer, and the
//!   [`codec::StoreError`] every decoder returns.
//! * **[`io::atomic_write`]** — write-tmp → fsync → rename persistence with
//!   built-in injection points ([`FaultSite::SaveInterrupt`],
//!   [`FaultSite::SaveDiskFull`]), guaranteeing a failed save never damages
//!   the previously persisted file.
//!
//! ## Spec grammar
//!
//! ```text
//! STOD_FAULTS = <seed> ":" <site> "=" <prob> [ "@" <param> ] ( "," ... )*
//! ```
//!
//! e.g. `STOD_FAULTS=7:worker_panic=0.2,slow_worker=0.1@40` arms worker
//! panics at 20% and 40 ms worker stalls at 10%, both replayable from
//! seed 7. Parameters default to 0 and are site-specific (sleep duration in
//! milliseconds for `slow_worker`, corruption mode for `ckpt_corrupt`).

pub mod codec;
pub mod crc;
pub mod io;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// A named fault-injection point compiled into the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic inside a serve-broker worker while it holds an in-flight job.
    WorkerPanic,
    /// Stall a serve-broker worker (param: sleep milliseconds) so requests
    /// exercise the deadline-miss fallback.
    SlowWorker,
    /// Corrupt checkpoint bytes between disk read and decode (param picks
    /// the corruption mode, see [`CorruptKind`]).
    CkptCorrupt,
    /// Fail an atomic write mid-stream with `ErrorKind::Interrupted`.
    SaveInterrupt,
    /// Fail an atomic write with a disk-full error.
    SaveDiskFull,
    /// Abort the training loop after the current minibatch, simulating a
    /// hard kill without a final checkpoint flush.
    TrainAbort,
    /// Crash the adaptation pipeline between persisting a promotion
    /// decision durably and applying the in-memory hot-swap, simulating a
    /// process kill at the worst possible instant of a promote.
    PromoteCrash,
    /// Tear a write-ahead-log append: only a prefix of the frame reaches
    /// the segment file, then the "process" dies (the WAL handle goes
    /// dead, refusing further appends), so recovery must truncate the
    /// torn tail.
    WalTornWrite,
    /// Corrupt write-ahead-log bytes between disk read and frame decode
    /// during replay (param picks the corruption mode, see
    /// [`CorruptKind`]), so recovery must stop at the longest valid
    /// prefix instead of decoding garbage.
    WalCorrupt,
    /// Crash one serving shard in place: its in-memory ingest window is
    /// wiped and its circuit breaker force-opened, exercising degraded
    /// serving and WAL-backed self-healing.
    ShardCrash,
}

/// Number of distinct sites; array-indexed state below.
const N_SITES: usize = 10;

/// All sites, for iteration/reporting.
pub const ALL_SITES: [FaultSite; N_SITES] = [
    FaultSite::WorkerPanic,
    FaultSite::SlowWorker,
    FaultSite::CkptCorrupt,
    FaultSite::SaveInterrupt,
    FaultSite::SaveDiskFull,
    FaultSite::TrainAbort,
    FaultSite::PromoteCrash,
    FaultSite::WalTornWrite,
    FaultSite::WalCorrupt,
    FaultSite::ShardCrash,
];

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::WorkerPanic => 0,
            FaultSite::SlowWorker => 1,
            FaultSite::CkptCorrupt => 2,
            FaultSite::SaveInterrupt => 3,
            FaultSite::SaveDiskFull => 4,
            FaultSite::TrainAbort => 5,
            FaultSite::PromoteCrash => 6,
            FaultSite::WalTornWrite => 7,
            FaultSite::WalCorrupt => 8,
            FaultSite::ShardCrash => 9,
        }
    }

    /// Spec-grammar name of the site.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WorkerPanic => "worker_panic",
            FaultSite::SlowWorker => "slow_worker",
            FaultSite::CkptCorrupt => "ckpt_corrupt",
            FaultSite::SaveInterrupt => "save_interrupt",
            FaultSite::SaveDiskFull => "save_disk_full",
            FaultSite::TrainAbort => "train_abort",
            FaultSite::PromoteCrash => "promote_crash",
            FaultSite::WalTornWrite => "wal_torn_write",
            FaultSite::WalCorrupt => "wal_corrupt",
            FaultSite::ShardCrash => "shard_crash",
        }
    }

    fn parse(name: &str) -> Option<FaultSite> {
        ALL_SITES.iter().copied().find(|s| s.name() == name)
    }
}

/// How one armed site fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Firing probability per evaluation, in `[0, 1]`.
    pub prob: f64,
    /// Site-specific parameter (e.g. sleep ms); 0 when omitted.
    pub param: u64,
}

/// A seeded set of armed fault sites.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    specs: [Option<FaultSpec>; N_SITES],
}

impl FaultPlan {
    /// An empty plan (no site armed) under the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            specs: [None; N_SITES],
        }
    }

    /// Arms a site (builder style).
    ///
    /// # Panics
    /// Panics if `prob` is not a probability.
    pub fn with(mut self, site: FaultSite, prob: f64, param: u64) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&prob),
            "fault probability must be in [0,1], got {prob}"
        );
        self.specs[site.index()] = Some(FaultSpec { prob, param });
        self
    }

    /// Parses the `seed:site=prob[@param],...` grammar of `STOD_FAULTS`.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let (seed_str, spec_str) = s
            .split_once(':')
            .ok_or_else(|| format!("STOD_FAULTS must look like 'seed:spec', got {s:?}"))?;
        let seed: u64 = seed_str
            .trim()
            .parse()
            .map_err(|_| format!("bad fault seed {seed_str:?}"))?;
        let mut plan = FaultPlan::new(seed);
        for part in spec_str.split(',').filter(|p| !p.trim().is_empty()) {
            let (name, rest) = part
                .split_once('=')
                .ok_or_else(|| format!("bad fault spec {part:?} (want site=prob[@param])"))?;
            let site = FaultSite::parse(name.trim())
                .ok_or_else(|| format!("unknown fault site {:?}", name.trim()))?;
            let (prob_str, param_str) = match rest.split_once('@') {
                Some((p, q)) => (p, Some(q)),
                None => (rest, None),
            };
            let prob: f64 = prob_str
                .trim()
                .parse()
                .map_err(|_| format!("bad fault probability {prob_str:?}"))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!("fault probability {prob} out of [0,1]"));
            }
            let param: u64 = match param_str {
                Some(p) => p
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad fault parameter {p:?}"))?,
                None => 0,
            };
            plan.specs[site.index()] = Some(FaultSpec { prob, param });
        }
        Ok(plan)
    }

    /// The plan's replay seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The armed spec of a site, if any.
    pub fn spec(&self, site: FaultSite) -> Option<FaultSpec> {
        self.specs[site.index()]
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mix used to turn
/// `(seed, site, counter)` into an i.i.d.-looking uniform draw.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An armed plan plus its evaluation/injection ledgers.
struct Injector {
    plan: FaultPlan,
    /// Evaluations per site (the deterministic per-site sequence number).
    evals: [AtomicU64; N_SITES],
    /// Faults actually injected per site.
    injected: [AtomicU64; N_SITES],
}

impl Injector {
    fn new(plan: FaultPlan) -> Injector {
        Injector {
            plan,
            evals: Default::default(),
            injected: Default::default(),
        }
    }

    /// Evaluates one site; returns the spec parameter when the fault fires.
    fn fire(&self, site: FaultSite) -> Option<u64> {
        let spec = self.plan.specs[site.index()]?;
        let n = self.evals[site.index()].fetch_add(1, Ordering::Relaxed);
        let h = mix64(
            self.plan
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(site.index() as u64)
                .rotate_left(17)
                .wrapping_add(n),
        );
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u < spec.prob {
            self.injected[site.index()].fetch_add(1, Ordering::Relaxed);
            Some(spec.param)
        } else {
            None
        }
    }
}

/// Fast-path flag: true iff a scoped or env plan may be armed.
static ARMED: AtomicBool = AtomicBool::new(false);
/// The scoped injector installed by [`install`], if any.
static SCOPED: RwLock<Option<Arc<Injector>>> = RwLock::new(None);
/// Serializes [`install`] callers (chaos tests run one at a time).
static INSTALL_LOCK: Mutex<()> = Mutex::new(());
/// The env-derived injector, parsed once from `STOD_FAULTS`.
static FROM_ENV: OnceLock<Option<Arc<Injector>>> = OnceLock::new();

fn env_injector() -> Option<Arc<Injector>> {
    FROM_ENV
        .get_or_init(|| {
            let raw = std::env::var("STOD_FAULTS").ok()?;
            let plan = FaultPlan::parse(&raw)
                .unwrap_or_else(|e| panic!("invalid STOD_FAULTS {raw:?}: {e}"));
            ARMED.store(true, Ordering::Release);
            Some(Arc::new(Injector::new(plan)))
        })
        .clone()
}

fn current() -> Option<Arc<Injector>> {
    if let Some(inj) = SCOPED
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
    {
        return Some(inj);
    }
    env_injector()
}

/// Evaluates a fault site against the armed plan. Returns the site's spec
/// parameter when the fault fires, `None` otherwise — and always `None`
/// (after one relaxed atomic load) when nothing is armed.
#[inline]
pub fn fire(site: FaultSite) -> Option<u64> {
    if !ARMED.load(Ordering::Relaxed) {
        // A plan may exist only in the environment and not be parsed yet;
        // env_injector sets ARMED. Probe once per process.
        if FROM_ENV.get().is_some() {
            return None;
        }
        return env_injector().and_then(|inj| inj.fire(site));
    }
    current().and_then(|inj| inj.fire(site))
}

/// Faults injected so far at a site (over the currently armed plan).
pub fn injected(site: FaultSite) -> u64 {
    current().map_or(0, |inj| inj.injected[site.index()].load(Ordering::Relaxed))
}

/// How [`corrupt`] mangles a byte buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// Flip one bit at a seed-chosen position.
    BitFlip,
    /// Truncate the buffer to half its length.
    Truncate,
    /// Replace the buffer with nothing.
    Empty,
}

impl CorruptKind {
    fn from_param(param: u64) -> CorruptKind {
        match param % 3 {
            0 => CorruptKind::BitFlip,
            1 => CorruptKind::Truncate,
            _ => CorruptKind::Empty,
        }
    }
}

/// Deterministically corrupts `bytes` in the way `kind` describes, using
/// `salt` to pick the bit position for [`CorruptKind::BitFlip`].
pub fn corrupt(bytes: &mut Vec<u8>, kind: CorruptKind, salt: u64) {
    match kind {
        CorruptKind::BitFlip => {
            if bytes.is_empty() {
                return;
            }
            let pos = (mix64(salt) as usize) % bytes.len();
            let bit = (mix64(salt ^ 0xABCD) % 8) as u8;
            bytes[pos] ^= 1 << bit;
        }
        CorruptKind::Truncate => bytes.truncate(bytes.len() / 2),
        CorruptKind::Empty => bytes.clear(),
    }
}

/// Evaluates `site`; when it fires, corrupts `bytes` (mode chosen by the
/// site's spec parameter) and reports what was done.
pub fn maybe_corrupt(site: FaultSite, bytes: &mut Vec<u8>) -> Option<CorruptKind> {
    let param = fire(site)?;
    let kind = CorruptKind::from_param(param);
    let salt = injected(site).wrapping_add(param);
    corrupt(bytes, kind, salt);
    Some(kind)
}

/// Exclusive handle to a programmatically installed [`FaultPlan`].
///
/// Holding the guard keeps the plan armed; dropping it disarms injection
/// (the `STOD_FAULTS` plan, if any, takes over again). Guards serialize:
/// a second [`install`] blocks until the first guard drops, so concurrent
/// chaos tests cannot interleave their schedules.
pub struct FaultGuard {
    injector: Arc<Injector>,
    _lock: std::sync::MutexGuard<'static, ()>,
}

impl FaultGuard {
    /// Faults injected at a site under this guard's plan.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injector.injected[site.index()].load(Ordering::Relaxed)
    }

    /// Times a site was evaluated under this guard's plan.
    pub fn evaluations(&self, site: FaultSite) -> u64 {
        self.injector.evals[site.index()].load(Ordering::Relaxed)
    }

    /// Total faults injected across all sites.
    pub fn total_injected(&self) -> u64 {
        ALL_SITES.iter().map(|&s| self.injected(s)).sum()
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        *SCOPED.write().unwrap_or_else(PoisonError::into_inner) = None;
        // Injection stays armed iff the environment plan exists.
        let env_armed = matches!(FROM_ENV.get(), Some(Some(_)));
        ARMED.store(env_armed, Ordering::Release);
    }
}

/// Arms a fault plan for the lifetime of the returned guard. Used by chaos
/// tests; production arms via `STOD_FAULTS` instead.
pub fn install(plan: FaultPlan) -> FaultGuard {
    let lock = INSTALL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let injector = Arc::new(Injector::new(plan));
    *SCOPED.write().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&injector));
    ARMED.store(true, Ordering::Release);
    FaultGuard {
        injector,
        _lock: lock,
    }
}

/// Holds injection off for the lifetime of the returned guard: an empty
/// plan installed under the same lock as [`install`].
///
/// The injector is process-global, and test binaries run their tests on
/// parallel threads. A fault-free baseline that runs unguarded beside a
/// chaos test can therefore see that test's plan fire. Wrapping the
/// baseline in `quiet()` waits for any installed plan to drop and keeps
/// new ones (and a `STOD_FAULTS` plan) from firing until the baseline is
/// done. Like [`install`], it must not be nested with another guard on
/// the same thread.
pub fn quiet() -> FaultGuard {
    install(FaultPlan::new(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        // No guard installed and (in the test environment) no STOD_FAULTS:
        // every site must stay quiet. Holding the install lock keeps other
        // tests' plans out for the duration.
        if std::env::var_os("STOD_FAULTS").is_some() {
            return; // environment-armed run; skip
        }
        let _lock = INSTALL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        for &site in &ALL_SITES {
            assert_eq!(fire(site), None);
        }
    }

    #[test]
    fn spec_parsing_roundtrip() {
        let plan = FaultPlan::parse("7:worker_panic=0.25,slow_worker=0.5@40").unwrap();
        assert_eq!(plan.seed(), 7);
        assert_eq!(
            plan.spec(FaultSite::WorkerPanic),
            Some(FaultSpec {
                prob: 0.25,
                param: 0
            })
        );
        assert_eq!(
            plan.spec(FaultSite::SlowWorker),
            Some(FaultSpec {
                prob: 0.5,
                param: 40
            })
        );
        assert_eq!(plan.spec(FaultSite::CkptCorrupt), None);
    }

    #[test]
    fn spec_parsing_rejects_garbage() {
        assert!(FaultPlan::parse("no-colon").is_err());
        assert!(FaultPlan::parse("x:worker_panic=0.5").is_err());
        assert!(FaultPlan::parse("1:unknown_site=0.5").is_err());
        assert!(FaultPlan::parse("1:worker_panic=1.5").is_err());
        assert!(FaultPlan::parse("1:worker_panic=0.5@zz").is_err());
        assert!(FaultPlan::parse("1:worker_panic").is_err());
    }

    #[test]
    fn firing_pattern_is_deterministic_per_seed() {
        let pattern = |seed: u64| -> Vec<bool> {
            let inj = Injector::new(FaultPlan::new(seed).with(FaultSite::WorkerPanic, 0.3, 0));
            (0..200)
                .map(|_| inj.fire(FaultSite::WorkerPanic).is_some())
                .collect()
        };
        assert_eq!(pattern(11), pattern(11), "same seed, same schedule");
        assert_ne!(pattern(11), pattern(12), "different seed, new schedule");
        let hits = pattern(11).iter().filter(|&&b| b).count();
        assert!(
            (30..=90).contains(&hits),
            "30% of 200 evaluations should fire roughly 60 times, got {hits}"
        );
    }

    #[test]
    fn probability_bounds_are_exact() {
        let never = Injector::new(FaultPlan::new(3).with(FaultSite::SlowWorker, 0.0, 10));
        let always = Injector::new(FaultPlan::new(3).with(FaultSite::SlowWorker, 1.0, 10));
        for _ in 0..100 {
            assert_eq!(never.fire(FaultSite::SlowWorker), None);
            assert_eq!(always.fire(FaultSite::SlowWorker), Some(10));
        }
        assert_eq!(
            always.injected[FaultSite::SlowWorker.index()].load(Ordering::Relaxed),
            100
        );
    }

    #[test]
    fn install_scopes_and_counts() {
        {
            let guard = install(FaultPlan::new(5).with(FaultSite::TrainAbort, 1.0, 0));
            assert_eq!(fire(FaultSite::TrainAbort), Some(0));
            assert_eq!(fire(FaultSite::WorkerPanic), None, "unarmed site");
            assert_eq!(guard.injected(FaultSite::TrainAbort), 1);
            assert_eq!(guard.evaluations(FaultSite::TrainAbort), 1);
            assert_eq!(guard.total_injected(), 1);
        }
        if std::env::var_os("STOD_FAULTS").is_none() {
            assert_eq!(fire(FaultSite::TrainAbort), None, "guard dropped, disarmed");
        }
    }

    #[test]
    fn quiet_waits_for_installed_plans_and_silences_every_site() {
        let guard = install(FaultPlan::new(9).with(FaultSite::TrainAbort, 1.0, 0));
        let waiter = std::thread::spawn(|| {
            let _quiet = quiet();
            ALL_SITES.iter().all(|&site| fire(site).is_none())
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(
            fire(FaultSite::TrainAbort),
            Some(0),
            "quiet() must wait for the installed plan instead of replacing it"
        );
        drop(guard);
        assert!(waiter.join().unwrap(), "a site fired under quiet()");
    }

    #[test]
    fn corruption_modes() {
        let mut b = vec![0u8; 64];
        corrupt(&mut b, CorruptKind::BitFlip, 9);
        assert_eq!(b.len(), 64);
        assert_eq!(
            b.iter().map(|&x| x.count_ones()).sum::<u32>(),
            1,
            "one bit flipped"
        );

        let mut b = vec![1u8; 64];
        corrupt(&mut b, CorruptKind::Truncate, 0);
        assert_eq!(b.len(), 32);

        let mut b = vec![1u8; 64];
        corrupt(&mut b, CorruptKind::Empty, 0);
        assert!(b.is_empty());

        // Bit flips on empty buffers are a no-op, not a panic.
        let mut b = Vec::new();
        corrupt(&mut b, CorruptKind::BitFlip, 1);
        assert!(b.is_empty());
    }

    #[test]
    fn maybe_corrupt_respects_plan() {
        let _guard = install(FaultPlan::new(1).with(FaultSite::CkptCorrupt, 1.0, 0));
        let mut bytes = vec![0u8; 16];
        let kind = maybe_corrupt(FaultSite::CkptCorrupt, &mut bytes);
        assert_eq!(kind, Some(CorruptKind::BitFlip));
        assert_eq!(bytes.iter().map(|&x| x.count_ones()).sum::<u32>(), 1);
    }
}
