//! Tier-1 durability gate (ISSUE 9 tentpole + satellites).
//!
//! Crash-consistency and self-healing checks on the durable fleet:
//!
//! * **kill-anywhere** — over a seeded schedule of ingest operations, a
//!   fleet killed after *any* prefix and recovered via [`Fleet::recover`]
//!   is bitwise identical to an uninterrupted fleet over the same prefix
//!   (sealed windows, forecast answers, and the stream's continuation);
//! * **torn writes** — a `WalTornWrite` injection kills the WAL handle
//!   mid-append; serving continues from memory, health reports the dead
//!   log, and recovery truncates the torn tail to exactly the synced
//!   prefix;
//! * **circuit breaker** — a `WorkerPanic` storm on one tenant trips its
//!   breaker; open-state requests are answered degraded (typed, counted,
//!   never hung), other tenants keep serving, and a post-storm probe
//!   closes the breaker — with every ledger balanced throughout;
//! * **shard crash** — a `ShardCrash` injection wipes a shard's window in
//!   place; the half-open probe rebuilds it from the WAL bitwise;
//! * **recovery scrub** — a checkpoint that bit-rots on disk is demoted
//!   by `Registry::scrub` during the post-recovery pass and the shard
//!   falls back to the newest valid version;
//! * **corrupt replay** — `WalCorrupt` injection during recovery never
//!   panics; the fleet comes back serving with valid answers.
//!
//! Without any flag this runs a small kill-point slice as part of tier-1;
//! `STOD_CHAOS=full` (set by `scripts/verify.sh --durability`, which
//! repeats the run at `STOD_THREADS` 1 and 4) widens the matrix.

mod common;

use common::TmpDir;
use od_forecast::core::BfConfig;
use od_forecast::faultline::{install, FaultPlan, FaultSite};
use od_forecast::fleet::{
    BreakerConfig, BreakerState, DurabilityConfig, Fleet, FleetConfig, FleetRequest, FleetSource,
    ShardConfig,
};
use od_forecast::serve::{FsyncPolicy, ModelKind, WalConfig};
use od_forecast::traffic::{generate_fleet, FleetCity, FleetSimConfig, Trip};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the fault-driving tests: fault injection and obs are
/// process-global, so concurrent traffic from a sibling test would bleed
/// into the schedules.
static TRAFFIC: Mutex<()> = Mutex::new(());

fn lock_traffic() -> std::sync::MutexGuard<'static, ()> {
    TRAFFIC.lock().unwrap_or_else(|e| e.into_inner())
}

fn is_full_matrix() -> bool {
    std::env::var_os("STOD_CHAOS").is_some()
}

fn small_kind(_: usize) -> ModelKind {
    ModelKind::Bf(BfConfig {
        encode_dim: 8,
        gru_hidden: 8,
        ..BfConfig::default()
    })
}

const FLEET_SEED: u64 = 0xD0_0D;
const LOOKBACK: usize = 2;

/// The replay fleet, regenerated deterministically wherever needed
/// (`FleetCity` is intentionally not `Clone` — the dataset is big).
fn cities() -> Vec<FleetCity> {
    generate_fleet(&FleetSimConfig {
        num_cities: 2,
        num_days: 1,
        intervals_per_day: 8,
        seed: FLEET_SEED,
    })
}

/// Same cities with the trip stream stripped, so the durable constructor
/// replays nothing and the test drives the stream op by op.
fn quiet_cities() -> Vec<FleetCity> {
    let mut cs = cities();
    for c in &mut cs {
        c.trips = Vec::new();
    }
    cs
}

fn shard_cfg(breaker: BreakerConfig) -> ShardConfig {
    ShardConfig {
        workers: 1,
        lookback: LOOKBACK,
        window_capacity: 8,
        broker_cache_capacity: 8,
        retain_results: true,
        breaker,
    }
}

fn fleet_cfg(shards: usize, cache_enabled: bool) -> FleetConfig {
    FleetConfig {
        shards,
        cache_capacity: 16,
        shed_depth: 1_000_000,
        cache_enabled,
    }
}

/// Every append fsynced — the strictest policy, under which "killed after
/// op k" and "dropped after op k" are indistinguishable on disk.
fn durability(root: &Path) -> DurabilityConfig {
    DurabilityConfig {
        root: root.to_path_buf(),
        wal: WalConfig {
            fsync: FsyncPolicy::Every,
            ..WalConfig::default()
        },
    }
}

fn tmp_root(name: &str) -> TmpDir {
    TmpDir::new("durability", name)
}

/// One ingest operation of the interleaved fleet-wide stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(usize, Trip),
    Seal(usize, usize),
}

impl Op {
    fn city(&self) -> usize {
        match self {
            Op::Push(c, _) | Op::Seal(c, _) => *c,
        }
    }
}

/// Flattens the cities' trip streams into one deterministic op schedule,
/// interleaved by interval (the order a fleet-wide feed would deliver).
fn op_schedule(cities: &[FleetCity]) -> Vec<Op> {
    let t_max = cities.iter().map(|c| c.trips.len()).max().unwrap_or(0);
    let mut ops = Vec::new();
    for t in 0..t_max {
        for c in cities {
            if let Some(trips) = c.trips.get(t) {
                for trip in trips {
                    ops.push(Op::Push(c.city_id, *trip));
                }
                ops.push(Op::Seal(c.city_id, t));
            }
        }
    }
    ops
}

fn apply_ops(fleet: &Fleet, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Push(c, trip) => fleet.shard(*c).ingest_trip(*trip).unwrap(),
            Op::Seal(c, t) => {
                fleet.shard(*c).seal_interval(*t);
            }
        }
    }
}

/// Asserts two fleets hold bitwise-identical sealed windows in every
/// shard: same interval range, same observed pairs, same histogram bits.
fn assert_windows_bitwise(a: &Fleet, b: &Fleet, what: &str) {
    assert_eq!(a.num_shards(), b.num_shards(), "{what}: shard count");
    for c in 0..a.num_shards() {
        let n = a.shard(c).num_regions();
        match (a.shard(c).ingest_snapshot(), b.shard(c).ingest_snapshot()) {
            (None, None) => {}
            (Some(sa), Some(sb)) => {
                assert_eq!(sa.first, sb.first, "{what}: shard {c} window start");
                assert_eq!(sa.len(), sb.len(), "{what}: shard {c} window length");
                for (i, (ta, tb)) in sa.tensors.iter().zip(&sb.tensors).enumerate() {
                    for o in 0..n {
                        for d in 0..n {
                            assert_eq!(
                                ta.observed(o, d),
                                tb.observed(o, d),
                                "{what}: shard {c} interval {i} pair ({o},{d}) observed"
                            );
                            let ha = ta.histogram(o, d).map(to_bits);
                            let hb = tb.histogram(o, d).map(to_bits);
                            assert_eq!(
                                ha, hb,
                                "{what}: shard {c} interval {i} pair ({o},{d}) histogram bits"
                            );
                        }
                    }
                }
            }
            (sa, sb) => panic!(
                "{what}: shard {c} window presence diverged ({} vs {})",
                sa.is_some(),
                sb.is_some()
            ),
        }
    }
}

fn to_bits(h: Vec<f32>) -> Vec<u32> {
    h.into_iter().map(f32::to_bits).collect()
}

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

/// Asserts both fleets answer the same request with the same source and
/// bitwise-identical histograms, for every shard that has a window.
fn assert_forecasts_bitwise(a: &Fleet, b: &Fleet, what: &str) {
    for c in 0..a.num_shards() {
        let Some(t_end) = a.shard(c).ingest_snapshot().and_then(|s| s.last()) else {
            continue;
        };
        let fa = a.forecast(req(c, t_end));
        let fb = b.forecast(req(c, t_end));
        assert_eq!(fa.source, fb.source, "{what}: shard {c} answer source");
        assert_eq!(
            to_bits(fa.histogram),
            to_bits(fb.histogram),
            "{what}: shard {c} histogram bits"
        );
    }
}

fn assert_ledgers_balanced(fleet: &Fleet, what: &str) {
    let snap = fleet.snapshot();
    assert_eq!(
        snap.global_ledger_balance(),
        0,
        "{what}: residuals {:?}",
        snap.ledger_residuals()
    );
}

/// Kill points of the op schedule, as fractions; tier-1 runs the short
/// slice, `--durability` widens it.
fn kill_fractions() -> Vec<f64> {
    if is_full_matrix() {
        (0..=10).map(|i| i as f64 / 10.0).collect()
    } else {
        vec![0.0, 0.37, 0.71, 1.0]
    }
}

/// The tentpole property: kill the fleet after any op prefix, recover,
/// and the result is bitwise equal to a fleet that never crashed — and
/// *stays* equal as the rest of the stream plays through both.
#[test]
fn kill_anywhere_recovery_is_bitwise_equal_to_uninterrupted_run() {
    let _guard = lock_traffic();
    let quiet = quiet_cities();
    let ops = op_schedule(&cities());
    assert!(ops.len() > 40, "schedule too small to mean anything");
    for frac in kill_fractions() {
        let k = ((ops.len() as f64) * frac) as usize;
        let root_a = tmp_root(&format!("kill_{k}_a"));
        let root_b = tmp_root(&format!("kill_{k}_b"));

        // The fleet that dies at op k. `FsyncPolicy::Every` makes drop
        // equivalent to a kill: nothing beyond the synced log survives
        // either way.
        let victim = Fleet::from_replay_durable(
            &fleet_cfg(2, false),
            &quiet,
            &shard_cfg(BreakerConfig::default()),
            small_kind,
            FLEET_SEED,
            &durability(&root_a),
        )
        .unwrap();
        apply_ops(&victim, &ops[..k]);
        drop(victim);

        // The uninterrupted oracle over the same prefix.
        let oracle = Fleet::from_replay_durable(
            &fleet_cfg(2, false),
            &quiet,
            &shard_cfg(BreakerConfig::default()),
            small_kind,
            FLEET_SEED,
            &durability(&root_b),
        )
        .unwrap();
        apply_ops(&oracle, &ops[..k]);

        let (recovered, report) = Fleet::recover(
            &fleet_cfg(2, false),
            &quiet,
            &shard_cfg(BreakerConfig::default()),
            small_kind,
            FLEET_SEED,
            &durability(&root_a),
        )
        .unwrap();
        assert!(report.is_clean(), "kill at {k}: {report:?}");
        assert_eq!(report.total_replayed(), k, "kill at {k}: replay count");
        assert_windows_bitwise(&recovered, &oracle, &format!("kill at {k}"));
        assert_forecasts_bitwise(&recovered, &oracle, &format!("kill at {k}"));

        // The recovered fleet must continue the stream exactly as the
        // oracle does — pending (unsealed) trips recovered too.
        apply_ops(&recovered, &ops[k..]);
        apply_ops(&oracle, &ops[k..]);
        assert_windows_bitwise(&recovered, &oracle, &format!("continue from {k}"));
        assert_forecasts_bitwise(&recovered, &oracle, &format!("continue from {k}"));
        assert_ledgers_balanced(&recovered, "recovered");
        assert_ledgers_balanced(&oracle, "oracle");
    }
}

/// A torn write kills the WAL handle mid-append: serving continues from
/// memory, health says durability stopped, and recovery truncates to
/// exactly the synced prefix.
#[test]
fn torn_write_recovers_to_the_synced_prefix() {
    let _guard = lock_traffic();
    let quiet = quiet_cities();
    let ops = op_schedule(&cities());
    let root_a = tmp_root("torn_a");
    let root_b = tmp_root("torn_b");

    let victim = Fleet::from_replay_durable(
        &fleet_cfg(2, false),
        &quiet,
        &shard_cfg(BreakerConfig::default()),
        small_kind,
        FLEET_SEED,
        &durability(&root_a),
    )
    .unwrap();

    // Drive the stream under a torn-write schedule, recording each
    // shard's durable prefix: the op whose append tore is *not* durable
    // (half a frame hit the disk), nothing after it is even attempted.
    let mut durable_upto = [usize::MAX; 2];
    {
        let _fault = install(FaultPlan::new(0x70E4).with(FaultSite::WalTornWrite, 0.01, 0));
        for (i, op) in ops.iter().enumerate() {
            let c = op.city();
            let was_dead = victim.shard(c).wal_dead();
            match op {
                Op::Push(c, trip) => victim.shard(*c).ingest_trip(*trip).unwrap(),
                Op::Seal(c, t) => {
                    victim.shard(*c).seal_interval(*t);
                }
            }
            if !was_dead && victim.shard(c).wal_dead() && durable_upto[c] == usize::MAX {
                durable_upto[c] = i;
            }
        }
    }
    assert!(
        durable_upto.iter().any(|&i| i != usize::MAX),
        "the schedule must tear at least one WAL (tune the seed)"
    );
    let health = victim.health();
    for (c, &upto) in durable_upto.iter().enumerate() {
        assert_eq!(
            health.shards[c].wal_dead,
            upto != usize::MAX,
            "health must report the dead log for shard {c}"
        );
        // A dead WAL never stops in-memory serving.
        let t_end = victim.shard(c).ingest_snapshot().unwrap().last().unwrap();
        let f = victim.forecast(req(c, t_end));
        let sum: f32 = f.histogram.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "shard {c} serves while WAL dead");
    }
    drop(victim);

    // The oracle applies, per shard, exactly the ops that were synced.
    let oracle = Fleet::from_replay_durable(
        &fleet_cfg(2, false),
        &quiet,
        &shard_cfg(BreakerConfig::default()),
        small_kind,
        FLEET_SEED,
        &durability(&root_b),
    )
    .unwrap();
    for (i, op) in ops.iter().enumerate() {
        if i < durable_upto[op.city()] {
            apply_ops(&oracle, std::slice::from_ref(op));
        }
    }

    let (recovered, report) = Fleet::recover(
        &fleet_cfg(2, false),
        &quiet,
        &shard_cfg(BreakerConfig::default()),
        small_kind,
        FLEET_SEED,
        &durability(&root_a),
    )
    .unwrap();
    assert!(
        report.shards.iter().any(|s| s.truncated_tails > 0),
        "recovery must truncate the torn tail: {report:?}"
    );
    assert_windows_bitwise(&recovered, &oracle, "torn-write recovery");
    assert!(
        recovered.health().all_healthy(),
        "recovery reopens a live WAL handle"
    );
}

/// A `WorkerPanic` storm on one tenant trips its breaker: open-state
/// requests answer degraded (typed, counted, instantly), the other
/// tenant keeps serving from its result cache, and once the storm stops
/// a half-open probe closes the breaker. All ledgers balance throughout.
#[test]
fn breaker_trips_under_panic_storm_and_probe_closes_it() {
    let _guard = lock_traffic();
    let cs = cities();
    let breaker = BreakerConfig {
        threshold: 3,
        backoff: Duration::from_millis(20),
        seed: 11,
    };
    let fleet = Fleet::from_replay(
        &fleet_cfg(2, true),
        &cs,
        &shard_cfg(breaker),
        small_kind,
        FLEET_SEED,
    );
    let t_end = fleet.shard(0).ingest_snapshot().unwrap().last().unwrap();

    // Warm the healthy tenant's result cache before the storm: cache
    // lookups precede the breaker and the broker, so they stay servable
    // no matter what faults rage at dispatch.
    let warm = fleet.forecast(req(1, t_end));
    assert!(matches!(warm.source, FleetSource::Model { .. }));

    {
        let _fault = install(FaultPlan::new(0x5708).with(FaultSite::WorkerPanic, 1.0, 0));
        // Distinct t_end per request so the broker cache cannot coalesce
        // them away from the worker (and the panic site).
        let mut t = t_end;
        let mut panics = 0;
        while fleet.shard(0).breaker().state() != BreakerState::Open {
            assert!(t >= LOOKBACK, "storm ran out of intervals");
            let f = fleet.forecast(req(0, t));
            if matches!(
                f.source,
                FleetSource::Fallback(od_forecast::serve::FallbackReason::WorkerPanic)
            ) {
                panics += 1;
            }
            t -= 1;
        }
        assert!(panics >= 3, "breaker tripped after {panics} panics");

        // While open: degraded answers, typed and counted — never a hang.
        let deg = fleet.forecast(req(0, t_end));
        assert_eq!(deg.source, FleetSource::Degraded);
        let sum: f32 = deg.histogram.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "degraded answer is a histogram");

        // The other tenant still serves (cache path) mid-storm.
        let other = fleet.forecast(req(1, t_end));
        assert!(matches!(other.source, FleetSource::ResultCache { .. }));
    }

    // Storm over. Wait out the backoff, then the next request probes,
    // succeeds, and closes the breaker.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "breaker never closed");
        let f = fleet.forecast(req(0, t_end));
        if !matches!(f.source, FleetSource::Degraded) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(fleet.shard(0).breaker().state(), BreakerState::Closed);
    let b = fleet.shard(0).breaker().snapshot();
    assert!(b.trips >= 1 && b.probes >= 1 && b.rejects >= 1, "{b:?}");

    let snap = fleet.snapshot();
    assert!(snap.shards[0].stats.degraded >= 1);
    assert_eq!(snap.shards[1].stats.degraded, 0, "healthy tenant untouched");
    assert_ledgers_balanced(&fleet, "post-storm");
}

/// A `ShardCrash` injection wipes one shard's window in place; the
/// breaker force-opens, degraded answers cover the outage, and the
/// half-open probe rebuilds the window from the WAL — bitwise.
#[test]
fn shard_crash_self_heals_from_the_wal() {
    let _guard = lock_traffic();
    let cs = cities();
    let root = tmp_root("crash");
    let breaker = BreakerConfig {
        threshold: 3,
        backoff: Duration::from_millis(20),
        seed: 12,
    };
    let fleet = Fleet::from_replay_durable(
        &fleet_cfg(2, false),
        &cs,
        &shard_cfg(breaker),
        small_kind,
        FLEET_SEED,
        &durability(&root),
    )
    .unwrap();
    let t_end = fleet.shard(0).ingest_snapshot().unwrap().last().unwrap();
    let before = fleet.shard(0).ingest_snapshot().unwrap();

    {
        let _fault = install(FaultPlan::new(0xC4A5).with(FaultSite::ShardCrash, 1.0, 0));
        let f = fleet.forecast(req(0, t_end));
        assert_eq!(
            f.source,
            FleetSource::Degraded,
            "the crashing request itself degrades"
        );
    }
    assert!(fleet.shard(0).is_crashed());
    assert!(fleet.shard(0).ingest_snapshot().is_none(), "window wiped");
    assert!(!fleet.health().all_healthy());

    // Degraded until the backoff elapses, then the probe rebuilds from
    // the WAL and the model serves again.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "shard never self-healed");
        let f = fleet.forecast(req(0, t_end));
        match f.source {
            FleetSource::Degraded => std::thread::sleep(Duration::from_millis(5)),
            FleetSource::Model { .. } | FleetSource::Fallback(_) => break,
            other => panic!("unexpected source {other:?}"),
        }
    }
    assert!(!fleet.shard(0).is_crashed());
    let after = fleet.shard(0).ingest_snapshot().unwrap();
    assert_eq!(after.first, before.first, "rebuilt window start");
    assert_eq!(after.len(), before.len(), "rebuilt window length");
    for (i, (ta, tb)) in after.tensors.iter().zip(&before.tensors).enumerate() {
        for o in 0..fleet.shard(0).num_regions() {
            for d in 0..fleet.shard(0).num_regions() {
                assert_eq!(
                    ta.histogram(o, d).map(to_bits),
                    tb.histogram(o, d).map(to_bits),
                    "interval {i} pair ({o},{d}) after rebuild"
                );
            }
        }
    }
    assert!(fleet.health().all_healthy());
    assert_ledgers_balanced(&fleet, "post-crash");
}

/// A checkpoint that bit-rots on disk after registration is demoted by
/// the scrub pass and the shard falls back to the newest valid version —
/// the post-recovery re-registration workflow.
#[test]
fn recovery_scrub_demotes_bit_rotted_checkpoint() {
    let _guard = lock_traffic();
    let quiet = quiet_cities();
    let ops = op_schedule(&cities());
    let root = tmp_root("scrub");
    let fleet = Fleet::from_replay_durable(
        &fleet_cfg(2, false),
        &quiet,
        &shard_cfg(BreakerConfig::default()),
        small_kind,
        FLEET_SEED,
        &durability(&root),
    )
    .unwrap();
    apply_ops(&fleet, &ops);
    drop(fleet);

    let (fleet, report) = Fleet::recover(
        &fleet_cfg(2, false),
        &quiet,
        &shard_cfg(BreakerConfig::default()),
        small_kind,
        FLEET_SEED,
        &durability(&root),
    )
    .unwrap();
    assert!(report.is_clean());

    // Re-register a file-backed checkpoint (the adapt pipeline's recovery
    // path), promote it, then rot the file on disk.
    let ckpt = root.join("promoted.bin");
    let model = od_forecast::serve::ModelConfig {
        kind: small_kind(0),
        centroids: cities()[0].dataset.city.centroids(),
        num_buckets: cities()[0].dataset.spec.num_buckets,
    }
    .build(FLEET_SEED ^ 0xF00D);
    std::fs::write(&ckpt, model.params().to_bytes()).unwrap();
    let v2 = fleet.shard(0).registry().register_file(&ckpt).unwrap();
    fleet.activate(0, v2).unwrap();
    assert_eq!(fleet.shard(0).registry().active_version(), Some(v2));

    let mut rotted = std::fs::read(&ckpt).unwrap();
    let mid = rotted.len() / 2;
    rotted[mid] ^= 0x40;
    std::fs::write(&ckpt, &rotted).unwrap();

    let scrub = fleet.shard(0).registry().scrub();
    assert!(!scrub.is_clean(), "scrub must catch the rot");
    assert_eq!(scrub.demoted_active, Some(v2));
    let fallback_v = fleet.shard(0).registry().active_version();
    assert!(fallback_v.is_some() && fallback_v != Some(v2));
    assert!(fleet.snapshot().shards[0].stats.scrub_rejects >= 1);

    // And the shard still answers, from the surviving version.
    let t_end = fleet.shard(0).ingest_snapshot().unwrap().last().unwrap();
    let f = fleet.forecast(req(0, t_end));
    assert!(
        matches!(f.source, FleetSource::Model { version } if Some(version) == fallback_v),
        "answered by {:?}",
        f.source
    );
}

/// `WalCorrupt` injection during recovery never panics and never blocks
/// the restart: the fleet comes back with whatever valid prefix survived
/// and serves valid answers from it.
#[test]
fn corrupt_replay_never_panics_and_fleet_serves() {
    let _guard = lock_traffic();
    let quiet = quiet_cities();
    let ops = op_schedule(&cities());
    let seeds: Vec<u64> = if is_full_matrix() {
        (0..6).map(|i| 0xBAD + 17 * i).collect()
    } else {
        vec![0xBAD, 0xBAD + 17]
    };
    for seed in seeds {
        let root = tmp_root(&format!("corrupt_{seed:x}"));
        let fleet = Fleet::from_replay_durable(
            &fleet_cfg(2, false),
            &quiet,
            &shard_cfg(BreakerConfig::default()),
            small_kind,
            FLEET_SEED,
            &durability(&root),
        )
        .unwrap();
        apply_ops(&fleet, &ops);
        drop(fleet);

        let recovered = {
            let _fault = install(FaultPlan::new(seed).with(FaultSite::WalCorrupt, 0.5, 1));
            let (recovered, _report) = Fleet::recover(
                &fleet_cfg(2, false),
                &quiet,
                &shard_cfg(BreakerConfig::default()),
                small_kind,
                FLEET_SEED,
                &durability(&root),
            )
            .unwrap();
            recovered
        };
        for c in 0..2 {
            let Some(t_end) = recovered.shard(c).ingest_snapshot().and_then(|s| s.last()) else {
                continue; // everything corrupted away — still a valid state
            };
            let f = recovered.forecast(req(c, t_end));
            let sum: f32 = f.histogram.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-3,
                "seed {seed:#x} shard {c}: invalid histogram after corrupt replay"
            );
        }
        assert_ledgers_balanced(&recovered, "corrupt replay");
    }
}
