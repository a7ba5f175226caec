//! Tier-1 gate for the observability layer (`stod-obs`).
//!
//! The layer's core contract is that probes are *structurally incapable*
//! of changing numerics: a span or counter only reads clocks and bumps
//! integers, so arming them must leave every trained weight bitwise
//! unchanged. This suite proves that contract end to end — train the same
//! BF and AF models with observability off, on, and tracing, at 1 and 4
//! kernel threads, and compare the resulting parameters bit for bit — and
//! then checks the structural invariants that the benchmark's traced runs
//! and the serving dashboard read: the span tree captures the training
//! phases and the AF model stages; the checkpoint path's spans have exact
//! counts, and a checkpointed run's span tree and counters are identical
//! at 1 and 4 threads; and the serving counters satisfy the request
//! conservation law
//!
//! ```text
//! requests = model_invocations + worker_panics + batched_joins + cache_hits
//! ```
//!
//! under genuinely concurrent broker traffic.
//!
//! Every test arms the registry through `obs::with_mode`, which
//! serializes armed windows process-wide, so the counters each test reads
//! are its own. Dataset generation fans out on the kernel pool, which
//! counts its fan-outs, so it runs disarmed under the same lock.

use od_forecast::baselines::NaiveHistograms;
use od_forecast::core::{
    train, train_robust, AfConfig, AfModel, BfConfig, BfModel, OdForecaster, RobustConfig,
    TrainCheckpoint, TrainConfig,
};
use od_forecast::obs::{self, ObsMode};
use od_forecast::serve::{
    Broker, BrokerConfig, FeatureStore, ForecastRequest, ModelConfig, ModelKind, Registry,
    ServeStats,
};
use od_forecast::tensor::par;
use od_forecast::traffic::{CityModel, OdDataset, SimConfig, Window};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 5;
const LOOKBACK: usize = 3;

fn small_dataset(seed: u64) -> OdDataset {
    let sim = SimConfig {
        num_days: 2,
        intervals_per_day: 16,
        trips_per_interval: 100.0,
        ..SimConfig::small(seed)
    };
    // Disarmed, and never inside another test's armed window.
    obs::with_mode(ObsMode::Off, || {
        OdDataset::generate(CityModel::small(N), &sim)
    })
}

/// The two trainable frameworks, at the small shapes this suite uses.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Bf,
    Af,
}

impl Kind {
    fn build(self, ds: &OdDataset, seed: u64) -> Box<dyn OdForecaster> {
        let k = ds.spec.num_buckets;
        match self {
            Kind::Bf => {
                let bf = BfConfig {
                    encode_dim: 8,
                    gru_hidden: 8,
                    ..BfConfig::default()
                };
                Box::new(BfModel::new(N, k, bf, seed))
            }
            Kind::Af => Box::new(AfModel::new(
                &ds.city.centroids(),
                k,
                AfConfig::default(),
                seed,
            )),
        }
    }

    /// The fast test schedule; AF trains with dropout so its fused
    /// factorization stage draws from the trainer's stream.
    fn config(self) -> TrainConfig {
        match self {
            Kind::Bf => TrainConfig::fast_test(),
            Kind::Af => TrainConfig {
                dropout: 0.2,
                ..TrainConfig::fast_test()
            },
        }
    }
}

/// Trains a fresh model under `mode` at `threads` kernel threads and
/// returns every numeric output: parameter bytes, per-epoch losses, and
/// the gradient-norm series.
fn train_fingerprint(
    kind: Kind,
    ds: &OdDataset,
    windows: &[Window],
    threads: usize,
    mode: ObsMode,
) -> (Vec<u8>, Vec<u32>, Vec<u32>) {
    obs::with_mode(mode, || {
        par::with_threads(threads, || {
            let mut model = kind.build(ds, 7);
            let report = train(model.as_mut(), ds, windows, None, &kind.config());
            (
                model.params().to_bytes().to_vec(),
                report.epoch_losses.iter().map(|l| l.to_bits()).collect(),
                report.grad_norms.iter().map(|g| g.to_bits()).collect(),
            )
        })
    })
}

/// Arming the probes must not change a single trained bit, at the serial
/// fallback and on the 4-thread pool alike.
#[test]
fn armed_probes_leave_training_numerics_bitwise_unchanged() {
    let ds = small_dataset(3);
    let windows = ds.windows(LOOKBACK, 1);
    for kind in [Kind::Bf, Kind::Af] {
        for threads in [1usize, 4] {
            let fp = |mode| train_fingerprint(kind, &ds, &windows, threads, mode);
            let (off, on, trace) = (fp(ObsMode::Off), fp(ObsMode::On), fp(ObsMode::Trace));
            assert_eq!(
                off, on,
                "{kind:?}: STOD_OBS=on changed training numerics at {threads} thread(s)"
            );
            assert_eq!(
                off, trace,
                "{kind:?}: STOD_OBS=trace changed training numerics at {threads} thread(s)"
            );
            assert!(!off.2.is_empty(), "gradient-norm series must be recorded");
        }
        // The determinism contract also holds across thread counts; verify
        // it with the probes armed, where per-thread buffers are in play.
        let t1 = train_fingerprint(kind, &ds, &windows, 1, ObsMode::On);
        let t4 = train_fingerprint(kind, &ds, &windows, 4, ObsMode::On);
        assert_eq!(t1, t4, "{kind:?}: armed run diverged across thread counts");
    }
}

/// Total count of the spans whose path ends in `suffix`, over every
/// thread's root.
fn span_count(snap: &obs::ObsSnapshot, suffix: &str) -> u64 {
    snap.spans
        .iter()
        .filter(|s| s.path.ends_with(suffix))
        .map(|s| s.count)
        .sum()
}

/// The armed span tree captures every training phase with counts that
/// match the train report, and the AF model's stage spans down to the
/// fused factorization stage and the rank projection.
#[test]
fn snapshot_captures_training_span_tree() {
    let ds = small_dataset(5);
    let windows = ds.windows(LOOKBACK, 1);
    let train_armed = |kind: Kind| {
        let cfg = kind.config();
        let report = obs::with_mode(ObsMode::On, || {
            obs::reset();
            let mut model = kind.build(&ds, 9);
            train(model.as_mut(), &ds, &windows, None, &cfg)
        });
        (cfg, report, obs::snapshot())
    };

    // AF: one forward per step (each minibatch is one gradient shard),
    // each factorizing LOOKBACK steps on two sides through two stages.
    let (_, report, snap) = train_armed(Kind::Af);
    let forwards = report.steps;
    for (suffix, per_forward) in [
        ("af/factorize", 1),
        ("af/factorize/af/cheby_pool", 2 * 2 * LOOKBACK as u64),
        ("af/factorize/af/rank_proj", 2 * LOOKBACK as u64),
        ("af/forecast", 1),
        ("af/recover", 1),
        ("nn/bwd/cheby_pool", 2 * 2 * LOOKBACK as u64),
    ] {
        assert_eq!(
            span_count(&snap, suffix),
            per_forward * forwards,
            "AF span tree: {suffix}"
        );
    }
    for gone in ["nn/bwd/max_pool", "nn/bwd/index_select", "nn/bwd/dropout"] {
        assert_eq!(span_count(&snap, gone), 0, "AF still records {gone}");
    }

    let (cfg, report, snap) = train_armed(Kind::Bf);
    let epoch = snap.span("train/epoch").expect("train/epoch span");
    assert_eq!(epoch.count as usize, cfg.epochs);
    assert!(epoch.total_ns > 0, "epoch span must accumulate time");
    let mb = snap
        .span("train/epoch/train/minibatch")
        .expect("minibatch span");
    assert_eq!(mb.count, report.steps, "one minibatch span per step");
    for phase in ["train/fwd", "train/bwd", "train/optimizer"] {
        assert!(
            snap.spans.iter().any(|s| s.path.contains(phase)),
            "span tree is missing the {phase} phase"
        );
    }
    assert!(
        snap.counter("kernel/matmul/calls") > 0,
        "kernel counters must be armed during training"
    );
    assert_eq!(report.grad_norms.len() as u64, report.steps);
    assert_eq!(report.epoch_wall_ms.len(), cfg.epochs);
    assert!(report.epoch_wall_ms.iter().all(|&ms| ms >= 0.0));
}

/// Robust training of the BF model with a cadence checkpoint, then one
/// reload, armed at `threads` kernel threads: the snapshot and the step
/// count.
fn checkpoint_run(threads: usize) -> (obs::ObsSnapshot, u64) {
    let ds = small_dataset(13);
    let windows = ds.windows(LOOKBACK, 1);
    let dir = std::env::temp_dir().join(format!("stod_obs_ckpt_{}_t{threads}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("train.ckpt");
    let rcfg = RobustConfig {
        ckpt_path: Some(ckpt.clone()),
        ckpt_every_steps: 2,
        ..RobustConfig::default()
    };
    let (report, snap) = obs::with_mode(ObsMode::On, || {
        par::with_threads(threads, || {
            obs::reset();
            let mut model = Kind::Bf.build(&ds, 13);
            let report = train_robust(
                model.as_mut(),
                &ds,
                &windows,
                None,
                &TrainConfig::fast_test(),
                &rcfg,
            )
            .expect("robust training completes");
            TrainCheckpoint::load(&ckpt).expect("the last checkpoint reloads");
            (report, obs::snapshot())
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    (snap, report.steps)
}

/// The checkpoint path's spans, pinned exactly: 12 optimizer steps (29
/// windows in batches of 8, over 3 epochs) save a cadence checkpoint every
/// 2 steps inside `train/epoch`'s `train/minibatch` and one more at each
/// epoch's end, after `train/epoch` closes; the reload is one more root.
/// Each save seals one CRC and makes one atomic write, and the load checks
/// one CRC.
const CKPT_SPANS: [(&str, u64); 8] = [
    ("ckpt/load", 1),
    ("ckpt/load/ckpt/crc", 1),
    ("ckpt/save", 3),
    ("ckpt/save/ckpt/crc", 3),
    ("ckpt/save/io/atomic_write", 3),
    ("train/epoch/train/minibatch/ckpt/save", 6),
    ("train/epoch/train/minibatch/ckpt/save/ckpt/crc", 6),
    ("train/epoch/train/minibatch/ckpt/save/io/atomic_write", 6),
];

/// The checkpoint path's span tree is exact, and the whole tree and every
/// counter of a checkpointed training run are the same at 1 and 4 kernel
/// threads.
#[test]
fn checkpoint_span_tree_and_counters_are_exact_across_thread_counts() {
    let (snap, steps) = checkpoint_run(1);
    assert_eq!(steps, 12, "the pinned counts assume 12 optimizer steps");
    let tree = snap.span_tree();
    let ckpt: Vec<(&str, u64)> = tree
        .iter()
        .filter(|(path, _)| path.contains("ckpt/"))
        .map(|(path, count)| (path.as_str(), *count))
        .collect();
    assert_eq!(ckpt, CKPT_SPANS, "checkpoint span tree");
    assert_eq!(snap.counter("ckpt/saves"), 9, "one counted save per span");
    assert_eq!(snap.counter("ckpt/loads"), 1, "one counted load per span");
    let (snap4, steps4) = checkpoint_run(4);
    assert_eq!(steps4, steps);
    assert_eq!(snap4.span_tree(), tree, "span tree differs at 4 threads");
    assert_eq!(
        snap4.counters, snap.counters,
        "counters differ at 4 threads"
    );
}

/// Concurrent serve traffic satisfies the conservation law, the obs
/// counters agree with the `ServeStats` ledger, and taking snapshots
/// mid-flight is safe.
#[test]
fn serve_counters_satisfy_conservation_law_under_concurrent_traffic() {
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 30;
    let ds = small_dataset(11);
    let stats = Arc::new(ServeStats::new());
    let bf = BfConfig {
        encode_dim: 8,
        gru_hidden: 8,
        ..BfConfig::default()
    };
    let config = ModelConfig {
        kind: ModelKind::Bf(bf),
        centroids: ds.city.centroids(),
        num_buckets: ds.spec.num_buckets,
    };
    let registry = Arc::new(Registry::new(config.clone(), Arc::clone(&stats)));
    let built = config.build(11);
    let v = registry
        .register_store(od_forecast::nn::ParamStore::from_bytes(built.params().to_bytes()).unwrap())
        .unwrap();
    registry.promote(v).unwrap();
    let features = Arc::new(FeatureStore::new(N, ds.spec, ds.num_intervals()));
    for (t, tensor) in ds.tensors.iter().enumerate() {
        features.insert_tensor(t, tensor.clone());
    }
    let fallback = NaiveHistograms::fit(&ds, ds.num_intervals());
    let broker = Broker::new(
        registry,
        features,
        fallback,
        Arc::clone(&stats),
        BrokerConfig {
            workers: 2,
            lookback: LOOKBACK,
            cache_capacity: 64,
            ..BrokerConfig::default()
        },
    );

    obs::with_mode(ObsMode::On, || {
        obs::reset();
        let max_t = ds.num_intervals() - 1;
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let broker = &broker;
                scope.spawn(move || {
                    for i in 0..REQUESTS {
                        let fc = broker.forecast(ForecastRequest {
                            origin: (c + i) % N,
                            dest: (c + 2 * i + 1) % N,
                            t_end: LOOKBACK + (i / 3) % (max_t - LOOKBACK),
                            horizon: 2,
                            step: i % 2,
                            deadline: Duration::from_secs(60),
                        });
                        assert_eq!(fc.histogram.len(), ds.spec.num_buckets);
                    }
                });
            }
            // Snapshots taken while clients are in flight must be safe:
            // no deadlock, no torn reads, counts bounded by the traffic.
            // (No cross-counter inequality can be asserted here — the
            // snapshot merges per-thread buffers one at a time, so two
            // counters owned by different threads are read at slightly
            // different instants.)
            for _ in 0..5 {
                let mid = obs::snapshot();
                assert!(mid.counter("serve/requests") <= (CLIENTS * REQUESTS) as u64);
                std::thread::yield_now();
            }
        });

        // Quiesce the worker pool before the final snapshot: a client can
        // receive its result while the worker's `serve/job` span is still
        // open (the fan-out happens inside the span), so the span only
        // reaches the registry once the worker is joined.
        drop(broker);

        let snap = obs::snapshot();
        let get = |name: &str| snap.counter(name);
        let requests = get("serve/requests");
        assert_eq!(requests, (CLIENTS * REQUESTS) as u64);
        assert_eq!(
            requests,
            get("serve/model_invocations")
                + get("serve/worker_panics")
                + get("serve/batched_joins")
                + get("serve/cache_hits"),
            "conservation law violated: every request must be attributed exactly once"
        );

        // The obs counters and the ServeStats ledger are two views of the
        // same events; they must agree exactly.
        let ledger = stats.snapshot();
        assert_eq!(requests, ledger.requests_total);
        assert_eq!(get("serve/model_invocations"), ledger.model_invocations);
        assert_eq!(get("serve/batched_joins"), ledger.batched_joins);
        assert_eq!(get("serve/cache_hits"), ledger.cache_hits);
        assert_eq!(get("serve/worker_panics"), ledger.worker_panics);
        assert_eq!(ledger.fallbacks_total(), 0, "no fallback path expected");

        // Span-side view of the same story: one forecast span per request,
        // one job span per model invocation.
        let forecast = snap.span("serve/forecast").expect("serve/forecast span");
        assert_eq!(forecast.count, requests);
        let job = snap.span("serve/job").expect("serve/job span");
        assert_eq!(job.count, ledger.model_invocations);

        // The latency histogram by outcome saw every request on the model
        // path, and the batch-size distribution one entry per job.
        let lat = snap
            .histogram("serve/latency/model")
            .expect("model latency histogram");
        assert_eq!(lat.count, requests);
        assert!(snap.histogram("serve/latency/fallback").is_none());
        let batch = snap.histogram("serve/batch_size").expect("batch sizes");
        assert_eq!(batch.count, ledger.model_invocations);
        assert_eq!(ledger.batch_count, ledger.model_invocations);
        assert!(ledger.queue_depth_max >= 1);
    });
}
