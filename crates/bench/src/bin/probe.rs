//! Dev probe: convergence of the deep models on the small NYC dataset,
//! plus (`M=parallel`) the serial-vs-parallel kernel timing sweep that
//! seeds `results/BENCH_parallel.json`.
use stod_baselines::*;
use stod_bench::*;
use stod_core::*;
use stod_nn::optim::StepDecay;

/// Thread counts the parallel sweep compares (serial baseline first).
const SWEEP_THREADS: [usize; 3] = [1, 2, 4];

/// `M` values that run one mode alone.
const SOLO_MODES: [&str; 5] = ["city", "serve_load", "adapt", "parallel", "obs"];

/// `M` values that may be listed comma-separated (`M=bf,af`); after the
/// NH baseline, the listed ones run in this order.
const MODEL_MODES: [&str; 6] = ["oracle", "mr", "fc", "var", "bf", "af"];

/// The modes `M` selects (unset means `af`): one solo mode, or one or
/// more model modes. Names match exactly; anything else is an error that
/// lists the valid names.
fn parse_modes(m: Option<&str>) -> Result<Vec<&'static str>, String> {
    let m = m.unwrap_or("af");
    if let Some(&solo) = SOLO_MODES.iter().find(|&&s| s == m) {
        return Ok(vec![solo]);
    }
    m.split(',')
        .map(|name| MODEL_MODES.iter().find(|&&v| v == name).copied())
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| {
            format!(
                "unknown probe mode M={m:?}: run one of {SOLO_MODES:?} alone, \
                 or list any of {MODEL_MODES:?} comma-separated (unset means \"af\")"
            )
        })
}

/// `var` parsed as a `T`, or `default` when unset. A set value that does
/// not parse panics naming the variable, never a silent default.
fn env_num<T: std::str::FromStr>(var: &str, default: T) -> T {
    match std::env::var(var) {
        Ok(v) => v.parse().unwrap_or_else(|_| {
            panic!(
                "{var} must parse as {}, got {v:?}",
                std::any::type_name::<T>()
            )
        }),
        Err(_) => default,
    }
}

/// Best-of-`reps` wall-clock of `f`, in milliseconds.
fn time_ms_best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// One row of the parallel sweep: best-of-`iters` wall-clock at each
/// [`SWEEP_THREADS`] entry, plus (where the flop count is well defined)
/// the serial GFLOP/s and a serial naive-kernel reference time.
struct SweepRow {
    name: String,
    iters: usize,
    ms: [f64; 3],
    gflops: Option<f64>,
    naive_ms: Option<f64>,
}

/// Serial vs 2/4-thread wall-clock for the three tentpole hot paths:
/// paper-scale matmul, the AF forward pass at the paper's NYC shape, and
/// one BF training epoch. Every timing is best-of-`iters` after an
/// untimed warmup pass (first touch pays page faults and arena growth).
/// Writes `results/BENCH_parallel.json` and asserts the epoch loss is
/// bitwise identical across thread counts.
fn run_parallel_bench(ds: &stod_traffic::OdDataset, split: &stod_traffic::Split) {
    use stod_tensor::ops::gemm;
    use stod_tensor::{matmul, par, rng::Rng64, Tensor};
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("-- parallel sweep (host cores: {host_cores}) --");
    let mut rows: Vec<SweepRow> = Vec::new();

    // 1. Paper-scale matmul: a 512³ GEMM, larger than any single product
    //    in the models, isolating the blocked kernel. Also timed against
    //    the pre-blocked naive `i-k-j` dispatcher on the same operands so
    //    the achieved-vs-naive speedup is visible in the artifact.
    {
        let mut rng = Rng64::new(1);
        let a = Tensor::randn(&[512, 512], 1.0, &mut rng);
        let b = Tensor::randn(&[512, 512], 1.0, &mut rng);
        let iters = 5;
        let ms = SWEEP_THREADS.map(|t| {
            par::with_threads(t, || {
                std::hint::black_box(matmul(&a, &b));
                time_ms_best_of(iters, || {
                    std::hint::black_box(matmul(&a, &b));
                })
            })
        });
        let naive_ms = par::with_threads(1, || {
            let mut out = vec![0.0f32; 512 * 512];
            gemm::naive_rows(a.data(), b.data(), &mut out, 512, 512, 512);
            time_ms_best_of(3, || {
                gemm::naive_rows(
                    a.data(),
                    b.data(),
                    std::hint::black_box(&mut out),
                    512,
                    512,
                    512,
                );
            })
        });
        let flops = 2.0 * 512f64.powi(3);
        println!(
            "matmul_512: {:.2} GFLOP/s blocked ({} kernel) vs {:.2} GFLOP/s naive — {:.2}x",
            flops / (ms[0] * 1e6),
            if gemm::blocked_available() {
                "avx2+fma"
            } else {
                "scalar"
            },
            flops / (naive_ms * 1e6),
            naive_ms / ms[0],
        );
        rows.push(SweepRow {
            name: "matmul_512".into(),
            iters,
            ms,
            gflops: Some(flops / (ms[0] * 1e6)),
            naive_ms: Some(naive_ms),
        });
    }

    // 2. AF forward at the paper's NYC shape (N=67, K=20, batch 4).
    {
        let city = stod_traffic::CityModel::nyc_like(7);
        let k = stod_traffic::HistogramSpec::paper().num_buckets;
        let n = city.num_regions();
        let model = AfModel::new(&city.centroids(), k, AfConfig::paper_nyc(), 7);
        let mut rng = Rng64::new(8);
        let inputs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn(&[4, n, n, k], 0.5, &mut rng))
            .collect();
        let iters = 2;
        let mut fwd = || {
            let mut tape = stod_nn::Tape::new();
            let mut fwd_rng = Rng64::new(9);
            std::hint::black_box(model.forward(&mut tape, &inputs, 1, Mode::Eval, &mut fwd_rng));
        };
        let ms = SWEEP_THREADS.map(|t| {
            par::with_threads(t, || {
                fwd();
                time_ms_best_of(iters, &mut fwd)
            })
        });
        rows.push(SweepRow {
            name: "af_forward_paper_nyc".into(),
            iters,
            ms,
            gflops: None,
            naive_ms: None,
        });
    }

    // 3. One BF training epoch on the small NYC dataset (first 64 train
    //    windows). Also the determinism check the bench rides on: the
    //    epoch loss must be bit-identical at every thread count.
    {
        let windows: Vec<stod_traffic::Window> = split.train.iter().copied().take(64).collect();
        let n = ds.num_regions();
        let k = ds.spec.num_buckets;
        let mut losses: Vec<f32> = Vec::new();
        let iters = 2;
        let epoch = |losses: &mut Vec<f32>| {
            let mut m = BfModel::new(n, k, BfConfig::default(), 5);
            let cfg = TrainConfig {
                epochs: 1,
                batch_size: 16,
                dropout: 0.2,
                seed: 5,
                ..TrainConfig::default()
            };
            let report = train(&mut m, ds, &windows, None, &cfg);
            losses.push(report.final_loss());
        };
        let ms = SWEEP_THREADS.map(|t| {
            par::with_threads(t, || {
                // Warmup epoch fills the workspace arena; timed reps then
                // run against the steady-state allocator.
                epoch(&mut losses);
                time_ms_best_of(iters, || epoch(&mut losses))
            })
        });
        for l in &losses[1..] {
            assert_eq!(
                l.to_bits(),
                losses[0].to_bits(),
                "epoch loss must be bitwise identical across thread counts"
            );
        }
        println!("epoch loss {} at every thread count (bitwise)", losses[0]);
        rows.push(SweepRow {
            name: "bf_train_epoch_small".into(),
            iters,
            ms,
            gflops: None,
            naive_ms: None,
        });
    }

    // Report + JSON artifact. The shared provenance header records the
    // thread count the *process* ran at; the sweep's per-row thread
    // counts live in `sweep_threads`.
    let header = BenchHeader::collect(Scale::from_env());
    let mut json = String::from("{\n");
    json.push_str(&format!("  {},\n", header.json_fields()));
    json.push_str(&format!(
        "  \"sweep_threads\": [{}, {}, {}],\n",
        SWEEP_THREADS[0], SWEEP_THREADS[1], SWEEP_THREADS[2]
    ));
    json.push_str(
        "  \"note\": \"wall-clock ms, best-of-iters after an untimed warmup; \
         speedups require >= 4 host cores\",\n",
    );
    json.push_str("  \"benches\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let (name, ms) = (&row.name, &row.ms);
        println!(
            "{name:<24} 1t {:>9.2} ms   2t {:>9.2} ms ({:.2}x)   4t {:>9.2} ms ({:.2}x)   best of {}",
            ms[0],
            ms[1],
            ms[0] / ms[1],
            ms[2],
            ms[0] / ms[2],
            row.iters,
        );
        let mut extra = String::new();
        if let Some(g) = row.gflops {
            extra.push_str(&format!(", \"gflops\": {g:.2}"));
        }
        if let Some(nv) = row.naive_ms {
            extra.push_str(&format!(
                ", \"naive_ms\": {nv:.3}, \"vs_naive\": {:.3}",
                nv / ms[0]
            ));
        }
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"iters\": {}, \"serial_ms\": {:.3}, \"t2_ms\": {:.3}, \"t4_ms\": {:.3}, \"speedup_t2\": {:.3}, \"speedup_t4\": {:.3}{extra}}}{}\n",
            row.iters,
            ms[0],
            ms[1],
            ms[2],
            ms[0] / ms[1],
            ms[0] / ms[2],
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("wrote results/BENCH_parallel.json");
}

/// `M=obs`: arms the observability layer, drives every instrumented
/// layer — plain + robust training, the checkpoint path, sequential serve
/// traffic — then writes the snapshot (stamped with the shared bench
/// header) to `results/BENCH_obs.json` (override: `STOD_OBS_OUT`) and
/// prints the human-readable table.
///
/// Everything here is deterministic for a fixed `STOD_THREADS`: fixed
/// seeds and window sets on the training side, a single sequential client
/// on the serving side. The span tree (paths + counts) and the counters
/// are therefore identical run to run, which is what `bench_gate
/// --trees-only` checks in CI.
fn run_obs_bench(ds: &stod_traffic::OdDataset, split: &stod_traffic::Split) {
    use std::sync::Arc;
    use std::time::Duration;
    use stod_serve::{
        Broker, BrokerConfig, FeatureStore, ForecastRequest, ModelConfig, ModelKind, Registry,
        ServeStats,
    };

    // Arm the probes unless the caller pinned a mode explicitly.
    if std::env::var("STOD_OBS").is_err() {
        stod_obs::force_mode(stod_obs::ObsMode::On);
    }
    stod_obs::reset();
    let n = ds.num_regions();
    let k = ds.spec.num_buckets;
    let small_bf = BfConfig {
        encode_dim: 16,
        gru_hidden: 16,
        ..BfConfig::default()
    };

    // Train phase (plain trainer): train/epoch → train/minibatch →
    // fwd/bwd/optimizer spans, kernel counters, pool histograms.
    let windows: Vec<stod_traffic::Window> = split.train.iter().copied().take(48).collect();
    let val: Vec<stod_traffic::Window> = split.val.iter().copied().take(8).collect();
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 16,
        dropout: 0.1,
        seed: 17,
        ..TrainConfig::default()
    };
    let mut model = BfModel::new(n, k, small_bf, 17);
    let report = train(&mut model, ds, &windows, Some(&val), &tc);
    assert_eq!(report.grad_norms.len() as u64, report.steps);
    assert_eq!(report.epoch_wall_ms.len(), tc.epochs);

    // Checkpoint phase (robust trainer with an on-disk cadence
    // checkpoint): ckpt/save, ckpt/crc, io/atomic_write, then an explicit
    // reload for ckpt/load.
    let dir = std::env::temp_dir().join(format!("stod_obs_probe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("probe tmp dir");
    let ckpt = dir.join("probe.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let mut rmodel = BfModel::new(n, k, small_bf, 17);
    let rtc = TrainConfig { epochs: 1, ..tc };
    let rcfg = RobustConfig {
        ckpt_path: Some(ckpt.clone()),
        ckpt_every_steps: 2,
        ..RobustConfig::default()
    };
    train_robust(&mut rmodel, ds, &windows, None, &rtc, &rcfg).expect("probe robust train");
    TrainCheckpoint::load(&ckpt).expect("probe checkpoint reloads");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_dir(&dir);

    // Serve phase: one sequential client so the cache-hit / invocation
    // split is deterministic. Every 4-request burst shares a key: the
    // leader pays the forward pass, the other three hit the cache.
    let lookback = 3;
    let stats = Arc::new(ServeStats::new());
    let config = ModelConfig {
        kind: ModelKind::Bf(small_bf),
        centroids: ds.city.centroids(),
        num_buckets: k,
    };
    let registry = Arc::new(Registry::new(config.clone(), Arc::clone(&stats)));
    let built = config.build(17);
    let v = registry.register_store(built.params().clone()).unwrap();
    registry.promote(v).unwrap();
    let features = Arc::new(FeatureStore::new(n, ds.spec, ds.num_intervals()));
    for (t, tensor) in ds.tensors.iter().enumerate() {
        features.insert_tensor(t, tensor.clone());
    }
    let fallback = stod_baselines::NaiveHistograms::fit(ds, ds.num_intervals());
    let broker = Broker::new(
        registry,
        features,
        fallback,
        Arc::clone(&stats),
        BrokerConfig {
            workers: 1,
            lookback,
            cache_capacity: 64,
            ..BrokerConfig::default()
        },
    );
    let max_t = ds.num_intervals() - 1;
    for i in 0..40usize {
        let fc = broker.forecast(ForecastRequest {
            origin: i % n,
            dest: (i + 1) % n,
            t_end: lookback + (i / 4) % (max_t - lookback),
            horizon: 2,
            step: i % 2,
            deadline: Duration::from_secs(30),
        });
        assert_eq!(fc.histogram.len(), k);
    }
    println!("serve traffic: {}", broker.stats().snapshot().to_json());
    drop(broker);

    // Snapshot, table, artifact.
    let snap = stod_obs::snapshot();
    println!("{}", snap.render_table());
    for must_have in [
        "train/minibatch",
        "train/fwd",
        "serve/forecast",
        "ckpt/save",
        "ckpt/load",
    ] {
        assert!(
            snap.spans.iter().any(|s| s.path.contains(must_have)),
            "span tree is missing {must_have}"
        );
    }
    let header = BenchHeader::collect(Scale::from_env());
    let out = std::env::var("STOD_OBS_OUT").unwrap_or_else(|_| "results/BENCH_obs.json".into());
    let json = format!(
        "{{\n  {},\n  \"obs\": {}\n}}\n",
        header.json_fields(),
        snap.to_json()
    );
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).expect("create artifact dir");
    }
    std::fs::write(&out, &json).expect("write obs artifact");
    println!("wrote {out}");
}

/// `M=serve_load`: the fleet load harness. Builds a 4-city serving fleet
/// (`FleetConfig::default()`) from replayed synthetic traffic
/// (`stod_traffic::generate_fleet` → live-ingest
/// `push_trip`/`seal_interval`), installs a fresh checkpoint per shard,
/// then drives three measured phases, each on a fresh fleet so
/// the books are per-phase exact:
///
/// * **slo** — paced open-loop arrivals (`STOD_LOAD_RATE` req/s, Poisson)
///   against the cache-on fleet: the latency/SLO phase.
/// * **cache_on** — closed-loop saturation throughput with the forecast
///   result cache.
/// * **cache_off** — closed-loop throughput with the cache disabled *and*
///   broker result retention off (`retain_results = false`), the honest
///   recompute-every-arrival baseline.
///
/// Writes `results/BENCH_serve_load.json` (override `STOD_LOAD_OUT`)
/// stamped with the shared bench header. With `STOD_LOAD_GATE=1` the run
/// asserts the SLO gates: zero ledger residuals everywhere, SLO-phase p99
/// within budget, cache hit rate above floor, and cache-on/cache-off
/// speedup of at least `STOD_LOAD_MIN_SPEEDUP` (default 10).
fn run_serve_load_bench() {
    use std::time::Duration;
    use stod_fleet::{build_schedule, run_load, FleetConfig, LoadConfig, LoadReport, ShardConfig};
    use stod_serve::ModelKind;
    use stod_traffic::{generate_fleet, FleetSimConfig};

    let gate = std::env::var("STOD_LOAD_GATE").is_ok_and(|v| v == "1");
    let fleet_cfg = FleetConfig::default();
    assert!(
        fleet_cfg.shards >= 4,
        "the load harness wants a ≥4-city fleet, FleetConfig::default() has {} shards",
        fleet_cfg.shards
    );
    let total: usize = env_num("STOD_LOAD_N", 2000);
    let clients: usize = env_num("STOD_LOAD_CLIENTS", 8);
    let rate: f64 = env_num("STOD_LOAD_RATE", 400.0);
    let p99_budget_us: u64 = env_num("STOD_LOAD_P99_US", 200_000);
    let min_hit_rate: f64 = env_num("STOD_LOAD_MIN_HITRATE", 0.5);
    let min_speedup: f64 = env_num("STOD_LOAD_MIN_SPEEDUP", 10.0);

    let sim = FleetSimConfig {
        num_cities: fleet_cfg.shards,
        num_days: 1,
        intervals_per_day: 16,
        seed: 0x0F1EE7,
    };
    let cities = generate_fleet(&sim);
    let shard_cfg = ShardConfig::default();
    let kind = |_: usize| {
        ModelKind::Bf(BfConfig {
            encode_dim: 16,
            gru_hidden: 16,
            ..BfConfig::default()
        })
    };
    // Request sealed intervals the sliding window still retains, leaving
    // the full lookback below the smallest t_end.
    let load = LoadConfig {
        total_requests: total,
        clients,
        rate_per_s: None,
        horizons: vec![1, 2, 3],
        deadline: Duration::from_millis(150),
        t_end_lo: shard_cfg.lookback + 1,
        t_end_hi: sim.intervals_per_day - 1,
        requests_per_tick: 256,
        seed: 0x10AD,
    };
    let fresh_fleet = |cache: bool| {
        let cfg = FleetConfig {
            cache_enabled: cache,
            ..fleet_cfg
        };
        let scfg = ShardConfig {
            retain_results: cache,
            ..shard_cfg
        };
        stod_fleet::Fleet::from_replay(&cfg, &cities, &scfg, kind, 0x5EED)
    };
    let describe = |name: &str, r: &LoadReport| {
        let shed = r.outcomes.shed;
        println!(
            "{name:<10} {:>8} req  {:>12.0} fc/s  hit {:5.3}  model {:>6}  fallback {:>5}  shed {shed:>5}  residual {}",
            r.requests,
            r.forecasts_per_s(),
            r.cache_hit_rate(),
            r.outcomes.model,
            r.outcomes.fallback,
            r.fleet.global_ledger_balance(),
        );
    };

    println!(
        "-- serve_load: {} shards (N = {:?}), cache cap {}, shed depth {} --",
        fleet_cfg.shards,
        cities.iter().map(|c| c.num_regions()).collect::<Vec<_>>(),
        fleet_cfg.cache_capacity,
        fleet_cfg.shed_depth
    );

    // Phase 1: paced open-loop SLO measurement, cache on.
    let slo_fleet = fresh_fleet(true);
    let slo_schedule = build_schedule(
        &slo_fleet,
        &LoadConfig {
            rate_per_s: Some(rate),
            ..load.clone()
        },
    );
    let slo = run_load(&slo_fleet, &slo_schedule, clients);
    describe("slo", &slo);

    // Phase 2: closed-loop saturation throughput, cache on.
    let on_fleet = fresh_fleet(true);
    let on = run_load(&on_fleet, &build_schedule(&on_fleet, &load), clients);
    describe("cache_on", &on);

    // Phase 3: closed-loop throughput with no result caching anywhere.
    // Every sequential repeat pays a fresh model invocation, so a smaller
    // request count measures the same rate in bounded time.
    let off_fleet = fresh_fleet(false);
    let off_load = LoadConfig {
        total_requests: (total / 5).max(200),
        ..load.clone()
    };
    let off = run_load(&off_fleet, &build_schedule(&off_fleet, &off_load), clients);
    describe("cache_off", &off);

    let speedup = on.forecasts_per_s() / off.forecasts_per_s().max(1e-9);
    let slo_p99 = slo
        .fleet
        .shards
        .iter()
        .map(|s| s.stats.p99_us)
        .max()
        .unwrap_or(0);
    println!(
        "cache-on vs cache-off: {speedup:.1}x  |  slo p99 {slo_p99} us  |  gates {}",
        if gate { "ENFORCED" } else { "report-only" }
    );

    let header = BenchHeader::collect(Scale::from_env());
    let json = format!(
        "{{\n  {},\n  \"shards\": {},\n  \"cache_capacity\": {},\n  \"shed_depth\": {},\n  \"region_counts\": {:?},\n  \"rate_per_s\": {rate},\n  \"speedup\": {speedup:.3},\n  \"slo_p99_us\": {slo_p99},\n  \"gates\": {{\"enforced\": {gate}, \"p99_budget_us\": {p99_budget_us}, \"min_hit_rate\": {min_hit_rate}, \"min_speedup\": {min_speedup}}},\n  \"slo\": {},\n  \"cache_on\": {},\n  \"cache_off\": {}\n}}\n",
        header.json_fields(),
        fleet_cfg.shards,
        fleet_cfg.cache_capacity,
        fleet_cfg.shed_depth,
        cities.iter().map(|c| c.num_regions()).collect::<Vec<_>>(),
        slo.to_json(),
        on.to_json(),
        off.to_json(),
    );
    let out =
        std::env::var("STOD_LOAD_OUT").unwrap_or_else(|_| "results/BENCH_serve_load.json".into());
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).expect("create artifact dir");
    }
    std::fs::write(&out, &json).expect("write serve_load artifact");
    println!("wrote {out}");

    // The conservation ledger must balance unconditionally — a non-zero
    // residual is an accounting bug, not a tuning problem.
    for (name, report) in [("slo", &slo), ("cache_on", &on), ("cache_off", &off)] {
        assert_eq!(
            report.fleet.global_ledger_balance(),
            0,
            "{name}: request-conservation ledger out of balance"
        );
        assert_eq!(
            report.outcomes.total(),
            report.requests,
            "{name}: outcome tally lost requests"
        );
    }
    if gate {
        assert!(
            slo_p99 <= p99_budget_us,
            "SLO gate: p99 {slo_p99} us exceeds budget {p99_budget_us} us"
        );
        assert!(
            on.cache_hit_rate() >= min_hit_rate,
            "SLO gate: cache hit rate {:.3} below floor {min_hit_rate}",
            on.cache_hit_rate()
        );
        assert!(
            speedup >= min_speedup,
            "SLO gate: cache-on speedup {speedup:.1}x below required {min_speedup}x"
        );
        println!("serve_load gates passed");
    }
}

/// `M=adapt`: the streaming-adaptation probe. Rebuilds the `adapt_gate`
/// drift scenario (a small city whose daily regime slides a quarter day
/// at the onset interval), replays the live stream into a single-shard
/// fleet, then runs one full adaptation cycle — ingest snapshot →
/// warm-start fine-tune → shadow eval → promote — with the observability
/// layer armed while closed-loop clients keep hammering the serving path.
///
/// Reports fine-tune wall, shadow-eval wall, promote latency (from the
/// pipeline's own `adapt/latency/*` histograms) and the serve p99
/// observed *during* the adaptation, and writes
/// `results/BENCH_adapt.json` (override `STOD_ADAPT_OUT`).
fn run_adapt_bench() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};
    use stod_adapt::{AdaptConfig, CityAdapter, CycleOutcome};
    use stod_fleet::{Fleet, FleetConfig, FleetRequest, Shard, ShardConfig};
    use stod_serve::{ModelConfig, ModelKind};
    use stod_traffic::{generate_drift, CityModel, DriftConfig, DriftKind, SimConfig};

    const IPD: usize = 12;
    let seed: u64 = 53279;
    let clients = 4usize;

    let acfg = AdaptConfig {
        epochs: 20,
        holdout: 8,
        min_windows: 4,
        lookback: 2,
        ckpt_every_steps: 4,
        ..AdaptConfig::default()
    };

    // The adapt_gate drift scenario: stationary past trains the incumbent,
    // the live stream shifts its daily regime a quarter day at onset.
    let city = CityModel::small(6);
    let sim = SimConfig {
        num_days: 3,
        intervals_per_day: IPD,
        trips_per_interval: 600.0,
        ..SimConfig::small(seed)
    };
    let (stationary, _) = generate_drift(city.clone(), &sim, &DriftConfig::stationary());
    let (drifted, trips) = generate_drift(
        city.clone(),
        &sim,
        &DriftConfig {
            kind: DriftKind::RushHourShift { shift_intervals: 3 },
            onset: IPD,
        },
    );
    let model_cfg = ModelConfig {
        kind: ModelKind::Bf(BfConfig {
            encode_dim: 8,
            gru_hidden: 8,
            ..BfConfig::default()
        }),
        centroids: city.centroids(),
        num_buckets: drifted.spec.num_buckets,
    };
    let mut incumbent = model_cfg.build(seed ^ 0x1BC);
    let windows = stationary.windows(acfg.lookback, 1);
    train(
        incumbent.as_mut(),
        &stationary,
        &windows,
        None,
        &TrainConfig {
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
        },
    );
    let nh = NaiveHistograms::fit(&stationary, stationary.num_intervals());

    let shard = Shard::new(
        0,
        city.name.clone(),
        model_cfg,
        drifted.spec,
        nh.clone(),
        &ShardConfig {
            workers: 2,
            lookback: acfg.lookback,
            window_capacity: 24,
            broker_cache_capacity: 32,
            retain_results: true,
            breaker: stod_fleet::BreakerConfig::default(),
        },
    );
    shard
        .install_checkpoint(incumbent.params().clone())
        .unwrap();
    let fleet = Fleet::new(
        &FleetConfig {
            shards: 1,
            cache_capacity: 64,
            shed_depth: 256,
            cache_enabled: true,
        },
        vec![shard],
    );
    for (t, interval) in trips.iter().enumerate() {
        for trip in interval {
            fleet.shard(0).ingest_trip(*trip).unwrap();
        }
        fleet.shard(0).seal_interval(t);
    }

    let dir = std::env::temp_dir().join(format!("stod_adapt_probe_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut adapter = CityAdapter::new(
        0,
        city.clone(),
        IPD,
        nh,
        drifted.spec.num_buckets,
        acfg,
        dir.clone(),
    )
    .expect("create adapter work dir");

    println!(
        "-- adapt probe: N={} IPD={IPD} epochs={} holdout={} margin={} --",
        city.num_regions(),
        acfg.epochs,
        acfg.holdout,
        acfg.margin
    );

    // One full adaptation cycle with obs armed, while closed-loop clients
    // keep the serving path hot — the p99 the fleet's tenants actually see
    // during an adaptation.
    let t_end = 3 * IPD - 1;
    let stop = AtomicBool::new(false);
    let (outcome, served) = stod_obs::with_mode(stod_obs::ObsMode::On, || {
        stod_obs::reset();
        std::thread::scope(|scope| {
            let fleet = &fleet;
            let stop = &stop;
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        let mut n = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let r = FleetRequest {
                                city: 0,
                                origin: (n as usize + c) % 6,
                                dest: (n as usize + c + 1) % 6,
                                t_end,
                                horizon: 1,
                                step: 0,
                                deadline: Duration::from_millis(150),
                            };
                            std::hint::black_box(fleet.forecast(r));
                            n += 1;
                        }
                        n
                    })
                })
                .collect();
            let cycle_start = Instant::now();
            let outcome = adapter.run_cycle(fleet).expect("adaptation cycle failed");
            let cycle_ms = cycle_start.elapsed().as_secs_f64() * 1e3;
            stop.store(true, Ordering::Relaxed);
            let served: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            println!("cycle wall {cycle_ms:.1} ms, {served} forecasts served during it");
            (outcome, served)
        })
    });
    let obs = stod_obs::snapshot();
    let hist_ms = |name: &str| -> (f64, f64) {
        obs.histogram(name)
            .map(|h| (h.total as f64 / 1e6, h.max as f64 / 1e6))
            .unwrap_or((0.0, 0.0))
    };
    let (fine_tune_ms, _) = hist_ms("adapt/latency/fine_tune");
    let (shadow_eval_ms, _) = hist_ms("adapt/latency/shadow_eval");
    let (promote_ms, _) = hist_ms("adapt/latency/promote");
    let serve_p99_us = fleet.shard(0).stats().snapshot().p99_us;
    let promoted = matches!(outcome, CycleOutcome::Promoted { .. });
    println!("outcome {:?}", adapter.decisions().last().map(|(_, d)| *d));
    println!(
        "fine_tune {fine_tune_ms:>9.1} ms   shadow_eval {shadow_eval_ms:>7.1} ms   promote {promote_ms:>6.2} ms   serve p99 {serve_p99_us} us"
    );
    assert!(
        promoted,
        "the probe scenario is tuned to promote; got {outcome:?} — scenario drifted"
    );

    let header = BenchHeader::collect(Scale::from_env());
    let json = format!(
        "{{\n  {},\n  \"scenario\": {{\"seed\": {seed}, \"regions\": {}, \"intervals_per_day\": {IPD}, \"drift\": \"rush_hour_shift_3\"}},\n  \"config\": {{\"epochs\": {}, \"holdout\": {}, \"margin\": {}, \"min_windows\": {}}},\n  \"fine_tune_ms\": {fine_tune_ms:.3},\n  \"shadow_eval_ms\": {shadow_eval_ms:.3},\n  \"promote_ms\": {promote_ms:.3},\n  \"serve_p99_during_adapt_us\": {serve_p99_us},\n  \"forecasts_during_adapt\": {served},\n  \"promoted\": {promoted}\n}}\n",
        header.json_fields(),
        city.num_regions(),
        acfg.epochs,
        acfg.holdout,
        acfg.margin,
        acfg.min_windows,
    );
    let out = std::env::var("STOD_ADAPT_OUT").unwrap_or_else(|_| "results/BENCH_adapt.json".into());
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).expect("create artifact dir");
    }
    std::fs::write(&out, &json).expect("write adapt artifact");
    println!("wrote {out}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `M=city`: the big-city scale probe behind `STOD_SCALE=city`. Two
/// sections, both gated by hard asserts so CI fails loudly:
///
/// * **propagation sweep** — dense matmul vs CSR `spmm_panel` for the
///   scaled-Laplacian propagation `L·X` at N ∈ {256, 512, 1000} on
///   metropolis-density graphs (paper-default kernel σ = 1 km, α = 0.1).
///   Gate: CSR at least 3× faster than dense at N = 1000.
/// * **budgeted serving** — an end-to-end city slice: train an AF model
///   (CSR graph path, N = 500) for one epoch, checkpoint it, register
///   it in a memory-budgeted registry, and serve one forecast. Gates:
///   the forecast is a set of finite histograms, and the resident bytes
///   are within the `STOD_MODEL_MEM` budget (default 64 MiB when unset).
///
/// Writes `results/BENCH_city.json` (override `STOD_CITY_OUT`) stamped
/// with the shared bench header; `bench_gate` compares the sweep's
/// `csr_ms` rows against the blessed artifact.
fn run_city_bench() {
    use std::sync::Arc;
    use stod_graph::{
        proximity_csr, proximity_matrix, scaled_laplacian, scaled_laplacian_csr, ProximityParams,
    };
    use stod_nn::ParamStore;
    use stod_serve::{ModelConfig, ModelKind, Registry, ServeStats};
    use stod_tensor::{matmul, rng::Rng64, stack, Tensor};

    println!("-- city bench: CSR propagation sweep + budgeted serving --");

    // Section A: dense vs CSR scaled-Laplacian propagation over a
    // 64-feature panel. Sub-metropolis sizes use the uniform `irregular`
    // layout at the same nominal density (radius ∝ √n) so the sweep
    // varies N, not the generator.
    struct PropRow {
        n: usize,
        nnz: usize,
        density: f64,
        dense_ms: f64,
        csr_ms: f64,
    }
    let feat = 64;
    let mut prop_rows: Vec<PropRow> = Vec::new();
    for n in [256usize, 512, 1000] {
        let cents = if n >= 500 {
            stod_traffic::CityModel::metropolis(n, 7).centroids()
        } else {
            stod_traffic::CityModel::irregular(n, 0.5 * (n as f64).sqrt(), 7).centroids()
        };
        let params = ProximityParams::default();
        let l = scaled_laplacian(&proximity_matrix(&cents, params));
        let lc = scaled_laplacian_csr(&proximity_csr(&cents, params));
        let mut rng = Rng64::new(n as u64);
        let x = Tensor::randn(&[n, feat], 1.0, &mut rng);
        let iters = 5;
        std::hint::black_box(matmul(&l, &x));
        let dense_ms = time_ms_best_of(iters, || {
            std::hint::black_box(matmul(&l, &x));
        });
        std::hint::black_box(lc.spmm_panel(&x));
        let csr_ms = time_ms_best_of(iters, || {
            std::hint::black_box(lc.spmm_panel(&x));
        });
        let nnz = lc.nnz();
        let density = nnz as f64 / (n * n) as f64;
        println!(
            "propagate n={n:<5} nnz {nnz:>6} ({:>5.2}%)  dense {dense_ms:>8.3} ms  csr {csr_ms:>7.3} ms  {:>6.2}x",
            density * 100.0,
            dense_ms / csr_ms,
        );
        prop_rows.push(PropRow {
            n,
            nnz,
            density,
            dense_ms,
            csr_ms,
        });
    }
    let big = prop_rows.last().unwrap();
    assert!(
        big.csr_ms * 3.0 <= big.dense_ms,
        "city gate: CSR propagation must be >= 3x dense at N = {} (dense {:.3} ms, csr {:.3} ms)",
        big.n,
        big.dense_ms,
        big.csr_ms
    );

    // Section B: end-to-end city slice. `Scale::City` builds a 500-region
    // metropolis; the AF runs its factorization Laplacians and CNRNN
    // filters in CSR form, as at every city size.
    let seed = 11;
    let t0 = std::time::Instant::now();
    let ds = build_dataset(Dataset::Nyc, Scale::City, seed);
    let n = ds.num_regions();
    let k = ds.spec.num_buckets;
    assert!(n >= 500, "city tier must be a >= 500-region metropolis");
    let split = standard_split(&ds, 2, 1);
    let windows: Vec<stod_traffic::Window> = split.train.iter().copied().take(4).collect();
    assert!(!windows.is_empty(), "city slice produced no train windows");
    let af_cfg = AfConfig {
        rnn_hidden: 8,
        rank: 4,
        ..AfConfig::default()
    };
    let mut model = AfModel::new(&ds.city.centroids(), k, af_cfg.clone(), seed);
    let report = train(
        &mut model,
        &ds,
        &windows,
        None,
        &TrainConfig {
            epochs: 1,
            batch_size: 4,
            dropout: 0.0,
            seed,
            ..TrainConfig::default()
        },
    );
    let train_ms = t0.elapsed().as_secs_f64() * 1e3;
    let final_loss = report.final_loss();
    assert!(
        final_loss.is_finite(),
        "city training slice diverged: loss {final_loss}"
    );
    println!(
        "city slice: N={n} K={k}, {} windows, 1 epoch, loss {final_loss:.4}, {train_ms:.0} ms incl. dataset",
        windows.len()
    );

    let f32_bytes = model.params().to_bytes();
    let f32_len = f32_bytes.len();
    println!("checkpoint: {f32_len} B");

    // Memory-budgeted registry: `STOD_MODEL_MEM` when set, else 64 MiB.
    let budget = stod_tensor::env_knob("STOD_MODEL_MEM", 1, u64::MAX)
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or(64 << 20);
    let config = ModelConfig {
        kind: ModelKind::Af(af_cfg),
        centroids: ds.city.centroids(),
        num_buckets: k,
    };
    let registry = Registry::with_mem_budget(config, Arc::new(ServeStats::new()), Some(budget));
    let version = registry
        .register_store(ParamStore::from_bytes(f32_bytes).expect("checkpoint roundtrip"))
        .expect("the city model must register under the memory budget");
    registry.promote(version).expect("promote the city model");
    let served = registry.get(version).expect("city version resolvable");
    let mem_bytes = served.mem_bytes();
    assert!(
        mem_bytes <= budget,
        "city gate: resident {mem_bytes} B over the {budget} B budget"
    );

    // Serve smoke: forecast the last train window through the registry;
    // every predicted cell must be a finite histogram.
    let w = windows[windows.len() - 1];
    let inputs: Vec<Tensor> = w
        .input_indices()
        .iter()
        .map(|&t| stack(&[&ds.tensors[t].data], 0))
        .collect();
    let forecast = served.forecast(&inputs, 1);
    let pred = &forecast[0];
    assert_eq!(pred.dims(), &[1, n, n, k], "city forecast shape");
    for cell in pred.data().chunks_exact(k) {
        let mass: f32 = cell.iter().sum();
        assert!(
            cell.iter().all(|p| p.is_finite()) && (mass - 1.0).abs() < 1e-3,
            "city gate: forecast cell is not a histogram: {cell:?}"
        );
    }
    println!(
        "serving: resident {mem_bytes} B (budget {budget} B), forecast {:?}",
        pred.dims()
    );

    // Artifact: shared provenance header + sweep rows + serving section.
    let header = BenchHeader::collect(Scale::from_env());
    let mut json = String::from("{\n");
    json.push_str(&format!("  {},\n", header.json_fields()));
    json.push_str("  \"note\": \"wall-clock ms, best-of-5 after an untimed warmup\",\n");
    json.push_str("  \"propagation\": [\n");
    for (i, r) in prop_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"propagate_{}\", \"n\": {}, \"feat\": {feat}, \"nnz\": {}, \"density\": {:.5}, \"dense_ms\": {:.4}, \"csr_ms\": {:.4}, \"speedup\": {:.3}}}{}\n",
            r.n,
            r.n,
            r.nnz,
            r.density,
            r.dense_ms,
            r.csr_ms,
            r.dense_ms / r.csr_ms,
            if i + 1 < prop_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"city\": {{\"regions\": {n}, \"buckets\": {k}, \"train_windows\": {}, \"final_loss\": {final_loss:.6}, \"train_ms\": {train_ms:.1}, \"f32_bytes\": {f32_len}, \"resident_bytes\": {mem_bytes}, \"mem_budget_bytes\": {budget}}}\n",
        windows.len(),
    ));
    json.push_str("}\n");
    let out = std::env::var("STOD_CITY_OUT").unwrap_or_else(|_| "results/BENCH_city.json".into());
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).expect("create artifact dir");
    }
    std::fs::write(&out, &json).expect("write city artifact");
    println!("wrote {out}");
    println!("city gates passed");
}

fn main() {
    let modes = parse_modes(std::env::var("M").ok().as_deref()).unwrap_or_else(|e| {
        eprintln!("probe: {e}");
        std::process::exit(2);
    });
    let runs = |mode: &str| modes.contains(&mode);
    // Modes that bring their own data short-circuit before the shared
    // NYC dataset build.
    if runs("city") {
        run_city_bench();
        return;
    }
    if runs("serve_load") {
        run_serve_load_bench();
        return;
    }
    if runs("adapt") {
        run_adapt_bench();
        return;
    }
    let ds = build_dataset(Dataset::Nyc, Scale::Small, 11);
    let split = standard_split(&ds, 3, 1);
    let n = ds.num_regions();
    let k = ds.spec.num_buckets;
    let epochs: usize = env_num("E", 20);
    let lr: f32 = env_num("LR", 3e-3);
    let dropout: f32 = env_num("DO", 0.2);
    let tc = TrainConfig {
        epochs,
        batch_size: 16,
        schedule: StepDecay {
            initial: lr,
            decay: 0.8,
            every: 5,
        },
        verbose: true,
        dropout,
        ..TrainConfig::default()
    };
    let t0 = std::time::Instant::now();
    let train_end = split.train.iter().map(|w| w.t_end + w.h + 1).max().unwrap();
    let nh = NaiveHistograms::fit(&ds, train_end);
    let r = evaluate_predictor(&nh, &ds, &split.test);
    println!("NH  EMD {:.4}", r.per_step[0][2]);
    if runs("parallel") {
        run_parallel_bench(&ds, &split);
        return;
    }
    if runs("obs") {
        run_obs_bench(&ds, &split);
        return;
    }
    if runs("oracle") {
        use stod_traffic::speed::{SpeedField, SpeedParams};
        use stod_traffic::{OdDataset, Window};
        // Rebuild the latent field exactly as build_dataset(Nyc, Small, 11) does.
        let city = {
            let mut c = stod_traffic::CityModel::grid(8, 2, 0.7);
            c.name = "nyc-small".into();
            c
        };
        let field = SpeedField::simulate(&city, 48, 480, 11, SpeedParams::default());
        struct Oracle<'a> {
            field: &'a SpeedField,
            k: usize,
        }
        impl stod_baselines::HistogramPredictor for Oracle<'_> {
            fn name(&self) -> &str {
                "oracle"
            }
            fn predict(
                &self,
                ds: &OdDataset,
                o: usize,
                d: usize,
                w: &Window,
                step: usize,
            ) -> Vec<f32> {
                let t = w.target_indices()[step];
                let mut rng = stod_tensor::rng::Rng64::new((o * 1000 + d) as u64);
                let mut h = vec![0.0f32; self.k];
                for _ in 0..400 {
                    let v = self.field.sample_trip_speed(o, d, t, &mut rng);
                    h[ds.spec.bucket_of(v)] += 1.0 / 400.0;
                }
                h
            }
        }
        let oracle = Oracle { field: &field, k };
        let r = evaluate_predictor(&oracle, &ds, &split.test);
        println!(
            "ORACLE EMD {:.4}  KL {:.4}",
            r.per_step[0][2], r.per_step[0][0]
        );
    }
    if runs("mr") {
        let m = MrModel::fit(&ds, train_end, Default::default(), 23);
        let r = evaluate_predictor(&m, &ds, &split.test);
        println!("MR  EMD {:.4}", r.per_step[0][2]);
    }
    if runs("fc") {
        let mut m = FcModel::new(n, k, Default::default(), 23);
        println!("-- FC --");
        train(&mut m, &ds, &split.train, Some(&split.val), &tc);
        let r = evaluate(&m, &ds, &split.test, 32);
        println!("FC  EMD {:.4}", r.per_step[0][2]);
    }
    if runs("var") {
        let m = VarModel::fit(&ds, train_end, Default::default());
        let r = evaluate_predictor(&m, &ds, &split.test);
        println!("VAR EMD {:.4}", r.per_step[0][2]);
    }
    if runs("bf") {
        let enc: usize = env_num("ENC", 32);
        let hid: usize = env_num("HID", 48);
        let rank: usize = env_num("RANK", 5);
        let lam: f32 = env_num("LAM", 1e-4);
        let mut m = BfModel::new(
            n,
            k,
            BfConfig {
                encode_dim: enc,
                gru_hidden: hid,
                rank,
                lambda_r: lam,
                lambda_c: lam,
                ..BfConfig::default()
            },
            23,
        );
        println!("-- BF --");
        train(&mut m, &ds, &split.train, Some(&split.val), &tc);
        let r = evaluate(&m, &ds, &split.test, 32);
        println!("BF  EMD {:.4}  ({:?})", r.per_step[0][2], t0.elapsed());
    }
    if runs("af") {
        let t1 = std::time::Instant::now();
        let lam: f32 = env_num("LAM", 1e-4);
        let rh: usize = env_num("RH", 16);
        let mut m = AfModel::new(
            &ds.city.centroids(),
            k,
            AfConfig {
                lambda_r: lam,
                lambda_c: lam,
                rnn_hidden: rh,
                ..AfConfig::default()
            },
            23,
        );
        println!("-- AF --");
        train(&mut m, &ds, &split.train, Some(&split.val), &tc);
        let r = evaluate(&m, &ds, &split.test, 32);
        println!("AF  EMD {:.4}  ({:?})", r.per_step[0][2], t1.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_mode_is_af_and_solo_modes_run_alone() {
        assert_eq!(parse_modes(None), Ok(vec!["af"]));
        for solo in SOLO_MODES {
            assert_eq!(parse_modes(Some(solo)), Ok(vec![solo]));
        }
    }

    #[test]
    fn model_modes_list_comma_separated() {
        assert_eq!(parse_modes(Some("bf,af")), Ok(vec!["bf", "af"]));
        assert_eq!(parse_modes(Some("var")), Ok(vec!["var"]));
        assert_eq!(
            parse_modes(Some("oracle,mr,fc,var,bf,af")),
            Ok(MODEL_MODES.to_vec())
        );
    }

    #[test]
    fn unknown_or_mixed_modes_are_errors_listing_the_valid_names() {
        for bad in [
            "paralel", "bfaf", "city,af", "af,obs", "", "af,", " af", "AF",
        ] {
            let err = parse_modes(Some(bad)).unwrap_err();
            for name in SOLO_MODES.iter().chain(&MODEL_MODES) {
                assert!(err.contains(name), "{bad:?}: {err}");
            }
        }
    }
}
