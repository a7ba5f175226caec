//! The serving workloads: `serve_cold` (every request pays a model
//! forward) and `serve_live` (cache-on durable fleet with live ingest and
//! adaptation beside the reads).

use crate::measure::{
    common_layer, ms, peak_rss_mb, span_mean_ms, valid_histogram, Digest, Metrics, Pass, ProcSample,
};
use crate::stats::{median, percentile, sorted, tail};
use crate::Ctx;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use stod_adapt::{AdaptConfig, CityAdapter, CycleOutcome};
use stod_baselines::NaiveHistograms;
use stod_core::{train, AfConfig, BfConfig, TrainConfig};
use stod_fleet::{
    DurabilityConfig, Fleet, FleetConfig, FleetForecast, FleetRequest, FleetSource, ShardConfig,
};
use stod_nn::optim::StepDecay;
use stod_nn::ParamStore;
use stod_serve::{ModelConfig, ModelKind};
use stod_tensor::{rng::Rng64, stack, Tensor};
use stod_traffic::{
    generate_drift, generate_fleet, CityModel, DriftConfig, DriftKind, FleetCity, FleetSimConfig,
    OdDataset, SimConfig, Trip,
};

/// Per-request deadline: far above the model path's latency, so the model
/// (not the deadline) answers every request of a healthy run.
const DEADLINE: Duration = Duration::from_secs(1);
/// Served answers re-computed offline and compared bitwise.
const SAMPLE: usize = 16;
/// Longest forecast horizon requested, on both serving workloads: the
/// paper evaluates horizons 1, 2 and 3 (Table II, as DESIGN.md lists it).
/// Horizons, cities and OD pairs are drawn uniformly, an assumption: no
/// request trace exists.
const HORIZONS: usize = 3;

/// Who answered one request, and what.
struct Answer {
    req: FleetRequest,
    source: FleetSource,
    hist: Vec<f32>,
}

/// What the load threads of one run saw.
#[derive(Default)]
struct Record {
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    model_ms: Vec<f64>,
    cache_us: Vec<f64>,
    /// Model answers, plus every 64th cache hit.
    kept: Vec<Answer>,
    model: u64,
    cache: u64,
    failed: u64,
    bad_histograms: u64,
}

impl Record {
    fn answer(&mut self, req: FleetRequest, fc: FleetForecast, k: usize, took: f64) {
        self.bad_histograms += u64::from(!valid_histogram(&fc.histogram, k));
        let keep = match fc.source {
            FleetSource::Model { .. } => {
                self.model += 1;
                self.model_ms.push(took);
                true
            }
            FleetSource::ResultCache { .. } => {
                self.cache += 1;
                self.cache_us.push(took * 1e3);
                self.cache % 64 == 1
            }
            FleetSource::Fallback(_) | FleetSource::Shed | FleetSource::Degraded => {
                self.failed += 1;
                false
            }
        };
        if keep {
            self.kept.push(Answer {
                req,
                source: fc.source,
                hist: fc.histogram,
            });
        }
    }

    fn merge(&mut self, other: Record) {
        self.latency_ms.extend(other.latency_ms);
        self.lag_ms.extend(other.lag_ms);
        self.model_ms.extend(other.model_ms);
        self.cache_us.extend(other.cache_us);
        self.kept.extend(other.kept);
        self.model += other.model;
        self.cache += other.cache;
        self.failed += other.failed;
        self.bad_histograms += other.bad_histograms;
    }

    fn answered(&self) -> u64 {
        self.model + self.cache + self.failed
    }
}

/// `Fleet::forecast` inside the benchmark's span, under which a traced run
/// records the request path.
fn forecast(fleet: &Fleet, req: FleetRequest) -> FleetForecast {
    let _span = stod_obs::span!("bench/forecast");
    fleet.forecast(req)
}

/// Waits until `due` after `start`: sleeps through all but the last
/// `SPIN` of a longer wait and busy-waits the rest. Returns how late it
/// returned, in ms, and adds the time it busy-waited to `spun`.
///
/// A sleeping sender's CPU idles between sends, and the host may run other
/// work on it meanwhile; the next request then ran on cold caches, which
/// took 60% of `serve_live`'s median cache-hit latency and made it follow
/// the host's load.
fn wait_until(start: Instant, due: Duration, spun: &mut Duration) -> f64 {
    const SPIN: Duration = Duration::from_millis(1);
    let due_at = start + due;
    let now = Instant::now();
    if due_at > now + 2 * SPIN {
        std::thread::sleep(due_at - now - SPIN);
    }
    let spin_from = Instant::now();
    while Instant::now() < due_at {
        std::hint::spin_loop();
    }
    *spun += spin_from.elapsed();
    ms(Instant::now().saturating_duration_since(due_at))
}

/// Poisson arrival offsets at `rate` per second over `span`.
fn poisson(rng: &mut Rng64, rate: f64, span: Duration) -> Vec<Duration> {
    let mut at = 0.0;
    let mut out = Vec::new();
    loop {
        at += -(1.0 - rng.next_f64()).max(1e-12).ln() / rate;
        if at >= span.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}

/// Region count of every city of a fleet, in tenant order.
fn regions(fleet: &Fleet) -> Vec<usize> {
    (0..fleet.num_shards())
        .map(|c| fleet.shard(c).num_regions())
        .collect()
}

/// A request with a uniformly drawn city (of the given region counts),
/// pair, horizon up to `HORIZONS`, and step.
fn draw(
    rng: &mut Rng64,
    regions: &[usize],
    t_end: impl Fn(&mut Rng64, usize) -> usize,
) -> FleetRequest {
    let city = rng.next_below(regions.len());
    let n = regions[city];
    let horizon = 1 + rng.next_below(HORIZONS);
    FleetRequest {
        city,
        origin: rng.next_below(n),
        dest: rng.next_below(n),
        t_end: t_end(rng, city),
        horizon,
        step: rng.next_below(horizon),
        deadline: DEADLINE,
    }
}

/// Checks shared by both serving workloads: every request tallied and
/// valid, the fleet's conservation ledger balanced, and a seeded sample of
/// model-computed answers bitwise equal to `ServedModel::forecast` on the
/// shard's window. Returns the timings of those offline forecasts.
fn check_serving(
    pass: &mut Pass,
    fleet: &Fleet,
    rec: &Record,
    lookback: usize,
    seed: u64,
) -> Vec<f64> {
    let attempted = pass.attempted;
    pass.check(rec.answered() == attempted, || {
        format!("{attempted} requests attempted, {} tallied", rec.answered())
    });
    pass.check(rec.bad_histograms == 0, || {
        format!(
            "{} served histograms are not valid distributions",
            rec.bad_histograms
        )
    });
    let balance = fleet.snapshot().global_ledger_balance();
    pass.check(balance == 0, || {
        format!("request ledger out of balance by {balance}")
    });

    let snaps: Vec<_> = (0..fleet.num_shards())
        .map(|c| fleet.shard(c).ingest_snapshot())
        .collect();
    // The window an answer conditioned on, if the shard still holds all of it.
    let retained = |req: &FleetRequest| {
        snaps[req.city].as_ref().is_some_and(|snap| {
            req.t_end + 1 >= snap.first + lookback && Some(req.t_end) <= snap.last()
        })
    };
    let window = |req: &FleetRequest| -> Vec<Tensor> {
        let snap = snaps[req.city].as_ref().expect("retained");
        (req.t_end + 1 - lookback..=req.t_end)
            .map(|t| stack(&[&snap.tensors[t - snap.first].data], 0))
            .collect()
    };
    let eligible: Vec<&Answer> = rec.kept.iter().filter(|a| retained(&a.req)).collect();
    pass.check(!eligible.is_empty(), || {
        "no model answer left to verify".into()
    });
    let mut rng = Rng64::new(seed ^ 0x5A3F);
    let mut timings = Vec::new();
    for _ in 0..SAMPLE.min(eligible.len()) {
        let a = eligible[rng.next_below(eligible.len())];
        let version = match a.source {
            FleetSource::Model { version } | FleetSource::ResultCache { version } => version,
            _ => unreachable!("only model and cache answers are kept"),
        };
        let Some(model) = fleet.shard(a.req.city).registry().get(version) else {
            pass.check(false, || format!("version {version} vanished"));
            continue;
        };
        let inputs = window(&a.req);
        let t = Instant::now();
        let pred = model.forecast(&inputs, a.req.horizon);
        timings.push(ms(t.elapsed()));
        let k = pred[a.req.step].dim(3);
        let same = (0..k).all(|b| {
            pred[a.req.step]
                .at(&[0, a.req.origin, a.req.dest, b])
                .to_bits()
                == a.hist[b].to_bits()
        });
        pass.check(same, || {
            format!(
                "served answer to {:?} differs from ServedModel::forecast",
                a.req
            )
        });
    }
    timings
}

/// Digest of fixed probe requests sent after the load: the same code and
/// seed must serve the same bits from the same versions.
fn probe_digest(fleet: &Fleet, t_end: impl Fn(usize) -> usize) -> u64 {
    let mut d = Digest::default();
    for city in 0..fleet.num_shards() {
        let n = fleet.shard(city).num_regions();
        for horizon in 1..=HORIZONS {
            let fc = fleet.forecast(FleetRequest {
                city,
                origin: 0,
                dest: n - 1,
                t_end: t_end(city),
                horizon,
                step: horizon - 1,
                deadline: DEADLINE,
            });
            let version = match fc.source {
                FleetSource::Model { version } | FleetSource::ResultCache { version } => version,
                _ => 0,
            };
            d.u64(u64::from(version));
            d.f32s(&fc.histogram);
        }
    }
    d.finish()
}

/// The end-to-end tail latency of a sample, and as diagnostics its
/// quantile, the sample count and the median and other percentiles.
fn latency_metrics(pass: &mut Pass, latency_ms: &[f64]) {
    let s = sorted(latency_ms);
    let (tail_ms, q) = tail(&s).unwrap_or((f64::NAN, f64::NAN));
    pass.e2e.insert("latency_tail_ms", tail_ms);
    pass.detail("tail_quantile", q);
    pass.detail("latency_samples", s.len() as f64);
    for (q, key) in [
        (0.5, "latency_p50_ms"),
        (0.9, "latency_p90_ms"),
        (0.99, "latency_p99_ms"),
        (0.999, "latency_p999_ms"),
    ] {
        pass.detail(key, percentile(&s, q).unwrap_or(0.0));
    }
}

/// Records the p99 of how late the open-loop sender sent; returns the
/// share of its sends more than 1 ms late.
fn send_lag(pass: &mut Pass, lag_ms: &[f64]) -> f64 {
    pass.detail(
        "harness.send_lag_p99_ms",
        percentile(&sorted(lag_ms), 0.99).unwrap_or(0.0),
    );
    let late = lag_ms.iter().filter(|&&l| l > 1.0).count();
    late as f64 / lag_ms.len().max(1) as f64
}

/// Timing diagnostics shared by both serving workloads.
fn record_details(pass: &mut Pass, rec: &Record, limit_ms: f64) {
    // Failed answers count as late, whatever their latency.
    let within = rec.latency_ms.iter().filter(|&&l| l <= limit_ms).count() as u64;
    let on_time = within.saturating_sub(rec.failed) as f64;
    pass.detail("on_time_share", on_time / pass.attempted.max(1) as f64);
    pass.detail(
        "failed_share",
        rec.failed as f64 / pass.attempted.max(1) as f64,
    );
    // A property of the workload: on serve_live, the share of reads that
    // miss the result cache.
    pass.detail(
        "model_answer_share",
        rec.model as f64 / pass.attempted.max(1) as f64,
    );
    let model = sorted(&rec.model_ms);
    pass.detail(
        "fleet.model_path_p50_ms",
        percentile(&model, 0.5).unwrap_or(0.0),
    );
    pass.detail(
        "fleet.model_path_p99_ms",
        percentile(&model, 0.99).unwrap_or(0.0),
    );
    let cache = sorted(&rec.cache_us);
    pass.detail(
        "fleet.cache_path_p50_us",
        percentile(&cache, 0.5).unwrap_or(0.0),
    );
}

// ---------------------------------------------------------------- serve_cold

/// Closed-loop clients: one per CPU of the 2-CPU reference host.
const COLD_CLIENTS: usize = 2;
/// Latency limit for `on_time_share`.
const COLD_LIMIT_MS: f64 = 250.0;
/// The default shard (2 broker workers, lookback 4, 32-interval window)
/// without broker result retention.
fn cold_shard() -> ShardConfig {
    ShardConfig {
        retain_results: false,
        ..ShardConfig::default()
    }
}

/// Two paper-scale cities (NYC-like N = 67, Chengdu-like N = 79), one day
/// each.
fn cold_cities(seed: u64) -> Vec<FleetCity> {
    [
        (CityModel::nyc_like(seed), SimConfig::nyc(seed)),
        (
            CityModel::chengdu_like(seed ^ 0xCD),
            SimConfig::chengdu(seed),
        ),
    ]
    .into_iter()
    .enumerate()
    .map(|(city_id, (city, sim))| {
        let (dataset, trips) =
            OdDataset::generate_with_trips(city, &SimConfig { num_days: 1, ..sim });
        FleetCity {
            city_id,
            dataset,
            trips,
        }
    })
    .collect()
}

pub fn run_cold(ctx: &Ctx, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let (mut setup_s, mut gen_s, mut build_ms) = (vec![], vec![], vec![]);
    let mut state = None;
    for _ in 0..ctx.setup_reps {
        drop(state.take());
        let t0 = Instant::now();
        let cities = cold_cities(ctx.seed);
        gen_s.push(t0.elapsed().as_secs_f64());
        // Result cache and broker retention off: every request pays a forward.
        let fleet = Fleet::from_replay(
            &FleetConfig {
                shards: cities.len(),
                cache_capacity: 1,
                shed_depth: 64,
                cache_enabled: false,
            },
            &cities,
            &cold_shard(),
            |_| ModelKind::Af(AfConfig::default()),
            ctx.seed,
        );
        let last = cities[0].num_intervals() - 1;
        for city in 0..fleet.num_shards() {
            std::hint::black_box(fleet.forecast(FleetRequest {
                city,
                origin: 0,
                dest: 0,
                t_end: last,
                horizon: 1,
                step: 0,
                deadline: DEADLINE,
            }));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        // The fleet built its models inside; time the same public build.
        for c in &cities {
            let cfg = ModelConfig {
                kind: ModelKind::Af(AfConfig::default()),
                centroids: c.dataset.city.centroids(),
                num_buckets: c.dataset.spec.num_buckets,
            };
            let t = Instant::now();
            std::hint::black_box(cfg.build(ctx.seed));
            build_ms.push(ms(t.elapsed()));
        }
        let k = cities[0].dataset.spec.num_buckets;
        state = Some((fleet, last, k));
    }
    let (fleet, last, k) = state.expect("at least one set-up");
    let shard = cold_shard();
    // Requests condition on intervals the sliding window still holds.
    let t_lo = last + shard.lookback - shard.window_capacity;
    let t_end = move |rng: &mut Rng64, _| t_lo + rng.next_below(last - t_lo + 1);
    let sizes = regions(&fleet);

    if traced {
        stod_obs::reset();
    }
    let p0 = ProcSample::now();
    let start = Instant::now();
    let span = Duration::from_secs_f64(ctx.seconds);
    let load_threads = AtomicUsize::new(0);
    let clients: Vec<Record> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..COLD_CLIENTS)
            .map(|c| {
                let (fleet, sizes, load_threads) = (&fleet, &sizes, &load_threads);
                s.spawn(move || {
                    load_threads.fetch_add(1, Ordering::Relaxed);
                    let mut rng = Rng64::new(ctx.seed ^ (0xA0 + c as u64));
                    let mut rec = Record::default();
                    while start.elapsed() < span {
                        let req = draw(&mut rng, sizes, t_end);
                        let t = Instant::now();
                        let fc = forecast(fleet, req);
                        let took = ms(t.elapsed());
                        rec.latency_ms.push(took);
                        rec.answer(req, fc, k, took);
                    }
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    pass.wall = start.elapsed();
    let proc = ProcSample::now().since(p0);
    let snap = traced.then(stod_obs::snapshot);
    let mut rec = Record::default();
    clients.into_iter().for_each(|r| rec.merge(r));

    pass.attempted = rec.answered();
    pass.failed = rec.failed;
    pass.cpu_ms_per_op = proc.cpu_ms() / pass.attempted as f64;
    let eval_ms = check_serving(&mut pass, &fleet, &rec, shard.lookback, ctx.seed);
    pass.digest = probe_digest(&fleet, |_| last);

    pass.e2e = Metrics::from([
        ("setup_s", median(&setup_s)),
        (
            "throughput_per_s",
            pass.attempted as f64 / pass.wall.as_secs_f64(),
        ),
        ("peak_rss_mb", peak_rss_mb()),
    ]);
    latency_metrics(&mut pass, &rec.latency_ms);
    record_details(&mut pass, &rec, COLD_LIMIT_MS);
    pass.detail(
        "harness.generator_threads",
        load_threads.into_inner() as f64,
    );

    let Some(snap) = snap else { return pass };
    let mut layer = common_layer(&snap, pass.attempted, pass.wall, proc);
    layer.extend([
        ("traffic.generate_s", median(&gen_s)),
        ("core.model_build_ms", median(&build_ms)),
        ("core.forward_ms", span_mean_ms(&snap, "serve/job")),
        ("core.eval_forward_ms", median(&eval_ms)),
    ]);
    pass.layer = layer;
    pass.snapshot = Some(snap);
    pass
}

// ---------------------------------------------------------------- serve_live

/// Forecast arrival rate (Poisson). An assumption, not a measured trace:
/// reads far outnumber the writes of one sealed interval per second.
const LIVE_RATE: f64 = 2000.0;
/// Intervals of each fleet city replayed during set-up; the timed phase
/// seals one more per city every second.
const LIVE_PRE: usize = 16;
/// Intervals generated per fleet city: set-up plus up to 80 timed seconds.
const LIVE_INTERVALS: usize = 96;
/// Tenant id of the drift city the adapter fine-tunes.
const DRIFT_CITY: usize = 4;
/// Intervals per day of the drift city (as in the adaptation gate).
const DRIFT_IPD: usize = 12;
/// Drift-city intervals sealed in set-up, and sealed before each cycle.
const DRIFT_PRE: usize = 2 * DRIFT_IPD;
const DRIFT_STEP: usize = 4;
/// Adaptation cycles per run.
const CYCLES: usize = 3;
/// Drift scenarios whose rush-hour shift is strong enough that the
/// fine-tuned candidate beats the incumbent and the online corrector; the
/// seed picks one.
const DRIFT_SEEDS: [u64; 4] = [53279, 53291, 53293, 53294];
/// Latency limit for `on_time_share`.
const LIVE_LIMIT_MS: f64 = 50.0;
/// Lookback of the live shards, as in the adaptation gate.
const LIVE_LOOKBACK: usize = 2;

fn live_shard() -> ShardConfig {
    ShardConfig {
        workers: 1,
        lookback: LIVE_LOOKBACK,
        window_capacity: 24,
        broker_cache_capacity: 8,
        ..ShardConfig::default()
    }
}

/// Unique work-directory names across set-ups and passes.
static DIRS: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(ctx: &Ctx, what: &str) -> PathBuf {
    ctx.work
        .join(format!("{what}{}", DIRS.fetch_add(1, Ordering::Relaxed)))
}

/// One entry of the live schedule, which one sender thread replays.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// A read of its city's newest sealed interval (`t_end` is set when
    /// it is sent).
    Forecast(FleetRequest),
    Push(usize, Trip),
    Seal(usize, usize),
}

struct Live {
    fleet: Fleet,
    adapter: CityAdapter,
    /// Per fleet city, the trips of intervals `LIVE_PRE..`.
    live_trips: Vec<Vec<Vec<Trip>>>,
    /// Drift-city trips of intervals `DRIFT_PRE..`.
    drift_trips: Vec<Vec<Trip>>,
    buckets: usize,
}

fn live_setup(ctx: &Ctx, gen_s: &mut Vec<f64>, build_ms: &mut Vec<f64>) -> Live {
    let t0 = Instant::now();
    let mut cities = generate_fleet(&FleetSimConfig {
        num_cities: DRIFT_CITY,
        num_days: 1,
        intervals_per_day: LIVE_INTERVALS,
        seed: ctx.seed,
    });
    let scenario = DRIFT_SEEDS[(ctx.seed % DRIFT_SEEDS.len() as u64) as usize];
    let city = CityModel::small(6);
    let sim = SimConfig {
        num_days: 3,
        intervals_per_day: DRIFT_IPD,
        trips_per_interval: 600.0,
        ..SimConfig::small(scenario)
    };
    let (stationary, _) = generate_drift(city.clone(), &sim, &DriftConfig::stationary());
    let (drifted, mut drift_trips) = generate_drift(
        city.clone(),
        &sim,
        &DriftConfig {
            kind: DriftKind::RushHourShift { shift_intervals: 3 },
            onset: DRIFT_IPD,
        },
    );
    gen_s.push(t0.elapsed().as_secs_f64());

    // The incumbent was trained on the stationary past.
    let drift_kind = ModelKind::Bf(BfConfig {
        encode_dim: 8,
        gru_hidden: 8,
        ..BfConfig::default()
    });
    let buckets = drifted.spec.num_buckets;
    let model_cfg = ModelConfig {
        kind: drift_kind.clone(),
        centroids: city.centroids(),
        num_buckets: buckets,
    };
    let tb = Instant::now();
    let mut incumbent = model_cfg.build(scenario ^ 0x1BC);
    build_ms.push(ms(tb.elapsed()));
    train(
        incumbent.as_mut(),
        &stationary,
        &stationary.windows(LIVE_LOOKBACK, 1),
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
            seed: scenario,
            verbose: false,
        },
    );
    let prior = NaiveHistograms::fit(&stationary, stationary.num_intervals());

    let live_trips = cities
        .iter_mut()
        .map(|c| c.trips.split_off(LIVE_PRE))
        .collect();
    let drift_live = drift_trips.split_off(DRIFT_PRE);
    cities.push(FleetCity {
        city_id: DRIFT_CITY,
        dataset: drifted,
        trips: drift_trips,
    });
    let fleet = Fleet::from_replay_durable(
        &FleetConfig {
            shards: cities.len(),
            ..FleetConfig::default()
        },
        &cities,
        &live_shard(),
        |id| {
            if id == DRIFT_CITY {
                drift_kind.clone()
            } else {
                ModelKind::Bf(BfConfig {
                    encode_dim: 16,
                    gru_hidden: 16,
                    ..BfConfig::default()
                })
            }
        },
        ctx.seed,
        &DurabilityConfig::new(fresh_dir(ctx, "wal")),
    )
    .expect("fresh WAL directories");
    let store = ParamStore::from_bytes(incumbent.params().to_bytes()).expect("roundtrip");
    fleet
        .hot_swap(DRIFT_CITY, store)
        .expect("incumbent fits its config");
    let adapter = CityAdapter::new(
        DRIFT_CITY,
        city,
        DRIFT_IPD,
        prior,
        buckets,
        AdaptConfig {
            epochs: 20,
            holdout: 8,
            min_windows: 4,
            lookback: LIVE_LOOKBACK,
            ckpt_every_steps: 4,
            ..AdaptConfig::default()
        },
        fresh_dir(ctx, "adapt"),
    )
    .expect("adapter work directory");
    for city in 0..fleet.num_shards() {
        let t_end = if city == DRIFT_CITY {
            DRIFT_PRE
        } else {
            LIVE_PRE
        } - 1;
        std::hint::black_box(fleet.forecast(FleetRequest {
            city,
            origin: 0,
            dest: 0,
            t_end,
            horizon: 1,
            step: 0,
            deadline: DEADLINE,
        }));
    }
    Live {
        fleet,
        adapter,
        live_trips,
        drift_trips: drift_live,
        buckets,
    }
}

/// The live schedule: each second the next interval's trips of every
/// fleet city arrive evenly spread and every city seals it at the end of
/// the second; the forecasts fall in between at their own times.
fn live_schedule(
    live_trips: &[Vec<Vec<Trip>>],
    ticks: usize,
    forecasts: Vec<(Duration, FleetRequest)>,
) -> Vec<(Duration, Event)> {
    let mut out: Vec<(Duration, Event)> = forecasts
        .into_iter()
        .map(|(at, req)| (at, Event::Forecast(req)))
        .collect();
    for tick in 0..ticks {
        let mut arrivals: Vec<(usize, Trip)> = Vec::new();
        let longest = live_trips.iter().map(|c| c[tick].len()).max().unwrap_or(0);
        for j in 0..longest {
            for (city, trips) in live_trips.iter().enumerate() {
                if let Some(t) = trips[tick].get(j) {
                    arrivals.push((city, *t));
                }
            }
        }
        let n = arrivals.len() as f64;
        for (j, (city, trip)) in arrivals.into_iter().enumerate() {
            let due = tick as f64 + (j as f64 + 0.5) / n;
            out.push((Duration::from_secs_f64(due), Event::Push(city, trip)));
        }
        for city in 0..live_trips.len() {
            let due = Duration::from_secs((tick + 1) as u64);
            out.push((due, Event::Seal(city, LIVE_PRE + tick)));
        }
    }
    // Stable: entries due at the same time keep the order above.
    out.sort_by_key(|e| e.0);
    out
}

pub fn run_live(ctx: &Ctx, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let (mut setup_s, mut gen_s, mut build_ms) = (vec![], vec![], vec![]);
    let mut state = None;
    for _ in 0..ctx.setup_reps {
        drop(state.take());
        let t0 = Instant::now();
        let live = live_setup(ctx, &mut gen_s, &mut build_ms);
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some(live);
    }
    let Live {
        fleet,
        mut adapter,
        live_trips,
        drift_trips,
        buckets,
    } = state.expect("at least one set-up");
    let ticks = (ctx.seconds as usize).clamp(1, LIVE_INTERVALS - LIVE_PRE);
    let span = Duration::from_secs(ticks as u64);
    let mut rng = Rng64::new(ctx.seed ^ 0x11FE);
    let sizes = regions(&fleet);
    let forecasts: Vec<(Duration, FleetRequest)> = poisson(&mut rng, LIVE_RATE, span)
        .into_iter()
        .map(|at| (at, draw(&mut rng, &sizes, |_, _| 0)))
        .collect();
    let requests = forecasts.len() as u64;
    let schedule = live_schedule(&live_trips, ticks, forecasts);
    let newest: Vec<AtomicUsize> = (0..fleet.num_shards())
        .map(|c| AtomicUsize::new(if c == DRIFT_CITY { DRIFT_PRE } else { LIVE_PRE } - 1))
        .collect();

    if traced {
        stod_obs::reset();
    }
    let p0 = ProcSample::now();
    let start = Instant::now();
    let load_threads = AtomicUsize::new(0);
    let (sent, (cycles, adapter_spun)) = std::thread::scope(|s| {
        let (fleet, newest, adapter) = (&fleet, &newest, &mut adapter);
        let load_threads = &load_threads;
        // The sender replays the schedule. A request's latency is its own
        // call: timed from its due time, it would also wait behind this one
        // sender's previous call, a queue that independent users do not
        // form, and every millisecond the host preempted the machine would
        // be charged to each request due meanwhile.
        let sender = s.spawn(move || {
            load_threads.fetch_add(1, Ordering::Relaxed);
            let mut rec = Record::default();
            let (mut push_us, mut seal_ms) = (vec![], vec![]);
            let (mut write_busy, mut spun) = (Duration::ZERO, Duration::ZERO);
            for &(due, event) in &schedule {
                rec.lag_ms.push(wait_until(start, due, &mut spun));
                let t = Instant::now();
                match event {
                    Event::Forecast(mut req) => {
                        req.t_end = newest[req.city].load(Ordering::Acquire);
                        let fc = forecast(fleet, req);
                        let took = ms(t.elapsed());
                        rec.latency_ms.push(took);
                        rec.answer(req, fc, buckets, took);
                        continue;
                    }
                    Event::Push(city, trip) => {
                        let _span = stod_obs::span!("bench/ingest_trip");
                        fleet
                            .shard(city)
                            .ingest_trip(trip)
                            .expect("generated trips are valid");
                        push_us.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                    Event::Seal(city, t_seal) => {
                        let _span = stod_obs::span!("bench/seal_interval");
                        fleet.shard(city).seal_interval(t_seal);
                        newest[city].store(t_seal, Ordering::Release);
                        seal_ms.push(ms(t.elapsed()));
                    }
                }
                write_busy += t.elapsed();
            }
            (rec, push_us, seal_ms, write_busy, spun, start.elapsed())
        });
        // The adaptation service: the drift city's feed arrives in blocks,
        // each followed by a cycle, so every cycle sees the same snapshot.
        let adapt = s.spawn(move || {
            load_threads.fetch_add(1, Ordering::Relaxed);
            let (mut out, mut spun) = (Vec::new(), Duration::ZERO);
            for i in 0..CYCLES {
                let due = span.mul_f64((i as f64 + 0.5) / CYCLES as f64);
                wait_until(start, due, &mut spun);
                let shard = fleet.shard(DRIFT_CITY);
                for t in DRIFT_PRE + i * DRIFT_STEP..DRIFT_PRE + (i + 1) * DRIFT_STEP {
                    for trip in &drift_trips[t - DRIFT_PRE] {
                        shard.ingest_trip(*trip).expect("generated trips are valid");
                    }
                    shard.seal_interval(t);
                    newest[DRIFT_CITY].store(t, Ordering::Release);
                }
                let t = Instant::now();
                let outcome = {
                    let _span = stod_obs::span!("bench/run_cycle");
                    adapter.run_cycle(fleet)
                };
                out.push((outcome, t.elapsed()));
            }
            (out, spun)
        });
        (
            sender.join().expect("sender"),
            adapt.join().expect("adapter"),
        )
    });
    pass.wall = start.elapsed();
    let proc = ProcSample::now().since(p0);
    let snap = traced.then(stod_obs::snapshot);
    let (rec, push_us, seal_ms, write_busy, sender_spun, send_wall) = sent;
    // CPU the load threads spent waiting is the harness's, not the fleet's.
    let proc = proc.less_user(sender_spun + adapter_spun);
    pass.attempted = requests;
    pass.failed = rec.failed;
    pass.cpu_ms_per_op = proc.cpu_ms() / requests as f64;

    let mut digest = Digest::default();
    let mut cycle_s = Vec::new();
    for (outcome, wall) in &cycles {
        cycle_s.push(wall.as_secs_f64());
        match outcome {
            Ok(o) => digest.u64(match o {
                CycleOutcome::Skipped(_) => 1,
                CycleOutcome::Held(_) => 2,
                CycleOutcome::Promoted { version, .. } => 10 + u64::from(*version),
                CycleOutcome::RolledBack { .. } => 3,
                CycleOutcome::RejectedCandidate(_) => 4,
            }),
            Err(e) => pass.check(false, || format!("adaptation cycle failed: {e}")),
        }
    }
    let promotions = adapter.stats().snapshot().promotions;
    pass.check(promotions >= 1, || "no adaptation cycle promoted".into());
    let eval_ms = check_serving(&mut pass, &fleet, &rec, LIVE_LOOKBACK, ctx.seed);
    digest.u64(probe_digest(&fleet, |c| newest[c].load(Ordering::Acquire)));
    pass.digest = digest.finish();

    pass.e2e = Metrics::from([
        ("setup_s", median(&setup_s)),
        (
            "throughput_per_s",
            rec.answered() as f64 / send_wall.as_secs_f64(),
        ),
        ("peak_rss_mb", peak_rss_mb()),
    ]);
    latency_metrics(&mut pass, &rec.latency_ms);
    record_details(&mut pass, &rec, LIVE_LIMIT_MS);
    let late = send_lag(&mut pass, &rec.lag_ms);
    pass.detail(
        "harness.generator_threads",
        load_threads.into_inner() as f64,
    );
    pass.detail("adapt_cycle_s", median(&cycle_s));
    pass.detail("adapt.promotions", promotions as f64);
    let push_us = sorted(&push_us);
    pass.detail(
        "serve.ingest_push_p99_us",
        percentile(&push_us, 0.99).unwrap_or(0.0),
    );
    let seal_ms = sorted(&seal_ms);
    pass.detail(
        "serve.seal_p99_ms",
        percentile(&seal_ms, 0.99).unwrap_or(0.0),
    );

    let Some(snap) = snap else { return pass };
    let invalidations = fleet.snapshot().total(|s| s.result_cache_invalidations) as f64;
    let mut layer = common_layer(&snap, pass.attempted, pass.wall, proc);
    layer.extend([
        ("traffic.generate_s", median(&gen_s)),
        ("core.model_build_ms", median(&build_ms)),
        ("core.forward_ms", span_mean_ms(&snap, "serve/job")),
        ("core.eval_forward_ms", median(&eval_ms)),
        (
            "serve.write_share",
            write_busy.as_secs_f64() / pass.wall.as_secs_f64(),
        ),
        ("fleet.cache_invalidations", invalidations),
        ("harness.late_share", late),
    ]);
    for (hist, key) in [
        ("adapt/latency/fine_tune", "adapt.fine_tune_ms"),
        ("adapt/latency/shadow_eval", "adapt.shadow_eval_ms"),
        ("adapt/latency/promote", "adapt.promote_ms"),
    ] {
        let mean = snap.histogram(hist).map_or(0, |h| h.mean());
        pass.detail(key, mean as f64 / 1e6);
    }
    pass.layer = layer;
    pass.snapshot = Some(snap);
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64) -> Vec<(Duration, FleetRequest)> {
        let mut rng = Rng64::new(seed);
        let sizes = [6, 8, 9, 12];
        poisson(&mut rng, 500.0, Duration::from_secs(2))
            .into_iter()
            .map(|at| (at, draw(&mut rng, &sizes, |r, _| r.next_below(4))))
            .collect()
    }

    #[test]
    fn schedules_are_a_pure_function_of_the_seed() {
        let a = schedule(7);
        assert_eq!(a, schedule(7));
        assert_ne!(a, schedule(8));
        // About rate × span arrivals, in order, inside the span, well formed.
        assert!((900..1100).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(a.last().unwrap().0 < Duration::from_secs(2));
        for (_, r) in &a {
            let n = [6, 8, 9, 12][r.city];
            assert!(r.origin < n && r.dest < n && r.step < r.horizon);
            assert!((1..=HORIZONS).contains(&r.horizon));
        }
    }

    #[test]
    fn live_schedule_pushes_every_trip_then_seals_each_tick() {
        let trip = |t: usize| Trip {
            origin: 0,
            dest: 1,
            interval: t,
            distance_km: 1.0,
            speed_ms: 5.0,
        };
        let cities: Vec<Vec<Vec<Trip>>> = (0..2)
            .map(|c| (0..3).map(|t| vec![trip(t); c + 1]).collect())
            .collect();
        let reads = schedule(7);
        let events = live_schedule(&cities, 2, reads.clone());
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
        // Every read, at its own time and in its own order.
        let sent: Vec<(Duration, FleetRequest)> = events
            .iter()
            .filter_map(|&(at, e)| match e {
                Event::Forecast(r) => Some((at, r)),
                _ => None,
            })
            .collect();
        assert_eq!(sent, reads);
        let pushes = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::Push(..)))
            .count();
        assert_eq!(pushes, 2 * (1 + 2));
        let seals: Vec<(Duration, usize, usize)> = events
            .iter()
            .filter_map(|&(at, e)| match e {
                Event::Seal(c, t) => Some((at, c, t)),
                _ => None,
            })
            .collect();
        let s = Duration::from_secs;
        assert_eq!(
            seals,
            vec![
                (s(1), 0, LIVE_PRE),
                (s(1), 1, LIVE_PRE),
                (s(2), 0, LIVE_PRE + 1),
                (s(2), 1, LIVE_PRE + 1)
            ]
        );
        // A tick's trips all arrive before its seal.
        let last_push = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::Push(_, t) if t.interval == 0))
            .map(|e| e.0)
            .max();
        assert!(last_push < Some(s(1)));
    }
}
