//! # The repository benchmark
//!
//! Every performance claim in this repository cites this benchmark. It
//! supersedes the hand-run `results/BENCH_*.json` artifacts, whose numbers
//! do not reproduce; the probe modes that wrote them (`M=serve_load`,
//! `M=parallel`) are left for a later clean-up.
//!
//! ## Running it
//!
//! From the repository root (the binary reads `BENCHMARK.json` there):
//!
//! ```text
//! cargo run --release -q --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! cargo run --release -q --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     --compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! * `--workload` (default `all`) — one workload, or all three, each in a
//!   child process of its own so peak memory and allocator state stay per
//!   workload.
//! * `--seed` (default 1) — every input is generated from it.
//! * `--seconds` (default `run_seconds` of `BENCHMARK.json`) — length of
//!   the timed phase.
//! * `--trace 1` — an untraced pass and then a traced pass of the same
//!   inputs, each half the run length, the second with the observability
//!   layer in trace mode; it prints the per-layer metrics instead of the
//!   end-to-end ones and writes `<out>/<workload>.trace.json` (span tree,
//!   counters, the last 8192 span events of each thread with start and
//!   duration, derived metrics, diagnostics).
//! * `--out` (default `target/benchmark`) — every run appends one line to
//!   `<out>/results.jsonl`; temporary files (write-ahead logs, adapter
//!   checkpoints) live under `<out>` while a run lasts.
//! * `--compare A B` — reads `A/results.jsonl` (parent) and
//!   `B/results.jsonl` (change) and prints, per workload and end-to-end
//!   metric, both medians and quartiles, the gain, the bound and the
//!   verdict. A gain needs ≥ 10 pairs (runs of one seed on both sides;
//!   alternate which side runs first), ≥ 9/10 wins, and a median gap
//!   larger than A's inter-quartile distance, and B's runs may fail no
//!   more operations (median per run) than A's; a regression is a median
//!   worse than A's by more than the bound, and makes the exit code 1.
//!
//! The kernel pool is pinned to `STOD_THREADS=2`. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (name → value and unit). Any failed check prints
//! `correct: false` and exits 1. A run that drove its load from more
//! threads than the host has CPUs, or a `serve_live` run whose open-loop
//! sender ran more than 5 ms late at p99, did not offer the load it
//! planned: it is recorded as invalid, and `--compare` leaves it out and
//! says how many runs it left out.
//!
//! ## Workloads
//!
//! | workload | what runs |
//! |---|---|
//! | `train_paper` | NYC-like city (N = 67), `AfConfig::paper_nyc()`, s = 3, h = 1, batch 16 (two gradient shards); dense graphs. |
//! | `serve_cold` | 2-shard fleet (N = 67 and 79, one day replayed through ingest), fresh `AfConfig::default()` checkpoints, result cache and broker retention off. Closed loop, 2 clients, for the whole run. |
//! | `serve_live` | Durable, cache-on fleet of the 4 `generate_fleet` cities (BF 16/16) plus a drifting 6-region city (BF 8/8), write-ahead logs at the default `group:32` fsync. One sender thread replays one open-loop schedule, busy-waiting for each send so that it sends on time and its CPU does not idle between sends: Poisson forecasts at 2000/s for each city's newest sealed interval, the trips at the replay's rate, and a seal of every city once a second. A second thread, the adaptation service, feeds the drift city in blocks and runs 3 `CityAdapter` cycles. |
//!
//! Both serving workloads draw city, OD pair and horizon uniformly, with
//! horizons 1 to 3, the ones the paper evaluates (Table II). The uniform
//! draws and `serve_live`'s rate are assumptions: there is no request
//! trace to take them from. Each serving run records the share of
//! requests the model answered (`model_answer_share`); on `serve_live`
//! that is the result cache's miss share, a property of this mix.
//!
//! No workload runs the CSR graph path (cities of 256 regions or more).
//! An N = 300 city trained at batch 1 had one: its step streams dense
//! `[B, N, N', K]` tensors through memory, and its speed followed other
//! tenants' memory traffic. Its median throughput moved by 40% between two
//! back-to-back sets of ten runs of the same code and seeds, while
//! `train_paper`'s moved by 7% and `serve_cold`'s by 4%, and its ten runs
//! spread by 0.27 with two kernel threads.
//!
//! Training runs one `stod_core::train` call over the timed phase with one
//! minibatch per epoch, so the trainer's per-epoch walls are step
//! latencies. Set-up (data generation and model build; for serving also
//! replay and one warm request per shard) runs five times and `setup_s` is
//! the median. Training then takes one untimed warm-up step, and the
//! median of three more sizes the timed phase to `--seconds`.
//!
//! ## End-to-end metrics (untraced runs)
//!
//! An *op* is an optimizer step (training) or a forecast request (serving).
//!
//! * `setup_s` — median set-up wall.
//! * `throughput_per_s` — training windows per second; serving: answered
//!   requests per second.
//! * `latency_tail_ms` — step wall (training) or the duration of a
//!   request's `Fleet::forecast` call (serving), at the highest
//!   nearest-rank percentile with ≥ 10 samples beyond it, capped at
//!   p99.9; its quantile is in the result file (`tail_quantile`), with the
//!   sample count and p50, p90, p99 and p99.9 beside it. The median is not
//!   an end-to-end metric: on training and on `serve_cold` (one step at a
//!   time; two closed-loop clients) it restates throughput, and on
//!   `serve_live` it is a cache hit of about 1 µs whose time followed the
//!   host's load by up to ±30% from run to run, more than any bound here
//!   allows. Only `serve_live`, with about 60 000 requests a run,
//!   reaches the cap. On `serve_live` a request is not timed from its due
//!   time: that would also charge it the wait behind the one sender's
//!   previous call, a queue independent users do not form. How late the
//!   sender ran is reported instead.
//! * `peak_rss_mb` — `VmHWM` at the end of the run.
//!
//! These are wall-clock numbers, and they move with the machine. The
//! bounds in `BENCHMARK.json` were set on a 2-vCPU Xeon virtual machine
//! whose host ran other tenants. While the host was steady, ten seeds of
//! one workload spread (inter-quartile distance over median) by 0.03 to
//! 0.20 on throughput and latency. When other tenants loaded the host,
//! training steps slowed by up to 30% (in the slow runs checked, CPU time
//! rose with wall time and steal stayed under 1%), and `serve_live`'s
//! p99.9 doubled: a set of ten that straddled such a change spread by
//! 0.63 on it. A fixed compute loop ran at 74% to 96% of its peak speed
//! from one minute to the next, so ten consecutive runs spread by about
//! 0.07 whether they last 25 or 50 s: longer runs do not steady these
//! numbers. Hence 0.25 on every time and 0.15 on peak memory
//! (`serve_live`'s spread reached 0.045).
//! Compare commits with `--compare`, over runs of the same seeds made back
//! to back, alternating which commit runs first.
//!
//! A failed request (fallback, shed, degraded) is counted in `failed`.
//!
//! ## Per-layer metrics (`--trace 1`) and what they should move
//!
//! Shares are thread-seconds per wall second of the timed phase; `/op`
//! counts are per op. A layer a workload does not exercise reads 0. The
//! span tree in the trace file holds the program's own spans and the
//! benchmark's, `bench/train`, `bench/forecast`, `bench/ingest_trip`,
//! `bench/seal_interval` and `bench/run_cycle`, around its calls into the
//! layers.
//!
//! | metric | source | should move |
//! |---|---|---|
//! | `traffic.generate_s` | set-up data generation wall | `setup_s` @ all |
//! | `core.model_build_ms` | `AfModel::new` / `ModelConfig::build` | `setup_s` @ all |
//! | `core.forward_ms` | mean `train/fwd` (training) or `serve/job` (serving) span | `throughput_per_s` @ all, `latency_tail_ms` @ serve_cold |
//! | `core.eval_forward_ms` | median single-window eval forward (`ServedModel::forecast` when serving), untimed | `throughput_per_s` @ serve_cold |
//! | `core.forward_share`, `core.batch_share` | `train/fwd` + `serve/job` spans; `make_batch` timed on the same minibatch | `throughput_per_s` @ training |
//! | `core.train_loss` | loss after 8 timed steps | none (a numerics guard) |
//! | `nn.backward_share`, `nn.optimizer_share` | `nn/backward`, `train/optimizer` spans | `throughput_per_s` @ training |
//! | `tensor.matmul_calls`, `tensor.matmul_elements`, `tensor.batched_matmul_calls`, `tensor.pool_tasks` | kernel and pool counters per op | `throughput_per_s` @ train_paper, serve_cold |
//! | `tensor.arena_reuse_ratio` | `arena::stats()` of the training thread | `peak_rss_mb`, `throughput_per_s` @ train_paper |
//! | `proc.cpu_ms_per_op` | user + system CPU per op | `throughput_per_s` @ all |
//! | `proc.minor_faults_per_op`, `proc.sys_cpu_share` | `/proc/self/stat` deltas | `peak_rss_mb`, `throughput_per_s` @ train_paper |
//! | `serve.invocations_per_request`, `serve.batch_size_mean`, `serve.queue_depth_max` | broker counters, batch histogram, queue gauge | `throughput_per_s`, `latency_tail_ms` @ serve_cold |
//! | `serve.fallback_share`, `fleet.shed_share`, `fleet.degraded_share` | outcome counters per request | `failed` @ serving |
//! | `serve.write_share`, `serve.wal_appends_per_s`, `serve.wal_fsyncs_per_s` | sender time spent on trip pushes and seals; WAL counters | `latency_tail_ms` @ serve_live |
//! | `fleet.result_cache_hit_rate`, `fleet.cache_invalidations` | router counters; invalidations after promotions | `latency_tail_ms` @ serve_live |
//! | `adapt.cycle_share`, `adapt.promotions` | `adapt/cycle` span; promotion counter | `latency_tail_ms` @ serve_live |
//! | `harness.trace_overhead` | traced ÷ untraced `proc.cpu_ms_per_op` | none (harness health) |
//! | `harness.late_share` | share of open-loop sends more than 1 ms late | none (harness health) |
//!
//! Per-call timings of one workload only — p50/p99 of the model and cache
//! paths, ingest push and seal p99, adaptation stage means, p90/p99/p99.9
//! latency, send-lag p99, the on-time and failed shares, per-step
//! backward and optimizer ms — are diagnostics in the result files.
//!
//! ## Checks on every run
//!
//! Training losses are finite and the step count is the one planned; every
//! served histogram has `K` finite, non-negative buckets summing to 1 ±
//! 1e-4; the outcome tally equals the requests attempted and the fleet's
//! request ledger balances; 16 seeded model or cache answers equal
//! `ServedModel::forecast` on the shard's window bitwise; `serve_live`
//! promotes at least once. A traced run also checks that its outputs
//! (losses, or probe forecasts and adaptation decisions) equal the
//! untraced pass bit for bit, and that minibatch assembly and the wall time
//! covered by forward, backward and optimizer spans on any thread account
//! for ≥ 90% of the training step wall.

mod compare;
mod measure;
mod serve;
mod spec;
mod stats;
mod train;

use measure::Pass;
use spec::{is_time_unit, Spec, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use stod_bench::{BenchHeader, Scale};
use stod_obs::ObsMode;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Kernel threads every run uses.
const THREADS: &str = "2";
/// A run whose generator lagged more than this at p99 is invalid.
const MAX_SEND_LAG_MS: f64 = 5.0;

/// What a workload pass needs to know.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub setup_reps: usize,
    /// Timed optimizer steps, when a traced pass repeats an untraced one.
    pub steps: Option<usize>,
    /// Directory for the pass's temporary files.
    pub work: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: None,
        trace: false,
        out: PathBuf::from("target/benchmark"),
        compare: None,
    };
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = value(&mut it, &flag)?,
            "--seed" => {
                args.seed = value(&mut it, &flag)?
                    .parse()
                    .map_err(|_| "--seed must be an unsigned integer")?;
            }
            "--seconds" => {
                let s: f64 = value(&mut it, &flag)?
                    .parse()
                    .map_err(|_| "--seconds must be a number")?;
                if !(1.0..=120.0).contains(&s) {
                    return Err("--seconds must be in 1..=120".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value(&mut it, &flag)?.as_str() {
                    "1" => true,
                    "0" => false,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--out" => args.out = value(&mut it, &flag)?.into(),
            "--compare" => {
                let a = value(&mut it, &flag)?;
                let b = value(&mut it, &flag)?;
                args.compare = Some((a.into(), b.into()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; expected one of {WORKLOADS:?} or all",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match Spec::load(Path::new("BENCHMARK.json")).and_then(|s| {
        s.check_against_code()?;
        Ok(s)
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::run(a, b, &spec) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    // Pinned before any kernel runs: the pool reads it once.
    std::env::set_var("STOD_THREADS", THREADS);
    let seconds = args.seconds.unwrap_or(spec.run_seconds as f64);
    if args.workload == "all" {
        return run_all(&args, seconds);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("benchmark: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    run_one(&args, &spec, seconds)
}

/// Runs every workload in a child process of its own.
fn run_all(args: &Args, seconds: f64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .status();
        if !status.is_ok_and(|s| s.success()) {
            failed.push(w);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: workloads failed: {failed:?}");
        ExitCode::from(1)
    }
}

fn run_pass(workload: &str, ctx: &Ctx, traced: bool) -> Pass {
    match workload {
        "train_paper" => train::run(&train::PAPER, ctx, traced),
        "serve_cold" => serve::run_cold(ctx, traced),
        "serve_live" => serve::run_live(ctx, traced),
        other => unreachable!("workload {other} was validated"),
    }
}

fn run_one(args: &Args, spec: &Spec, seconds: f64) -> ExitCode {
    let name = args.workload.as_str();
    let work = args.out.join(format!("work-{name}-{}", std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        // A traced run makes two passes; together they last one run.
        seconds: if args.trace { seconds / 2.0 } else { seconds },
        setup_reps: if args.trace { 1 } else { SETUP_REPS },
        steps: None,
        work,
    };
    stod_obs::force_mode(ObsMode::Off);
    let mut pass = run_pass(name, &ctx, false);
    let (metrics, listed) = if args.trace {
        let again = Ctx {
            steps: (pass.steps > 0).then_some(pass.steps),
            work: ctx.work.clone(),
            ..ctx
        };
        let mut traced = stod_obs::with_mode(ObsMode::Trace, || {
            stod_obs::reset();
            run_pass(name, &again, true)
        });
        traced.check(traced.digest == pass.digest, || {
            "traced outputs differ from the untraced pass".into()
        });
        let overhead = traced.cpu_ms_per_op / pass.cpu_ms_per_op;
        traced.layer.insert("harness.trace_overhead", overhead);
        pass = traced;
        (pass.layer.clone(), &spec.per_layer)
    } else {
        (pass.e2e.clone(), &spec.end_to_end)
    };
    let _ = std::fs::remove_dir_all(&ctx.work);

    for m in listed.iter() {
        let v = metrics.get(m.name.as_str()).copied();
        let ok = v.is_some_and(|v| v.is_finite() && (!is_time_unit(&m.unit) || v > 0.0));
        pass.check(ok, || format!("metric {} not measured: {v:?}", m.name));
    }
    // Load generation must not need more threads than the host has, nor
    // run late: either makes the latencies the harness's, not the system's.
    let detail = |k: &str| pass.details.get(k).copied().unwrap_or(0.0);
    let (lag, generators) = (
        detail("harness.send_lag_p99_ms"),
        detail("harness.generator_threads"),
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    let valid = lag <= MAX_SEND_LAG_MS && generators <= cores;
    if !valid {
        eprintln!(
            "benchmark: run invalid: generator lag p99 {lag:.2} ms (limit {MAX_SEND_LAG_MS}), \
             {generators} generator threads on {cores} cores"
        );
    }
    for e in &pass.errors {
        eprintln!("benchmark: check failed: {e}");
    }
    let correct = pass.errors.is_empty();

    let mut metric_json = Vec::new();
    for m in listed.iter() {
        let v = metrics
            .get(m.name.as_str())
            .copied()
            .filter(|v| v.is_finite());
        println!(
            "{name:<12} {:<32} {:>16.6} {}",
            m.name,
            v.unwrap_or(0.0),
            m.unit
        );
        metric_json.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            v.unwrap_or(0.0),
            m.unit
        ));
    }
    let metrics_obj = format!("{{{}}}", metric_json.join(", "));
    // The header's `git rev-parse` may look for a repository in the working
    // directory only, so a run reads nothing above its checkout.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .as_deref()
        .and_then(Path::parent)
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    let header = BenchHeader::collect(Scale::Small);
    let details = pass
        .details
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(", ");
    let record = format!(
        "{{\"rev\": \"{}\", \"threads\": {}, \"host_cores\": {}, \"workload\": \"{name}\", \
         \"seed\": {}, \"seconds\": {seconds}, \"trace\": {}, \"valid\": {valid}, \
         \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"digest\": \"{:016x}\", \
         \"metrics\": {metrics_obj}, \"details\": {{{details}}}}}",
        header.rev,
        header.threads,
        header.host_cores,
        args.seed,
        args.trace,
        pass.attempted,
        pass.failed,
        pass.digest,
    );
    if let Err(e) = append_line(&args.out.join("results.jsonl"), &record) {
        eprintln!("benchmark: cannot record the run: {e}");
    }
    if args.trace {
        let obs = pass
            .snapshot
            .as_ref()
            .map_or("null".into(), |s| s.to_json());
        let trace = format!("{{\"run\": {record},\n\"obs\": {obs}}}\n");
        let path = args.out.join(format!("{name}.trace.json"));
        if let Err(e) = std::fs::write(&path, trace) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_obj}}}",
        pass.attempted.max(1),
        pass.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}
