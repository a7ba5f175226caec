//! Dev probe. `M` picks what it runs:
//!
//! * the model modes (`oracle`, `mr`, `fc`, `var`, `bf`, `af`, listed
//!   comma-separated; unset means `af`) fit or train each method on the
//!   small NYC dataset after the NH baseline and print its test EMD;
//! * `M=city` is the big-city scale probe; it runs alone and asserts its
//!   gates.
//!
//! Speed is measured by the repository benchmark
//! (`crates/bench/src/bin/benchmark`), not here: apart from `M=city`'s
//! CSR-vs-dense ratio, measured in one process, the timings this probe
//! prints and writes gate nothing.
use stod_baselines::*;
use stod_bench::*;
use stod_core::*;
use stod_nn::optim::StepDecay;

/// `M` values that run one mode alone.
const SOLO_MODES: [&str; 1] = ["city"];

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
/// with the shared bench header. Its milliseconds are informational; the
/// only timing gate is the in-process CSR-vs-dense ratio above.
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
    // `M=city` brings its own data: it returns before the shared NYC
    // dataset build.
    if runs("city") {
        run_city_bench();
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
            "parallel",
            "obs",
            "serve_load",
            "adapt",
            "bfaf",
            "city,af",
            "af,adapt",
            "",
            "af,",
            " af",
            "AF",
        ] {
            let err = parse_modes(Some(bad)).unwrap_err();
            for name in SOLO_MODES.iter().chain(&MODEL_MODES) {
                assert!(err.contains(name), "{bad:?}: {err}");
            }
        }
    }
}
