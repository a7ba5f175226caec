//! Shared experiment harness for the per-table / per-figure benches.
//!
//! Every bench target in `benches/` regenerates one artifact of the
//! paper's evaluation section (see the experiment index in `DESIGN.md`).
//! The dataset scale is controlled by the `STOD_SCALE` environment
//! variable:
//!
//! * `small` (default) — ≈16/18-region cities, 10 days, 48 intervals/day:
//!   minutes of CPU, same qualitative structure.
//! * `paper` — 67/79-region cities, 20 days, 96 intervals/day: the paper's
//!   spatial scale (hours of CPU).
//! * `city` — 500/600-region metropolis cities with a one-day horizon:
//!   the big-city tier that exercises the CSR sparse-graph path and
//!   memory-budgeted serving (see the `city` bench probe).
//!
//! `STOD_EPOCHS` overrides the training epochs of the deep models.

pub mod header;
pub mod jsonv;

pub use header::BenchHeader;

use stod_baselines::{
    evaluate_predictor, FcModel, GpRegression, MrModel, NaiveHistograms, VarModel,
};
use stod_baselines::{fc::FcConfig, gp::GpParams, mr::MrParams, var::VarParams};
use stod_core::{evaluate, train, AfConfig, AfModel, BfConfig, BfModel, EvalReport, TrainConfig};
use stod_traffic::{CityModel, OdDataset, SimConfig, Split};

/// Which of the two study areas to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Manhattan-like: elongated strip, no night shutdown.
    Nyc,
    /// Chengdu-like: ring-road disc, no data 00:00–06:00.
    Chengdu,
}

impl Dataset {
    /// Display name used in the tables.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Nyc => "NYC",
            Dataset::Chengdu => "CD",
        }
    }
}

/// Experiment scale resolved from `STOD_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Default scaled-down experiments.
    Small,
    /// Paper-sized cities and horizons.
    Paper,
    /// Big-city tier: metropolis cities (≥ 500 regions) with a short
    /// horizon — exercises the CSR sparse-graph path and memory-budgeted
    /// serving rather than the paper's full experiments.
    City,
}

impl Scale {
    /// Parses a `STOD_SCALE` value. Only the exact strings `small`,
    /// `paper` and `city` are accepted — anything else (e.g. the typo
    /// `Paper`) is an error rather than a silent fall-through to
    /// `small`, which would quietly run a many-hour experiment at the
    /// wrong scale.
    pub fn parse(value: &str) -> Result<Scale, String> {
        match value {
            "small" => Ok(Scale::Small),
            "paper" => Ok(Scale::Paper),
            "city" => Ok(Scale::City),
            other => Err(format!(
                "STOD_SCALE must be \"small\", \"paper\" or \"city\", got {other:?}"
            )),
        }
    }

    /// Reads `STOD_SCALE` (default `small`).
    ///
    /// # Panics
    /// Panics with a clear message when the variable is set to an
    /// unknown value.
    pub fn from_env() -> Scale {
        match std::env::var("STOD_SCALE") {
            Ok(v) => Scale::parse(&v).unwrap_or_else(|e| panic!("{e}")),
            Err(_) => Scale::Small,
        }
    }
}

/// Training epochs: `STOD_EPOCHS` override, otherwise the default.
pub fn epochs_from_env(default: usize) -> usize {
    std::env::var("STOD_EPOCHS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Builds the simulated stand-in for one of the paper's datasets.
pub fn build_dataset(which: Dataset, scale: Scale, seed: u64) -> OdDataset {
    match (which, scale) {
        (Dataset::Nyc, Scale::Small) => {
            // Elongated 2×8 strip ≈ mini-Manhattan.
            let city = {
                let mut c = CityModel::grid(8, 2, 0.7);
                c.name = "nyc-small".into();
                c
            };
            let cfg = SimConfig {
                num_days: 10,
                intervals_per_day: 48,
                trips_per_interval: 300.0,
                night_shutdown: false,
                seed,
                ..SimConfig::small(seed)
            };
            OdDataset::generate(city, &cfg)
        }
        (Dataset::Chengdu, Scale::Small) => {
            let mut city = CityModel::irregular(18, 2.4, seed ^ 0xCD);
            city.name = "cd-small".into();
            let cfg = SimConfig {
                num_days: 10,
                intervals_per_day: 48,
                trips_per_interval: 280.0,
                night_shutdown: true,
                seed,
                ..SimConfig::small(seed)
            };
            OdDataset::generate(city, &cfg)
        }
        (Dataset::Nyc, Scale::Paper) => {
            OdDataset::generate(CityModel::nyc_like(seed), &SimConfig::nyc(seed))
        }
        (Dataset::Chengdu, Scale::Paper) => {
            OdDataset::generate(CityModel::chengdu_like(seed), &SimConfig::chengdu(seed))
        }
        // The city tier keeps the interval count short on purpose: OD
        // tensors are dense N×N'×K buffers, so at N = 500 each interval
        // already holds 1.75 M floats. A day's slice is enough to train
        // and serve a smoke model; the point of the tier is graph size,
        // not horizon length.
        (Dataset::Nyc, Scale::City) => {
            let city = CityModel::metropolis(500, seed);
            let cfg = SimConfig {
                num_days: 1,
                intervals_per_day: 16,
                trips_per_interval: 4000.0,
                night_shutdown: false,
                seed,
                ..SimConfig::small(seed)
            };
            OdDataset::generate(city, &cfg)
        }
        (Dataset::Chengdu, Scale::City) => {
            let city = CityModel::metropolis(600, seed ^ 0xCD);
            let cfg = SimConfig {
                num_days: 1,
                intervals_per_day: 16,
                trips_per_interval: 4000.0,
                night_shutdown: true,
                seed,
                ..SimConfig::small(seed)
            };
            OdDataset::generate(city, &cfg)
        }
    }
}

/// Chronological split shared by all experiments (70/10/20 as is standard
/// for these datasets).
pub fn standard_split(ds: &OdDataset, s: usize, h: usize) -> Split {
    let ws = ds.windows(s, h);
    ds.split(&ws, 0.7, 0.1)
}

/// Default train config for the experiment benches.
///
/// The paper trains with lr 1e-3 / dropout 0.2 at its data scale; on the
/// scaled-down simulated datasets the validation set selects a slightly
/// hotter schedule and lighter dropout (the models are ~100× smaller).
pub fn bench_train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: epochs_from_env(30),
        batch_size: 16,
        schedule: stod_nn::optim::StepDecay {
            initial: 4e-3,
            decay: 0.8,
            every: 5,
        },
        dropout: 0.05,
        verbose: std::env::var("STOD_VERBOSE").is_ok(),
        seed,
        ..TrainConfig::default()
    }
}

/// The full method roster of Table II, in the paper's order.
pub const METHODS: [&str; 7] = ["NH", "GP", "VAR", "RNN", "MR", "BF", "AF"];

/// Runs one method end to end (fit/train on the split's train windows,
/// evaluate on its test windows) and returns its report.
pub fn run_method(name: &str, ds: &OdDataset, split: &Split, seed: u64) -> EvalReport {
    let s = split.test.first().map(|w| w.s).unwrap_or(3);
    let h = split.test.first().map(|w| w.h).unwrap_or(1);
    let train_end = split
        .train
        .iter()
        .map(|w| w.t_end + w.h)
        .max()
        .map(|t| t + 1)
        .unwrap_or(0);
    let n = ds.num_regions();
    let k = ds.spec.num_buckets;
    match name {
        "NH" => {
            let m = NaiveHistograms::fit(ds, train_end);
            evaluate_predictor(&m, ds, &split.test)
        }
        "GP" => {
            let m = GpRegression::fit(ds, train_end, GpParams::default());
            evaluate_predictor(&m, ds, &split.test)
        }
        "VAR" => {
            let m = VarModel::fit(
                ds,
                train_end,
                VarParams {
                    lags: s,
                    ..VarParams::default()
                },
            );
            evaluate_predictor(&m, ds, &split.test)
        }
        "MR" => {
            let m = MrModel::fit(ds, train_end, MrParams::default(), seed);
            evaluate_predictor(&m, ds, &split.test)
        }
        "RNN" | "FC" => {
            let mut m = FcModel::new(n, k, FcConfig::default(), seed);
            train(&mut m, ds, &split.train, None, &bench_train_config(seed));
            let mut r = evaluate(&m, ds, &split.test, 32);
            r.model = "RNN".into();
            r
        }
        "BF" => {
            let mut m = BfModel::new(n, k, BfConfig::default(), seed);
            train(&mut m, ds, &split.train, None, &bench_train_config(seed));
            evaluate(&m, ds, &split.test, 32)
        }
        "AF" => {
            let mut m = AfModel::new(&ds.city.centroids(), k, AfConfig::default(), seed);
            train(&mut m, ds, &split.train, None, &bench_train_config(seed));
            evaluate(&m, ds, &split.test, 32)
        }
        other => panic!("unknown method {other}"),
    }
    .tap_horizon(h)
}

/// Small helper trait: sanity-check a report's horizon.
trait TapHorizon {
    fn tap_horizon(self, h: usize) -> Self;
}

impl TapHorizon for EvalReport {
    fn tap_horizon(self, h: usize) -> Self {
        assert_eq!(self.per_step.len(), h, "report horizon mismatch");
        self
    }
}

/// Prints a markdown-style table row.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style table separator for `n` columns.
pub fn print_sep(n: usize) {
    println!("|{}", "---|".repeat(n));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_parsing() {
        // Can't mutate the environment safely in parallel tests; just
        // check the default path.
        assert!(matches!(
            Scale::from_env(),
            Scale::Small | Scale::Paper | Scale::City
        ));
        assert!(epochs_from_env(7).max(1) >= 1);
    }

    #[test]
    fn scale_parse_accepts_known_values_only() {
        assert_eq!(Scale::parse("small"), Ok(Scale::Small));
        assert_eq!(Scale::parse("paper"), Ok(Scale::Paper));
        assert_eq!(Scale::parse("city"), Ok(Scale::City));
        for bad in ["Paper", "SMALL", "papper", "full", "City", ""] {
            let err = Scale::parse(bad).unwrap_err();
            assert!(
                err.contains("STOD_SCALE") && err.contains(bad),
                "error must name the variable and the bad value: {err}"
            );
        }
    }

    #[test]
    fn datasets_build_at_small_scale() {
        let nyc = build_dataset(Dataset::Nyc, Scale::Small, 1);
        assert_eq!(nyc.num_regions(), 16);
        assert_eq!(nyc.num_intervals(), 480);
        let cd = build_dataset(Dataset::Chengdu, Scale::Small, 1);
        assert_eq!(cd.num_regions(), 18);
        // Chengdu has no early-morning data.
        let three_am = 6; // interval 6 of 48 = 03:00
        assert_eq!(cd.tensors[three_am].num_observed(), 0);
    }

    #[test]
    fn split_and_nh_method_run() {
        let ds = build_dataset(Dataset::Nyc, Scale::Small, 2);
        let split = standard_split(&ds, 3, 1);
        assert!(!split.train.is_empty() && !split.test.is_empty());
        let r = run_method("NH", &ds, &split, 1);
        assert_eq!(r.per_step.len(), 1);
        assert!(r.per_step[0][2].is_finite());
    }
}
