//! # stod-baselines
//!
//! The five reference methods of the paper's evaluation (§VI-A.3):
//!
//! * [`nh::NaiveHistograms`] — per-OD-pair histogram over all training
//!   data, used as a constant forecast.
//! * [`gp::GpRegression`] — Gaussian-process regression per OD pair,
//!   treating each pair's histogram sequence as independent time series.
//! * [`var::VarModel`] — ridge-regularized vector autoregression capturing
//!   linear correlations among the densest OD pairs.
//! * [`fc::FcModel`] — the deep "RNN [30]" baseline (called FC in
//!   Table I): flatten → FC encoder → seq2seq GRU → FC decoder → softmax.
//! * [`mr::MrModel`] — multi-task representation learning in the spirit of
//!   [2]: region/calendar embeddings through a shared trunk with histogram
//!   and mean-speed heads; captures daily/weekly patterns but (by design,
//!   like the original) no near-history.
//!
//! Classical methods implement [`HistogramPredictor`] and are scored with
//! [`evaluate_predictor`], which produces the same [`stod_core::EvalReport`]
//! as the deep models so every method lands in one table.

pub mod fc;
pub mod gp;
pub mod mr;
pub mod nh;
pub mod var;

pub use fc::FcModel;
pub use gp::GpRegression;
pub use mr::MrModel;
pub use nh::NaiveHistograms;
pub use var::VarModel;

use stod_core::evaluate::{score_window, CellScore, Tally};
use stod_core::EvalReport;
use stod_traffic::{OdDataset, Window};

/// A per-cell histogram forecaster (the classical baselines).
///
/// `Send + Sync` is part of the contract: [`evaluate_predictor`] fans
/// windows across the [`stod_tensor::par`] pool, sharing the predictor
/// between worker threads. `predict` takes `&self`, so plain-data
/// implementations (all of the bundled ones) satisfy this for free.
pub trait HistogramPredictor: Send + Sync {
    /// Display name used in experiment tables.
    fn name(&self) -> &str;

    /// Predicts the `(o, d)` histogram for forecast step `step` (0-based)
    /// of `window`. Implementations may read the window's *input*
    /// intervals from `ds` but never its targets.
    fn predict(&self, ds: &OdDataset, o: usize, d: usize, window: &Window, step: usize)
        -> Vec<f32>;

    /// `window`'s forecast as one closure of `(step, o, d)` that answers
    /// each cell with the histogram [`predict`](Self::predict) gives.
    /// [`evaluate_predictor`] asks for one window's cells in step order;
    /// a predictor whose cells share work per step (VAR's roll-out)
    /// overrides this to do that work once.
    fn window_forecast<'a>(
        &'a self,
        ds: &'a OdDataset,
        window: &'a Window,
    ) -> Box<dyn FnMut(usize, usize, usize) -> Vec<f32> + 'a> {
        Box::new(move |step, o, d| self.predict(ds, o, d, window, step))
    }
}

/// Evaluates a classical predictor through the same scorer as
/// [`stod_core::evaluate()`]: `DisSim` over observed target cells per
/// step, plus first-step groupings by time of day and OD distance.
pub fn evaluate_predictor(
    pred: &dyn HistogramPredictor,
    ds: &OdDataset,
    windows: &[Window],
) -> EvalReport {
    assert!(!windows.is_empty(), "cannot evaluate on zero windows");
    let h = windows[0].h;
    let n = ds.num_regions();
    let score = |w: &Window| {
        let mut cells = Vec::new();
        score_window(ds, w, pred.window_forecast(ds, w), |c| cells.push(c));
        cells
    };
    // Fan windows across the pool (window scoring is read-only and
    // independent), then fold the cells in window order on this thread —
    // the tally sees them in the same order as the serial loop, so the
    // report is bitwise identical at any thread count.
    let work = windows.len() * h * n * n;
    let window_cells: Vec<Vec<CellScore>> =
        if windows.len() > 1 && stod_tensor::par::should_parallelize(work) {
            stod_tensor::par::map(windows.len(), |i| score(&windows[i]))
        } else {
            windows.iter().map(score).collect()
        };
    let mut tally = Tally::new(h);
    window_cells.iter().flatten().for_each(|c| tally.add(c));
    tally.report(pred.name())
}

/// Uniform histogram — the last-resort fallback every baseline shares.
pub(crate) fn uniform_hist(k: usize) -> Vec<f32> {
    vec![1.0 / k as f32; k]
}

#[cfg(test)]
mod tests {
    use super::*;
    use stod_traffic::{CityModel, SimConfig};

    struct Uniform(usize);
    impl HistogramPredictor for Uniform {
        fn name(&self) -> &str {
            "uniform"
        }
        fn predict(&self, _: &OdDataset, _: usize, _: usize, _: &Window, _: usize) -> Vec<f32> {
            uniform_hist(self.0)
        }
    }

    #[test]
    fn evaluate_predictor_produces_full_report() {
        let cfg = SimConfig {
            num_days: 1,
            intervals_per_day: 16,
            trips_per_interval: 80.0,
            ..SimConfig::small(3)
        };
        let ds = OdDataset::generate(CityModel::small(5), &cfg);
        let ws = ds.windows(3, 2);
        let r = evaluate_predictor(&Uniform(7), &ds, &ws);
        assert_eq!(r.model, "uniform");
        assert_eq!(r.per_step.len(), 2);
        assert!(r.cells_per_step[0] > 0);
        for s in &r.per_step {
            for &v in s {
                assert!(v.is_finite() && v >= 0.0);
            }
        }
    }
}
