//! Evaluation (§VI-A.4): `DisSim` under KL, JS and EMD per forecast step,
//! plus the groupings behind Figures 8–13 (per 3-hour time-of-day bin and
//! per OD-distance group).
//!
//! This module is the workspace's one scorer. [`score_window`] is the only
//! loop over a window's observed target cells, and [`Tally`] the only
//! accumulator of their scores. [`evaluate`] scores a model's forecasts
//! with them; the trainer's validation EMD, `stod_baselines`'
//! `evaluate_predictor` and stod-adapt's shadow eval all go through the
//! same two. Cells are folded in window, then origin, then destination
//! order, so a report is a pure function of the forecasts.

use crate::batch::make_batch;
use crate::model::{Mode, OdForecaster};
use stod_metrics::{DisSim, GroupedMean, Metric};
use stod_nn::Tape;
use stod_tensor::rng::Rng64;
use stod_traffic::{OdDataset, Window};

/// Aggregated evaluation results for one model on one test set.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Model name.
    pub model: String,
    /// `per_step[j][m]`: mean of metric `Metric::ALL[m]` for the
    /// `(j+1)`-step-ahead forecast.
    pub per_step: Vec<[f64; 3]>,
    /// Cells evaluated per step.
    pub cells_per_step: Vec<usize>,
    /// First-step accuracy grouped by 3-hour time-of-day bin, one
    /// [`GroupedMean`] per metric (Figures 8–10).
    pub by_time: [GroupedMean; 3],
    /// First-step accuracy grouped by OD distance, one per metric
    /// (Figures 11–13).
    pub by_distance: [GroupedMean; 3],
}

impl EvalReport {
    /// Mean of `metric` for the `(step+1)`-ahead forecast.
    pub fn step_mean(&self, step: usize, metric: Metric) -> f64 {
        let m = Metric::ALL
            .iter()
            .position(|x| *x == metric)
            .expect("known metric");
        self.per_step[step][m]
    }
}

/// One observed target cell's scores: the `Metric::ALL` values of its
/// `(step+1)`-ahead forecast.
#[derive(Debug, Clone, Copy)]
pub struct CellScore {
    step: usize,
    values: [f64; 3],
    /// `(time-of-day bin, distance group)` of a step-0 cell, the
    /// Fig. 8–13 groups it feeds.
    groups: Option<(usize, Option<usize>)>,
}

/// Scores `window`'s forecast, `forecast(step, o, d)`, on every observed
/// target cell in step, origin, destination order, and hands each cell's
/// scores to `sink`.
pub fn score_window<F: AsRef<[f32]>>(
    ds: &OdDataset,
    window: &Window,
    mut forecast: impl FnMut(usize, usize, usize) -> F,
    mut sink: impl FnMut(CellScore),
) {
    let n = ds.num_regions();
    for (step, &t) in window.target_indices().iter().enumerate() {
        let time_bin = GroupedMean::time_bin(ds.interval_of_day(t), ds.intervals_per_day);
        for o in 0..n {
            for d in 0..n {
                let Some(truth) = ds.tensors[t].histogram(o, d) else {
                    continue;
                };
                let fc = forecast(step, o, d);
                sink(CellScore {
                    step,
                    values: Metric::ALL.map(|m| m.eval(&truth, fc.as_ref())),
                    groups: (step == 0).then(|| {
                        let km = ds.city.distance_km(o, d);
                        (time_bin, GroupedMean::distance_bin(km))
                    }),
                });
            }
        }
    }
}

/// The accumulators behind one [`EvalReport`]: each metric's `DisSim` per
/// step and its step-0 groupings.
#[derive(Debug, Clone)]
pub struct Tally {
    per_step: Vec<[DisSim; 3]>,
    by_time: [GroupedMean; 3],
    by_distance: [GroupedMean; 3],
}

impl Tally {
    /// Empty accumulators for an `h`-step horizon.
    pub fn new(h: usize) -> Tally {
        Tally {
            per_step: vec![Default::default(); h],
            by_time: std::array::from_fn(|_| GroupedMean::time_of_day_bins()),
            by_distance: std::array::from_fn(|_| GroupedMean::distance_bins()),
        }
    }

    /// Folds in one cell.
    pub fn add(&mut self, cell: &CellScore) {
        for (m, &v) in cell.values.iter().enumerate() {
            self.per_step[cell.step][m].add(v);
            if let Some((time_bin, distance_bin)) = cell.groups {
                self.by_time[m].add(time_bin, v);
                if let Some(db) = distance_bin {
                    self.by_distance[m].add(db, v);
                }
            }
        }
    }

    /// The report of the cells folded in, under `model`'s name.
    pub fn report(self, model: &str) -> EvalReport {
        EvalReport {
            model: model.to_string(),
            cells_per_step: self.per_step.iter().map(|s| s[0].count()).collect(),
            per_step: self
                .per_step
                .iter()
                .map(|s| s.each_ref().map(DisSim::mean))
                .collect(),
            by_time: self.by_time,
            by_distance: self.by_distance,
        }
    }
}

/// Evaluates `model` on `windows` (all sharing `(s, h)`), one eval forward
/// on a no-grad tape per `batch_size` windows.
pub fn evaluate(
    model: &dyn OdForecaster,
    ds: &OdDataset,
    windows: &[Window],
    batch_size: usize,
) -> EvalReport {
    assert!(!windows.is_empty(), "cannot evaluate on zero windows");
    let h = windows[0].h;
    let (n, k) = (ds.num_regions(), ds.spec.num_buckets);
    let mut tally = Tally::new(h);
    let mut rng = Rng64::new(0); // unused in Eval mode; forward needs one
    for chunk in windows.chunks(batch_size.max(1)) {
        let batch = make_batch(ds, chunk);
        let mut tape = Tape::no_grad();
        let out = model.forward(&mut tape, &batch.inputs, h, Mode::Eval, &mut rng);
        // Each prediction is `[B, N, N, K]`, row-major.
        let preds: Vec<&[f32]> = out
            .predictions
            .iter()
            .map(|&v| tape.value(v).data())
            .collect();
        for (b, w) in chunk.iter().enumerate() {
            let cell = |step: usize, o: usize, d: usize| {
                let at = ((b * n + o) * n + d) * k;
                &preds[step][at..at + k]
            };
            score_window(ds, w, cell, |c| tally.add(&c));
        }
    }
    tally.report(model.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bf::BfModel;
    use crate::config::BfConfig;
    use stod_traffic::{CityModel, SimConfig};

    fn setup() -> (OdDataset, BfModel) {
        let cfg = SimConfig {
            num_days: 2,
            intervals_per_day: 16,
            trips_per_interval: 120.0,
            ..SimConfig::small(5)
        };
        let ds = OdDataset::generate(CityModel::small(5), &cfg);
        let model = BfModel::new(5, 7, BfConfig::default(), 1);
        (ds, model)
    }

    #[test]
    fn report_structure() {
        let (ds, model) = setup();
        let ws = ds.windows(3, 2);
        let report = evaluate(&model, &ds, &ws, 8);
        assert_eq!(report.model, "BF");
        assert_eq!(report.per_step.len(), 2);
        assert_eq!(report.cells_per_step.len(), 2);
        assert!(report.cells_per_step[0] > 0, "no cells evaluated");
        for step in &report.per_step {
            for &v in step {
                assert!(v.is_finite() && v >= 0.0);
            }
        }
    }

    #[test]
    fn metric_accessor_matches_array() {
        let (ds, model) = setup();
        let ws = ds.windows(2, 1);
        let r = evaluate(&model, &ds, &ws, 8);
        assert_eq!(r.step_mean(0, Metric::Kl), r.per_step[0][0]);
        assert_eq!(r.step_mean(0, Metric::Emd), r.per_step[0][2]);
    }

    #[test]
    fn grouped_cells_bounded_by_total() {
        let (ds, model) = setup();
        let ws = ds.windows(2, 1);
        let r = evaluate(&model, &ds, &ws, 8);
        let total = r.cells_per_step[0];
        let time_cells: usize = r.by_time[0].rows().map(|(_, _, c)| c).sum();
        assert_eq!(time_cells, total, "time bins must partition all cells");
        let dist_cells: usize = r.by_distance[0].rows().map(|(_, _, c)| c).sum();
        assert!(dist_cells <= total, "distance groups may drop >3 km pairs");
    }

    #[test]
    fn perfect_predictions_score_zero() {
        // An oracle that copies the target must reach DisSim ≈ 0. Emulate
        // by evaluating the ground truth against itself through the metric
        // plumbing (uses the BF model's shapes but bypasses its weights).
        struct Oracle {
            store: stod_nn::ParamStore,
            /// Per-window, per-step target tensors, cloned up front so the
            /// oracle is plain data (`OdForecaster` requires `Send + Sync`).
            targets: Vec<Vec<stod_tensor::Tensor>>,
        }
        impl OdForecaster for Oracle {
            fn name(&self) -> &str {
                "oracle"
            }
            fn params(&self) -> &stod_nn::ParamStore {
                &self.store
            }
            fn params_mut(&mut self) -> &mut stod_nn::ParamStore {
                &mut self.store
            }
            fn forward(
                &self,
                tape: &mut Tape,
                inputs: &[stod_tensor::Tensor],
                horizon: usize,
                _mode: Mode,
                _rng: &mut Rng64,
            ) -> crate::model::ModelOutput {
                // Reconstruct the batch targets: the test keeps windows in
                // evaluation order with batch_size covering all of them at
                // once.
                let b = inputs[0].dim(0);
                let mut preds = Vec::new();
                for j in 0..horizon {
                    let slices: Vec<&stod_tensor::Tensor> =
                        (0..b).map(|row| &self.targets[row][j]).collect();
                    preds.push(tape.constant(stod_tensor::stack(&slices, 0)));
                }
                crate::model::ModelOutput {
                    predictions: preds,
                    regularizer: None,
                }
            }
        }
        let (ds, _) = setup();
        let ws: Vec<Window> = ds.windows(2, 1).into_iter().take(6).collect();
        let oracle = Oracle {
            store: stod_nn::ParamStore::new(),
            targets: ws
                .iter()
                .map(|w| {
                    w.target_indices()
                        .iter()
                        .map(|&t| ds.tensors[t].data.clone())
                        .collect()
                })
                .collect(),
        };
        let r = evaluate(&oracle, &ds, &ws, ws.len());
        for &v in &r.per_step[0] {
            assert!(v.abs() < 1e-6, "oracle must score 0, got {v}");
        }
    }
}
