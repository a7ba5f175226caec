//! Evaluation (§VI-A.4): `DisSim` under KL, JS and EMD per forecast step,
//! plus the groupings behind Figures 8–13 (per 3-hour time-of-day bin and
//! per OD-distance group).

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

/// Evaluates `model` on `windows` (all sharing `(s, h)`).
pub fn evaluate(
    model: &dyn OdForecaster,
    ds: &OdDataset,
    windows: &[Window],
    batch_size: usize,
) -> EvalReport {
    assert!(!windows.is_empty(), "cannot evaluate on zero windows");
    let h = windows[0].h;
    let mut per_step: Vec<[DisSim; 3]> = (0..h).map(|_| Default::default()).collect();
    let mut by_time = [
        GroupedMean::time_of_day_bins(),
        GroupedMean::time_of_day_bins(),
        GroupedMean::time_of_day_bins(),
    ];
    let mut by_distance = [
        GroupedMean::distance_bins(),
        GroupedMean::distance_bins(),
        GroupedMean::distance_bins(),
    ];
    let mut rng = Rng64::new(0); // unused in Eval mode; forward needs one

    for chunk in windows.chunks(batch_size.max(1)) {
        let batch = make_batch(ds, chunk);
        let mut tape = Tape::no_grad();
        let out = model.forward(&mut tape, &batch.inputs, h, Mode::Eval, &mut rng);
        for (j, pred_var) in out.predictions.iter().enumerate() {
            let pred = tape.value(*pred_var);
            let target = &batch.targets[j];
            let mask = &batch.masks[j];
            let (bsz, n, nd, k) = (pred.dim(0), pred.dim(1), pred.dim(2), pred.dim(3));
            for b in 0..bsz {
                let target_interval = batch.windows[b].target_indices()[j];
                let tod_bin = GroupedMean::time_bin(
                    ds.interval_of_day(target_interval),
                    ds.intervals_per_day,
                );
                for o in 0..n {
                    for d in 0..nd {
                        if mask.at(&[b, o, d, 0]) < 0.5 {
                            continue;
                        }
                        let gt: Vec<f32> = (0..k).map(|x| target.at(&[b, o, d, x])).collect();
                        let fc: Vec<f32> = (0..k).map(|x| pred.at(&[b, o, d, x])).collect();
                        for (m, metric) in Metric::ALL.iter().enumerate() {
                            let v = metric.eval(&gt, &fc);
                            per_step[j][m].add(v);
                            if j == 0 {
                                by_time[m].add(tod_bin, v);
                                if let Some(db) =
                                    GroupedMean::distance_bin(ds.city.distance_km(o, d))
                                {
                                    by_distance[m].add(db, v);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    EvalReport {
        model: model.name().to_string(),
        cells_per_step: per_step.iter().map(|s| s[0].count()).collect(),
        per_step: per_step
            .iter()
            .map(|s| [s[0].mean(), s[1].mean(), s[2].mean()])
            .collect(),
        by_time,
        by_distance,
    }
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
