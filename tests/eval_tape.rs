//! Evaluation on the no-grad tape keeps every bit.
//!
//! `ServedModel::forecast` runs its eval forward on `Tape::no_grad()`,
//! where the weights are constants, no op keeps backward state and
//! `cheby_pool` pools without winner codes. Its forecasts must equal the
//! eval forward on a training tape (`Tape::new()`) bit for bit, at every
//! horizon the fleet serves and at `STOD_THREADS` 1 and 4, for the AF
//! configurations and the BF variants the fleet serves.
//!
//! Validation scores step 0 by unrolling one step on the no-grad tape;
//! its EMD must equal step 0 of a full-horizon eval forward bit for bit.
//!
//! Every score — `evaluate`, `evaluate_predictor` and the trainer's
//! validation EMD — must equal a hand-written scorer bit for bit: the
//! `DisSim` of each metric per step and the step-0 Fig. 8–13 bins,
//! accumulated in window, origin, destination order.

use od_forecast::baselines::var::VarParams;
use od_forecast::baselines::{evaluate_predictor, HistogramPredictor, NaiveHistograms, VarModel};
use od_forecast::core::batch::make_batch;
use od_forecast::core::{
    evaluate, train, AfConfig, AfModel, BfConfig, BfModel, EvalReport, Mode, OdForecaster,
    TrainConfig,
};
use od_forecast::metrics::{emd, DisSim, Metric};
use od_forecast::nn::Tape;
use od_forecast::serve::{ModelConfig, ModelKind, Registry, ServeStats};
use od_forecast::tensor::rng::Rng64;
use od_forecast::tensor::{par, Tensor};
use od_forecast::traffic::{CityModel, OdDataset, SimConfig, Window};
use std::sync::Arc;

const SEED: u64 = 5;
const LOOKBACK: usize = 3;

fn bits(ts: &[Tensor]) -> Vec<Vec<u32>> {
    ts.iter()
        .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Eight intervals of `city` under `sim`: enough for one lookback-3,
/// h = 3 window.
fn dataset(city: CityModel, sim: SimConfig) -> OdDataset {
    let sim = SimConfig {
        num_days: 1,
        intervals_per_day: 8,
        ..sim
    };
    OdDataset::generate(city, &sim)
}

/// Registers a fresh `kind` model for `ds`'s city and asserts that the
/// served forecast equals the training tape's eval forward bit for bit
/// at h = 1, 2 and 3 and at 1 and 4 threads.
fn assert_served_forecast_matches_training_tape(label: &str, kind: ModelKind, ds: &OdDataset) {
    let config = ModelConfig {
        kind,
        centroids: ds.city.centroids(),
        num_buckets: ds.spec.num_buckets,
    };
    let model = config.build(SEED);
    let registry = Registry::with_mem_budget(config, Arc::new(ServeStats::new()), None);
    let version = registry
        .register_store(model.params().clone())
        .expect("the model's own weights validate");
    let served = registry.get(version).expect("registered version");
    let batch = make_batch(ds, &ds.windows(LOOKBACK, 3)[..1]);
    for threads in [1, 4] {
        for h in 1..=3 {
            let (served, training_tape) = par::with_threads(threads, || {
                let served = served.forecast(&batch.inputs, h);
                let mut tape = Tape::new();
                let out =
                    model.forward(&mut tape, &batch.inputs, h, Mode::Eval, &mut Rng64::new(0));
                let values: Vec<Tensor> = out
                    .predictions
                    .iter()
                    .map(|&v| tape.value(v).clone())
                    .collect();
                (served, values)
            });
            assert_eq!(served.len(), h, "{label}: one forecast per step");
            assert!(
                bits(&served) == bits(&training_tape),
                "{label} at h = {h}, {threads} thread(s): forecast bits differ"
            );
        }
    }
}

#[test]
fn af_default_forecast_on_the_nyc_like_city_is_bitwise_unchanged() {
    let ds = dataset(CityModel::nyc_like(SEED), SimConfig::nyc(SEED));
    assert_eq!(ds.num_regions(), 67);
    let kind = ModelKind::Af(AfConfig::default());
    assert_served_forecast_matches_training_tape("AF default, N = 67", kind, &ds);
}

#[test]
fn af_default_forecast_on_the_chengdu_like_city_is_bitwise_unchanged() {
    let ds = dataset(CityModel::chengdu_like(SEED), SimConfig::chengdu(SEED));
    assert_eq!(ds.num_regions(), 79);
    let kind = ModelKind::Af(AfConfig::default());
    assert_served_forecast_matches_training_tape("AF default, N = 79", kind, &ds);
}

#[test]
fn af_paper_nyc_forecast_is_bitwise_unchanged() {
    let ds = dataset(CityModel::nyc_like(SEED), SimConfig::nyc(SEED));
    let kind = ModelKind::Af(AfConfig::paper_nyc());
    assert_served_forecast_matches_training_tape("AF paper_nyc, N = 67", kind, &ds);
}

#[test]
fn bf_forecasts_plain_and_with_attention_are_bitwise_unchanged() {
    let ds = dataset(CityModel::small(9), SimConfig::small(SEED));
    for attention in [false, true] {
        let kind = ModelKind::Bf(BfConfig {
            attention,
            ..BfConfig::default()
        });
        let label = format!("BF attention = {attention}, N = 9");
        assert_served_forecast_matches_training_tape(&label, kind, &ds);
    }
}

#[test]
fn validation_emd_is_step_zero_of_a_full_horizon_eval_forward() {
    let sim = SimConfig {
        num_days: 2,
        intervals_per_day: 16,
        trips_per_interval: 120.0,
        ..SimConfig::small(7)
    };
    let ds = OdDataset::generate(CityModel::small(5), &sim);
    let windows = ds.windows(2, 3);
    let split = ds.split(&windows, 0.7, 0.15);
    assert!(!split.val.is_empty());
    let mut model = BfModel::new(5, ds.spec.num_buckets, BfConfig::default(), 2);
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::fast_test()
    };
    let report = train(&mut model, &ds, &split.train, Some(&split.val), &cfg);
    // The last epoch's validation scored the final weights: recompute it
    // from step 0 of an h = 3 eval forward on a training tape.
    let mut want = DisSim::new();
    for chunk in split.val.chunks(cfg.batch_size) {
        let batch = make_batch(&ds, chunk);
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &batch.inputs, 3, Mode::Eval, &mut Rng64::new(0));
        assert_eq!(out.predictions.len(), 3);
        let pred = tape.value(out.predictions[0]);
        let (target, mask) = (&batch.targets[0], &batch.masks[0]);
        let (b, n, nd, k) = (pred.dim(0), pred.dim(1), pred.dim(2), pred.dim(3));
        for bi in 0..b {
            for o in 0..n {
                for d in 0..nd {
                    if mask.at(&[bi, o, d, 0]) < 0.5 {
                        continue;
                    }
                    let gt: Vec<f32> = (0..k).map(|x| target.at(&[bi, o, d, x])).collect();
                    let fc: Vec<f32> = (0..k).map(|x| pred.at(&[bi, o, d, x])).collect();
                    want.add(emd(&gt, &fc));
                }
            }
        }
    }
    let got = *report.val_emd.last().expect("one validation per epoch");
    assert!(got.is_finite());
    assert_eq!(
        got.to_bits(),
        want.mean().to_bits(),
        "{got} vs {}",
        want.mean()
    );
}

/// The `DisSim` protocol of §VI-A.4 written out by hand: each metric's
/// mean per step over the observed target cells, and the step-0 means
/// per 3-hour time-of-day bin (Figs. 8–10) and per 0.5 km OD-distance
/// group below 3 km (Figs. 11–13).
struct ReferenceScores {
    per_step: Vec<[DisSim; 3]>,
    by_time: [[DisSim; 8]; 3],
    by_distance: [[DisSim; 6]; 3],
}

impl ReferenceScores {
    fn new(h: usize) -> ReferenceScores {
        ReferenceScores {
            per_step: (0..h).map(|_| Default::default()).collect(),
            by_time: Default::default(),
            by_distance: Default::default(),
        }
    }

    /// Scores one window's forecast, `forecast(step, o, d)`, in step,
    /// origin, destination order.
    fn add_window(
        &mut self,
        ds: &OdDataset,
        w: &Window,
        forecast: impl Fn(usize, usize, usize) -> Vec<f32>,
    ) {
        let n = ds.num_regions();
        for (step, &t) in w.target_indices().iter().enumerate() {
            let per_bin = (ds.intervals_per_day / 8).max(1);
            let time_bin = (ds.interval_of_day(t) / per_bin).min(7);
            for o in 0..n {
                for d in 0..n {
                    let Some(truth) = ds.tensors[t].histogram(o, d) else {
                        continue;
                    };
                    let fc = forecast(step, o, d);
                    let km = ds.city.distance_km(o, d);
                    for (m, metric) in Metric::ALL.iter().enumerate() {
                        let v = metric.eval(&truth, &fc);
                        self.per_step[step][m].add(v);
                        if step == 0 {
                            self.by_time[m][time_bin].add(v);
                            if (0.0..3.0).contains(&km) {
                                self.by_distance[m][(km / 0.5) as usize].add(v);
                            }
                        }
                    }
                }
            }
        }
    }

    /// A model's forecasts, one eval forward per `batch_size` chunk.
    fn of_model(
        model: &dyn OdForecaster,
        ds: &OdDataset,
        windows: &[Window],
        batch_size: usize,
    ) -> ReferenceScores {
        let h = windows[0].h;
        let mut r = ReferenceScores::new(h);
        for chunk in windows.chunks(batch_size) {
            let batch = make_batch(ds, chunk);
            let mut tape = Tape::new();
            let out = model.forward(&mut tape, &batch.inputs, h, Mode::Eval, &mut Rng64::new(0));
            let preds: Vec<&Tensor> = out.predictions.iter().map(|&v| tape.value(v)).collect();
            let k = ds.spec.num_buckets;
            for (b, w) in chunk.iter().enumerate() {
                r.add_window(ds, w, |step, o, d| {
                    (0..k).map(|x| preds[step].at(&[b, o, d, x])).collect()
                });
            }
        }
        r
    }

    fn of_predictor(
        pred: &dyn HistogramPredictor,
        ds: &OdDataset,
        windows: &[Window],
    ) -> ReferenceScores {
        let mut r = ReferenceScores::new(windows[0].h);
        for w in windows {
            r.add_window(ds, w, |step, o, d| pred.predict(ds, o, d, w, step));
        }
        r
    }

    fn assert_matches(&self, label: &str, got: &EvalReport) {
        let mean_bits = |s: &DisSim| (s.mean().to_bits(), s.count());
        assert_eq!(got.per_step.len(), self.per_step.len(), "{label}: steps");
        for (step, want) in self.per_step.iter().enumerate() {
            let got_step: Vec<_> = (0..3)
                .map(|m| (got.per_step[step][m].to_bits(), got.cells_per_step[step]))
                .collect();
            let want_step: Vec<_> = want.iter().map(mean_bits).collect();
            assert_eq!(got_step, want_step, "{label}: step {step} DisSim");
        }
        for m in 0..3 {
            let rows = |g: &od_forecast::metrics::GroupedMean| -> Vec<(u64, usize)> {
                g.rows().map(|(_, mean, c)| (mean.to_bits(), c)).collect()
            };
            let want_time: Vec<_> = self.by_time[m].iter().map(mean_bits).collect();
            let want_dist: Vec<_> = self.by_distance[m].iter().map(mean_bits).collect();
            let name = Metric::ALL[m].name();
            assert_eq!(rows(&got.by_time[m]), want_time, "{label}: {name} by time");
            assert_eq!(
                rows(&got.by_distance[m]),
                want_dist,
                "{label}: {name} by distance"
            );
        }
    }
}

fn scoring_dataset() -> OdDataset {
    let sim = SimConfig {
        num_days: 2,
        intervals_per_day: 16,
        trips_per_interval: 150.0,
        ..SimConfig::small(11)
    };
    OdDataset::generate(CityModel::small(6), &sim)
}

#[test]
fn evaluate_and_evaluate_predictor_equal_a_hand_written_scorer() {
    let ds = scoring_dataset();
    let k = ds.spec.num_buckets;
    let windows = ds.windows(LOOKBACK, 3);
    let bf = BfModel::new(6, k, BfConfig::default(), SEED);
    let af = AfModel::new(&ds.city.centroids(), k, AfConfig::default(), SEED);
    let models: [(&str, &dyn OdForecaster); 2] = [("BF", &bf), ("AF", &af)];
    let train_end = ds.num_intervals() / 2;
    let nh = NaiveHistograms::fit(&ds, train_end);
    // A small VAR: `predict` rolls the whole model forward for every cell.
    let var_params = VarParams {
        top_pairs: 6,
        lags: 2,
        ridge: 1.0,
    };
    let var = VarModel::fit(&ds, train_end, var_params);
    let predictors: [(&str, &dyn HistogramPredictor); 2] = [("NH", &nh), ("VAR", &var)];
    let model_refs: Vec<_> = models
        .iter()
        .map(|(_, m)| ReferenceScores::of_model(*m, &ds, &windows, 8))
        .collect();
    let predictor_refs: Vec<_> = predictors
        .iter()
        .map(|(_, p)| ReferenceScores::of_predictor(*p, &ds, &windows))
        .collect();
    for threads in [1, 4] {
        par::with_forced_threads(threads, || {
            for ((name, model), want) in models.iter().zip(&model_refs) {
                let got = evaluate(*model, &ds, &windows, 8);
                want.assert_matches(&format!("{name} at h = 3, {threads} thread(s)"), &got);
            }
            for ((name, pred), want) in predictors.iter().zip(&predictor_refs) {
                let got = evaluate_predictor(*pred, &ds, &windows);
                want.assert_matches(&format!("{name} at h = 3, {threads} thread(s)"), &got);
            }
        });
    }
}

#[test]
fn validation_emd_series_equals_a_hand_written_scorer() {
    const EPOCHS: usize = 3;
    let ds = scoring_dataset();
    let k = ds.spec.num_buckets;
    let split = ds.split(&ds.windows(LOOKBACK, 3), 0.7, 0.15);
    assert!(!split.val.is_empty());
    let cfg = |epochs| TrainConfig {
        epochs,
        ..TrainConfig::fast_test()
    };
    let val_emd = |model: &BfModel| {
        ReferenceScores::of_model(model, &ds, &split.val, cfg(EPOCHS).batch_size).per_step[0][2]
            .mean()
    };
    // Epoch e's validation scores the weights after e epochs: a run of e
    // epochs leaves them, and its series is a prefix of the longer run's.
    let mut want = Vec::new();
    for epochs in 1..EPOCHS {
        let mut model = BfModel::new(6, k, BfConfig::default(), SEED);
        let report = train(
            &mut model,
            &ds,
            &split.train,
            Some(&split.val),
            &cfg(epochs),
        );
        want.push(val_emd(&model).to_bits());
        let series: Vec<u64> = report.val_emd.iter().map(|v| v.to_bits()).collect();
        assert_eq!(series, want, "{epochs}-epoch run: validation series");
    }
    for threads in [1, 4] {
        par::with_forced_threads(threads, || {
            let mut model = BfModel::new(6, k, BfConfig::default(), SEED);
            let report = train(
                &mut model,
                &ds,
                &split.train,
                Some(&split.val),
                &cfg(EPOCHS),
            );
            let mut want = want.clone();
            want.push(val_emd(&model).to_bits());
            let got: Vec<u64> = report.val_emd.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{threads} thread(s): validation EMD series");
        });
    }
}
