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

use od_forecast::core::batch::make_batch;
use od_forecast::core::{train, AfConfig, BfConfig, BfModel, Mode, OdForecaster, TrainConfig};
use od_forecast::metrics::{emd, DisSim};
use od_forecast::nn::Tape;
use od_forecast::serve::{ModelConfig, ModelKind, Registry, ServeStats};
use od_forecast::tensor::rng::Rng64;
use od_forecast::tensor::{par, Tensor};
use od_forecast::traffic::{CityModel, OdDataset, SimConfig};
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
