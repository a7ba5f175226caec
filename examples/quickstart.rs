//! Quickstart: simulate a small city, train the Advanced Framework for a
//! few epochs, and forecast the next interval's stochastic OD matrix.
//!
//! Run with: `cargo run --release --example quickstart`

use od_forecast::core::{evaluate, train, AfConfig, AfModel, TrainConfig};
use od_forecast::traffic::{CityModel, OdDataset, SimConfig};

fn main() {
    // 1. Simulate a 3×3-region city with 6 days of taxi trips.
    let cfg = SimConfig {
        num_days: 6,
        intervals_per_day: 24,
        trips_per_interval: 120.0,
        ..SimConfig::small(42)
    };
    let ds = OdDataset::generate(CityModel::small(9), &cfg);
    println!(
        "simulated {} intervals over {} regions; mean per-interval coverage {:.1}%",
        ds.num_intervals(),
        ds.num_regions(),
        100.0 * od_forecast::traffic::stats::sparseness(&ds).mean_interval_coverage
    );

    // 2. Frame the forecasting problem: s = 3 historical intervals → h = 1.
    let windows = ds.windows(3, 1);
    let split = ds.split(&windows, 0.7, 0.1);
    println!(
        "windows: {} train / {} val / {} test",
        split.train.len(),
        split.val.len(),
        split.test.len()
    );

    // 3. Train the Advanced Framework.
    let mut model = AfModel::new(
        &ds.city.centroids(),
        ds.spec.num_buckets,
        AfConfig::default(),
        7,
    );
    println!(
        "AF model with {} weights; training…",
        od_forecast::core::OdForecaster::num_weights(&model)
    );
    let report = train(
        &mut model,
        &ds,
        &split.train,
        Some(&split.val),
        &TrainConfig {
            epochs: 5,
            verbose: true,
            ..TrainConfig::default()
        },
    );
    println!("final training loss: {:.5}", report.final_loss());

    // 4. Evaluate on the held-out test windows.
    let eval = evaluate(&model, &ds, &split.test, 16);
    println!(
        "test accuracy (1 step ahead): KL {:.4}  JS {:.4}  EMD {:.4} over {} cells",
        eval.per_step[0][0], eval.per_step[0][1], eval.per_step[0][2], eval.cells_per_step[0]
    );

    // 5. Inspect one forecast cell: full tensors have no empty cells.
    let w = split.test[split.test.len() / 2];
    let batch = od_forecast::core::batch::make_batch(&ds, &[w]);
    let mut tape = od_forecast::nn::Tape::no_grad();
    let mut rng = od_forecast::tensor::rng::Rng64::new(0);
    let out = od_forecast::core::OdForecaster::forward(
        &model,
        &mut tape,
        &batch.inputs,
        1,
        od_forecast::core::Mode::Eval,
        &mut rng,
    );
    let pred = tape.value(out.predictions[0]);
    let (o, d) = (0usize, 4usize);
    let hist: Vec<f32> = (0..ds.spec.num_buckets)
        .map(|k| pred.at(&[0, o, d, k]))
        .collect();
    println!("\nforecast speed histogram for OD pair ({o} → {d}), next interval:");
    for (k, p) in hist.iter().enumerate() {
        let (lo, hi) = ds.spec.bounds(k);
        let bar = "#".repeat((p * 40.0) as usize);
        if hi.is_finite() {
            println!("  [{lo:>4.1},{hi:>4.1}) m/s  {p:.3} {bar}");
        } else {
            println!("  [{lo:>4.1},  ∞ ) m/s  {p:.3} {bar}");
        }
    }
    let truth = ds.tensors[w.target_indices()[0]].histogram(o, d);
    match truth {
        Some(t) => println!("observed ground truth:     {t:?}"),
        None => println!("(this cell was empty in the ground truth — the model filled it in)"),
    }
}
