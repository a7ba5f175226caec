//! A study of the data-sparseness problem (§I challenge 1) and how the
//! factorization-based frameworks answer it: sparse inputs, *complete*
//! forecasts.
//!
//! Run with: `cargo run --release --example sparsity_study`

use od_forecast::core::{train, BfConfig, BfModel, Mode, OdForecaster, TrainConfig};
use od_forecast::traffic::stats::{data_share_by_time_of_day, sparseness};
use od_forecast::traffic::{CityModel, OdDataset, SimConfig};

fn main() {
    // Generate the same city at three demand levels.
    for trips in [40.0, 120.0, 360.0] {
        let cfg = SimConfig {
            num_days: 4,
            intervals_per_day: 24,
            trips_per_interval: trips,
            ..SimConfig::small(5)
        };
        let ds = OdDataset::generate(CityModel::small(9), &cfg);
        let r = sparseness(&ds);
        println!(
            "{trips:>5.0} trips/interval → pair coverage {:>5.1}% overall, {:>5.1}% per interval",
            100.0 * r.overall_pair_coverage,
            100.0 * r.mean_interval_coverage
        );
    }

    // The paper's key observation: even data sets that cover most pairs
    // overall are very sparse per 15-minute interval.
    let cfg = SimConfig {
        num_days: 6,
        intervals_per_day: 24,
        trips_per_interval: 120.0,
        ..SimConfig::small(5)
    };
    let ds = OdDataset::generate(CityModel::small(9), &cfg);
    let shares = data_share_by_time_of_day(&ds);
    println!(
        "\ndata share by 3h bin: {:?}",
        shares
            .iter()
            .map(|s| format!("{:.0}%", s * 100.0))
            .collect::<Vec<_>>()
    );

    // Train BF and count how many *empty* ground-truth cells receive a
    // non-trivial forecast — the "full OD matrix" promise.
    let windows = ds.windows(3, 1);
    let split = ds.split(&windows, 0.8, 0.0);
    let mut model = BfModel::new(9, ds.spec.num_buckets, BfConfig::default(), 9);
    train(
        &mut model,
        &ds,
        &split.train,
        None,
        &TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        },
    );

    let w = split.test[0];
    let batch = od_forecast::core::batch::make_batch(&ds, &[w]);
    let mut tape = od_forecast::nn::Tape::no_grad();
    let mut rng = od_forecast::tensor::rng::Rng64::new(0);
    let out = model.forward(&mut tape, &batch.inputs, 1, Mode::Eval, &mut rng);
    let pred = tape.value(out.predictions[0]);
    let truth = &ds.tensors[w.target_indices()[0]];

    let n = ds.num_regions();
    let k = ds.spec.num_buckets;
    let mut empty_cells = 0usize;
    let mut filled = 0usize;
    for o in 0..n {
        for d in 0..n {
            if truth.observed(o, d) {
                continue;
            }
            empty_cells += 1;
            let hist: Vec<f32> = (0..k).map(|b| pred.at(&[0, o, d, b])).collect();
            let sum: f32 = hist.iter().sum();
            // Forecast cells are softmax outputs: always a distribution.
            if (sum - 1.0).abs() < 1e-3 {
                filled += 1;
            }
        }
    }
    println!(
        "\ntarget interval had {empty_cells} empty cells out of {}; the forecast \
         fills {filled} of them with valid histograms",
        n * n
    );
    println!("input sparse tensors → factorization → complete forecast: no empty cells remain.");
}
