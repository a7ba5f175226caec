//! The paper's §I motivating scenario: a passenger must catch a flight and
//! wants to know how much time to budget for the taxi ride. A *stochastic*
//! speed forecast yields a travel-time distribution and therefore a safe
//! departure time, where a single average speed would under-budget.
//!
//! Run with: `cargo run --release --example airport_trip_planning`

use od_forecast::core::{train, AfConfig, AfModel, Mode, OdForecaster, TrainConfig};
use od_forecast::traffic::{CityModel, OdDataset, SimConfig};

fn main() {
    // A small city; region 0 is "home", the far corner region the airport.
    let cfg = SimConfig {
        num_days: 6,
        intervals_per_day: 24,
        trips_per_interval: 150.0,
        ..SimConfig::small(1234)
    };
    let ds = OdDataset::generate(CityModel::small(9), &cfg);
    let (home, airport) = (0usize, 8usize);
    let trip_km = ds.city.distance_km(home, airport) * 1.3; // street detour factor
    println!("trip: region {home} → region {airport}, ≈{trip_km:.1} km of driving");

    // Train AF on everything but the last day.
    let windows = ds.windows(3, 1);
    let split = ds.split(&windows, 0.8, 0.0);
    let mut model = AfModel::new(
        &ds.city.centroids(),
        ds.spec.num_buckets,
        AfConfig::default(),
        3,
    );
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

    // Forecast the evening rush interval of the last day.
    let w = *split
        .test
        .iter()
        .find(|w| {
            let t = w.target_indices()[0];
            ds.interval_of_day(t) == ds.intervals_per_day * 18 / 24
        })
        .unwrap_or(split.test.last().expect("test windows"));
    let batch = od_forecast::core::batch::make_batch(&ds, &[w]);
    let mut tape = od_forecast::nn::Tape::no_grad();
    let mut rng = od_forecast::tensor::rng::Rng64::new(0);
    let out = model.forward(&mut tape, &batch.inputs, 1, Mode::Eval, &mut rng);
    let pred = tape.value(out.predictions[0]);
    let hist: Vec<f32> = (0..ds.spec.num_buckets)
        .map(|k| pred.at(&[0, home, airport, k]))
        .collect();

    println!("\nforecast speed distribution for the ride:");
    for (k, p) in hist.iter().enumerate() {
        if *p < 0.005 {
            continue;
        }
        let (lo, hi) = ds.spec.bounds(k);
        if hi.is_finite() {
            println!("  {lo:>4.1}–{hi:<4.1} m/s with probability {p:.2}");
        } else {
            println!("  ≥{lo:.1}     m/s with probability {p:.2}");
        }
    }

    // Travel-time planning: mean-based vs distribution-based.
    let mean_speed = ds.spec.mean_speed(&hist);
    let mean_minutes = trip_km * 1000.0 / mean_speed / 60.0;
    println!("\nmean speed {mean_speed:.1} m/s → naive time estimate {mean_minutes:.0} min");
    for q in [0.5, 0.8, 0.95] {
        let secs = ds.spec.travel_time_quantile(&hist, trip_km, q);
        if secs.is_finite() {
            println!(
                "to arrive on time with {:>2.0}% confidence, budget {:>5.0} min",
                q * 100.0,
                secs / 60.0
            );
        } else {
            println!(
                "to arrive on time with {:>2.0}% confidence: unbounded (mass in the slowest bucket)",
                q * 100.0
            );
        }
    }
    println!(
        "\nThe gap between the naive estimate and the 95% budget is exactly why the\n\
         paper forecasts distributions instead of averages (§I)."
    );
}
