//! Golden-regression gauntlet for the parallel kernel layer (tier-1).
//!
//! The determinism contract of `stod_tensor::par` is that the worker pool
//! may move *work* between threads but never changes *values*: a training
//! run is bitwise reproducible at any thread count. These tests train the
//! BF and the AF model for two epochs each with a fixed seed — dropout,
//! sharded gradient accumulation and, for AF, the CSR graph propagation
//! (`spmm_panel`) of every Cheby-Net layer — once serially and once under
//! a forced 2- and 4-thread pool, and demand the full loss trajectory and
//! every learned weight agree bit for bit.
//!
//! Forced pools bypass the small-op work threshold, so the tiny test
//! dataset genuinely exercises the chunked kernels.

use od_forecast::core::{train, AfConfig, AfModel, BfConfig, BfModel, OdForecaster, TrainConfig};
use od_forecast::tensor::par;
use od_forecast::traffic::{CityModel, OdDataset, SimConfig};

fn small_dataset(seed: u64) -> OdDataset {
    let cfg = SimConfig {
        num_days: 2,
        intervals_per_day: 16,
        trips_per_interval: 120.0,
        ..SimConfig::small(seed)
    };
    OdDataset::generate(CityModel::small(6), &cfg)
}

/// Two fixed-seed epochs of the model `build` makes, run at `threads`.
/// Returns the per-epoch loss trajectory and a flat snapshot of every
/// parameter tensor.
fn golden_run(
    ds: &OdDataset,
    threads: usize,
    build: impl Fn() -> Box<dyn OdForecaster>,
) -> (Vec<f32>, Vec<f32>) {
    par::with_forced_threads(threads, || {
        let windows = ds.windows(3, 1);
        let split = ds.split(&windows, 0.7, 0.0);
        let mut model = build();
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 16, // > shard grain 8 → two gradient shards
            dropout: 0.2,   // exercises the per-shard RNG stream split
            seed: 42,
            ..TrainConfig::default()
        };
        let report = train(model.as_mut(), ds, &split.train, None, &cfg);
        let weights: Vec<f32> = model
            .params()
            .iter()
            .flat_map(|(_, _, t)| t.data().iter().copied())
            .collect();
        (report.epoch_losses, weights)
    })
}

/// Runs [`golden_run`] serially and at 2 and 4 threads and asserts the
/// loss trajectories and final weights are bitwise identical.
fn assert_bitwise_across_thread_counts(build: impl Fn() -> Box<dyn OdForecaster>) {
    let ds = small_dataset(7);
    let (serial_losses, serial_weights) = golden_run(&ds, 1, &build);
    assert_eq!(serial_losses.len(), 2);
    assert!(serial_losses.iter().all(|l| l.is_finite()));

    for threads in [2usize, 4] {
        let (losses, weights) = golden_run(&ds, threads, &build);
        for (epoch, (a, b)) in serial_losses.iter().zip(&losses).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "epoch {epoch} loss diverged at {threads} threads: {a} vs {b}"
            );
        }
        assert_eq!(serial_weights.len(), weights.len());
        let diverged = serial_weights
            .iter()
            .zip(&weights)
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        assert_eq!(
            diverged,
            0,
            "{diverged}/{} weights diverged at {threads} threads",
            weights.len()
        );
    }
}

#[test]
fn bf_training_trajectory_is_bitwise_identical_across_thread_counts() {
    assert_bitwise_across_thread_counts(|| Box::new(BfModel::new(6, 7, BfConfig::default(), 42)));
}

#[test]
fn af_training_trajectory_is_bitwise_identical_across_thread_counts() {
    let centroids = CityModel::small(6).centroids();
    assert_bitwise_across_thread_counts(|| {
        Box::new(AfModel::new(&centroids, 7, AfConfig::default(), 42))
    });
}

/// The same contract for pure inference-side kernels: a large matmul
/// chunked across a forced pool matches the serial product bit for bit.
#[test]
fn matmul_is_bitwise_identical_across_thread_counts() {
    use od_forecast::tensor::{matmul, rng::Rng64, Tensor};
    let mut rng = Rng64::new(3);
    let a = Tensor::randn(&[37, 19], 1.0, &mut rng);
    let b = Tensor::randn(&[19, 23], 1.0, &mut rng);
    let serial = par::with_forced_threads(1, || matmul(&a, &b));
    for threads in [2usize, 3, 4, 7] {
        let par_out = par::with_forced_threads(threads, || matmul(&a, &b));
        assert!(
            serial
                .data()
                .iter()
                .zip(par_out.data())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "matmul diverged at {threads} threads"
        );
    }
}
