//! Criterion micro-benchmarks of the computational kernels: matmul,
//! Chebyshev graph convolution (forward + backward), one GCGRU step, the
//! recovery product, EMD/KL, histogram construction and trip simulation.
//!
//! These quantify where a training step's time goes and guard against
//! performance regressions in the kernels.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use stod_graph::{proximity_csr, scaled_laplacian_csr, ProximityParams};
use stod_metrics::{emd, kl_divergence};
use stod_nn::layers::{ChebyConv, GcGruCell};
use stod_nn::{ParamStore, Tape};
use stod_tensor::rng::Rng64;
use stod_tensor::{matmul, CsrMatrix, Tensor};
use stod_traffic::{CityModel, HistogramSpec, OdDataset, SimConfig};

fn bench_matmul(c: &mut Criterion) {
    let mut rng = Rng64::new(1);
    let a = Tensor::randn(&[128, 128], 1.0, &mut rng);
    let b = Tensor::randn(&[128, 128], 1.0, &mut rng);
    c.bench_function("matmul_128x128", |bench| {
        bench.iter(|| black_box(matmul(black_box(&a), black_box(&b))))
    });
}

fn lap(n: usize) -> Arc<CsrMatrix> {
    let centroids: Vec<(f64, f64)> = (0..n)
        .map(|i| ((i % 8) as f64 * 0.7, (i / 8) as f64 * 0.7))
        .collect();
    Arc::new(scaled_laplacian_csr(&proximity_csr(
        &centroids,
        ProximityParams::default(),
    )))
}

fn bench_cheby_forward_backward(c: &mut Criterion) {
    let n = 32;
    let mut store = ParamStore::new();
    let mut rng = Rng64::new(2);
    let conv = ChebyConv::new(&mut store, "gc", lap(n), 3, 7, 16, &mut rng);
    let x0 = Tensor::randn(&[16, n, 7], 1.0, &mut rng);
    c.bench_function("cheby_conv_forward_b16_n32", |bench| {
        bench.iter(|| {
            let mut tape = Tape::new();
            let x = tape.constant(x0.clone());
            black_box(conv.apply(&mut tape, &store, x))
        })
    });
    c.bench_function("cheby_conv_train_step_b16_n32", |bench| {
        bench.iter(|| {
            let mut tape = Tape::new();
            let x = tape.constant(x0.clone());
            let y = conv.apply(&mut tape, &store, x);
            let sq = tape.mul(y, y);
            let loss = tape.sum_all(sq);
            black_box(tape.backward(loss))
        })
    });
}

fn bench_gcgru_step(c: &mut Criterion) {
    let n = 32;
    let mut store = ParamStore::new();
    let mut rng = Rng64::new(3);
    let cell = GcGruCell::new(&mut store, "g", lap(n), 2, 35, 16, &mut rng);
    let x0 = Tensor::randn(&[16, n, 35], 1.0, &mut rng);
    c.bench_function("gcgru_step_b16_n32", |bench| {
        bench.iter(|| {
            let mut tape = Tape::new();
            let x = tape.constant(x0.clone());
            let h = cell.zero_state(&mut tape, 16);
            black_box(cell.step(&mut tape, &store, x, h))
        })
    });
}

fn bench_recovery(c: &mut Criterion) {
    let mut rng = Rng64::new(4);
    let r = Tensor::randn(&[16, 32, 5, 7], 1.0, &mut rng);
    let cc = Tensor::randn(&[16, 5, 32, 7], 1.0, &mut rng);
    c.bench_function("recovery_b16_n32_r5_k7", |bench| {
        bench.iter(|| {
            let mut tape = Tape::new();
            let rv = tape.constant(r.clone());
            let cv = tape.constant(cc.clone());
            black_box(stod_core::recovery::recover(&mut tape, rv, cv, None))
        })
    });
}

fn bench_metrics(c: &mut Criterion) {
    let a = [0.1f32, 0.2, 0.3, 0.15, 0.1, 0.1, 0.05];
    let b = [0.05f32, 0.15, 0.25, 0.2, 0.15, 0.1, 0.1];
    c.bench_function("emd_k7", |bench| {
        bench.iter(|| black_box(emd(black_box(&a), black_box(&b))))
    });
    c.bench_function("kl_k7", |bench| {
        bench.iter(|| black_box(kl_divergence(black_box(&a), black_box(&b))))
    });
}

fn bench_histogram_build(c: &mut Criterion) {
    let spec = HistogramSpec::paper();
    let mut rng = Rng64::new(5);
    let speeds: Vec<f64> = (0..64).map(|_| rng.uniform(0.0, 21.0)).collect();
    c.bench_function("histogram_build_64_trips", |bench| {
        bench.iter(|| black_box(spec.build(black_box(&speeds))))
    });
}

fn bench_dataset_generation(c: &mut Criterion) {
    c.bench_function("simulate_one_day_16_regions", |bench| {
        bench.iter(|| {
            let cfg = SimConfig {
                num_days: 1,
                intervals_per_day: 48,
                trips_per_interval: 200.0,
                ..SimConfig::small(7)
            };
            black_box(OdDataset::generate(CityModel::small(16), &cfg))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets =
    bench_matmul,
    bench_cheby_forward_backward,
    bench_gcgru_step,
    bench_recovery,
    bench_metrics,
    bench_histogram_build,
    bench_dataset_generation
}
criterion_main!(benches);
