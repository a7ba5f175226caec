//! Work pins: exact counts of the work one AF training step and one AF
//! eval forecast do, at a reduced `train_paper` shape.
//!
//! Wall-clock gates flap on shared hosts; work does not. These tests count
//! what a change to the model or the tape can move — tape nodes per op
//! name, the `kernel/matmul/{calls,elements}` counters, and the fresh
//! allocations (count and bytes) the calling thread's arena makes from
//! drained — and assert the exact numbers at `STOD_THREADS` 1 and 4.
//! Every count is a pure function of the shapes and the fixed data, so
//! the pins hold on any host. A change that moves the work updates the
//! pins in the same commit and says why in CHANGES.md.
//!
//! The shape is `train_paper`'s (`AfConfig::paper_nyc`, the N = 67
//! NYC-like city, lookback 3, h = 1, dropout 0.2) with a batch of 2
//! windows on a training tape; the eval forecast is one window at h = 3
//! on a no-grad tape, as `ServedModel::forecast` runs it.

use od_forecast::core::batch::make_batch;
use od_forecast::core::{AfConfig, AfModel, Mode, OdForecaster};
use od_forecast::nn::Tape;
use od_forecast::obs::{self, ObsMode};
use od_forecast::tensor::rng::Rng64;
use od_forecast::tensor::{arena, par};
use od_forecast::traffic::{CityModel, OdDataset, SimConfig, Window};

const SEED: u64 = 1;
const LOOKBACK: usize = 3;

/// The work one closure did: tape nodes per op, the matmul counters and
/// the calling thread's fresh arena allocations.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    nodes: Vec<(&'static str, usize)>,
    matmul_calls: u64,
    matmul_elements: u64,
    fresh: u64,
    fresh_bytes: u64,
}

/// One NYC-like city (N = 67, K = 7) over eight intervals, the model
/// `train_paper` trains, and its lookback-3 windows.
fn setup() -> (OdDataset, AfModel, Vec<Window>) {
    let sim = SimConfig {
        num_days: 1,
        intervals_per_day: 8,
        ..SimConfig::nyc(SEED)
    };
    let ds = OdDataset::generate(CityModel::nyc_like(SEED), &sim);
    let model = AfModel::new(
        &ds.city.centroids(),
        ds.spec.num_buckets,
        AfConfig::paper_nyc(),
        SEED,
    );
    let windows = ds.windows(LOOKBACK, 1);
    (ds, model, windows)
}

/// Runs `f` on the empty `tape` with the probes armed and this thread's
/// arena drained, and counts its work.
fn measure(threads: usize, mut tape: Tape, f: impl FnOnce(&mut Tape)) -> Work {
    obs::with_mode(ObsMode::On, || {
        par::with_threads(threads, || {
            obs::reset();
            arena::reset_stats();
            f(&mut tape);
            let snap = obs::snapshot();
            let alloc = arena::stats();
            Work {
                nodes: tape.op_counts().into_iter().collect(),
                matmul_calls: snap.counter("kernel/matmul/calls"),
                matmul_elements: snap.counter("kernel/matmul/elements"),
                fresh: alloc.fresh,
                fresh_bytes: alloc.fresh_bytes,
            }
        })
    })
}

/// One training step as `stod_core::train` runs a shard: the masked
/// forward, the Eq. 11 loss and the backward pass.
fn train_step(threads: usize) -> Work {
    let (ds, model, windows) = setup();
    let batch = make_batch(&ds, &windows[..2]);
    measure(threads, Tape::new(), |tape| {
        let mut rng = Rng64::new(SEED);
        let out = model.forward_masked(
            tape,
            &batch.inputs,
            1,
            Mode::Train { dropout: 0.2 },
            &mut rng,
            &batch.masks,
        );
        let data = tape.masked_sq_err(out.predictions[0], &batch.targets[0], &batch.masks[0]);
        let data = tape.scale(data, 1.0 / batch.observed_cells());
        let reg = out.regularizer.expect("AF regularizes its factors");
        let loss = tape.add(data, reg);
        tape.backward(loss);
    })
}

/// One eval forecast at h = 3 on a no-grad tape, as
/// `ServedModel::forecast` runs it.
fn eval_forecast(threads: usize) -> Work {
    let (ds, model, windows) = setup();
    let batch = make_batch(&ds, &windows[..1]);
    measure(threads, Tape::no_grad(), |tape| {
        let mut rng = Rng64::new(0);
        model.forward(tape, &batch.inputs, 3, Mode::Eval, &mut rng);
    })
}

/// What one closure must do, at every thread count.
struct Pin {
    nodes: &'static [(&'static str, usize)],
    matmul_calls: u64,
    matmul_elements: u64,
    fresh: u64,
    fresh_bytes: u64,
}

fn assert_pinned(what: &str, threads: usize, got: Work, pin: &Pin) {
    let want = Work {
        nodes: pin.nodes.to_vec(),
        matmul_calls: pin.matmul_calls,
        matmul_elements: pin.matmul_elements,
        fresh: pin.fresh,
        fresh_bytes: pin.fresh_bytes,
    };
    assert!(
        got == want,
        "{what} at {threads} thread(s): work moved\n got: {got:?}\nwant: {want:?}"
    );
}

// The factorization runs 12 `cheby_pool` stages per forward: 3 input
// steps × 2 sides × 2 stages.
const TRAIN: Pin = Pin {
    nodes: &[
        ("add", 18),
        ("add_scalar", 8),
        ("cheby_conv", 26),
        ("cheby_pool", 12),
        ("concat", 16),
        ("constant", 5),
        ("csr_propagate", 2),
        ("leaf", 91),
        ("masked_sq_err", 1),
        ("matmul", 6),
        ("mul", 26),
        ("neg", 8),
        ("permute", 22),
        ("recover_masked", 1),
        ("relu", 2),
        ("reshape", 44),
        ("scale", 3),
        ("sigmoid", 16),
        ("sum_all", 2),
        ("tanh", 8),
    ],
    matmul_calls: 126,
    matmul_elements: 4_124_424,
    fresh: 419,
    fresh_bytes: 45_473_024,
};

// On the no-grad tape every parameter is a `constant` leaf, and eval
// builds no Eq. 11 regularizer.
const EVAL: Pin = Pin {
    nodes: &[
        ("add", 23),
        ("add_scalar", 12),
        ("batched_matmul", 3),
        ("cheby_conv", 42),
        ("cheby_pool", 12),
        ("concat", 24),
        ("constant", 128),
        ("matmul", 6),
        ("mul", 36),
        ("neg", 12),
        ("permute", 33),
        ("reshape", 57),
        ("sigmoid", 24),
        ("softmax", 3),
        ("tanh", 12),
    ],
    matmul_calls: 60,
    matmul_elements: 1_020_678,
    fresh: 348,
    fresh_bytes: 12_690_176,
};

#[test]
fn af_training_step_work_is_pinned() {
    for threads in [1, 4] {
        assert_pinned("training step", threads, train_step(threads), &TRAIN);
    }
}

#[test]
fn af_eval_forecast_work_is_pinned() {
    for threads in [1, 4] {
        assert_pinned("eval forecast", threads, eval_forecast(threads), &EVAL);
    }
}
