//! Work pins: exact counts of the work one AF training step and one AF
//! eval forecast do, at a reduced `train_paper` shape.
//!
//! Wall-clock gates flap on shared hosts; work does not. These tests count
//! what a change to the model or the tape can move — tape nodes per op
//! name and the `kernel/matmul/{calls,elements}` counters — and assert
//! the exact numbers at `STOD_THREADS` 1 and 4. Every count is a pure
//! function of the shapes and the fixed data, so the pins hold on any
//! host. A change that moves the work updates the pins in the same commit
//! and says why in CHANGES.md.
//!
//! The shape is `train_paper`'s (`AfConfig::paper_nyc`, the N = 67
//! NYC-like city, lookback 3, h = 1, dropout 0.2) with a batch of 2
//! windows; the eval forecast is one window at h = 3.

use od_forecast::core::batch::make_batch;
use od_forecast::core::{AfConfig, AfModel, Mode, OdForecaster};
use od_forecast::nn::Tape;
use od_forecast::obs::{self, ObsMode};
use od_forecast::tensor::par;
use od_forecast::tensor::rng::Rng64;
use od_forecast::traffic::{CityModel, OdDataset, SimConfig, Window};

const SEED: u64 = 1;
const LOOKBACK: usize = 3;

/// The work one closure did: tape nodes per op and the matmul counters.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    nodes: Vec<(&'static str, usize)>,
    matmul_calls: u64,
    matmul_elements: u64,
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

/// Runs `f` on a fresh tape with the probes armed and counts its work.
fn measure(threads: usize, f: impl FnOnce(&mut Tape)) -> Work {
    obs::with_mode(ObsMode::On, || {
        par::with_threads(threads, || {
            obs::reset();
            let mut tape = Tape::new();
            f(&mut tape);
            let snap = obs::snapshot();
            Work {
                nodes: tape.op_counts().into_iter().collect(),
                matmul_calls: snap.counter("kernel/matmul/calls"),
                matmul_elements: snap.counter("kernel/matmul/elements"),
            }
        })
    })
}

/// One training step as `stod_core::train` runs a shard: the masked
/// forward, the Eq. 11 loss and the backward pass.
fn train_step(threads: usize) -> Work {
    let (ds, model, windows) = setup();
    let batch = make_batch(&ds, &windows[..2]);
    measure(threads, |tape| {
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

/// One eval forecast at h = 3, as `ServedModel::forecast` runs it.
fn eval_forecast(threads: usize) -> Work {
    let (ds, model, windows) = setup();
    let batch = make_batch(&ds, &windows[..1]);
    measure(threads, |tape| {
        let mut rng = Rng64::new(0);
        model.forward(tape, &batch.inputs, 3, Mode::Eval, &mut rng);
    })
}

fn assert_pinned(
    what: &str,
    got: Work,
    nodes: &[(&'static str, usize)],
    calls: u64,
    elements: u64,
) {
    let want = Work {
        nodes: nodes.to_vec(),
        matmul_calls: calls,
        matmul_elements: elements,
    };
    assert!(
        got == want,
        "{what}: work moved\n got: {:?}\nwant: {:?}",
        got,
        want
    );
}

// The factorization runs 12 `cheby_pool` stages per forward: 3 input
// steps × 2 sides × 2 stages.
const TRAIN_NODES: &[(&str, usize)] = &[
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
];
const TRAIN_MATMUL_CALLS: u64 = 126;
const TRAIN_MATMUL_ELEMENTS: u64 = 4_124_424;

const EVAL_NODES: &[(&str, usize)] = &[
    ("add", 28),
    ("add_scalar", 12),
    ("batched_matmul", 3),
    ("cheby_conv", 42),
    ("cheby_pool", 12),
    ("concat", 24),
    ("constant", 5),
    ("csr_propagate", 6),
    ("leaf", 123),
    ("matmul", 6),
    ("mul", 42),
    ("neg", 12),
    ("permute", 33),
    ("relu", 6),
    ("reshape", 57),
    ("scale", 6),
    ("sigmoid", 24),
    ("softmax", 3),
    ("sum_all", 6),
    ("tanh", 12),
];
const EVAL_MATMUL_CALLS: u64 = 60;
const EVAL_MATMUL_ELEMENTS: u64 = 1_020_678;

#[test]
fn af_training_step_work_is_pinned() {
    for threads in [1, 4] {
        assert_pinned(
            &format!("training step at {threads} thread(s)"),
            train_step(threads),
            TRAIN_NODES,
            TRAIN_MATMUL_CALLS,
            TRAIN_MATMUL_ELEMENTS,
        );
    }
}

#[test]
fn af_eval_forecast_work_is_pinned() {
    for threads in [1, 4] {
        assert_pinned(
            &format!("eval forecast at {threads} thread(s)"),
            eval_forecast(threads),
            EVAL_NODES,
            EVAL_MATMUL_CALLS,
            EVAL_MATMUL_ELEMENTS,
        );
    }
}
