//! The overhead contract: a **disarmed** span probe inside a tight matmul
//! loop must cost <5% of the loop. The probe compiles to one relaxed
//! atomic load and a branch — noise next to a 64³ multiply-accumulate —
//! and the test exists to catch a regression that sneaks a clock read,
//! lock, or allocation onto the disarmed path.
//!
//! Timing the loop with and without the probe cannot resolve 5 % on a
//! loaded host: the loop alone swings by more than that between rounds.
//! So the test counts the probes the loop executes (an armed run's
//! snapshot) and prices each one from 10⁶ disarmed probes timed alone,
//! against the bare loop's time. Each timing is long enough, and the
//! bound far enough from the measured ~0.01 %, that host noise cannot
//! cross it.

use std::hint::black_box;
use std::time::Instant;
use stod_obs::ObsMode;
use stod_tensor::{matmul, rng::Rng64, Tensor};

const SIDE: usize = 64;
const ITERS: usize = 60;
const PROBES: usize = 1_000_000;
const ROUNDS: usize = 5;

/// The loop under test: one span probe around each matmul.
fn spanned_loop(a: &Tensor, b: &Tensor) {
    for _ in 0..ITERS {
        let _s = stod_obs::span!("overhead/matmul");
        black_box(matmul(a, b));
    }
}

/// Seconds per repetition of `f`, which runs `reps` of them: the best of
/// `ROUNDS` timings.
fn per_rep(reps: usize, mut f: impl FnMut()) -> f64 {
    let best = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    best / reps as f64
}

#[test]
fn disarmed_span_in_tight_matmul_loop_is_under_5_percent() {
    let mut rng = Rng64::new(42);
    let a = Tensor::randn(&[SIDE, SIDE], 1.0, &mut rng);
    let b = Tensor::randn(&[SIDE, SIDE], 1.0, &mut rng);

    let probes = stod_obs::with_mode(ObsMode::On, || {
        stod_obs::reset();
        spanned_loop(&a, &b);
        let snap = stod_obs::snapshot();
        snap.span("overhead/matmul").map_or(0, |s| s.count)
    });
    assert_eq!(probes, ITERS as u64, "one probe per matmul");

    stod_obs::with_mode(ObsMode::Off, || {
        // Warm up caches and the lazily-resolved mode.
        spanned_loop(&a, &b);
        let probe = per_rep(PROBES, || {
            for _ in 0..PROBES {
                black_box(stod_obs::span!("overhead/matmul"));
            }
        });
        let iteration = per_rep(ITERS, || {
            for _ in 0..ITERS {
                black_box(matmul(&a, &b));
            }
        });
        let overhead = probes as f64 * probe / (ITERS as f64 * iteration);
        assert!(
            overhead <= 0.05,
            "disarmed span overhead {:.3}% exceeds 5% ({:.2} ns per probe, {:.2} µs per matmul)",
            overhead * 100.0,
            probe * 1e9,
            iteration * 1e6,
        );
    });
}

#[test]
fn disarmed_probes_leave_no_trace_in_snapshots() {
    stod_obs::with_mode(ObsMode::Off, || {
        {
            let _s = stod_obs::span!("overhead/ghost");
        }
        stod_obs::count("overhead/ghost_count", 1);
        stod_obs::gauge_set("overhead/ghost_gauge", 1);
        stod_obs::observe("overhead/ghost_hist", 1);
    });
    stod_obs::with_mode(ObsMode::On, || {
        let snap = stod_obs::snapshot();
        assert!(snap.span("overhead/ghost").is_none());
        assert_eq!(snap.counter("overhead/ghost_count"), 0);
        assert!(snap.gauges.iter().all(|g| g.name != "overhead/ghost_gauge"));
        assert!(snap.histogram("overhead/ghost_hist").is_none());
    });
}
