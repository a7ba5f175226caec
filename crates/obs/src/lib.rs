//! # stod-obs
//!
//! Zero-dependency observability for the od-forecast workspace: scoped
//! spans with monotonic timing, counters, gauges, and fixed-bucket
//! latency histograms, all behind a process-global registry that a
//! single relaxed atomic load disarms.
//!
//! The ROADMAP's north star is a system that runs "as fast as the
//! hardware allows" — which is unfalsifiable until we can see *where*
//! time goes. This crate is the substrate every perf PR reports through:
//! the tensor kernel layer counts invocations and elements, the training
//! loop times epochs/minibatches/fwd/bwd/optimizer, the serve broker
//! exports queue depth and batch-size distributions, and the checkpoint
//! path times save/load/CRC. [`snapshot`] freezes all of it into a
//! versioned, JSON-serializable [`ObsSnapshot`].
//!
//! The crate sits below every other workspace crate, so it also hosts two
//! small pieces they share: [`json`], the workspace's JSON writer, and
//! [`sync`], lock access that ignores poisoning.
//!
//! ## Overhead contract
//!
//! The same discipline as `stod-faultline` probes: when observability is
//! disarmed (`STOD_OBS=off`, the default), every probe — [`span!`],
//! [`count`], [`gauge_set`], [`observe_ns`] — costs exactly one relaxed
//! atomic load before returning. No clock is read, no lock is taken, no
//! allocation happens. A paired test in the tier-1 suite proves the off
//! mode leaves training numerics bitwise unchanged, and
//! `crates/obs/tests/overhead.rs` bounds the disarmed cost inside a
//! tight matmul loop at <5%.
//!
//! Observability is *structurally* incapable of changing results at any
//! mode: probes only ever read clocks and bump counters — they never
//! touch operand data, RNG streams, or scheduling decisions.
//!
//! ## Modes
//!
//! `STOD_OBS` selects the mode at process start; [`force_mode`] /
//! [`with_mode`] override it programmatically (benches and tests):
//!
//! * `off` — disarmed; one relaxed load per probe (default).
//! * `on` — aggregate spans and metrics (counts, total/min/max time).
//! * `trace` — additionally keep individual span events in a bounded
//!   per-thread ring for fine-grained timelines.
//!
//! ## Determinism
//!
//! Span timings are wall-clock and vary run to run, but the *span tree*
//! — the set of paths and their counts — is a pure function of the
//! workload: spans never sample and never drop. Per-thread buffers are
//! merged in thread-registration order with order-insensitive integer
//! folds, so [`snapshot`] is stable regardless of scheduling. Two tier-1
//! suites rely on this: `tests/obs_gate.rs` pins exact span counts and
//! requires identical span trees and counters from the same checkpointed
//! training run at 1 and 4 threads, and `tests/work_pin.rs` pins the
//! matmul counters of one training step and one forecast.
//!
//! ## Naming scheme
//!
//! Slash-separated, coarse-to-fine: `layer/operation[/detail]`. Spans
//! nest lexically (`train/epoch` containing `train/minibatch` yields the
//! path `train/epoch/minibatch`), so a path's position in the tree is
//! recoverable from the string alone. Metric names are flat:
//! `kernel/matmul/calls`, `serve/queue_depth`, `pool/queue_wait_ns`.
//!
//! ```
//! stod_obs::with_mode(stod_obs::ObsMode::On, || {
//!     let _outer = stod_obs::span!("demo/outer");
//!     {
//!         let _inner = stod_obs::span!("demo/inner");
//!         stod_obs::count("demo/work_items", 3);
//!     }
//!     let snap = stod_obs::snapshot();
//!     assert!(snap.spans.iter().any(|s| s.path == "demo/outer/demo/inner"));
//! });
//! ```

mod metrics;
mod snapshot;
mod span;

pub mod json;
pub mod sync;

pub use metrics::{
    count, gauge_add, gauge_set, intern, observe, observe_duration, observe_ns, HistogramSnap,
};
pub use snapshot::{
    reset, snapshot, CounterSnap, GaugeSnap, ObsSnapshot, SpanSnap, TraceEventSnap,
    OBS_SCHEMA_VERSION,
};
pub use span::SpanGuard;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// How much the observability layer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ObsMode {
    /// Disarmed: every probe is one relaxed atomic load.
    Off = 0,
    /// Aggregate spans (count/total/min/max) and metrics.
    On = 1,
    /// `On` plus individual span events in a bounded per-thread ring.
    Trace = 2,
}

impl ObsMode {
    /// Parses a `STOD_OBS` value (`off`, `on`, or `trace`).
    pub fn parse(value: &str) -> Result<ObsMode, String> {
        match value {
            "off" => Ok(ObsMode::Off),
            "on" => Ok(ObsMode::On),
            "trace" => Ok(ObsMode::Trace),
            other => Err(format!(
                "STOD_OBS must be \"off\", \"on\" or \"trace\", got {other:?}"
            )),
        }
    }

    /// The mode's spec-grammar name.
    pub fn name(self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::On => "on",
            ObsMode::Trace => "trace",
        }
    }

    fn from_u8(v: u8) -> ObsMode {
        match v {
            1 => ObsMode::On,
            2 => ObsMode::Trace,
            _ => ObsMode::Off,
        }
    }
}

/// Sentinel meaning "mode not yet resolved from the environment".
const MODE_UNINIT: u8 = u8::MAX;

/// The armed mode; the single hot-path load every probe performs.
static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

/// Parses `STOD_OBS` exactly once per process.
static MODE_FROM_ENV: OnceLock<ObsMode> = OnceLock::new();

/// Serializes [`with_mode`] callers so mode-sensitive tests cannot
/// interleave their windows.
static MODE_LOCK: Mutex<()> = Mutex::new(());

#[cold]
fn init_mode_from_env() -> u8 {
    let m = *MODE_FROM_ENV.get_or_init(|| match std::env::var("STOD_OBS") {
        Ok(v) => ObsMode::parse(&v).unwrap_or_else(|e| panic!("invalid STOD_OBS: {e}")),
        Err(_) => ObsMode::Off,
    });
    // Another thread may have raced or force_mode may have run; only
    // replace the sentinel.
    let _ = MODE.compare_exchange(MODE_UNINIT, m as u8, Ordering::Relaxed, Ordering::Relaxed);
    MODE.load(Ordering::Relaxed)
}

/// The current mode. First call resolves `STOD_OBS`; afterwards this is
/// one relaxed atomic load.
#[inline]
pub fn mode() -> ObsMode {
    let m = MODE.load(Ordering::Relaxed);
    if m == MODE_UNINIT {
        return ObsMode::from_u8(init_mode_from_env());
    }
    ObsMode::from_u8(m)
}

/// Whether any recording is armed. One relaxed atomic load when warm.
#[inline]
pub fn armed() -> bool {
    mode() != ObsMode::Off
}

/// Whether per-event tracing is armed.
#[inline]
pub fn tracing() -> bool {
    mode() == ObsMode::Trace
}

/// Overrides the mode for the rest of the process (or until the next
/// override). Used by the bench probe; tests should prefer the scoped
/// [`with_mode`].
pub fn force_mode(m: ObsMode) {
    MODE.store(m as u8, Ordering::Relaxed);
}

thread_local! {
    /// Nesting depth of [`with_mode`] on this thread; only the outermost
    /// call takes the global lock, so nested overrides don't deadlock.
    static MODE_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Runs `f` with the mode forced to `m`, restoring the previous mode
/// afterwards (even on panic). Outermost callers serialize on a global
/// lock, so concurrent mode-sensitive tests cannot observe each other's
/// windows; nested calls on the same thread just stack.
pub fn with_mode<R>(m: ObsMode, f: impl FnOnce() -> R) -> R {
    let depth = MODE_DEPTH.with(std::cell::Cell::get);
    let _lock = (depth == 0).then(|| sync::lock(&MODE_LOCK));
    MODE_DEPTH.with(|c| c.set(depth + 1));
    let prev = mode();
    struct Restore {
        prev: ObsMode,
        depth: usize,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            force_mode(self.prev);
            MODE_DEPTH.with(|c| c.set(self.depth));
        }
    }
    let _restore = Restore { prev, depth };
    force_mode(m);
    f()
}

/// Opens a scoped span: `let _s = stod_obs::span!("train/epoch");`.
///
/// The span records its wall time (monotonic clock) from the macro to
/// the end of the guard's scope, nested under any span already open on
/// this thread. Disarmed cost: one relaxed atomic load.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!(ObsMode::parse("off"), Ok(ObsMode::Off));
        assert_eq!(ObsMode::parse("on"), Ok(ObsMode::On));
        assert_eq!(ObsMode::parse("trace"), Ok(ObsMode::Trace));
        for bad in ["ON", "Trace", "1", ""] {
            let err = ObsMode::parse(bad).unwrap_err();
            assert!(err.contains("STOD_OBS") && err.contains(bad), "{err}");
        }
    }

    // Both tests read the mode inside an outer `with_mode` window: the
    // window holds the mode lock, so another test's window cannot change
    // the mode between the reads and the final assertion.

    #[test]
    fn with_mode_scopes_and_restores() {
        with_mode(ObsMode::Off, || {
            let before = mode();
            with_mode(ObsMode::Trace, || {
                assert_eq!(mode(), ObsMode::Trace);
                assert!(armed() && tracing());
                with_mode(ObsMode::On, || {
                    assert_eq!(mode(), ObsMode::On);
                    assert!(armed() && !tracing());
                });
                assert_eq!(mode(), ObsMode::Trace);
            });
            assert_eq!(mode(), before);
        });
    }

    #[test]
    fn with_mode_restores_on_panic() {
        with_mode(ObsMode::Off, || {
            let before = mode();
            let r = std::panic::catch_unwind(|| {
                with_mode(ObsMode::On, || panic!("intentional"));
            });
            assert!(r.is_err());
            assert_eq!(mode(), before);
        });
    }
}
