//! Scoped spans with monotonic timing and lexical (per-thread) nesting.
//!
//! A span opened while another span is open on the same thread nests
//! under it: the recorded path is the slash-join of every open span's
//! name, so `span!("train/epoch")` containing `span!("train/minibatch")`
//! records `train/epoch/train/minibatch`. The path stack is thread-local
//! — spans on a worker thread start a fresh root, which is exactly what
//! the deterministic kernel pool produces run after run (chunk→thread
//! assignment is a pure function of the problem size and thread count).
//!
//! Guards are `!Send`: a span measures one scope on one thread.

use crate::snapshot::{epoch, with_buf, TraceEvent};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::Instant;

thread_local! {
    /// The open-span path of this thread: a single growing string plus
    /// the offsets to truncate back to on each close.
    static PATH: RefCell<PathStack> = const {
        RefCell::new(PathStack {
            buf: String::new(),
            marks: Vec::new(),
        })
    };
}

struct PathStack {
    buf: String,
    marks: Vec<usize>,
}

/// Closes its span on drop, recording wall time under the nested path.
///
/// Construct through [`crate::span!`] (or [`SpanGuard::enter`]).
pub struct SpanGuard {
    armed: Option<Armed>,
    /// Spans measure one scope on one thread.
    _not_send: PhantomData<*const ()>,
}

struct Armed {
    start: Instant,
    /// Offset from the process epoch, captured only in trace mode.
    trace_start_ns: Option<u64>,
}

impl SpanGuard {
    /// Opens a span named `name`. Disarmed cost: one relaxed atomic load
    /// (no clock read, no allocation, no thread-local touch).
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !crate::armed() {
            return SpanGuard {
                armed: None,
                _not_send: PhantomData,
            };
        }
        SpanGuard::enter_armed(name, crate::tracing())
    }

    /// Opens a span that aggregates into the span tree like any other but
    /// records no trace event, even in trace mode. For scopes that run
    /// thousands of times per step (per-node backward closures), whose
    /// events would evict the stage-level ones from the bounded trace
    /// ring. Disarmed cost: one relaxed atomic load.
    #[inline]
    pub fn enter_untraced(name: &'static str) -> SpanGuard {
        if !crate::armed() {
            return SpanGuard {
                armed: None,
                _not_send: PhantomData,
            };
        }
        SpanGuard::enter_armed(name, false)
    }

    #[cold]
    fn enter_armed(name: &'static str, traced: bool) -> SpanGuard {
        PATH.with(|p| {
            let mut p = p.borrow_mut();
            let mark = p.buf.len();
            p.marks.push(mark);
            if !p.buf.is_empty() {
                p.buf.push('/');
            }
            p.buf.push_str(name);
        });
        let trace_start_ns = traced.then(|| epoch().elapsed().as_nanos() as u64);
        SpanGuard {
            armed: Some(Armed {
                start: Instant::now(),
                trace_start_ns,
            }),
            _not_send: PhantomData,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(armed) = self.armed.take() else {
            return;
        };
        let ns = armed.start.elapsed().as_nanos() as u64;
        // An armed guard always closes its path entry, even if the mode
        // changed underneath it — the stack must stay balanced, and a
        // recording that began inside an armed window belongs to it.
        let path = PATH.with(|p| {
            let mut p = p.borrow_mut();
            let path = p.buf.clone();
            if let Some(mark) = p.marks.pop() {
                p.buf.truncate(mark);
            }
            path
        });
        with_buf(|b| {
            b.spans.entry(path.clone()).or_default().record(ns);
            if let Some(start_ns) = armed.trace_start_ns {
                b.push_event(TraceEvent {
                    path,
                    start_ns,
                    dur_ns: ns,
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::{snapshot, ObsMode};

    #[test]
    fn spans_nest_lexically() {
        crate::with_mode(ObsMode::On, || {
            snapshot::reset();
            {
                let _outer = crate::span!("sp/outer");
                {
                    let _inner = crate::span!("sp/inner");
                }
                {
                    let _inner = crate::span!("sp/inner");
                }
            }
            let snap = snapshot::snapshot();
            assert_eq!(snap.span("sp/outer").unwrap().count, 1);
            let inner = snap.span("sp/outer/sp/inner").unwrap();
            assert_eq!(inner.count, 2);
            assert!(snap.span("sp/inner").is_none(), "inner must nest");
        });
    }

    #[test]
    fn sibling_roots_do_not_nest() {
        crate::with_mode(ObsMode::On, || {
            snapshot::reset();
            {
                let _a = crate::span!("sp/a");
            }
            {
                let _b = crate::span!("sp/b");
            }
            let snap = snapshot::snapshot();
            assert_eq!(snap.span("sp/a").unwrap().count, 1);
            assert_eq!(snap.span("sp/b").unwrap().count, 1);
        });
    }

    #[test]
    fn disarmed_spans_record_nothing() {
        crate::with_mode(ObsMode::On, || {
            snapshot::reset();
            crate::with_mode(ObsMode::Off, || {
                let _s = crate::span!("sp/ghost");
            });
            assert!(snapshot::snapshot().span("sp/ghost").is_none());
        });
    }

    #[test]
    fn disarmed_inner_span_keeps_stack_balanced() {
        crate::with_mode(ObsMode::On, || {
            snapshot::reset();
            {
                let _outer = crate::span!("sp/outer2");
                crate::with_mode(ObsMode::Off, || {
                    let _ghost = crate::span!("sp/ghost2");
                });
                {
                    let _inner = crate::span!("sp/inner2");
                }
            }
            let snap = snapshot::snapshot();
            assert!(snap.span("sp/outer2/sp/inner2").is_some());
            assert!(snap.spans.iter().all(|s| !s.path.contains("ghost2")));
        });
    }

    #[test]
    fn untraced_spans_aggregate_without_trace_events() {
        crate::with_mode(ObsMode::Trace, || {
            snapshot::reset();
            {
                let _outer = crate::span!("sp/traced");
                for _ in 0..3 {
                    let _inner = crate::SpanGuard::enter_untraced("sp/quiet");
                }
            }
            let snap = snapshot::snapshot();
            assert_eq!(snap.span("sp/traced/sp/quiet").unwrap().count, 3);
            assert!(snap.trace.iter().any(|e| e.path == "sp/traced"));
            assert!(snap.trace.iter().all(|e| !e.path.contains("sp/quiet")));
        });
    }

    #[test]
    fn timing_is_monotonic_and_summed() {
        crate::with_mode(ObsMode::On, || {
            snapshot::reset();
            for _ in 0..3 {
                let _s = crate::span!("sp/timed");
                std::hint::black_box(0u64);
            }
            let snap = snapshot::snapshot();
            let s = snap.span("sp/timed").unwrap();
            assert_eq!(s.count, 3);
            assert!(s.min_ns <= s.max_ns);
            assert!(s.total_ns >= s.max_ns);
            assert!(s.mean_ns() * 3 <= s.total_ns + 3);
        });
    }
}
