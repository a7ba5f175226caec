//! The process-global registry behind every probe, and the merged,
//! versioned [`ObsSnapshot`] it freezes into.
//!
//! Each recording thread owns a [`ThreadBuf`] — span aggregates, counters,
//! value histograms and (in trace mode) a bounded event ring — registered
//! in a global list the first time the thread records anything. Probes
//! only ever touch their own buffer, so the hot path takes one
//! uncontended lock at worst; [`snapshot`] walks the list **in
//! thread-registration order** and merges with order-insensitive integer
//! folds (sums, mins, maxes), so the result is stable regardless of
//! scheduling. Gauges are process-global by nature (a queue has one
//! depth) and live in a single keyed map instead.

use crate::metrics::{GaugeAgg, Hist, HistogramSnap};
use crate::sync::lock;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Version stamped into every exported snapshot; bump on any change to
/// the snapshot structure or its JSON rendering.
pub const OBS_SCHEMA_VERSION: u32 = 1;

/// Trace-mode events kept per thread before the oldest are dropped.
pub(crate) const TRACE_RING_CAP: usize = 8192;

/// Aggregate of one span path on one thread.
#[derive(Debug, Clone)]
pub(crate) struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

impl SpanAgg {
    pub(crate) fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }
}

impl Default for SpanAgg {
    fn default() -> Self {
        SpanAgg {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

/// One trace-mode span event.
#[derive(Debug, Clone)]
pub(crate) struct TraceEvent {
    pub path: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// All recording state owned by one thread.
#[derive(Default)]
pub(crate) struct ThreadBuf {
    pub spans: HashMap<String, SpanAgg>,
    pub counters: HashMap<&'static str, u64>,
    pub hists: HashMap<&'static str, Hist>,
    pub events: VecDeque<TraceEvent>,
    pub dropped_events: u64,
}

impl ThreadBuf {
    pub(crate) fn push_event(&mut self, ev: TraceEvent) {
        if self.events.len() >= TRACE_RING_CAP {
            self.events.pop_front();
            self.dropped_events += 1;
        }
        self.events.push_back(ev);
    }

    fn clear(&mut self) {
        self.spans.clear();
        self.counters.clear();
        self.hists.clear();
        self.events.clear();
        self.dropped_events = 0;
    }
}

/// Registered thread buffers, in registration order.
fn registry() -> &'static Mutex<Vec<Arc<Mutex<ThreadBuf>>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Mutex<ThreadBuf>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Process-global gauges (`name → last/min/max/updates`).
pub(crate) fn gauges() -> &'static Mutex<BTreeMap<&'static str, GaugeAgg>> {
    static GAUGES: OnceLock<Mutex<BTreeMap<&'static str, GaugeAgg>>> = OnceLock::new();
    GAUGES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

thread_local! {
    static LOCAL: std::cell::OnceCell<Arc<Mutex<ThreadBuf>>> =
        const { std::cell::OnceCell::new() };
}

/// Runs `f` against this thread's buffer, registering it on first use.
pub(crate) fn with_buf<R>(f: impl FnOnce(&mut ThreadBuf) -> R) -> R {
    LOCAL.with(|cell| {
        let arc = cell.get_or_init(|| {
            let arc = Arc::new(Mutex::new(ThreadBuf::default()));
            lock(registry()).push(Arc::clone(&arc));
            arc
        });
        f(&mut lock(arc))
    })
}

/// Monotonic process epoch used for trace-event start offsets.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One span path's merged aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnap {
    /// Slash-joined nesting path (see the naming scheme in the crate docs).
    pub path: String,
    /// Times a span with this path closed.
    pub count: u64,
    /// Summed wall time across those closings, in nanoseconds.
    pub total_ns: u64,
    /// Shortest single closing.
    pub min_ns: u64,
    /// Longest single closing.
    pub max_ns: u64,
}

impl SpanSnap {
    /// Mean wall time per closing, in nanoseconds.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns / self.count.max(1)
    }
}

/// One counter's merged value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnap {
    /// Flat metric name.
    pub name: String,
    /// Sum of every [`crate::count`] across all threads.
    pub value: u64,
}

/// One gauge's value and extremes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnap {
    /// Flat metric name.
    pub name: String,
    /// Last value written.
    pub value: i64,
    /// Lowest value ever written.
    pub min: i64,
    /// Highest value ever written.
    pub max: i64,
    /// Number of writes.
    pub updates: u64,
}

/// One trace-mode event, ordered by start time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEventSnap {
    /// Span path of the event.
    pub path: String,
    /// Registration index of the recording thread.
    pub thread: usize,
    /// Start offset from the process epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration, in nanoseconds.
    pub dur_ns: u64,
}

/// A frozen, merged copy of everything the observability layer recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// Export format version ([`OBS_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Mode at snapshot time (`off`, `on` or `trace`).
    pub mode: String,
    /// Span aggregates, sorted by path.
    pub spans: Vec<SpanSnap>,
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnap>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeSnap>,
    /// Value histograms with percentile estimates, sorted by name.
    pub histograms: Vec<HistogramSnap>,
    /// Trace-mode events dropped because a per-thread ring overflowed.
    pub dropped_trace_events: u64,
    /// Trace-mode events, sorted by start offset (empty below `trace`).
    pub trace: Vec<TraceEventSnap>,
}

impl ObsSnapshot {
    /// Looks up a span aggregate by exact path.
    pub fn span(&self, path: &str) -> Option<&SpanSnap> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// A counter's merged value (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// A gauge's last-written value (`None` when never set).
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnap> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The span tree as `(path, count)` pairs — the run-to-run-stable
    /// shape `tests/obs_gate.rs` compares across thread counts, with
    /// timings stripped.
    pub fn span_tree(&self) -> Vec<(String, u64)> {
        self.spans
            .iter()
            .map(|s| (s.path.clone(), s.count))
            .collect()
    }
}

/// Freezes every thread's recordings into one merged [`ObsSnapshot`].
///
/// Thread buffers are visited in registration order; every fold is an
/// order-insensitive integer sum/min/max, so the merged result does not
/// depend on scheduling. Threads that are mid-span contribute what they
/// have closed so far.
pub fn snapshot() -> ObsSnapshot {
    let mut spans: BTreeMap<String, SpanAgg> = BTreeMap::new();
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut hists: BTreeMap<&'static str, Hist> = BTreeMap::new();
    let mut trace: Vec<TraceEventSnap> = Vec::new();
    let mut dropped = 0u64;

    let bufs: Vec<Arc<Mutex<ThreadBuf>>> = lock(registry()).clone();
    for (thread, arc) in bufs.iter().enumerate() {
        let buf = lock(arc);
        for (path, agg) in &buf.spans {
            let slot = spans.entry(path.clone()).or_default();
            slot.count += agg.count;
            slot.total_ns += agg.total_ns;
            slot.min_ns = slot.min_ns.min(agg.min_ns);
            slot.max_ns = slot.max_ns.max(agg.max_ns);
        }
        for (&name, &v) in &buf.counters {
            *counters.entry(name).or_default() += v;
        }
        for (&name, h) in &buf.hists {
            hists.entry(name).or_default().merge(h);
        }
        dropped += buf.dropped_events;
        trace.extend(buf.events.iter().map(|ev| TraceEventSnap {
            path: ev.path.clone(),
            thread,
            start_ns: ev.start_ns,
            dur_ns: ev.dur_ns,
        }));
    }
    trace.sort_by_key(|e| (e.start_ns, e.thread));

    ObsSnapshot {
        schema: OBS_SCHEMA_VERSION,
        mode: crate::mode().name().to_string(),
        spans: spans
            .into_iter()
            .map(|(path, a)| SpanSnap {
                path,
                count: a.count,
                total_ns: a.total_ns,
                min_ns: if a.count == 0 { 0 } else { a.min_ns },
                max_ns: a.max_ns,
            })
            .collect(),
        counters: counters
            .into_iter()
            .map(|(name, value)| CounterSnap {
                name: name.to_string(),
                value,
            })
            .collect(),
        gauges: lock(gauges())
            .iter()
            .map(|(&name, g)| GaugeSnap {
                name: name.to_string(),
                value: g.value,
                min: g.min,
                max: g.max,
                updates: g.updates,
            })
            .collect(),
        histograms: hists.into_iter().map(|(name, h)| h.snap(name)).collect(),
        dropped_trace_events: dropped,
        trace,
    }
}

/// Clears every registered thread buffer and all gauges.
///
/// Benches call this between phases so each exported snapshot covers one
/// workload. Recording threads keep their registration (and ordering).
pub fn reset() {
    let bufs: Vec<Arc<Mutex<ThreadBuf>>> = lock(registry()).clone();
    for arc in bufs {
        lock(&arc).clear();
    }
    lock(gauges()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsMode;

    #[test]
    fn snapshot_merges_threads_in_registration_order() {
        crate::with_mode(ObsMode::On, || {
            reset();
            crate::count("snap/t_main", 2);
            std::thread::spawn(|| {
                let _s = crate::span!("snap/worker");
                crate::count("snap/t_main", 3);
            })
            .join()
            .unwrap();
            let snap = snapshot();
            assert_eq!(snap.counter("snap/t_main"), 5);
            let s = snap.span("snap/worker").expect("worker span merged");
            assert_eq!(s.count, 1);
            assert!(s.min_ns <= s.max_ns && s.total_ns >= s.max_ns);
        });
    }

    #[test]
    fn reset_clears_everything() {
        crate::with_mode(ObsMode::On, || {
            crate::count("snap/reset_me", 1);
            crate::gauge_set("snap/reset_gauge", 9);
            {
                let _s = crate::span!("snap/reset_span");
            }
            reset();
            let snap = snapshot();
            assert_eq!(snap.counter("snap/reset_me"), 0);
            assert!(snap.span("snap/reset_span").is_none());
            assert!(snap.gauges.iter().all(|g| g.name != "snap/reset_gauge"));
        });
    }

    #[test]
    fn snapshot_output_is_sorted() {
        crate::with_mode(ObsMode::On, || {
            reset();
            crate::count("snap/z", 1);
            crate::count("snap/a", 1);
            {
                let _s = crate::span!("snap/zz");
            }
            {
                let _s = crate::span!("snap/aa");
            }
            let snap = snapshot();
            let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
            let mut sorted = names.clone();
            sorted.sort();
            assert_eq!(names, sorted);
            let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
            let mut sorted = paths.clone();
            sorted.sort();
            assert_eq!(paths, sorted);
        });
    }

    #[test]
    fn trace_ring_is_bounded() {
        crate::with_mode(ObsMode::Trace, || {
            reset();
            for _ in 0..(TRACE_RING_CAP + 10) {
                let _s = crate::span!("snap/ring");
            }
            let snap = snapshot();
            assert_eq!(snap.trace.len(), TRACE_RING_CAP);
            assert_eq!(snap.dropped_trace_events, 10);
            assert_eq!(
                snap.span("snap/ring").unwrap().count,
                (TRACE_RING_CAP + 10) as u64
            );
            // Events come out ordered by start offset.
            assert!(snap
                .trace
                .windows(2)
                .all(|w| w[0].start_ns <= w[1].start_ns));
        });
    }

    #[test]
    fn span_tree_strips_timings() {
        crate::with_mode(ObsMode::On, || {
            reset();
            {
                let _a = crate::span!("snap/tree");
                let _b = crate::span!("snap/leaf");
            }
            let tree = snapshot().span_tree();
            assert!(tree.contains(&("snap/tree".to_string(), 1)));
            assert!(tree.contains(&("snap/tree/snap/leaf".to_string(), 1)));
        });
    }
}
