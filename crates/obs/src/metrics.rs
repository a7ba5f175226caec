//! Counters, gauges, and fixed-bucket value histograms.
//!
//! * **Counters** are monotonic per-thread sums merged at snapshot time —
//!   the cheapest probe, safe at any frequency.
//! * **Gauges** are process-global last-value-wins cells with min/max
//!   tracking (a queue has exactly one depth); they take a short global
//!   lock, so reserve them for low-frequency signals.
//! * **Histograms** bucket `u64` values (nanoseconds, batch sizes, …)
//!   into fixed power-of-two buckets — bucket `b` covers
//!   `[2^b, 2^{b+1})` — and report p50/p90/p99 as the upper edge of the
//!   bucket holding the quantile's cumulative mass, the same estimator as
//!   `stod_serve`'s latency histogram.
//!
//! Every probe here is disarmed by a single relaxed atomic load when
//! `STOD_OBS=off` (see the crate-level overhead contract).

use crate::snapshot::{gauges, with_buf};
use std::time::Duration;

/// Power-of-two histogram buckets; `[2^63, …)` saturates into the last.
pub(crate) const HIST_BUCKETS: usize = 64;

/// One value histogram's per-thread state; merged bucketwise at snapshot.
#[derive(Debug, Clone)]
pub(crate) struct Hist {
    pub counts: [u64; HIST_BUCKETS],
    pub total: u64,
    pub max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: [0; HIST_BUCKETS],
            total: 0,
            max: 0,
        }
    }
}

/// Bucket index of a value: `floor(log2(v))`, with 0 → bucket 0.
fn bucket_of(v: u64) -> usize {
    (63 - v.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

impl Hist {
    pub(crate) fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += v;
        self.max = self.max.max(v);
    }

    pub(crate) fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Upper edge of the bucket holding the `q`-quantile's mass.
    fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return upper_edge(b);
            }
        }
        u64::MAX
    }

    pub(crate) fn snap(&self, name: &'static str) -> HistogramSnap {
        HistogramSnap {
            name: name.to_string(),
            count: self.count(),
            total: self.total,
            max: self.max,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Upper edge of bucket `b`, saturating at `u64::MAX`.
fn upper_edge(b: usize) -> u64 {
    if b + 1 >= 64 {
        u64::MAX
    } else {
        1u64 << (b + 1)
    }
}

/// A frozen histogram: observation count, sum, max, and quantile
/// estimates (bucket upper edges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnap {
    /// Flat metric name.
    pub name: String,
    /// Number of recorded observations.
    pub count: u64,
    /// Exact sum of all observed values.
    pub total: u64,
    /// Exact maximum observed value.
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistogramSnap {
    /// Exact mean of the observed values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.total / self.count.max(1)
    }
}

/// Gauge state: last value written plus extremes.
#[derive(Debug, Clone)]
pub(crate) struct GaugeAgg {
    pub value: i64,
    pub min: i64,
    pub max: i64,
    pub updates: u64,
}

/// Interns a dynamically-built metric name, returning a `&'static str`
/// usable with every probe in this crate.
///
/// The metric registries key on `&'static str` so the armed fast path
/// never hashes string contents or allocates. Call sites whose names are
/// only known at runtime — the fleet's per-shard counter paths like
/// `fleet/shard3/requests` — intern them **once at construction** and
/// keep the returned reference. Interning takes a global lock and leaks
/// the string on first sight (idempotently: the same name always returns
/// the same reference), so it must stay off hot paths; the set of metric
/// names in a process is small and bounded, which is what makes the leak
/// a cache rather than a leak.
pub fn intern(name: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static INTERNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut set = crate::sync::lock(INTERNED.get_or_init(Default::default));
    match set.get(name) {
        Some(existing) => existing,
        None => {
            let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
            set.insert(leaked);
            leaked
        }
    }
}

/// Adds `n` to the named counter. Disarmed cost: one relaxed load.
#[inline]
pub fn count(name: &'static str, n: u64) {
    if !crate::armed() {
        return;
    }
    with_buf(|b| *b.counters.entry(name).or_default() += n);
}

/// Sets the named gauge to `v`. Disarmed cost: one relaxed load.
#[inline]
pub fn gauge_set(name: &'static str, v: i64) {
    if !crate::armed() {
        return;
    }
    gauge_write(name, |_| v);
}

/// Adds `delta` (may be negative) to the named gauge. Disarmed cost: one
/// relaxed load.
#[inline]
pub fn gauge_add(name: &'static str, delta: i64) {
    if !crate::armed() {
        return;
    }
    gauge_write(name, |old| old.saturating_add(delta));
}

fn gauge_write(name: &'static str, f: impl FnOnce(i64) -> i64) {
    let mut map = crate::sync::lock(gauges());
    let g = map.entry(name).or_insert(GaugeAgg {
        value: 0,
        min: i64::MAX,
        max: i64::MIN,
        updates: 0,
    });
    g.value = f(g.value);
    g.min = g.min.min(g.value);
    g.max = g.max.max(g.value);
    g.updates += 1;
}

/// Records a raw value into the named histogram. Disarmed cost: one
/// relaxed load.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !crate::armed() {
        return;
    }
    with_buf(|b| b.hists.entry(name).or_default().record(value));
}

/// Records a duration in nanoseconds into the named histogram.
#[inline]
pub fn observe_ns(name: &'static str, ns: u64) {
    observe(name, ns);
}

/// Records a [`Duration`] (as nanoseconds) into the named histogram.
#[inline]
pub fn observe_duration(name: &'static str, d: Duration) {
    if !crate::armed() {
        return;
    }
    observe(name, d.as_nanos().min(u128::from(u64::MAX)) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{snapshot, ObsMode};

    #[test]
    fn counters_accumulate_only_when_armed() {
        crate::with_mode(ObsMode::On, || {
            snapshot::reset();
            count("met/armed", 2);
            crate::with_mode(ObsMode::Off, || count("met/armed", 100));
            count("met/armed", 3);
            assert_eq!(snapshot::snapshot().counter("met/armed"), 5);
        });
    }

    #[test]
    fn intern_is_idempotent_and_usable_as_counter_key() {
        let a = intern("met/shard0/requests");
        let b = intern("met/shard0/requests");
        assert!(std::ptr::eq(a, b), "same name must intern to same storage");
        assert_ne!(a, intern("met/shard1/requests"));
        crate::with_mode(ObsMode::On, || {
            snapshot::reset();
            count(a, 2);
            count(b, 3);
            assert_eq!(snapshot::snapshot().counter("met/shard0/requests"), 5);
        });
    }

    #[test]
    fn gauges_track_last_min_max() {
        crate::with_mode(ObsMode::On, || {
            snapshot::reset();
            gauge_set("met/depth", 4);
            gauge_add("met/depth", -6);
            gauge_add("met/depth", 10);
            let snap = snapshot::snapshot();
            let g = snap.gauges.iter().find(|g| g.name == "met/depth").unwrap();
            assert_eq!((g.value, g.min, g.max, g.updates), (8, -2, 8, 3));
        });
    }

    #[test]
    fn histogram_quantiles_match_bucket_edges() {
        crate::with_mode(ObsMode::On, || {
            snapshot::reset();
            for _ in 0..90 {
                observe("met/lat", 100); // bucket 6: [64, 128)
            }
            for _ in 0..10 {
                observe("met/lat", 50_000); // bucket 15: [32768, 65536)
            }
            let snap = snapshot::snapshot();
            let h = snap.histogram("met/lat").unwrap();
            assert_eq!(h.count, 100);
            assert_eq!(h.total, 90 * 100 + 10 * 50_000);
            assert_eq!(h.max, 50_000);
            assert_eq!(h.p50, 128);
            assert_eq!(h.p90, 128);
            assert_eq!(h.p99, 65_536);
        });
    }

    #[test]
    fn histogram_handles_zero_and_huge_values() {
        crate::with_mode(ObsMode::On, || {
            snapshot::reset();
            observe("met/edge", 0);
            observe("met/edge", u64::MAX);
            let h = snapshot::snapshot();
            let h = h.histogram("met/edge").unwrap();
            assert_eq!(h.count, 2);
            assert_eq!(h.max, u64::MAX);
            assert_eq!(h.p99, u64::MAX);
        });
    }

    #[test]
    fn observe_duration_records_nanoseconds() {
        crate::with_mode(ObsMode::On, || {
            snapshot::reset();
            observe_duration("met/dur", Duration::from_micros(3));
            let snap = snapshot::snapshot();
            assert_eq!(snap.histogram("met/dur").unwrap().total, 3_000);
        });
    }
}
