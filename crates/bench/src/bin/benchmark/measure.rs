//! What one pass of a workload measured, plus the readings every workload
//! shares: process counters from `/proc`, per-layer numbers derived from
//! an observability snapshot, and a bitwise output digest.

use std::collections::BTreeMap;
use std::time::Duration;
use stod_obs::ObsSnapshot;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Everything the benchmark needs from the workload-specific code.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations attempted in the timed phase: optimizer steps for the
    /// training workloads, forecast requests for the serving ones.
    pub attempted: u64,
    /// Attempted operations that failed (a request answered by fallback,
    /// shed or degraded counts as failed).
    pub failed: u64,
    /// Wall time of the timed phase.
    pub wall: Duration,
    /// Process CPU time (user + system) per op over the timed phase.
    pub cpu_ms_per_op: f64,
    /// Optimizer steps the timed phase ran (training only); a traced pass
    /// repeats exactly this many so its losses compare bitwise.
    pub steps: usize,
    pub e2e: Metrics,
    pub layer: Metrics,
    /// FNV-1a over the bits of the pass's deterministic outputs.
    pub digest: u64,
    /// Failed correctness checks; a run with any is incorrect.
    pub errors: Vec<String>,
    /// Diagnostics for the result files (not `BENCHMARK.json` metrics).
    pub details: BTreeMap<String, f64>,
    /// The traced pass's observability snapshot of its timed phase.
    pub snapshot: Option<ObsSnapshot>,
}

impl Pass {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn detail(&mut self, key: &str, value: f64) {
        self.details.insert(key.to_string(), value);
    }
}

/// Process-wide counters from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub minor_faults: u64,
    /// User and system CPU time of every thread, in clock ticks.
    pub utime: u64,
    pub stime: u64,
}

/// `USER_HZ`: the `/proc` clock-tick rate, 100 on every Linux ABI.
const TICKS_PER_S: f64 = 100.0;

impl ProcSample {
    pub fn now() -> ProcSample {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name start at field 3.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<u64> = rest
            .split_whitespace()
            .map(|t| t.parse().unwrap_or(0))
            .collect();
        let get = |field: usize| f.get(field - 3).copied().unwrap_or(0);
        ProcSample {
            minor_faults: get(10),
            utime: get(14),
            stime: get(15),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: ProcSample) -> ProcSample {
        ProcSample {
            minor_faults: self.minor_faults - earlier.minor_faults,
            utime: self.utime - earlier.utime,
            stime: self.stime - earlier.stime,
        }
    }

    /// These counters without `busy` of user CPU time.
    pub fn less_user(self, busy: Duration) -> ProcSample {
        let ticks = (busy.as_secs_f64() * TICKS_PER_S).round() as u64;
        ProcSample {
            utime: self.utime.saturating_sub(ticks),
            ..self
        }
    }

    pub fn cpu_ms(&self) -> f64 {
        (self.utime + self.stime) as f64 * 1e3 / TICKS_PER_S
    }

    pub fn sys_share(&self) -> f64 {
        ratio(self.stime as f64, (self.utime + self.stime) as f64)
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Total nanoseconds and closings of every span whose innermost name is
/// `leaf` (spans nest by path, and pool threads start fresh roots).
pub fn span_total(snap: &ObsSnapshot, leaf: &str) -> (u64, u64) {
    let suffix = format!("/{leaf}");
    snap.spans
        .iter()
        .filter(|s| s.path == leaf || s.path.ends_with(&suffix))
        .fold((0, 0), |(ns, n), s| (ns + s.total_ns, n + s.count))
}

/// Wall time, in ns, during which at least one span whose innermost name
/// is in `leaves` was open on some thread. Needs the trace-mode events.
pub fn covered_ns(snap: &ObsSnapshot, leaves: &[&str]) -> u64 {
    let mut spans: Vec<(u64, u64)> = snap
        .trace
        .iter()
        .filter(|e| {
            leaves
                .iter()
                .any(|l| e.path == *l || e.path.ends_with(&format!("/{l}")))
        })
        .map(|e| (e.start_ns, e.start_ns + e.dur_ns))
        .collect();
    spans.sort_unstable();
    let (mut total, mut reached) = (0, 0);
    for (start, end) in spans {
        if end > reached {
            total += end - start.max(reached);
            reached = end;
        }
    }
    total
}

/// Mean duration in ms of the spans named `leaf`.
pub fn span_mean_ms(snap: &ObsSnapshot, leaf: &str) -> f64 {
    let (ns, n) = span_total(snap, leaf);
    ratio(ns as f64 / 1e6, n as f64)
}

/// Sum of every counter whose name matches `prefix*suffix`.
fn counter_sum(snap: &ObsSnapshot, prefix: &str, suffix: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|c| c.name.starts_with(prefix) && c.name.ends_with(suffix))
        .map(|c| c.value)
        .sum()
}

/// The per-layer metrics every workload derives the same way from the obs
/// snapshot of its timed phase and the process counters over it. Layers a
/// workload does not exercise read 0. `ops` is the workload's unit of work
/// (optimizer steps or requests); shares are thread-seconds per wall
/// second of the timed phase.
pub fn common_layer(snap: &ObsSnapshot, ops: u64, wall: Duration, proc: ProcSample) -> Metrics {
    let wall_ns = wall.as_nanos() as f64;
    let share = |leaves: &[&str]| {
        let ns: u64 = leaves.iter().map(|l| span_total(snap, l).0).sum();
        ratio(ns as f64, wall_ns)
    };
    let per_op = |name: &str| ratio(snap.counter(name) as f64, ops as f64);
    let requests = snap.counter("fleet/requests") as f64;
    let fallbacks = snap
        .histogram("serve/latency/fallback")
        .map_or(0, |h| h.count) as f64;
    let per_s = |name: &str| ratio(snap.counter(name) as f64, wall.as_secs_f64());
    Metrics::from([
        ("core.forward_share", share(&["train/fwd", "serve/job"])),
        ("core.batch_share", 0.0),
        ("core.train_loss", 0.0),
        ("nn.backward_share", share(&["nn/backward"])),
        ("nn.optimizer_share", share(&["train/optimizer"])),
        ("tensor.matmul_calls", per_op("kernel/matmul/calls")),
        ("tensor.matmul_elements", per_op("kernel/matmul/elements")),
        (
            "tensor.batched_matmul_calls",
            per_op("kernel/batched_matmul/calls"),
        ),
        ("tensor.pool_tasks", per_op("pool/tasks")),
        ("tensor.arena_reuse_ratio", 0.0),
        ("proc.cpu_ms_per_op", ratio(proc.cpu_ms(), ops as f64)),
        (
            "proc.minor_faults_per_op",
            ratio(proc.minor_faults as f64, ops as f64),
        ),
        ("proc.sys_cpu_share", proc.sys_share()),
        (
            "serve.invocations_per_request",
            ratio(snap.counter("serve/model_invocations") as f64, requests),
        ),
        (
            "serve.batch_size_mean",
            snap.histogram("serve/batch_size")
                .map_or(0.0, |h| ratio(h.total as f64, h.count as f64)),
        ),
        (
            "serve.queue_depth_max",
            snap.gauges
                .iter()
                .find(|g| g.name == "serve/queue_depth")
                .map_or(0, |g| g.max) as f64,
        ),
        ("serve.fallback_share", ratio(fallbacks, requests)),
        ("serve.write_share", 0.0),
        ("serve.wal_appends_per_s", per_s("wal/appends")),
        ("serve.wal_fsyncs_per_s", per_s("wal/fsyncs")),
        (
            "fleet.result_cache_hit_rate",
            ratio(snap.counter("fleet/result_cache_hits") as f64, requests),
        ),
        ("fleet.cache_invalidations", 0.0),
        (
            "fleet.shed_share",
            ratio(snap.counter("fleet/shed") as f64, requests),
        ),
        (
            "fleet.degraded_share",
            ratio(snap.counter("fleet/degraded") as f64, requests),
        ),
        ("adapt.cycle_share", share(&["adapt/cycle"])),
        (
            "adapt.promotions",
            counter_sum(snap, "adapt/city", "/promotions") as f64,
        ),
        ("harness.late_share", 0.0),
    ])
}

/// Incremental FNV-1a, for bitwise output fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A served histogram is valid when it has `k` finite, non-negative
/// buckets summing to 1 within 1e-4.
pub fn valid_histogram(h: &[f32], k: usize) -> bool {
    h.len() == k
        && h.iter().all(|p| p.is_finite() && *p >= 0.0)
        && (h.iter().map(|&p| f64::from(p)).sum::<f64>() - 1.0).abs() <= 1e-4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_are_read_and_monotonic() {
        let a = ProcSample::now();
        let v: Vec<u8> = vec![1; 1 << 22];
        std::hint::black_box(&v);
        let b = ProcSample::now();
        assert!(
            b.minor_faults > a.minor_faults,
            "touching 4 MiB faults pages"
        );
        assert!(b.utime + b.stime >= a.utime + a.stime);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn coverage_counts_overlapping_spans_once() {
        let event = |path: &str, thread, start_ns, dur_ns| stod_obs::TraceEventSnap {
            path: path.into(),
            thread,
            start_ns,
            dur_ns,
        };
        let snap = ObsSnapshot {
            trace: vec![
                event("a/train/fwd", 0, 0, 10),
                event("train/fwd", 1, 5, 10),
                event("a/train/fwd/nn/inner", 0, 1, 100),
                event("a/train/bwd", 0, 30, 5),
                event("a/train/bwd", 0, 31, 2),
            ],
            ..ObsSnapshot::default()
        };
        // [0, 15) from the two forwards, [30, 35) from the backwards; the
        // nested span is not a training layer span.
        assert_eq!(covered_ns(&snap, &["train/fwd", "train/bwd"]), 20);
        assert_eq!(covered_ns(&snap, &["train/optimizer"]), 0);
    }

    #[test]
    fn histogram_validity() {
        assert!(valid_histogram(&[0.25, 0.25, 0.5], 3));
        assert!(!valid_histogram(&[0.25, 0.25, 0.5], 4));
        assert!(!valid_histogram(&[0.5, 0.6], 2));
        assert!(!valid_histogram(&[1.5, -0.5], 2));
        assert!(!valid_histogram(&[f32::NAN, 1.0], 2));
    }
}
