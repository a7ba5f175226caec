//! Per-shard circuit breaker: closed → open → half-open.
//!
//! A shard whose workers keep panicking, whose checkpoints keep being
//! rejected, or whose forecasts keep missing their deadlines is not going
//! to get better by being hammered with more requests — every admitted
//! request burns a worker slot to produce a fallback anyway. The breaker
//! formalizes "stop asking for a while":
//!
//! ```text
//!                 failure × threshold
//!       Closed ────────────────────────▶ Open(attempt)
//!         ▲                                   │ backoff(attempt) elapsed
//!         │ probe succeeds                    ▼
//!         └────────────────────────────── HalfOpen ──▶ Open(attempt+1)
//!                                              probe fails
//! ```
//!
//! * **Closed** — requests flow normally; `threshold` *consecutive*
//!   failures trip the breaker (any success resets the count).
//! * **Open** — requests are rejected instantly (the router answers them
//!   in degraded mode from the NH baseline). After the backoff expires,
//!   the next request becomes a *probe*.
//! * **HalfOpen** — exactly one probe is in flight; everyone else is
//!   still rejected. The probe's success closes the breaker; its failure
//!   reopens it with a doubled (capped) backoff.
//!
//! Backoffs are **deterministic and seeded**: attempt `k` waits
//! `base · 2^min(k−1, 6)` plus a seeded pseudo-random jitter in
//! `[0, base)` — the usual thundering-herd spreading, but reproducible,
//! so the chaos gate can assert the exact trip/probe/close schedule of a
//! seeded run instead of sleeping and hoping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use stod_obs::json::{self, ToJson};
use stod_obs::sync::lock;

/// Breaker tuning, one per shard ([`crate::ShardConfig::breaker`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip a closed breaker.
    pub threshold: u32,
    /// Base backoff; attempt `k` waits `base · 2^min(k−1, 6)` + jitter.
    pub backoff: Duration,
    /// Seed of the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            threshold: 5,
            backoff: Duration::from_millis(100),
            seed: 0x0B4E_A4E4,
        }
    }
}

/// The observable breaker state (gauge value in parentheses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally (0).
    Closed,
    /// Requests are rejected; the shard serves degraded (1).
    Open,
    /// One probe is in flight; everyone else is rejected (2).
    HalfOpen,
}

impl BreakerState {
    /// The state's name, as exported in health JSON.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    fn gauge(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

/// What [`CircuitBreaker::admit`] decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: dispatch normally.
    Admit,
    /// Breaker just went half-open and this request is the probe:
    /// dispatch it, and *report its outcome* via `record_success` /
    /// `record_failure` — the breaker's fate rides on it.
    Probe,
    /// Breaker open (or a probe is already in flight): do not dispatch;
    /// answer degraded.
    Reject,
}

enum StateInner {
    Closed { failures: u32 },
    Open { until: Instant, attempt: u32 },
    HalfOpen { attempt: u32 },
}

/// A frozen view of one breaker, for `Fleet::health()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerSnapshot {
    /// Current state.
    pub state: BreakerState,
    /// Consecutive failures while closed (0 in other states).
    pub consecutive_failures: u32,
    /// Times the breaker tripped open (including reopens after a failed
    /// probe and forced trips from a shard crash).
    pub trips: u64,
    /// Half-open probes dispatched.
    pub probes: u64,
    /// Requests rejected while open/half-open.
    pub rejects: u64,
}

impl ToJson for BreakerSnapshot {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("state", &self.state.name());
            o.field("consecutive_failures", &self.consecutive_failures);
            o.field("trips", &self.trips);
            o.field("probes", &self.probes);
            o.field("rejects", &self.rejects);
        });
    }
}

/// splitmix64 — the jitter generator. Deterministic in `(seed, attempt)`.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A per-shard circuit breaker. All methods take `&self` and are safe to
/// call from any request thread; transitions serialize on an internal
/// mutex held for nanoseconds.
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Mutex<StateInner>,
    /// Interned obs gauge path (`fleet/shard{i}/breaker_state`), mirrored
    /// on every transition when observability is armed.
    gauge_path: Option<&'static str>,
    trips: AtomicU64,
    probes: AtomicU64,
    rejects: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with no obs gauge.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker::with_gauge(cfg, None)
    }

    /// A closed breaker whose state mirrors into the interned obs gauge
    /// `path` (0 = closed, 1 = open, 2 = half-open) on every transition.
    pub fn with_gauge(cfg: BreakerConfig, path: Option<&'static str>) -> CircuitBreaker {
        assert!(cfg.threshold >= 1, "breaker threshold must be ≥ 1");
        CircuitBreaker {
            cfg,
            inner: Mutex::new(StateInner::Closed { failures: 0 }),
            gauge_path: path,
            trips: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
        }
    }

    /// The configuration this breaker runs with.
    pub fn config(&self) -> BreakerConfig {
        self.cfg
    }

    /// The deterministic backoff before probe attempt `attempt` (1-based):
    /// `base · 2^min(attempt−1, 6)` plus a seeded jitter in `[0, base)`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let base = self.cfg.backoff.as_millis().max(1) as u64;
        let exp = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(6));
        let jitter = mix64(self.cfg.seed ^ u64::from(attempt)) % base;
        Duration::from_millis(exp.saturating_add(jitter))
    }

    fn set_gauge(&self, state: BreakerState) {
        if let Some(path) = self.gauge_path {
            if stod_obs::armed() {
                stod_obs::gauge_set(path, state.gauge());
            }
        }
    }

    /// Admission decision for one incoming request. See [`Admission`].
    pub fn admit(&self) -> Admission {
        let mut inner = lock(&self.inner);
        match *inner {
            StateInner::Closed { .. } => Admission::Admit,
            StateInner::Open { until, attempt } => {
                if Instant::now() >= until {
                    *inner = StateInner::HalfOpen { attempt };
                    self.probes.fetch_add(1, Ordering::Relaxed);
                    self.set_gauge(BreakerState::HalfOpen);
                    Admission::Probe
                } else {
                    self.rejects.fetch_add(1, Ordering::Relaxed);
                    Admission::Reject
                }
            }
            StateInner::HalfOpen { .. } => {
                self.rejects.fetch_add(1, Ordering::Relaxed);
                Admission::Reject
            }
        }
    }

    /// Reports a successful dispatch. Closes a half-open breaker, resets
    /// the failure streak of a closed one, and is ignored while open
    /// (a stale success from before the trip must not close the breaker).
    pub fn record_success(&self) {
        let mut inner = lock(&self.inner);
        match *inner {
            StateInner::Closed { ref mut failures } => *failures = 0,
            StateInner::HalfOpen { .. } => {
                *inner = StateInner::Closed { failures: 0 };
                self.set_gauge(BreakerState::Closed);
            }
            StateInner::Open { .. } => {}
        }
    }

    /// Reports a failed dispatch. The `threshold`-th consecutive failure
    /// trips a closed breaker; a half-open probe's failure reopens with
    /// the next (doubled, capped) backoff; ignored while open.
    pub fn record_failure(&self) {
        let mut inner = lock(&self.inner);
        match *inner {
            StateInner::Closed { ref mut failures } => {
                *failures += 1;
                if *failures >= self.cfg.threshold {
                    *inner = StateInner::Open {
                        until: Instant::now() + self.backoff_for(1),
                        attempt: 1,
                    };
                    self.trips.fetch_add(1, Ordering::Relaxed);
                    self.set_gauge(BreakerState::Open);
                }
            }
            StateInner::HalfOpen { attempt } => {
                let next = attempt.saturating_add(1);
                *inner = StateInner::Open {
                    until: Instant::now() + self.backoff_for(next),
                    attempt: next,
                };
                self.trips.fetch_add(1, Ordering::Relaxed);
                self.set_gauge(BreakerState::Open);
            }
            StateInner::Open { .. } => {}
        }
    }

    /// Force-opens the breaker immediately, whatever its state — the
    /// shard-crash injection path. The first probe is scheduled after the
    /// attempt-1 backoff.
    pub fn trip_now(&self) {
        let mut inner = lock(&self.inner);
        *inner = StateInner::Open {
            until: Instant::now() + self.backoff_for(1),
            attempt: 1,
        };
        self.trips.fetch_add(1, Ordering::Relaxed);
        self.set_gauge(BreakerState::Open);
    }

    /// Current state (transition-free read; an expired open stays `Open`
    /// until a request's `admit` promotes it to half-open).
    pub fn state(&self) -> BreakerState {
        match *lock(&self.inner) {
            StateInner::Closed { .. } => BreakerState::Closed,
            StateInner::Open { .. } => BreakerState::Open,
            StateInner::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// A frozen view for `Fleet::health()`.
    pub fn snapshot(&self) -> BreakerSnapshot {
        let inner = lock(&self.inner);
        let (state, consecutive_failures) = match *inner {
            StateInner::Closed { failures } => (BreakerState::Closed, failures),
            StateInner::Open { .. } => (BreakerState::Open, 0),
            StateInner::HalfOpen { .. } => (BreakerState::HalfOpen, 0),
        };
        BreakerSnapshot {
            state,
            consecutive_failures,
            trips: self.trips.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            rejects: self.rejects.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> BreakerConfig {
        BreakerConfig {
            threshold: 3,
            backoff: Duration::from_millis(5),
            seed: 7,
        }
    }

    #[test]
    fn trips_after_threshold_consecutive_failures_only() {
        let b = CircuitBreaker::new(fast());
        b.record_failure();
        b.record_failure();
        b.record_success(); // streak broken
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(); // third consecutive
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.snapshot().trips, 1);
        assert_eq!(b.admit(), Admission::Reject);
    }

    #[test]
    fn half_open_allows_exactly_one_probe() {
        let b = CircuitBreaker::new(fast());
        b.trip_now();
        assert_eq!(b.admit(), Admission::Reject, "backoff not yet elapsed");
        std::thread::sleep(b.backoff_for(1) + Duration::from_millis(1));
        assert_eq!(b.admit(), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.admit(), Admission::Reject, "second request is no probe");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(), Admission::Admit);
        let snap = b.snapshot();
        assert_eq!(snap.probes, 1);
        assert_eq!(snap.rejects, 2);
    }

    #[test]
    fn failed_probe_reopens_with_longer_backoff() {
        let b = CircuitBreaker::new(fast());
        b.trip_now();
        std::thread::sleep(b.backoff_for(1) + Duration::from_millis(1));
        assert_eq!(b.admit(), Admission::Probe);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.snapshot().trips, 2);
        // Attempt 2's deterministic backoff is strictly longer than 1's
        // exponential part.
        assert!(b.backoff_for(2) >= b.backoff_for(1));
    }

    #[test]
    fn backoff_is_deterministic_seeded_and_capped() {
        let a = CircuitBreaker::new(BreakerConfig { seed: 42, ..fast() });
        let b = CircuitBreaker::new(BreakerConfig { seed: 42, ..fast() });
        let c = CircuitBreaker::new(BreakerConfig { seed: 43, ..fast() });
        for attempt in 1..=10 {
            assert_eq!(a.backoff_for(attempt), b.backoff_for(attempt));
        }
        assert!(
            (1..=10).any(|k| a.backoff_for(k) != c.backoff_for(k)),
            "different seeds must jitter differently somewhere"
        );
        // Exponent caps at 2^6: attempts 7 and beyond share the
        // exponential part, differing only in jitter < base.
        let base = fast().backoff;
        assert!(a.backoff_for(20) < base * 64 + base);
        assert!(a.backoff_for(20) >= base * 64);
    }

    #[test]
    fn success_while_open_is_ignored() {
        let b = CircuitBreaker::new(fast());
        b.trip_now();
        b.record_success(); // stale success from before the trip
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn state_gauge_mirrors_transitions() {
        let path = stod_obs::intern("breaker-test/state");
        let b = CircuitBreaker::with_gauge(fast(), Some(path));
        stod_obs::with_mode(stod_obs::ObsMode::On, || {
            stod_obs::reset();
            b.trip_now();
            assert_eq!(stod_obs::snapshot().gauge(path), Some(1));
            std::thread::sleep(b.backoff_for(1) + Duration::from_millis(1));
            assert_eq!(b.admit(), Admission::Probe);
            assert_eq!(stod_obs::snapshot().gauge(path), Some(2));
            b.record_success();
            assert_eq!(stod_obs::snapshot().gauge(path), Some(0));
        });
    }

    #[test]
    fn snapshot_serializes_state_name() {
        let b = CircuitBreaker::new(fast());
        let js = json::to_string(&b.snapshot());
        assert!(js.contains("\"state\":\"closed\""), "{js}");
        b.trip_now();
        let js = json::to_string(&b.snapshot());
        assert!(js.contains("\"state\":\"open\""), "{js}");
        assert!(js.contains("\"trips\":1"), "{js}");
    }
}
