//! The always-on online corrector: a per-pair scalar Kalman filter over
//! speed histograms.
//!
//! The corrector is the adaptation pipeline's cheap baseline and sanity
//! bar. It starts from the fitted [`NaiveHistograms`] prior and, as each
//! sealed interval streams in, blends the pair's observed histogram into
//! its running estimate with a Kalman gain — convex per bucket, so every
//! estimate stays a valid probability simplex by construction. Under
//! stationary traffic it hovers near the NH prior; under drift it tracks
//! the new regime within a handful of intervals at essentially zero cost.
//! A fine-tuned candidate that cannot beat *this* on the shadow slice is
//! not worth a hot-swap — that comparison is half of the promotion rule
//! (see [`stod_metrics::ShadowReport`]).
//!
//! Updates are keyed by absolute interval index and strictly monotonic:
//! re-feeding an already-consumed interval is a no-op, which is what makes
//! a crashed-and-retried adaptation cycle observe each interval exactly
//! once and keeps the corrector state a pure function of the ingest
//! stream.

use stod_baselines::{HistogramPredictor, NaiveHistograms};
use stod_traffic::{OdDataset, OdTensor, Window};

/// Per-pair Kalman-filtered histogram estimates over a live interval
/// stream.
#[derive(Clone)]
pub struct OnlineCorrector {
    n: usize,
    k: usize,
    q: f64,
    r: f64,
    /// Running estimate per pair; `None` until first blended (the NH
    /// prior answers until then).
    est: Vec<Option<Vec<f64>>>,
    /// Estimate variance `P` per pair.
    var: Vec<f64>,
    prior: NaiveHistograms,
    /// First interval index not yet consumed.
    next_interval: usize,
    /// Pair-observations blended in so far.
    updates: u64,
}

impl OnlineCorrector {
    /// A corrector over `n × n` pairs with `k` buckets, starting from the
    /// fitted NH prior with Kalman parameters `(q, r, p0)` — process
    /// noise, observation noise, initial variance.
    pub fn new(prior: NaiveHistograms, n: usize, k: usize, q: f64, r: f64, p0: f64) -> Self {
        assert!(q >= 0.0 && r > 0.0 && p0 >= 0.0, "gains must be sane");
        OnlineCorrector {
            n,
            k,
            q,
            r,
            est: vec![None; n * n],
            var: vec![p0; n * n],
            prior,
            next_interval: 0,
            updates: 0,
        }
    }

    /// Consumes one sealed interval, keyed by its absolute index. Returns
    /// `false` (and changes nothing) when `t_abs` was already consumed —
    /// the idempotence that makes retried cycles deterministic. Intervals
    /// may be sparse (gaps advance the clock without observations).
    pub fn observe_interval(&mut self, t_abs: usize, tensor: &OdTensor) -> bool {
        if t_abs < self.next_interval {
            return false;
        }
        // Process noise accrues once per consumed interval: estimates not
        // refreshed for a while become cheap to overwrite.
        let elapsed = (t_abs + 1 - self.next_interval) as f64;
        self.next_interval = t_abs + 1;
        for p in &mut self.var {
            *p += self.q * elapsed;
        }
        for o in 0..self.n {
            for d in 0..self.n {
                let Some(observed) = tensor.histogram(o, d) else {
                    continue;
                };
                let idx = o * self.n + d;
                let gain = self.var[idx] / (self.var[idx] + self.r);
                let prior = &self.prior;
                let est = self.est[idx].get_or_insert_with(|| {
                    prior
                        .pair_histogram(o, d)
                        .iter()
                        .map(|&x| x as f64)
                        .collect()
                });
                for (e, &z) in est.iter_mut().zip(observed.iter()) {
                    *e += gain * (z as f64 - *e);
                }
                self.var[idx] *= 1.0 - gain;
                self.updates += 1;
            }
        }
        true
    }

    /// The corrected histogram for a pair (`K` buckets, sums to 1): the
    /// Kalman estimate when the pair has been observed, the NH prior
    /// otherwise.
    pub fn predict(&self, o: usize, d: usize) -> Vec<f32> {
        match &self.est[o * self.n + d] {
            Some(e) => e.iter().map(|&x| x as f32).collect(),
            None => self.prior.pair_histogram(o, d).to_vec(),
        }
    }

    /// Number of buckets `K`.
    pub fn num_buckets(&self) -> usize {
        self.k
    }

    /// First interval index not yet consumed.
    pub fn next_interval(&self) -> usize {
        self.next_interval
    }

    /// Pair-observations blended in so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }
}

/// The shadow eval scores the corrector with
/// `stod_baselines::evaluate_predictor`: every step of every window gets
/// the pair's current estimate.
impl HistogramPredictor for OnlineCorrector {
    fn name(&self) -> &str {
        "corrector"
    }

    fn predict(&self, _: &OdDataset, o: usize, d: usize, _: &Window, _: usize) -> Vec<f32> {
        OnlineCorrector::predict(self, o, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stod_traffic::{CityModel, HistogramSpec, OdDataset, SimConfig, Trip};

    fn spec() -> HistogramSpec {
        HistogramSpec {
            num_buckets: 5,
            bucket_width: 3.0,
        }
    }

    fn prior(n: usize) -> NaiveHistograms {
        let cfg = SimConfig {
            num_days: 1,
            intervals_per_day: 8,
            trips_per_interval: 60.0,
            ..SimConfig::small(7)
        };
        let ds = OdDataset::generate(CityModel::small(n), &cfg);
        NaiveHistograms::fit(&ds, ds.tensors.len())
    }

    /// An interval where pair (0, 1) is observed at a constant speed.
    fn interval_at(n: usize, speed_ms: f64) -> OdTensor {
        let trips: Vec<Trip> = (0..12)
            .map(|_| Trip {
                origin: 0,
                dest: 1,
                interval: 0,
                distance_km: 2.0,
                speed_ms,
            })
            .collect();
        OdTensor::from_trips(n, &spec(), &trips)
    }

    #[test]
    fn converges_to_a_shifted_regime() {
        let n = 5;
        let mut c = OnlineCorrector::new(prior(n), n, 5, 0.005, 0.35, 0.25);
        // All mass lands in bucket 4 (speed 13 m/s, width 3).
        let shifted = interval_at(n, 13.0);
        let before = c.predict(0, 1)[4];
        for t in 0..30 {
            assert!(c.observe_interval(t, &shifted));
        }
        let after = c.predict(0, 1)[4];
        assert!(
            after > 0.9 && after > before + 0.3,
            "corrector must track the new regime: bucket-4 mass {before:.3} → {after:.3}"
        );
        // Unobserved pairs still answer the NH prior.
        assert_eq!(c.predict(2, 3), c.prior.pair_histogram(2, 3).to_vec());
    }

    #[test]
    fn estimates_stay_on_the_simplex() {
        let n = 5;
        let mut c = OnlineCorrector::new(prior(n), n, 5, 0.01, 0.2, 0.5);
        for t in 0..10 {
            c.observe_interval(t, &interval_at(n, 4.0 + t as f64));
        }
        let h = c.predict(0, 1);
        let sum: f32 = h.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "sums to {sum}");
        assert!(h.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn replayed_intervals_are_ignored() {
        let n = 5;
        let mut c = OnlineCorrector::new(prior(n), n, 5, 0.005, 0.35, 0.25);
        let interval = interval_at(n, 13.0);
        assert!(c.observe_interval(0, &interval));
        assert!(c.observe_interval(1, &interval));
        let frozen = c.predict(0, 1);
        let updates = c.updates();
        // A crashed-and-retried cycle re-feeds the same snapshot.
        assert!(!c.observe_interval(0, &interval));
        assert!(!c.observe_interval(1, &interval));
        assert_eq!(c.predict(0, 1), frozen);
        assert_eq!(c.updates(), updates);
        assert_eq!(c.next_interval(), 2);
    }

    #[test]
    fn identical_feeds_give_bitwise_identical_predictions() {
        let n = 5;
        let feed: Vec<OdTensor> = (0..8).map(|t| interval_at(n, 5.0 + t as f64)).collect();
        let mut a = OnlineCorrector::new(prior(n), n, 5, 0.005, 0.35, 0.25);
        let mut b = OnlineCorrector::new(prior(n), n, 5, 0.005, 0.35, 0.25);
        for (t, iv) in feed.iter().enumerate() {
            a.observe_interval(t, iv);
            b.observe_interval(t, iv);
        }
        for o in 0..n {
            for d in 0..n {
                assert_eq!(a.predict(o, d), b.predict(o, d), "pair ({o},{d})");
            }
        }
    }

    #[test]
    fn interval_gaps_advance_the_clock() {
        let n = 5;
        let mut c = OnlineCorrector::new(prior(n), n, 5, 0.005, 0.35, 0.25);
        c.observe_interval(0, &interval_at(n, 13.0));
        // Jump ahead; earlier indices are now stale.
        assert!(c.observe_interval(7, &interval_at(n, 13.0)));
        assert!(!c.observe_interval(3, &interval_at(n, 13.0)));
        assert_eq!(c.next_interval(), 8);
    }
}
