//! End-to-end dataset generation and the sliding-window problem framing
//! `[M^(t−s+1) … M^(t)] → [M^(t+1) … M^(t+h)]` of §III.

use crate::city::CityModel;
use crate::demand::{DemandModel, DemandParams};
use crate::hist::HistogramSpec;
use crate::od_tensor::OdTensor;
use crate::speed::{SpeedField, SpeedParams};
use stod_tensor::rng::Rng64;

/// Simulation configuration for generating a dataset.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of simulated days.
    pub num_days: usize,
    /// Intervals per day (the paper uses 96 fifteen-minute intervals).
    pub intervals_per_day: usize,
    /// Target mean number of trips per interval.
    pub trips_per_interval: f64,
    /// Shut down demand between 00:00 and 06:00 (Chengdu-like).
    pub night_shutdown: bool,
    /// Master random seed.
    pub seed: u64,
    /// Histogram specification.
    pub hist: HistogramSpec,
    /// Latent speed-process parameters.
    pub speed: SpeedParams,
}

impl SimConfig {
    /// A small configuration for tests and quick examples.
    pub fn small(seed: u64) -> SimConfig {
        SimConfig {
            num_days: 8,
            intervals_per_day: 48,
            trips_per_interval: 150.0,
            night_shutdown: false,
            seed,
            hist: HistogramSpec::paper(),
            speed: SpeedParams::default(),
        }
    }

    /// NYC-like experiment scale (used with [`CityModel::nyc_like`]).
    pub fn nyc(seed: u64) -> SimConfig {
        SimConfig {
            num_days: 20,
            intervals_per_day: 96,
            trips_per_interval: 2500.0,
            night_shutdown: false,
            seed,
            hist: HistogramSpec::paper(),
            speed: SpeedParams::default(),
        }
    }

    /// Chengdu-like experiment scale (used with [`CityModel::chengdu_like`]).
    pub fn chengdu(seed: u64) -> SimConfig {
        SimConfig {
            num_days: 20,
            intervals_per_day: 96,
            trips_per_interval: 1300.0,
            night_shutdown: true,
            seed,
            hist: HistogramSpec::paper(),
            speed: SpeedParams::default(),
        }
    }

    /// Total number of intervals.
    pub fn num_intervals(&self) -> usize {
        self.num_days * self.intervals_per_day
    }
}

/// One forecasting sample: `s` historical intervals ending at `t_end`
/// (inclusive) predicting the following `h` intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Index of the last *input* interval `t`.
    pub t_end: usize,
    /// Number of historical intervals `s`.
    pub s: usize,
    /// Forecast horizon `h`.
    pub h: usize,
}

impl Window {
    /// Indices of the input intervals `t−s+1 … t`.
    pub fn input_indices(&self) -> Vec<usize> {
        (self.t_end + 1 - self.s..=self.t_end).collect()
    }

    /// Indices of the target intervals `t+1 … t+h`.
    pub fn target_indices(&self) -> Vec<usize> {
        (self.t_end + 1..=self.t_end + self.h).collect()
    }
}

/// Chronological train/validation/test split of windows.
#[derive(Debug, Clone)]
pub struct Split {
    /// Training windows (earliest).
    pub train: Vec<Window>,
    /// Validation windows.
    pub val: Vec<Window>,
    /// Test windows (latest).
    pub test: Vec<Window>,
}

/// A generated dataset: a city plus one sparse OD tensor per interval.
pub struct OdDataset {
    /// The spatial substrate.
    pub city: CityModel,
    /// Histogram specification shared by all tensors.
    pub spec: HistogramSpec,
    /// Intervals per day.
    pub intervals_per_day: usize,
    /// One sparse OD tensor per interval, chronological.
    pub tensors: Vec<OdTensor>,
}

impl OdDataset {
    /// Simulates a dataset: latent speeds → demand → trips → histograms.
    pub fn generate(city: CityModel, cfg: &SimConfig) -> OdDataset {
        OdDataset::generate_with_trips(city, cfg).0
    }

    /// Like [`OdDataset::generate`], but also returns the simulated trip
    /// records, one `Vec<Trip>` per interval in chronological order.
    ///
    /// The tensors and the trips come from the *same* sampling pass, so
    /// `OdTensor::from_trips(n, &spec, &trips[t])` reproduces `tensors[t]`
    /// bitwise — the property that makes the trip stream a faithful replay
    /// source for the serving fleet's live-ingest path (trips pushed and
    /// sealed through `FeatureStore` yield exactly the offline tensors).
    pub fn generate_with_trips(
        city: CityModel,
        cfg: &SimConfig,
    ) -> (OdDataset, Vec<Vec<crate::trip::Trip>>) {
        let total = cfg.num_intervals();
        let field = SpeedField::simulate(&city, cfg.intervals_per_day, total, cfg.seed, cfg.speed);
        let demand = DemandModel::new(
            &city,
            cfg.intervals_per_day,
            DemandParams {
                trips_per_interval: cfg.trips_per_interval,
                night_shutdown: cfg.night_shutdown,
                ..DemandParams::default()
            },
        );
        // Deterministic parallel sampling: every interval draws from its
        // own RNG stream forked from the master seed, and `par::map`
        // returns the intervals in order, so the result is identical at
        // any thread count.
        let mut master = Rng64::new(cfg.seed ^ 0xDA7A);
        let seeds: Vec<u64> = (0..total)
            .map(|t| master.fork(t as u64).next_u64())
            .collect();
        let n = city.num_regions();
        let (tensors, trips): (Vec<OdTensor>, Vec<Vec<crate::trip::Trip>>) =
            stod_tensor::par::map(total, |t| {
                let mut rng = Rng64::new(seeds[t]);
                let trips = demand.sample_interval(&city, &field, t, &mut rng);
                (OdTensor::from_trips(n, &cfg.hist, &trips), trips)
            })
            .into_iter()
            .unzip();
        (
            OdDataset {
                city,
                spec: cfg.hist,
                intervals_per_day: cfg.intervals_per_day,
                tensors,
            },
            trips,
        )
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.city.num_regions()
    }

    /// Number of intervals.
    pub fn num_intervals(&self) -> usize {
        self.tensors.len()
    }

    /// All valid sliding windows for a given `(s, h)` setting.
    pub fn windows(&self, s: usize, h: usize) -> Vec<Window> {
        assert!(s >= 1 && h >= 1, "need s ≥ 1 and h ≥ 1");
        let total = self.num_intervals();
        if total < s + h {
            return Vec::new();
        }
        (s - 1..total - h)
            .map(|t_end| Window { t_end, s, h })
            .collect()
    }

    /// Chronological split by fractions (e.g. 0.7/0.1/0.2). Windows whose
    /// *targets* leak across a boundary stay in the earlier part, keeping
    /// the test targets strictly unseen during training.
    pub fn split(&self, windows: &[Window], train_frac: f64, val_frac: f64) -> Split {
        assert!(train_frac > 0.0 && val_frac >= 0.0 && train_frac + val_frac < 1.0);
        let total = self.num_intervals();
        let train_end = (total as f64 * train_frac) as usize;
        let val_end = (total as f64 * (train_frac + val_frac)) as usize;
        let mut split = Split {
            train: Vec::new(),
            val: Vec::new(),
            test: Vec::new(),
        };
        for &w in windows {
            let last_target = w.t_end + w.h;
            if last_target < train_end {
                split.train.push(w);
            } else if last_target < val_end {
                split.val.push(w);
            } else {
                split.test.push(w);
            }
        }
        split
    }

    /// Interval-of-day for a global interval index.
    pub fn interval_of_day(&self, t: usize) -> usize {
        t % self.intervals_per_day
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> OdDataset {
        let cfg = SimConfig {
            num_days: 2,
            intervals_per_day: 12,
            trips_per_interval: 60.0,
            ..SimConfig::small(3)
        };
        OdDataset::generate(CityModel::small(6), &cfg)
    }

    #[test]
    fn generation_shapes() {
        let ds = tiny();
        assert_eq!(ds.num_intervals(), 24);
        assert_eq!(ds.num_regions(), 6);
        for t in &ds.tensors {
            assert_eq!(t.data.dims(), &[6, 6, 7]);
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn data_is_sparse_but_nonempty() {
        let ds = tiny();
        let mean_cov: f64 =
            ds.tensors.iter().map(|t| t.coverage()).sum::<f64>() / ds.num_intervals() as f64;
        assert!(mean_cov > 0.02, "no data generated, coverage {mean_cov}");
        assert!(
            mean_cov < 0.95,
            "data unrealistically dense, coverage {mean_cov}"
        );
    }

    #[test]
    fn windows_cover_valid_range() {
        let ds = tiny();
        let ws = ds.windows(3, 2);
        assert_eq!(ws.first().unwrap().t_end, 2);
        assert_eq!(ws.last().unwrap().t_end, 21); // 24 − 2 − 1
        let w = ws[0];
        assert_eq!(w.input_indices(), vec![0, 1, 2]);
        assert_eq!(w.target_indices(), vec![3, 4]);
    }

    #[test]
    fn windows_empty_when_too_short() {
        let ds = tiny();
        assert!(ds.windows(20, 10).is_empty());
    }

    #[test]
    fn split_is_chronological_and_exhaustive() {
        let ds = tiny();
        let ws = ds.windows(3, 1);
        let split = ds.split(&ws, 0.6, 0.2);
        assert_eq!(
            split.train.len() + split.val.len() + split.test.len(),
            ws.len()
        );
        let max_train = split.train.iter().map(|w| w.t_end + w.h).max().unwrap();
        let min_test = split.test.iter().map(|w| w.t_end + w.h).min().unwrap();
        assert!(
            max_train < min_test,
            "train targets must precede test targets"
        );
        assert!(!split.train.is_empty() && !split.test.is_empty());
    }

    #[test]
    fn deterministic_generation() {
        let a = tiny();
        let b = tiny();
        for (x, y) in a.tensors.iter().zip(b.tensors.iter()) {
            assert_eq!(x.data.data(), y.data.data());
        }
    }

    #[test]
    fn generation_is_bitwise_identical_at_one_and_four_threads() {
        let cfg = SimConfig {
            num_days: 2,
            intervals_per_day: 12,
            trips_per_interval: 60.0,
            ..SimConfig::small(5)
        };
        let [(a, a_trips), (b, b_trips)] = [1, 4].map(|threads| {
            stod_tensor::par::with_forced_threads(threads, || {
                OdDataset::generate_with_trips(CityModel::small(6), &cfg)
            })
        });
        let bits =
            |t: &stod_tensor::Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.num_intervals(), b.num_intervals());
        for (x, y) in a.tensors.iter().zip(&b.tensors) {
            assert_eq!(bits(&x.data), bits(&y.data));
            assert_eq!(bits(&x.mask), bits(&y.mask));
        }
        let trip_bits = |trips: &[Vec<crate::trip::Trip>]| -> Vec<_> {
            let fields = |p: &crate::trip::Trip| {
                let (l, v) = (p.distance_km.to_bits(), p.speed_ms.to_bits());
                (p.origin, p.dest, p.interval, l, v)
            };
            trips.iter().flatten().map(fields).collect()
        };
        assert_eq!(a_trips.len(), b_trips.len());
        assert_eq!(trip_bits(&a_trips), trip_bits(&b_trips));
    }

    #[test]
    fn interval_of_day_wraps() {
        let ds = tiny();
        assert_eq!(ds.interval_of_day(13), 1);
    }
}
