//! Streaming feature store: turns incoming [`Trip`] records into the
//! per-interval sparse OD tensors the models consume, keeps a sliding
//! window of recent intervals, and evicts anything older than the
//! configured lookback.
//!
//! Two ingestion paths exist: `push_trip` + `seal_interval` for live
//! streams (trips accumulate per interval until the interval closes), and
//! `insert_tensor` for replaying already-binned tensors, e.g. out of an
//! [`stod_traffic::OdDataset`].

use std::collections::BTreeMap;
use std::sync::Mutex;
use stod_obs::sync::lock;
use stod_tensor::{stack, Tensor};
use stod_traffic::{HistogramSpec, OdTensor, Trip};

/// Interval index for a trip departing `depart_s` seconds after the stream
/// epoch, with `interval_len_s`-second intervals (900 s = the paper's
/// 15-minute ticks).
///
/// Intervals are start-inclusive, end-exclusive: `[k·len, (k+1)·len)`. A
/// departure landing *exactly* on a tick `k · interval_len_s` therefore
/// belongs to interval `k`, never `k − 1` — the off-by-one that would
/// silently shift boundary trips one window back and make the sliding
/// window disagree with the offline binning. Returns `None` for negative
/// or non-finite departures and for degenerate interval lengths, so a
/// malformed feed record is dropped rather than binned somewhere wrong.
pub fn interval_for_departure(depart_s: f64, interval_len_s: f64) -> Option<usize> {
    if !depart_s.is_finite() || !interval_len_s.is_finite() || interval_len_s <= 0.0 {
        return None;
    }
    if depart_s < 0.0 {
        return None;
    }
    Some((depart_s / interval_len_s).floor() as usize)
}

/// A consistent, interval-aligned copy of a [`FeatureStore`]'s sealed
/// window, taken under one lock acquisition.
///
/// `tensors[i]` is interval `first + i`; intervals inside the span that
/// were never sealed (or already evicted) appear as all-empty tensors, so
/// the range is always contiguous. Open (pending) intervals are excluded
/// by construction — only sealed tensors are copied — which is what makes
/// the snapshot safe to hand to a training pipeline while the live feed
/// keeps calling [`FeatureStore::push_trip_departing`]: a concurrent push
/// can only touch intervals the snapshot does not contain.
#[derive(Debug, Clone)]
pub struct IngestSnapshot {
    /// Number of regions `N`.
    pub num_regions: usize,
    /// Histogram binning shared by every tensor.
    pub spec: HistogramSpec,
    /// Interval index of `tensors[0]`.
    pub first: usize,
    /// One tensor per interval, `first ..= first + tensors.len() - 1`.
    pub tensors: Vec<OdTensor>,
}

impl IngestSnapshot {
    /// Interval index of the newest tensor (`None` when empty).
    pub fn last(&self) -> Option<usize> {
        self.tensors.len().checked_sub(1).map(|i| self.first + i)
    }

    /// Number of intervals covered.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// True when no interval is covered.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }
}

/// A trip rejected at the ingest boundary.
///
/// The live feed is untrusted input: region ids can be out of range and
/// floating-point fields can be NaN/∞ (a malformed upstream record, a
/// corrupted message). Every rejection is typed so callers can count and
/// log it, and — critically — a rejected trip never reaches the sealed
/// tensors *or* the write-ahead log: one NaN speed would otherwise poison
/// an entire interval histogram and then be faithfully replayed into the
/// poisoned state on every recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestError {
    /// Origin or destination region id is outside `0..num_regions`.
    RegionOutOfRange {
        /// The trip's origin region id.
        origin: usize,
        /// The trip's destination region id.
        dest: usize,
        /// The store's region count.
        num_regions: usize,
    },
    /// `distance_km` is non-finite or negative.
    BadDistance(f64),
    /// `speed_ms` is non-finite or non-positive (duration would be ∞).
    BadSpeed(f64),
    /// The wall-clock departure time does not map to an interval
    /// (negative or non-finite, or degenerate interval length).
    BadDeparture(f64),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::RegionOutOfRange {
                origin,
                dest,
                num_regions,
            } => write!(
                f,
                "trip region ids ({origin}, {dest}) outside 0..{num_regions}"
            ),
            IngestError::BadDistance(d) => write!(
                f,
                "trip distance_km {d} is not a finite, non-negative number"
            ),
            IngestError::BadSpeed(s) => {
                write!(f, "trip speed_ms {s} is not a finite, positive number")
            }
            IngestError::BadDeparture(t) => {
                write!(f, "trip departure time {t} does not map to an interval")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Thread-safe sliding-window store of recent interval tensors.
pub struct FeatureStore {
    num_regions: usize,
    spec: HistogramSpec,
    capacity: usize,
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    /// Trips of intervals still open, awaiting their seal.
    pending: BTreeMap<usize, Vec<Trip>>,
    /// Binned tensors of closed intervals, newest retained `capacity`.
    sealed: BTreeMap<usize, OdTensor>,
}

impl FeatureStore {
    /// A store for `num_regions` regions retaining at most `capacity`
    /// sealed intervals (use at least the model lookback `s`).
    pub fn new(num_regions: usize, spec: HistogramSpec, capacity: usize) -> FeatureStore {
        assert!(capacity >= 1, "capacity must be ≥ 1");
        FeatureStore {
            num_regions,
            spec,
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Number of regions `N`.
    pub fn num_regions(&self) -> usize {
        self.num_regions
    }

    /// Buffers one streamed trip into its (still open) interval.
    ///
    /// Malformed trips — out-of-range region ids, non-finite or negative
    /// distance, non-finite or non-positive speed — are rejected with a
    /// typed [`IngestError`] and counted under `ingest/rejected_trips`: a
    /// live feed must not be able to crash the server *or* poison a
    /// sealed histogram with NaN.
    pub fn push_trip(&self, trip: Trip) -> Result<(), IngestError> {
        self.validate(&trip).inspect_err(|_| {
            if stod_obs::armed() {
                stod_obs::count("ingest/rejected_trips", 1);
            }
        })?;
        lock(&self.inner)
            .pending
            .entry(trip.interval)
            .or_default()
            .push(trip);
        Ok(())
    }

    fn validate(&self, trip: &Trip) -> Result<(), IngestError> {
        if trip.origin >= self.num_regions || trip.dest >= self.num_regions {
            return Err(IngestError::RegionOutOfRange {
                origin: trip.origin,
                dest: trip.dest,
                num_regions: self.num_regions,
            });
        }
        if !trip.distance_km.is_finite() || trip.distance_km < 0.0 {
            return Err(IngestError::BadDistance(trip.distance_km));
        }
        if !trip.speed_ms.is_finite() || trip.speed_ms <= 0.0 {
            return Err(IngestError::BadSpeed(trip.speed_ms));
        }
        Ok(())
    }

    /// Buffers a streamed trip by wall-clock departure time instead of a
    /// pre-binned interval index.
    ///
    /// The trip's `interval` field is overwritten with
    /// [`interval_for_departure`]`(depart_s, interval_len_s)`; a departure
    /// that maps to no interval is rejected as
    /// [`IngestError::BadDeparture`] and counted like any other malformed
    /// trip.
    pub fn push_trip_departing(
        &self,
        mut trip: Trip,
        depart_s: f64,
        interval_len_s: f64,
    ) -> Result<(), IngestError> {
        let Some(interval) = interval_for_departure(depart_s, interval_len_s) else {
            if stod_obs::armed() {
                stod_obs::count("ingest/rejected_trips", 1);
            }
            return Err(IngestError::BadDeparture(depart_s));
        };
        trip.interval = interval;
        self.push_trip(trip)
    }

    /// Closes interval `t`: bins its buffered trips into a sparse OD
    /// tensor, stores it, evicts intervals beyond capacity, and returns
    /// the number of trips binned. Unseen intervals seal as all-empty.
    pub fn seal_interval(&self, t: usize) -> usize {
        let mut inner = lock(&self.inner);
        let trips = inner.pending.remove(&t).unwrap_or_default();
        let tensor = OdTensor::from_trips(self.num_regions, &self.spec, &trips);
        inner.sealed.insert(t, tensor);
        self.evict(&mut inner);
        trips.len()
    }

    /// Inserts an already-binned interval tensor (replay path).
    ///
    /// # Panics
    /// Panics if the tensor's shape disagrees with the store's.
    pub fn insert_tensor(&self, t: usize, tensor: OdTensor) {
        assert_eq!(
            tensor.data.dims(),
            &[self.num_regions, self.num_regions, self.spec.num_buckets],
            "interval tensor shape mismatch"
        );
        let mut inner = lock(&self.inner);
        inner.sealed.insert(t, tensor);
        self.evict(&mut inner);
    }

    fn evict(&self, inner: &mut Inner) {
        while inner.sealed.len() > self.capacity {
            let oldest = *inner.sealed.keys().next().unwrap();
            inner.sealed.remove(&oldest);
        }
        // Pending trips for intervals at or before the eviction horizon can
        // never be served; drop them too.
        if let Some(&newest) = inner.sealed.keys().next_back() {
            let horizon = (newest + 1).saturating_sub(self.capacity);
            inner.pending.retain(|&t, _| t >= horizon);
        }
    }

    /// Drops every pending trip and sealed tensor — the in-memory state a
    /// process crash would lose. Used by the fleet's shard-crash fault
    /// injection; real recovery rebuilds the window from the WAL.
    pub fn clear(&self) {
        let mut inner = lock(&self.inner);
        inner.pending.clear();
        inner.sealed.clear();
    }

    /// Newest sealed interval index, if any.
    pub fn latest_interval(&self) -> Option<usize> {
        lock(&self.inner).sealed.keys().next_back().copied()
    }

    /// Number of sealed intervals currently retained.
    pub fn len(&self) -> usize {
        lock(&self.inner).sealed.len()
    }

    /// True when no interval has been sealed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Observation coverage of a sealed interval.
    pub fn coverage(&self, t: usize) -> Option<f64> {
        lock(&self.inner).sealed.get(&t).map(OdTensor::coverage)
    }

    /// Takes a consistent, interval-aligned read-snapshot of the sealed
    /// window: every sealed tensor from the oldest retained interval to
    /// the newest, cloned under a single lock acquisition so a concurrent
    /// `push_trip_departing` / `seal_interval` can never produce a torn
    /// view (a snapshot either contains an interval's fully binned tensor
    /// or an all-empty placeholder, never a half-filled histogram).
    ///
    /// Returns `None` when nothing has been sealed yet.
    pub fn snapshot_window(&self) -> Option<IngestSnapshot> {
        let inner = lock(&self.inner);
        let first = *inner.sealed.keys().next()?;
        let last = *inner.sealed.keys().next_back()?;
        let tensors = (first..=last)
            .map(|t| match inner.sealed.get(&t) {
                Some(tensor) => tensor.clone(),
                None => OdTensor::empty(self.num_regions, self.num_regions, self.spec.num_buckets),
            })
            .collect();
        Some(IngestSnapshot {
            num_regions: self.num_regions,
            spec: self.spec,
            first,
            tensors,
        })
    }

    /// Model inputs for a window of `s` intervals ending at `t_end`
    /// (inclusive): each step's data as a `[1, N, N, K]` tensor, oldest
    /// first.
    ///
    /// Returns `None` when `t_end` has not been sealed yet (the interval
    /// is still open — forecasting from it would peek into the future) or
    /// when the window underflows interval 0. Intervals *inside* the
    /// window that were evicted or never sealed contribute an all-empty
    /// tensor: live traffic is sparse and the models are trained on
    /// sparse inputs.
    pub fn window_inputs(&self, t_end: usize, s: usize) -> Option<Vec<Tensor>> {
        assert!(s >= 1, "lookback must be ≥ 1");
        if t_end + 1 < s {
            return None;
        }
        let inner = lock(&self.inner);
        if !inner.sealed.contains_key(&t_end) {
            return None;
        }
        let empty = OdTensor::empty(self.num_regions, self.num_regions, self.spec.num_buckets);
        Some(
            (t_end + 1 - s..=t_end)
                .map(|t| {
                    let data = &inner.sealed.get(&t).unwrap_or(&empty).data;
                    stack(&[data], 0)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trip(o: usize, d: usize, t: usize, v: f64) -> Trip {
        Trip {
            origin: o,
            dest: d,
            interval: t,
            distance_km: 1.0,
            speed_ms: v,
        }
    }

    fn store() -> FeatureStore {
        FeatureStore::new(3, HistogramSpec::paper(), 4)
    }

    #[test]
    fn seal_bins_trips_into_histograms() {
        let fs = store();
        fs.push_trip(trip(0, 1, 5, 2.0)).unwrap();
        fs.push_trip(trip(0, 1, 5, 4.0)).unwrap();
        fs.push_trip(trip(2, 2, 5, 10.0)).unwrap();
        assert_eq!(fs.seal_interval(5), 3);
        let inputs = fs.window_inputs(5, 1).unwrap();
        assert_eq!(inputs.len(), 1);
        assert_eq!(inputs[0].dims(), &[1, 3, 3, 7]);
        // (0,1): one trip in [0,3), one in [3,6).
        assert_eq!(inputs[0].at(&[0, 0, 1, 0]), 0.5);
        assert_eq!(inputs[0].at(&[0, 0, 1, 1]), 0.5);
        // (2,2): one trip in [9,12).
        assert_eq!(inputs[0].at(&[0, 2, 2, 3]), 1.0);
        // Unobserved pair stays all-zero.
        assert_eq!(inputs[0].at(&[0, 1, 0, 0]), 0.0);
    }

    #[test]
    fn out_of_range_trips_rejected_with_typed_error() {
        let fs = store();
        assert_eq!(
            fs.push_trip(trip(7, 0, 1, 5.0)),
            Err(IngestError::RegionOutOfRange {
                origin: 7,
                dest: 0,
                num_regions: 3
            })
        );
        assert!(fs.push_trip(trip(0, 9, 1, 5.0)).is_err());
        assert_eq!(fs.seal_interval(1), 0);
    }

    #[test]
    fn non_finite_trips_never_reach_sealed_tensors() {
        let fs = store();
        // Every malformed-field combination is rejected with its typed
        // error...
        assert!(matches!(
            fs.push_trip(Trip {
                speed_ms: f64::NAN,
                ..trip(0, 1, 2, 1.0)
            }),
            Err(IngestError::BadSpeed(s)) if s.is_nan()
        ));
        assert!(matches!(
            fs.push_trip(Trip {
                speed_ms: 0.0,
                ..trip(0, 1, 2, 1.0)
            }),
            Err(IngestError::BadSpeed(_))
        ));
        assert!(matches!(
            fs.push_trip(Trip {
                speed_ms: f64::INFINITY,
                ..trip(0, 1, 2, 1.0)
            }),
            Err(IngestError::BadSpeed(_))
        ));
        assert!(matches!(
            fs.push_trip(Trip {
                distance_km: f64::NAN,
                ..trip(0, 1, 2, 1.0)
            }),
            Err(IngestError::BadDistance(_))
        ));
        assert!(matches!(
            fs.push_trip(Trip {
                distance_km: -1.0,
                ..trip(0, 1, 2, 1.0)
            }),
            Err(IngestError::BadDistance(_))
        ));
        // ...and one accepted trip alongside them seals into a histogram
        // with no NaN anywhere: the boundary kept the poison out.
        fs.push_trip(trip(0, 1, 2, 2.0)).unwrap();
        assert_eq!(fs.seal_interval(2), 1);
        let inputs = fs.window_inputs(2, 1).unwrap();
        assert!(inputs[0].data().iter().all(|v| v.is_finite()));
        assert_eq!(inputs[0].data().iter().sum::<f32>(), 1.0);
    }

    #[test]
    fn rejected_trips_counted_in_obs() {
        stod_obs::with_mode(stod_obs::ObsMode::On, || {
            stod_obs::reset();
            let fs = store();
            fs.push_trip(trip(7, 0, 1, 5.0)).unwrap_err();
            fs.push_trip(Trip {
                speed_ms: f64::NAN,
                ..trip(0, 1, 1, 1.0)
            })
            .unwrap_err();
            fs.push_trip_departing(trip(0, 0, 0, 5.0), f64::NAN, 900.0)
                .unwrap_err();
            fs.push_trip(trip(0, 1, 1, 5.0)).unwrap();
            let snap = stod_obs::snapshot();
            assert_eq!(snap.counter("ingest/rejected_trips"), 3);
        });
    }

    #[test]
    fn clear_wipes_pending_and_sealed() {
        let fs = store();
        fs.push_trip(trip(0, 1, 2, 2.0)).unwrap();
        fs.seal_interval(1);
        fs.clear();
        assert!(fs.is_empty());
        assert_eq!(fs.seal_interval(2), 0, "pending wiped with the window");
    }

    #[test]
    fn window_requires_sealed_t_end() {
        let fs = store();
        fs.seal_interval(3);
        assert!(fs.window_inputs(4, 2).is_none(), "interval 4 still open");
        assert!(fs.window_inputs(1, 3).is_none(), "window underflows");
        fs.seal_interval(4);
        assert!(fs.window_inputs(4, 2).is_some());
    }

    #[test]
    fn missing_interior_intervals_are_empty() {
        let fs = store();
        fs.push_trip(trip(0, 0, 2, 5.0)).unwrap();
        fs.seal_interval(2);
        fs.push_trip(trip(1, 1, 4, 5.0)).unwrap();
        fs.seal_interval(4); // interval 3 never sealed
        let inputs = fs.window_inputs(4, 3).unwrap();
        assert_eq!(inputs.len(), 3);
        let total: f32 = inputs[1].data().iter().sum();
        assert_eq!(total, 0.0, "unsealed interval must be empty");
        assert!(inputs[0].data().iter().sum::<f32>() > 0.0);
        assert!(inputs[2].data().iter().sum::<f32>() > 0.0);
    }

    #[test]
    fn eviction_keeps_newest_capacity_intervals() {
        let fs = store(); // capacity 4
        for t in 0..10 {
            fs.push_trip(trip(0, 0, t, 5.0)).unwrap();
            fs.seal_interval(t);
        }
        assert_eq!(fs.len(), 4);
        assert_eq!(fs.latest_interval(), Some(9));
        // Evicted intervals now read as empty inside a window.
        let inputs = fs.window_inputs(9, 4).unwrap();
        assert!(inputs.iter().all(|i| i.data().iter().sum::<f32>() > 0.0));
        assert!(fs.coverage(5).is_none(), "interval 5 evicted");
        assert!(fs.coverage(6).is_some());
    }

    #[test]
    fn departure_exactly_on_tick_belongs_to_the_starting_interval() {
        // Regression: a trip departing at exactly k·900 s must bin into
        // interval k (start-inclusive), not trail into interval k−1.
        assert_eq!(interval_for_departure(0.0, 900.0), Some(0));
        assert_eq!(interval_for_departure(900.0, 900.0), Some(1));
        assert_eq!(interval_for_departure(899.9999, 900.0), Some(0));
        assert_eq!(interval_for_departure(900.0001, 900.0), Some(1));
        assert_eq!(interval_for_departure(42.0 * 900.0, 900.0), Some(42));

        let fs = store();
        // Two trips straddling the tick at t = 900 s, one exactly on it.
        fs.push_trip_departing(trip(0, 1, 0, 2.0), 899.0, 900.0)
            .unwrap();
        fs.push_trip_departing(trip(0, 1, 0, 2.0), 900.0, 900.0)
            .unwrap();
        assert_eq!(fs.seal_interval(0), 1, "only the pre-tick trip is in 0");
        assert_eq!(fs.seal_interval(1), 1, "the on-tick trip lands in 1");

        // Window membership: the on-tick trip is visible in the window
        // ending at interval 1 and absent from the one ending at 0.
        let w1 = fs.window_inputs(1, 1).unwrap();
        assert_eq!(w1[0].at(&[0, 0, 1, 0]), 1.0);
        let w0 = fs.window_inputs(0, 1).unwrap();
        assert_eq!(w0[0].at(&[0, 0, 1, 0]), 1.0);
        assert_eq!(w0[0].data().iter().sum::<f32>(), 1.0);
    }

    #[test]
    fn invalid_departures_are_dropped() {
        assert_eq!(interval_for_departure(-1e-9, 900.0), None);
        assert_eq!(interval_for_departure(f64::NAN, 900.0), None);
        assert_eq!(interval_for_departure(f64::INFINITY, 900.0), None);
        assert_eq!(interval_for_departure(100.0, 0.0), None);
        assert_eq!(interval_for_departure(100.0, -900.0), None);

        let fs = store();
        assert_eq!(
            fs.push_trip_departing(trip(0, 0, 0, 5.0), -0.5, 900.0),
            Err(IngestError::BadDeparture(-0.5))
        );
        assert!(fs
            .push_trip_departing(trip(0, 0, 0, 5.0), f64::NAN, 900.0)
            .is_err());
        assert_eq!(fs.seal_interval(0), 0);
    }

    #[test]
    fn stale_pending_trips_pruned() {
        let fs = store(); // capacity 4
        fs.push_trip(trip(0, 0, 0, 5.0)).unwrap();
        for t in 1..8 {
            fs.seal_interval(t);
        }
        // Interval 0 fell behind the horizon; sealing it now bins nothing.
        assert_eq!(fs.seal_interval(0), 0);
    }
}
