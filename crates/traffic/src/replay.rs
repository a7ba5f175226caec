//! Multi-city replay source for the serving fleet.
//!
//! The paper forecasts one city; the fleet serves many. This module
//! generates a deterministic *fleet* of simulated cities — each with its
//! own spatial layout, demand level, and trip stream — so the fleet's
//! tests and the benchmark can replay realistic per-tenant traffic: trips
//! are pushed through the live-ingest path (`FeatureStore::push_trip` +
//! `seal_interval`) exactly as a production feed would deliver them, and
//! the per-interval tensors double as the offline ground truth the cached
//! forecasts are checked against.
//!
//! Cities are intentionally heterogeneous (different region counts and
//! trip volumes, cycled deterministically from the fleet seed): a fleet
//! whose shards are identical would hide cross-tenant bugs like a cache
//! key missing the city dimension or a router mixing up region counts.

use crate::city::CityModel;
use crate::dataset::{OdDataset, SimConfig};
use crate::trip::Trip;

/// One city of a replay fleet: its simulated dataset plus the trip stream
/// that produced it (one `Vec<Trip>` per interval, chronological).
pub struct FleetCity {
    /// Fleet-wide tenant id (0-based, dense).
    pub city_id: usize,
    /// The simulated dataset; `tensors[t]` is bitwise reproducible from
    /// `trips[t]` via `OdTensor::from_trips`.
    pub dataset: OdDataset,
    /// Per-interval trip records, the replay stream.
    pub trips: Vec<Vec<Trip>>,
}

impl FleetCity {
    /// Number of regions of this city.
    pub fn num_regions(&self) -> usize {
        self.dataset.num_regions()
    }

    /// Number of simulated intervals.
    pub fn num_intervals(&self) -> usize {
        self.dataset.num_intervals()
    }
}

/// Configuration of a replay fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetSimConfig {
    /// Number of cities (tenants) to generate.
    pub num_cities: usize,
    /// Simulated days per city.
    pub num_days: usize,
    /// Intervals per day (the paper's granularity is 96 × 15 min).
    pub intervals_per_day: usize,
    /// Master seed; every city forks a distinct deterministic stream.
    pub seed: u64,
}

impl Default for FleetSimConfig {
    fn default() -> FleetSimConfig {
        FleetSimConfig {
            num_cities: 4,
            num_days: 1,
            intervals_per_day: 16,
            seed: 0x0F1EE7,
        }
    }
}

/// Generates a deterministic heterogeneous fleet of cities.
///
/// City `i` gets a grid layout whose region count cycles through
/// {6, 8, 9, 12} and a demand level cycling through three volumes, both
/// keyed off `i` — so a 4-city fleet already exercises shards with
/// different `N` and different load. Same config → bitwise-identical
/// fleet, independent of thread count (the per-interval sampling is the
/// deterministic fork-per-interval scheme of [`OdDataset::generate`]).
pub fn generate_fleet(cfg: &FleetSimConfig) -> Vec<FleetCity> {
    assert!(cfg.num_cities >= 1, "a fleet needs at least one city");
    (0..cfg.num_cities)
        .map(|i| {
            let (rows, cols) = [(3, 2), (4, 2), (3, 3), (4, 3)][i % 4];
            let mut city = CityModel::grid(rows, cols, 0.8);
            city.name = format!("fleet-city-{i}");
            let sim = SimConfig {
                num_days: cfg.num_days,
                intervals_per_day: cfg.intervals_per_day,
                trips_per_interval: [120.0, 180.0, 90.0][i % 3],
                night_shutdown: false,
                seed: cfg.seed ^ (0x5EED_0000 + i as u64 * 0x9E37_79B9),
                ..SimConfig::small(cfg.seed)
            };
            let (dataset, trips) = OdDataset::generate_with_trips(city, &sim);
            FleetCity {
                city_id: i,
                dataset,
                trips,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::od_tensor::OdTensor;

    fn tiny_fleet() -> Vec<FleetCity> {
        generate_fleet(&FleetSimConfig {
            num_cities: 4,
            num_days: 1,
            intervals_per_day: 8,
            seed: 7,
        })
    }

    #[test]
    fn fleet_is_heterogeneous_and_nonempty() {
        let fleet = tiny_fleet();
        assert_eq!(fleet.len(), 4);
        let sizes: Vec<usize> = fleet.iter().map(FleetCity::num_regions).collect();
        assert_eq!(sizes, vec![6, 8, 9, 12]);
        for c in &fleet {
            assert_eq!(c.num_intervals(), 8);
            assert!(
                c.trips.iter().any(|t| !t.is_empty()),
                "city {} generated no trips",
                c.city_id
            );
        }
    }

    #[test]
    fn trips_reproduce_tensors_bitwise() {
        for c in tiny_fleet() {
            let n = c.num_regions();
            for (t, interval_trips) in c.trips.iter().enumerate() {
                let rebuilt = OdTensor::from_trips(n, &c.dataset.spec, interval_trips);
                assert_eq!(
                    rebuilt.data.data(),
                    c.dataset.tensors[t].data.data(),
                    "city {} interval {t}: replayed trips must rebuild the tensor bitwise",
                    c.city_id
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_fleet();
        let b = tiny_fleet();
        for (x, y) in a.iter().zip(b.iter()) {
            let counts = |c: &FleetCity| c.trips.iter().map(Vec::len).collect::<Vec<_>>();
            assert_eq!(counts(x), counts(y));
            for (tx, ty) in x.dataset.tensors.iter().zip(y.dataset.tensors.iter()) {
                assert_eq!(tx.data.data(), ty.data.data());
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiny_fleet();
        let b = generate_fleet(&FleetSimConfig {
            seed: 8,
            num_days: 1,
            intervals_per_day: 8,
            num_cities: 4,
        });
        assert_ne!(
            a[0].dataset.tensors[0].data.data(),
            b[0].dataset.tensors[0].data.data()
        );
    }
}
