//! Trip records — the paper's §III `p = (o, d, t, l, v, τ)`.

/// One vehicle trip between two regions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trip {
    /// Origin region id.
    pub origin: usize,
    /// Destination region id.
    pub dest: usize,
    /// Departure interval index (global, not per-day).
    pub interval: usize,
    /// Trip distance `l` in kilometres.
    pub distance_km: f64,
    /// Average travel speed `v` in m/s (what the histograms bin).
    pub speed_ms: f64,
}

impl Trip {
    /// Interval index within its day.
    pub fn interval_of_day(&self, intervals_per_day: usize) -> usize {
        self.interval % intervals_per_day
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_of_day_wraps() {
        let t = Trip {
            origin: 0,
            dest: 1,
            interval: 100,
            distance_km: 1.0,
            speed_ms: 5.0,
        };
        assert_eq!(t.interval_of_day(96), 4);
        assert_eq!(t.interval_of_day(48), 4);
    }
}
