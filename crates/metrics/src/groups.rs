//! Grouped metric aggregation for the per-figure analyses: accuracy per
//! 3-hour time-of-day bin (Figures 8–10) and per OD-distance group
//! (Figures 11–13).

use crate::DisSim;

/// A set of labelled [`DisSim`] accumulators, one per group.
#[derive(Debug, Clone)]
pub struct GroupedMean {
    labels: Vec<String>,
    groups: Vec<DisSim>,
}

impl GroupedMean {
    /// Creates accumulators for the given group labels.
    pub fn new(labels: Vec<String>) -> Self {
        let groups = vec![DisSim::new(); labels.len()];
        GroupedMean { labels, groups }
    }

    /// The paper's eight 3-hour time-of-day bins (`[0,3)…[21,24)`).
    pub fn time_of_day_bins() -> Self {
        GroupedMean::new(
            (0..8)
                .map(|b| format!("{:02}:00-{:02}:00", 3 * b, 3 * b + 3))
                .collect(),
        )
    }

    /// The paper's six OD-distance groups, 0.5 km wide, up to 3 km
    /// (Figures 11–13 discard pairs above 3 km: < 1 % of the data).
    pub fn distance_bins() -> Self {
        GroupedMean::new(
            (0..6)
                .map(|b| format!("[{:.1},{:.1}) km", 0.5 * b as f64, 0.5 * (b + 1) as f64))
                .collect(),
        )
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Adds a value to group `idx`; out-of-range indices are dropped
    /// (mirrors the paper excluding >3 km pairs).
    pub fn add(&mut self, idx: usize, value: f64) {
        if let Some(g) = self.groups.get_mut(idx) {
            g.add(value);
        }
    }

    /// Group index for an interval-of-day (0-based interval id, given
    /// `intervals_per_day`) under 3-hour binning.
    pub fn time_bin(interval_of_day: usize, intervals_per_day: usize) -> usize {
        let per_bin = intervals_per_day / 8;
        (interval_of_day / per_bin.max(1)).min(7)
    }

    /// Group index for an OD distance in km under 0.5 km binning; `None`
    /// for distances ≥ 3 km.
    pub fn distance_bin(dist_km: f64) -> Option<usize> {
        if !(0.0..3.0).contains(&dist_km) {
            return None;
        }
        Some((dist_km / 0.5) as usize)
    }

    /// Iterates `(label, mean, count)` rows.
    pub fn rows(&self) -> impl Iterator<Item = (&str, f64, usize)> {
        self.labels
            .iter()
            .zip(self.groups.iter())
            .map(|(l, g)| (l.as_str(), g.mean(), g.count()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_bins_cover_day() {
        // 96 15-minute intervals → 12 per 3-hour bin.
        assert_eq!(GroupedMean::time_bin(0, 96), 0);
        assert_eq!(GroupedMean::time_bin(11, 96), 0);
        assert_eq!(GroupedMean::time_bin(12, 96), 1);
        assert_eq!(GroupedMean::time_bin(95, 96), 7);
    }

    #[test]
    fn distance_bins_match_paper_groups() {
        assert_eq!(GroupedMean::distance_bin(0.1), Some(0));
        assert_eq!(GroupedMean::distance_bin(0.5), Some(1));
        assert_eq!(GroupedMean::distance_bin(2.9), Some(5));
        assert_eq!(GroupedMean::distance_bin(3.0), None);
        assert_eq!(GroupedMean::distance_bin(12.0), None);
        assert_eq!(GroupedMean::distance_bin(-1.0), None);
    }

    #[test]
    fn grouped_means_independent() {
        let mut g = GroupedMean::time_of_day_bins();
        g.add(0, 1.0);
        g.add(0, 3.0);
        g.add(7, 10.0);
        let rows: Vec<_> = g.rows().collect();
        assert_eq!(rows.len(), 8);
        assert!((rows[0].1 - 2.0).abs() < 1e-9);
        assert_eq!(rows[0].2, 2);
        assert!((rows[7].1 - 10.0).abs() < 1e-9);
        assert!(rows[1].1.is_nan());
    }

    #[test]
    fn labels_format() {
        let g = GroupedMean::time_of_day_bins();
        assert_eq!(g.rows().next().unwrap().0, "00:00-03:00");
        let d = GroupedMean::distance_bins();
        assert_eq!(d.rows().next().unwrap().0, "[0.0,0.5) km");
    }
}
