//! # stod-metrics
//!
//! The paper's evaluation metrics (§VI-A.4): Kullback–Leibler divergence,
//! Jensen–Shannon divergence and the earth mover's distance between
//! forecast and ground-truth speed histograms, the `DisSim` aggregation
//! over non-empty cells, and grouped aggregation (by time of day, by OD
//! distance) for the per-figure analyses.

pub mod divergence;
pub mod emd;
pub mod groups;
pub mod shadow;

pub use divergence::{js_divergence, kl_divergence, KL_DELTA};
pub use emd::emd;
pub use groups::GroupedMean;
pub use shadow::{ShadowDecision, ShadowReport, ShadowScore};

/// The three dissimilarity functions of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Kullback–Leibler divergence (Eq. 13).
    Kl,
    /// Jensen–Shannon divergence (Eq. 14).
    Js,
    /// Earth mover's distance (Eq. 15).
    Emd,
}

impl Metric {
    /// All three metrics, in the order the paper's tables report them.
    pub const ALL: [Metric; 3] = [Metric::Kl, Metric::Js, Metric::Emd];

    /// Short display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Kl => "KL",
            Metric::Js => "JS",
            Metric::Emd => "EMD",
        }
    }

    /// Evaluates the metric between a ground-truth histogram `m` and a
    /// forecast histogram `m_hat`.
    pub fn eval(&self, m: &[f32], m_hat: &[f32]) -> f64 {
        match self {
            Metric::Kl => kl_divergence(m, m_hat),
            Metric::Js => js_divergence(m, m_hat),
            Metric::Emd => emd(m, m_hat),
        }
    }
}

/// Accumulates a masked mean of a metric over forecast cells — the
/// `DisSim` of Eq. 12, normalized by the number of observed cells so that
/// values are comparable across configurations.
#[derive(Debug, Default, Clone)]
pub struct DisSim {
    sum: f64,
    count: usize,
}

impl DisSim {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        DisSim::default()
    }

    /// Adds one observed cell's metric value.
    pub fn add(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
    }

    /// Number of cells accumulated.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Mean metric value; `NaN` when nothing was observed.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &DisSim) {
        self.sum += other.sum;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dissim_mean_over_observed_cells() {
        let mut d = DisSim::new();
        let a = [1.0f32, 0.0];
        let b = [0.5f32, 0.5];
        d.add(Metric::Emd.eval(&a, &b));
        d.add(Metric::Emd.eval(&a, &a));
        assert_eq!(d.count(), 2);
        assert!((d.mean() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn dissim_empty_is_nan() {
        assert!(DisSim::new().mean().is_nan());
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = DisSim::new();
        a.add(1.0);
        let mut b = DisSim::new();
        b.add(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn metric_names() {
        assert_eq!(Metric::Kl.name(), "KL");
        assert_eq!(Metric::Js.name(), "JS");
        assert_eq!(Metric::Emd.name(), "EMD");
    }
}
