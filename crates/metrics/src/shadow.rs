//! Shadow-evaluation report: candidate vs. incumbent vs. online corrector
//! on held-out recent intervals, and the promotion decision derived from
//! it.
//!
//! The continual-adaptation pipeline fine-tunes a candidate from the live
//! incumbent's weights, then scores all three contenders on the *same*
//! held-out cells (observed `(o, d)` pairs of the shadow intervals) with
//! the paper's EMD/JS metrics before touching the serving registry. The
//! decision rule is conservative by construction: a promotion needs the
//! candidate to beat the incumbent by a relative margin *and* to beat the
//! cheap always-on corrector outright — a fine-tune that cannot beat a
//! Kalman-corrected historical average is not worth a hot-swap.

/// One contender's masked-mean scores over the shadow cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowScore {
    /// Mean earth mover's distance (the decision metric).
    pub emd: f64,
    /// Mean Jensen–Shannon divergence (reported, not decided on).
    pub js: f64,
    /// Observed cells scored.
    pub cells: usize,
}

impl ShadowScore {
    /// A score over zero cells (NaN means, count 0).
    pub fn empty() -> ShadowScore {
        ShadowScore {
            emd: f64::NAN,
            js: f64::NAN,
            cells: 0,
        }
    }
}

/// What the shadow evaluation concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowDecision {
    /// The candidate beat the incumbent by the margin and the corrector
    /// outright: promote it.
    Promote,
    /// The candidate did not clear the bar: keep the incumbent.
    Hold,
    /// Nothing was scored (no observed cells in the shadow slice): keep
    /// the incumbent — never promote on no evidence.
    NoEvidence,
}

/// The full shadow-evaluation report for one adaptation cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowReport {
    /// Fine-tuned candidate.
    pub candidate: ShadowScore,
    /// Currently serving model.
    pub incumbent: ShadowScore,
    /// Always-on online corrector baseline.
    pub corrector: ShadowScore,
    /// Shadow intervals scored.
    pub intervals: usize,
    /// Relative improvement margin the candidate must clear against the
    /// incumbent (e.g. `0.02` = 2 % lower EMD).
    pub margin: f64,
}

impl ShadowReport {
    /// Applies the promotion rule: candidate EMD strictly below
    /// `incumbent · (1 − margin)` *and* strictly below the corrector's.
    /// Any NaN (unscored contender) yields [`ShadowDecision::NoEvidence`].
    pub fn decision(&self) -> ShadowDecision {
        let (c, i, k) = (self.candidate.emd, self.incumbent.emd, self.corrector.emd);
        if !c.is_finite() || !i.is_finite() || !k.is_finite() {
            return ShadowDecision::NoEvidence;
        }
        if c < i * (1.0 - self.margin) && c < k {
            ShadowDecision::Promote
        } else {
            ShadowDecision::Hold
        }
    }

    /// Whether the candidate regressed past the margin against the
    /// incumbent — the rollback trigger on the post-promotion confirm
    /// slice (NaNs count as regression: a promoted model that cannot be
    /// confirmed must not stay promoted).
    pub fn regressed(&self) -> bool {
        let (c, i) = (self.candidate.emd, self.incumbent.emd);
        if !c.is_finite() || !i.is_finite() {
            return true;
        }
        c > i * (1.0 + self.margin)
    }
}

impl std::fmt::Display for ShadowReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shadow[{} intervals, {} cells]: candidate EMD {:.4} vs incumbent {:.4} vs corrector {:.4} → {:?}",
            self.intervals,
            self.candidate.cells,
            self.candidate.emd,
            self.incumbent.emd,
            self.corrector.emd,
            self.decision()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(c: f64, i: f64, k: f64, margin: f64) -> ShadowReport {
        let score = |emd| ShadowScore {
            emd,
            js: emd * 0.5,
            cells: 10,
        };
        ShadowReport {
            candidate: score(c),
            incumbent: score(i),
            corrector: score(k),
            intervals: 4,
            margin,
        }
    }

    #[test]
    fn promote_needs_margin_and_corrector_win() {
        assert_eq!(
            report(0.8, 1.0, 0.9, 0.05).decision(),
            ShadowDecision::Promote
        );
        // Beats incumbent but not by the margin.
        assert_eq!(
            report(0.97, 1.0, 2.0, 0.05).decision(),
            ShadowDecision::Hold
        );
        // Beats incumbent but loses to the corrector.
        assert_eq!(report(0.8, 1.0, 0.7, 0.05).decision(), ShadowDecision::Hold);
        // Worse than incumbent.
        assert_eq!(report(1.2, 1.0, 2.0, 0.05).decision(), ShadowDecision::Hold);
    }

    #[test]
    fn nan_scores_are_no_evidence() {
        assert_eq!(
            report(f64::NAN, 1.0, 1.0, 0.05).decision(),
            ShadowDecision::NoEvidence
        );
        assert_eq!(
            report(0.5, f64::NAN, 1.0, 0.05).decision(),
            ShadowDecision::NoEvidence
        );
    }

    #[test]
    fn regression_trigger() {
        assert!(!report(1.0, 1.0, 1.0, 0.05).regressed());
        assert!(!report(1.04, 1.0, 1.0, 0.05).regressed());
        assert!(report(1.06, 1.0, 1.0, 0.05).regressed());
        assert!(report(f64::NAN, 1.0, 1.0, 0.05).regressed());
    }
}
