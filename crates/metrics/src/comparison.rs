//! Paired policy comparisons.
//!
//! The paper's figures all report the same structure: a baseline
//! (G-Loadsharing) against the proposed method (V-Reconfiguration) across
//! five traces, with reductions quoted in percent. [`MetricComparison`]
//! captures one such pairing.

use serde::{Deserialize, Serialize};
use vr_simcore::stats::reduction_pct;

/// One metric measured under a baseline and under the candidate policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricComparison {
    /// Baseline (G-Loadsharing) value.
    pub baseline: f64,
    /// Candidate (V-Reconfiguration) value.
    pub candidate: f64,
}

impl MetricComparison {
    /// Pairs two measurements.
    pub fn new(baseline: f64, candidate: f64) -> Self {
        MetricComparison {
            baseline,
            candidate,
        }
    }

    /// Reduction achieved by the candidate, in percent (positive = better
    /// for lower-is-better metrics).
    pub fn reduction(&self) -> f64 {
        reduction_pct(self.baseline, self.candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_matches_paper_arithmetic() {
        let c = MetricComparison::new(1000.0, 707.0);
        assert!((c.reduction() - 29.3).abs() < 1e-9);
    }

    #[test]
    fn regression_is_negative() {
        let c = MetricComparison::new(100.0, 120.0);
        assert!(c.reduction() < 0.0);
    }

    #[test]
    fn zero_baseline_is_zero_reduction() {
        assert_eq!(MetricComparison::new(0.0, 5.0).reduction(), 0.0);
    }
}
