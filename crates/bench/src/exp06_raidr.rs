//! **E6 — RAIDR retention-aware refresh.**
//!
//! Paper claim (§IV, bottom-up push): intelligent controllers must solve
//! "data retention" economically; RAIDR (Liu+, ISCA 2012) removes ≈74.6%
//! of refreshes with a few kilobits of Bloom-filter state, and the win
//! grows with device density.

use ia_reliability::{Raidr, RetentionModel};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::report::{ExperimentReport, RunContext};

/// Outcome for assertions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Refresh reduction at the largest density.
    pub reduction: f64,
    /// Controller storage in bits at the largest density.
    pub storage_bits: usize,
}

/// Computes the outcome.
#[must_use]
pub fn outcome(quick: bool) -> Outcome {
    let rows = if quick { 64 * 1024 } else { 1024 * 1024 };
    let mut rng = SmallRng::seed_from_u64(23);
    let profile = RetentionModel::typical().profile(rows, &mut rng);
    let raidr = Raidr::from_profile(&profile).expect("non-empty profile");
    Outcome {
        reduction: raidr.reduction_over(8),
        storage_bits: raidr.storage_bits(),
    }
}

/// The experiment's report.
#[must_use]
pub fn report(ctx: &RunContext) -> ExperimentReport {
    let o = outcome(ctx.quick);
    ExperimentReport::new("exp06_raidr", ctx.quick)
        .metric("refresh_reduction", o.reduction)
        .metric("storage_bits", o.storage_bits as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QUICK;

    #[test]
    fn reduction_approaches_three_quarters() {
        let o = outcome(true);
        assert!(
            (0.70..0.76).contains(&o.reduction),
            "reduction {:.3} should bracket 74.6%",
            o.reduction
        );
    }

    #[test]
    fn storage_stays_in_kilobits() {
        let o = outcome(true);
        assert!(
            o.storage_bits < 1 << 20,
            "storage {} bits should be small",
            o.storage_bits
        );
    }

    #[test]
    fn report_carries_reduction_and_storage() {
        let rep = report(&QUICK);
        let reduction = rep.metric_value("refresh_reduction");
        assert!(
            reduction.is_some_and(|r| (0.0..1.0).contains(&r)),
            "{reduction:?}"
        );
        assert!(rep.metric_value("storage_bits").is_some_and(|b| b > 0.0));
    }
}
