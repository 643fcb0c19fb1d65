//! **E1 — Data-movement energy in consumer workloads.**
//!
//! Paper claim (§I): "more than 60% of the entire mobile system energy is
//! spent on data movement across the memory hierarchy when executing four
//! major commonly-used consumer workloads" (Boroumand+, ASPLOS 2018), and
//! PIM offload substantially reduces it.

use ia_workloads::{energy_breakdown, energy_with_pim, MobileWorkload, SystemEnergyModel};

use crate::report::{ExperimentReport, RunContext};

/// Parsed outcome for assertions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Suite-wide movement energy fraction.
    pub movement_fraction: f64,
    /// Suite-wide energy reduction from 80% PIM offload.
    pub pim_reduction: f64,
}

/// Computes the outcome without formatting.
#[must_use]
pub fn outcome(quick: bool) -> Outcome {
    let scale = if quick { 1 } else { 100 };
    let model = SystemEnergyModel::default();
    let suite = MobileWorkload::consumer_suite(scale);
    let mut total = 0.0;
    let mut movement = 0.0;
    let mut pim_total = 0.0;
    for w in &suite {
        let b = energy_breakdown(w, &model);
        total += b.total_pj();
        movement += b.movement_pj;
        pim_total += energy_with_pim(w, &model, 0.8).total_pj();
    }
    Outcome {
        movement_fraction: movement / total,
        pim_reduction: 1.0 - pim_total / total,
    }
}

/// The experiment's report.
#[must_use]
pub fn report(ctx: &RunContext) -> ExperimentReport {
    let o = outcome(ctx.quick);
    ExperimentReport::new("exp01_data_movement", ctx.quick)
        .metric("movement_fraction", o.movement_fraction)
        .metric("pim_reduction", o.pim_reduction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QUICK;

    #[test]
    fn movement_share_matches_paper_shape() {
        let o = outcome(true);
        assert!(
            (0.55..0.80).contains(&o.movement_fraction),
            "movement share {:.3} should bracket the paper's 62.7%",
            o.movement_fraction
        );
        // Offloading 80% of DRAM traffic removes its I/O share of total
        // energy — a double-digit-percent total-energy cut in this model
        // (the original reports ~55% on the PIM-offloaded functions
        // themselves, a superset of what our accounting attributes).
        assert!(
            o.pim_reduction > 0.1,
            "PIM offload must cut a double-digit share of energy, got {:.3}",
            o.pim_reduction
        );
    }

    #[test]
    fn report_covers_all_four_consumer_workloads() {
        let rep = report(&QUICK);
        for metric in ["movement_fraction", "pim_reduction"] {
            let v = rep.metric_value(metric);
            assert!(
                v.is_some_and(|f| (0.0..1.0).contains(&f)),
                "{metric}: {v:?}"
            );
        }
        let names: Vec<String> = MobileWorkload::consumer_suite(1)
            .into_iter()
            .map(|w| w.name)
            .collect();
        assert_eq!(
            names,
            [
                "tensorflow-inference",
                "video-playback",
                "video-capture",
                "chrome-browsing",
            ]
        );
    }
}
