//! **E20 — EDEN: approximate DRAM for DNN inference.**
//!
//! Paper citation \[54\] (Koppula+, MICRO 2019), the data-aware exemplar
//! for approximability: DNN data tolerates bit errors, so its DRAM can be
//! refreshed far less often. Expected shape: refresh savings grow with
//! the interval while accuracy stays flat below a robustness knee, then
//! collapses; per-layer interval selection stays within an accuracy
//! budget.

use ia_reliability::{dnn_accuracy_loss, sweep_refresh_multipliers, RetentionModel};

use crate::report::{ExperimentReport, RunContext};

/// Sweep rows `(multiplier, savings, row error rate, robust-layer loss,
/// sensitive-layer loss)`.
#[must_use]
pub fn sweep(threads: usize) -> Vec<(u32, f64, f64, f64, f64)> {
    let model = RetentionModel::typical();
    // Each refresh-interval point is an independent evaluation of the
    // retention model; fan the grid out on the worker pool.
    ia_par::par_map(threads, vec![1u32, 2, 4, 8, 16, 32], |multiplier| {
        let p = sweep_refresh_multipliers(&model, &[multiplier])
            .pop()
            // lint: allow(P001, the sweep returns exactly one point per multiplier)
            .expect("one point per multiplier");
        (
            p.multiplier,
            p.refresh_savings,
            p.row_error_rate,
            dnn_accuracy_loss(p.row_error_rate, 0.05),
            dnn_accuracy_loss(p.row_error_rate, 1e-5),
        )
    })
}

/// The experiment's report (the sweep is the same size in both modes).
#[must_use]
pub fn report(ctx: &RunContext) -> ExperimentReport {
    let data = sweep(ctx.threads);
    let max_savings = data.iter().fold(0.0f64, |a, &(_, s, ..)| a.max(s));
    let mut rep = ExperimentReport::new("exp20_eden", ctx.quick)
        .metric("max_refresh_savings", max_savings)
        .columns(&[
            "interval_multiplier",
            "refresh_savings",
            "row_error_exposure",
            "robust_accuracy_loss",
            "sensitive_accuracy_loss",
        ]);
    for (m, savings, err, robust, sensitive) in &data {
        rep = rep.row(&[
            m.to_string(),
            format!("{savings:.4}"),
            format!("{err:.6}"),
            format!("{robust:.4}"),
            format!("{sensitive:.4}"),
        ]);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QUICK;

    #[test]
    fn robust_layers_save_most_refreshes_for_free() {
        let s = sweep(2);
        let at16 = s.iter().find(|r| r.0 == 16).expect("16x present");
        assert!(at16.1 > 0.9, "16x interval saves >90% of refreshes");
        assert!(
            at16.3 < 0.02,
            "robust layer loses <2% accuracy at 16x, got {}",
            at16.3
        );
    }

    #[test]
    fn sensitive_layers_degrade_past_nominal() {
        let s = sweep(2);
        let at8 = s.iter().find(|r| r.0 == 8).expect("8x present");
        assert!(
            at8.4 > at8.3,
            "sensitive layer must lose more than robust at the same interval"
        );
    }

    #[test]
    fn selection_separates_the_layers() {
        use ia_reliability::select_multiplier;
        let model = RetentionModel::typical();
        assert!(select_multiplier(&model, 0.05, 0.01) >= 8);
        assert!(select_multiplier(&model, 1e-5, 0.01) <= 2);
    }

    #[test]
    fn report_tabulates_every_refresh_interval() {
        let rep = report(&QUICK);
        assert_eq!(rep.headers[1], "refresh_savings");
        let multipliers: Vec<&str> = rep.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(multipliers, ["1", "2", "4", "8", "16", "32"]);
        assert!(rep
            .metric_value("max_refresh_savings")
            .is_some_and(|s| s > 0.9));
    }
}
