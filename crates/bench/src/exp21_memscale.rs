//! **E21 — MemScale: memory DVFS.**
//!
//! Paper citations [127, 132] (David+ ICAC 2011; Deng+ ASPLOS 2011),
//! under the bottom-up push's "energy consumption" head: memory
//! frequency/voltage should track demand. Expected shape: large memory
//! energy savings on low-utilization epochs at a bounded (few percent)
//! performance cost, vanishing as utilization rises.

use ia_memctrl::{standard_points, MemScaleGovernor};

use crate::report::{ExperimentReport, RunContext};

/// Sweep rows `(avg utilization, energy vs full-speed, slowdown)`.
#[must_use]
pub fn sweep(ctx: &RunContext) -> Vec<(f64, f64, f64)> {
    let epochs = if ctx.quick { 100 } else { 2000 };
    // Each utilization level owns its trace and governor — independent
    // tasks for the worker pool, returned in grid order.
    ia_par::par_map(ctx.threads, vec![0.05f64, 0.15, 0.30, 0.50, 0.95], |base| {
        // Bursty trace around the base utilization.
        let trace: Vec<f64> = (0..epochs)
            .map(|i| {
                if i % 10 == 0 {
                    (base * 2.5).min(0.95)
                } else {
                    base * 0.8
                }
            })
            .collect();
        let mut g =
            MemScaleGovernor::new(standard_points().to_vec(), 0.10).expect("valid governor");
        let o = g.run(&trace).expect("trace runs");
        (base, o.energy, o.slowdown)
    })
}

/// The experiment's report.
#[must_use]
pub fn report(ctx: &RunContext) -> ExperimentReport {
    let data = sweep(ctx);
    let best_saving = data.iter().fold(0.0f64, |a, &(_, e, _)| a.max(1.0 - e));
    let mut rep = ExperimentReport::new("exp21_memscale", ctx.quick)
        .metric("best_energy_saving", best_saving)
        .columns(&["avg_utilization", "memory_energy_vs_full", "slowdown"]);
    for (util, energy, slowdown) in &data {
        rep = rep.row(&[
            format!("{util:.2}"),
            format!("{energy:.3}"),
            format!("{slowdown:.3}"),
        ]);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QUICK;

    #[test]
    fn savings_shrink_with_utilization() {
        let s = sweep(&QUICK);
        for w in s.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 1e-9,
                "energy must not drop as utilization rises: {w:?}"
            );
        }
        assert!(s[0].1 < 0.5, "idle epochs save >50%: {}", s[0].1);
        let busy = s.last().expect("non-empty").1;
        assert!(
            busy > 0.95,
            "a saturated channel cannot scale down: energy {busy:.2}"
        );
    }

    #[test]
    fn slowdown_budget_is_respected_everywhere() {
        for (u, _, slowdown) in sweep(&QUICK) {
            assert!(
                slowdown <= 1.10 + 1e-9,
                "budget violated at {u}: {slowdown}"
            );
        }
    }

    #[test]
    fn report_tabulates_energy_per_utilization() {
        let rep = report(&QUICK);
        assert_eq!(rep.headers[1], "memory_energy_vs_full");
        assert_eq!(rep.rows.len(), 5);
        assert!(rep
            .metric_value("best_energy_saving")
            .is_some_and(|s| s > 0.5));
    }
}
