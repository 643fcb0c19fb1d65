//! **E22 — Runahead execution.**
//!
//! Paper citation \[154\] (Mutlu+, HPCA 2003), invoked as part of the
//! "top-down pull": tolerating memory latency from the core side.
//! Expected shape: large speedups on independent-miss workloads that grow
//! with the runahead window, collapsing to nothing on dependent
//! (pointer-chasing) chains — the gap PIM exists to fill.

use ia_prefetch::runahead::{build_trace, execute, CoreModel};

use crate::report::{ExperimentReport, RunContext};

/// Matrix rows `(dependence ‰, window, stall cycles, runahead cycles)`.
#[must_use]
pub fn matrix(ctx: &RunContext) -> Vec<(u32, usize, u64, u64)> {
    let loads = if ctx.quick { 500 } else { 5000 };
    // The 3×3 (dependence, window) grid: every cell builds its own
    // trace and runs two core models — independent tasks for the
    // worker pool, returned in row-major grid order.
    let grid: Vec<(u32, usize)> = [0u32, 500, 1000]
        .into_iter()
        .flat_map(|dep| [16usize, 64, 256].into_iter().map(move |w| (dep, w)))
        .collect();
    ia_par::par_map(ctx.threads, grid, |(dep, window)| {
        let trace = build_trace(loads, 5, dep);
        let stall = execute(
            &trace,
            CoreModel {
                miss_latency: 200,
                runahead_window: 0,
            },
        );
        let ra = execute(
            &trace,
            CoreModel {
                miss_latency: 200,
                runahead_window: window,
            },
        );
        (dep, window, stall, ra)
    })
}

/// The experiment's report.
#[must_use]
pub fn report(ctx: &RunContext) -> ExperimentReport {
    let data = matrix(ctx);
    let max_speedup = data.iter().fold(0.0f64, |a, &(_, _, stall, ra)| {
        a.max(stall as f64 / ra.max(1) as f64)
    });
    let mut rep = ExperimentReport::new("exp22_runahead", ctx.quick)
        .metric("max_speedup", max_speedup)
        .columns(&[
            "dependent_load_permille",
            "runahead_window",
            "stall_cycles",
            "runahead_cycles",
            "speedup",
        ]);
    for (dep, window, stall, ra) in &data {
        rep = rep.row(&[
            dep.to_string(),
            window.to_string(),
            stall.to_string(),
            ra.to_string(),
            format!("{:.2}", *stall as f64 / (*ra).max(1) as f64),
        ]);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QUICK;

    #[test]
    fn independent_misses_speed_up_with_window() {
        let m = matrix(&QUICK);
        let at = |dep: u32, w: usize| {
            m.iter()
                .find(|r| r.0 == dep && r.1 == w)
                .map(|r| r.2 as f64 / r.3 as f64)
                .expect("cell")
        };
        assert!(
            at(0, 64) > 3.0,
            "independent loads must overlap: {:.1}",
            at(0, 64)
        );
        assert!(at(0, 256) >= at(0, 16), "bigger windows help");
    }

    #[test]
    fn dependent_chains_gain_nothing() {
        let m = matrix(&QUICK);
        for r in m.iter().filter(|r| r.0 == 1000) {
            assert_eq!(r.2, r.3, "fully dependent chain must not speed up");
        }
    }

    #[test]
    fn half_dependent_sits_between() {
        let m = matrix(&QUICK);
        let s = |dep: u32| {
            m.iter()
                .find(|r| r.0 == dep && r.1 == 64)
                .map(|r| r.2 as f64 / r.3 as f64)
                .expect("cell")
        };
        assert!(s(500) > s(1000) - 1e-9);
        assert!(s(500) < s(0));
    }

    #[test]
    fn report_tabulates_the_dependence_window_grid() {
        let rep = report(&QUICK);
        assert_eq!(rep.headers[1], "runahead_window");
        let cells: Vec<(&str, &str)> = rep
            .rows
            .iter()
            .map(|r| (r[0].as_str(), r[1].as_str()))
            .collect();
        assert_eq!(cells.len(), 9);
        assert_eq!(cells[0], ("0", "16"));
        assert_eq!(cells[8], ("1000", "256"));
        assert!(rep.metric_value("max_speedup").is_some_and(|s| s > 3.0));
    }
}
