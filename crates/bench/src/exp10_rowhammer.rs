//! **E10 — RowHammer across device generations, and mitigation.**
//!
//! Paper claim (§IV, bottom-up push): RowHammer is the flagship scaling
//! problem demanding intelligent controllers. The revisit study (Kim+,
//! ISCA 2020) shows `HC_first` collapsing from ≈139k (2013 DDR3) to
//! ≈4.8k (2020 LPDDR4); PARA and counter-based TRR suppress the flips.

use ia_reliability::{
    double_sided_pattern, run_attack, CounterTrr, DeviceGeneration, Para, RowHammerModel,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::report::{ExperimentReport, RunContext};

/// Outcome for assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// (generation, unmitigated flips) at a fixed hammer count.
    pub unmitigated: Vec<(DeviceGeneration, u64)>,
    /// Flips on the newest device under PARA.
    pub para_flips: u64,
    /// Flips on the newest device under counter-TRR.
    pub trr_flips: u64,
}

/// One independent attack configuration.
#[derive(Debug, Clone, Copy)]
enum Attack {
    /// No mitigation, on this generation.
    Unmitigated(DeviceGeneration),
    /// PARA (p = 0.01) on the newest generation.
    Para,
    /// Counter-based TRR on the newest generation.
    Trr,
}

/// Computes the outcome. Every attack owns a seeded RNG derived from
/// the base seed and its task index (instead of the pre-`ia-par`
/// single stream threaded through all five runs), so the five
/// configurations are independent and fan out on the worker pool with
/// results identical at any `--threads` setting.
#[must_use]
pub fn outcome(ctx: &RunContext) -> Outcome {
    let hammers = if ctx.quick { 300_000 } else { 2_000_000 };
    let rows = 1 << 14;
    let victim = 5000;
    let pattern = double_sided_pattern(victim, hammers);
    let newest = DeviceGeneration::Lpddr4Y2020;

    let mut tasks: Vec<Attack> = DeviceGeneration::all()
        .into_iter()
        .map(Attack::Unmitigated)
        .collect();
    tasks.push(Attack::Para);
    tasks.push(Attack::Trr);

    let flips = ia_par::par_map_indexed(ctx.threads, tasks, |i, attack| {
        let mut rng = SmallRng::seed_from_u64(53 + i as u64);
        match attack {
            Attack::Unmitigated(g) => {
                let mut m = RowHammerModel::new(g, rows);
                run_attack(&mut m, None, pattern.clone(), &mut rng).0
            }
            Attack::Para => {
                let mut m = RowHammerModel::new(newest, rows);
                let mut para = Para::with_probability(0.01);
                run_attack(&mut m, Some(&mut para), pattern.clone(), &mut rng).0
            }
            Attack::Trr => {
                let mut m = RowHammerModel::new(newest, rows);
                let mut trr = CounterTrr::new(32, newest.hc_first() / 2);
                run_attack(&mut m, Some(&mut trr), pattern.clone(), &mut rng).0
            }
        }
    });

    let generations = DeviceGeneration::all();
    Outcome {
        unmitigated: generations.into_iter().zip(flips.iter().copied()).collect(),
        para_flips: flips[generations.len()],
        trr_flips: flips[generations.len() + 1],
    }
}

/// The experiment's report.
#[must_use]
pub fn report(ctx: &RunContext) -> ExperimentReport {
    let o = outcome(ctx);
    let worst = o.unmitigated.iter().map(|&(_, f)| f).max().unwrap_or(0);
    let mut rep = ExperimentReport::new("exp10_rowhammer", ctx.quick)
        .metric("worst_unmitigated_flips", worst as f64)
        .metric("para_flips", o.para_flips as f64)
        .metric("trr_flips", o.trr_flips as f64)
        .columns(&["generation", "unmitigated_flips"]);
    for (generation, flips) in &o.unmitigated {
        rep = rep.row(&[format!("{generation:?}"), flips.to_string()]);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QUICK;

    #[test]
    fn newer_devices_flip_more() {
        let o = outcome(&QUICK);
        let flips: Vec<u64> = o.unmitigated.iter().map(|&(_, f)| f).collect();
        assert!(
            flips[2] > flips[1],
            "2020 device must flip more than 2017: {flips:?}"
        );
        assert!(
            flips[1] > flips[0],
            "2017 device must flip more than 2013: {flips:?}"
        );
    }

    #[test]
    fn mitigations_suppress_flips() {
        let o = outcome(&QUICK);
        let unmitigated = o.unmitigated.last().map(|&(_, f)| f).unwrap_or(0);
        assert!(unmitigated > 0);
        assert!(
            o.para_flips < unmitigated / 5,
            "PARA: {} vs {unmitigated}",
            o.para_flips
        );
        assert_eq!(
            o.trr_flips, 0,
            "counter-TRR below HC_first must stop the attack"
        );
    }

    #[test]
    fn report_covers_every_generation_and_mitigation() {
        let rep = report(&QUICK);
        let generations: Vec<String> = rep.rows.iter().map(|r| r[0].clone()).collect();
        let expected: Vec<String> = DeviceGeneration::all()
            .iter()
            .map(|g| format!("{g:?}"))
            .collect();
        assert_eq!(generations, expected);
        assert!(rep.metric_value("para_flips").is_some());
        assert!(rep.metric_value("trr_flips").is_some());
    }
}
