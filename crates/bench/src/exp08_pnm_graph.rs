//! **E8 — Near-memory graph processing (Tesseract-class).**
//!
//! Paper claim (§IV): PNM "can greatly accelerate real applications,
//! including … graph analytics", with "up to approximately two orders of
//! magnitude improvement" as internal bandwidth scales; Tesseract (Ahn+,
//! ISCA 2015) reports ≈10x at 16-vault-cube scale.

use ia_pnm::{host_pagerank_ns, PnmGraphEngine, StackConfig};
use ia_workloads::Graph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::report::{ExperimentReport, RunContext};

/// Outcome for assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Speedup at each vault count (vaults, speedup).
    pub speedups: Vec<(usize, f64)>,
}

/// Computes the vault-scaling sweep.
#[must_use]
pub fn outcome(ctx: &RunContext) -> Outcome {
    let (v, e) = if ctx.quick {
        (2048, 32 * 1024)
    } else {
        (16 * 1024, 512 * 1024)
    };
    let mut rng = SmallRng::seed_from_u64(41);
    // lint: allow(P001, v and e are positive literals for both sizes - always a valid RMAT shape)
    let g = Graph::rmat(v, e, &mut rng).expect("valid rmat");
    let iterations = 10;
    // The graph is built once and shared read-only; each vault count is
    // an independent PNM simulation over it.
    let speedups = ia_par::par_map(ctx.threads, vec![1usize, 4, 16, 32], |vaults| {
        let stack = StackConfig::hmc_like()
            .with_vaults(vaults)
            // lint: allow(P001, vaults ranges over the literal non-zero list 1/4/16/32)
            .expect("non-zero");
        // lint: allow(P001, the hmc_like preset is valid for every vault count in the list)
        let engine = PnmGraphEngine::new(stack, &g).expect("valid stack");
        let (_, report) = engine.pagerank(0.85, iterations);
        (
            vaults,
            host_pagerank_ns(&stack, &g, iterations) / report.total_ns,
        )
    });
    Outcome { speedups }
}

/// The experiment's report.
#[must_use]
pub fn report(ctx: &RunContext) -> ExperimentReport {
    let o = outcome(ctx);
    let best = o.speedups.iter().fold(0.0f64, |a, &(_, s)| a.max(s));
    let mut rep = ExperimentReport::new("exp08_pnm_graph", ctx.quick)
        .metric("best_speedup", best)
        .columns(&["vaults", "speedup"]);
    for (vaults, s) in &o.speedups {
        rep = rep.row(&[vaults.to_string(), format!("{s:.2}")]);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QUICK;

    #[test]
    fn speedup_grows_with_vaults() {
        let o = outcome(&QUICK);
        let s: Vec<f64> = o.speedups.iter().map(|&(_, s)| s).collect();
        assert!(s[1] > s[0], "4 vaults should beat 1: {s:?}");
        assert!(s[2] > s[1], "16 vaults should beat 4: {s:?}");
    }

    #[test]
    fn sixteen_vaults_reach_tesseract_band() {
        let o = outcome(&QUICK);
        let s16 = o
            .speedups
            .iter()
            .find(|&&(v, _)| v == 16)
            .expect("16 vaults")
            .1;
        assert!(s16 > 3.0, "16-vault speedup {s16:.1} should be several x");
    }

    #[test]
    fn report_tabulates_speedup_per_vault_count() {
        let rep = report(&QUICK);
        assert_eq!(rep.headers, ["vaults", "speedup"]);
        let vaults: Vec<&str> = rep.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(vaults, ["1", "4", "16", "32"]);
        assert!(rep.metric_value("best_speedup").is_some_and(|s| s > 1.0));
    }
}
