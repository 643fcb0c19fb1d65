//! **E13 — Low-latency DRAM operating modes.**
//!
//! Paper claim (§IV, Data-Centric): an intelligent architecture "provides
//! low-latency and low-energy access to data" — exemplified by AL-DRAM
//! (common-case timing margins, Lee+ HPCA 2015) and ChargeCache
//! (recently-closed rows are highly charged, Hassan+ HPCA 2016).

use ia_dram::{DramConfig, LatencyMode};
use ia_memctrl::{run_closed_loop_with, FrFcfs, MemRequest, MemoryController, RunReport};
use ia_sim::SnapshotState;

use crate::mixes::interference_mix;
use crate::report::{ExperimentReport, RunContext};

/// Outcome for assertions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Baseline average request latency (cycles).
    pub standard_latency: f64,
    /// AL-DRAM average latency.
    pub aldram_latency: f64,
    /// ChargeCache average latency.
    pub chargecache_latency: f64,
    /// ChargeCache hit rate observed.
    pub chargecache_hit_rate: f64,
}

/// The warm controller and trace set every mode run forks from: one
/// construction per sweep instead of one per mode. `with_latency_mode`
/// applies to future commands only, so a fork with a mode swapped in is
/// bit-identical to a cold-built controller with that mode.
fn substrate(quick: bool) -> (MemoryController, Vec<Vec<MemRequest>>) {
    let n = if quick { 400 } else { 4000 };
    let warm = MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new()))
        // lint: allow(P001, ddr3_1600 is a valid preset)
        .expect("valid config");
    (warm, interference_mix(n, 77))
}

fn run_mode(
    warm: &MemoryController,
    traces: &[Vec<MemRequest>],
    mode: Option<LatencyMode>,
) -> RunReport {
    let mut ctrl = warm.fork();
    if let Some(mode) = mode {
        ctrl = ctrl.with_latency_mode(mode);
    }
    // lint: allow(P001, interference_mix traces are non-empty by construction)
    run_closed_loop_with(ctrl, traces, 8, 500_000_000).expect("run completes")
}

/// Runs the standard, AL-DRAM and ChargeCache modes over the same mix.
#[must_use]
pub fn outcome(quick: bool) -> Outcome {
    let (warm, traces) = substrate(quick);
    let cc_mode = LatencyMode::ChargeCache {
        entries_per_bank: 16,
        window: 200_000,
        scale: 0.65,
    };
    let std_r = run_mode(&warm, &traces, None);
    let al_r = run_mode(&warm, &traces, Some(LatencyMode::AlDram { scale: 0.7 }));
    let cc_r = run_mode(&warm, &traces, Some(cc_mode));
    Outcome {
        standard_latency: std_r.stats.avg_latency(),
        aldram_latency: al_r.stats.avg_latency(),
        chargecache_latency: cc_r.stats.avg_latency(),
        chargecache_hit_rate: cc_r.charge_cache_hit_rate,
    }
}

/// The experiment's report.
#[must_use]
pub fn report(ctx: &RunContext) -> ExperimentReport {
    let o = outcome(ctx.quick);
    ExperimentReport::new("exp13_low_latency_dram", ctx.quick)
        .metric("standard_latency", o.standard_latency)
        .metric("aldram_latency", o.aldram_latency)
        .metric("chargecache_latency", o.chargecache_latency)
        .metric("chargecache_hit_rate", o.chargecache_hit_rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QUICK;

    #[test]
    fn aldram_reduces_latency() {
        let o = outcome(true);
        assert!(
            o.aldram_latency < o.standard_latency,
            "AL-DRAM {:.1} must beat standard {:.1}",
            o.aldram_latency,
            o.standard_latency
        );
    }

    #[test]
    fn chargecache_is_no_worse_than_standard() {
        let o = outcome(true);
        assert!(
            o.chargecache_latency <= o.standard_latency * 1.01,
            "ChargeCache {:.1} vs standard {:.1}",
            o.chargecache_latency,
            o.standard_latency
        );
    }

    #[test]
    fn chargecache_hit_rate_is_a_real_fraction() {
        let o = outcome(true);
        assert!(
            o.chargecache_hit_rate.is_finite(),
            "hit rate must be measured, not NaN"
        );
        assert!(
            (0.0..=1.0).contains(&o.chargecache_hit_rate),
            "hit rate {} outside [0, 1]",
            o.chargecache_hit_rate
        );
        assert!(
            o.chargecache_hit_rate > 0.0,
            "the interference mix reopens rows inside the window; some hits must occur"
        );
    }

    #[test]
    fn report_carries_every_mode() {
        let rep = report(&QUICK);
        for metric in [
            "standard_latency",
            "aldram_latency",
            "chargecache_latency",
            "chargecache_hit_rate",
        ] {
            let v = rep.metric_value(metric);
            assert!(v.is_some_and(f64::is_finite), "{metric}: {v:?}");
        }
    }
}
