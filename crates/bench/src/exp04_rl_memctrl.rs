//! **E4 — Self-optimizing (RL) memory controller.**
//!
//! Paper claim (§IV, Data-Driven): reinforcement-learning controllers
//! "can not only improve performance and efficiency under a wide variety
//! of conditions and workloads but also reduce the designer's burden"
//! (Ipek+, ISCA 2008 — ≈15-20% over FR-FCFS in their setup; crucially,
//! the learned policy must leave the naive fixed policy far behind).

use ia_dram::DramConfig;
use ia_memctrl::{
    run_closed_loop_with, Fcfs, FrFcfs, MemoryController, RlScheduler, RlSchedulerConfig, Scheduler,
};
use ia_sim::SnapshotState;

use crate::mixes::interference_mix;
use crate::report::{ExperimentReport, RunContext};

/// Headline outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// RL throughput relative to FCFS (requests per kilo-cycle ratio).
    pub rl_vs_fcfs: f64,
    /// RL throughput relative to FR-FCFS.
    pub rl_vs_frfcfs: f64,
}

/// The scheduler-independent warm substrate every run in this experiment
/// forks from ([`SnapshotState`]): one controller construction, one
/// fork per run, no cold re-warm. A fork with a swapped policy is
/// bit-identical to a cold-built controller (see
/// [`MemoryController::with_scheduler`]).
fn warm_substrate() -> MemoryController {
    MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new()))
        // lint: allow(P001, ddr3_1600 is a valid preset)
        .expect("valid config")
}

/// Runs FCFS, FR-FCFS and the RL scheduler over the same mix and
/// compares their throughputs.
#[must_use]
pub fn outcome(quick: bool) -> Outcome {
    let n = if quick { 400 } else { 4000 };
    let traces = interference_mix(n, 7);
    let warm = warm_substrate();
    let throughput_of = |scheduler: Box<dyn Scheduler>| {
        run_closed_loop_with(
            warm.fork().with_scheduler(scheduler),
            &traces,
            8,
            200_000_000,
        )
        // lint: allow(P001, interference_mix traces are non-empty by construction)
        .expect("run completes")
        .throughput_rpkc()
    };
    let fcfs = throughput_of(Box::new(Fcfs::new()));
    let frfcfs = throughput_of(Box::new(FrFcfs::new()));
    let rl = throughput_of(Box::new(RlScheduler::new(RlSchedulerConfig::default())));
    Outcome {
        rl_vs_fcfs: rl / fcfs,
        rl_vs_frfcfs: rl / frfcfs,
    }
}

/// The experiment's report.
#[must_use]
pub fn report(ctx: &RunContext) -> ExperimentReport {
    let o = outcome(ctx.quick);
    ExperimentReport::new("exp04_rl_memctrl", ctx.quick)
        .metric("rl_vs_fcfs", o.rl_vs_fcfs)
        .metric("rl_vs_frfcfs", o.rl_vs_frfcfs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QUICK;

    #[test]
    fn rl_beats_fcfs_and_tracks_frfcfs() {
        let rep = report(&QUICK);
        let vs_fcfs = rep.metric_value("rl_vs_fcfs").expect("RL vs FCFS reported");
        let vs_frfcfs = rep
            .metric_value("rl_vs_frfcfs")
            .expect("RL vs FR-FCFS reported");
        assert!(vs_fcfs > 1.02, "RL must beat naive FCFS, got {vs_fcfs:.3}");
        assert!(
            vs_frfcfs > 0.9,
            "RL must be competitive with FR-FCFS, got {vs_frfcfs:.3}"
        );
    }
}
