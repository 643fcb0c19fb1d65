//! **E9 — Pointer chasing in 3D-stacked memory.**
//!
//! Paper claim (§IV): PNM accelerates "pointer-chasing-intensive
//! workloads" (Hsieh+, ICCD 2016) — dependent loads collapse to the
//! internal latency, and vault-parallel walkers scale past the host's
//! outstanding-miss limit.

use ia_pnm::{concurrent_traversals, traverse_host, traverse_pnm, LinkedChain, StackConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::report::{ExperimentReport, RunContext};

/// Outcome for assertions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Single-stream speedup (latency-ratio bound).
    pub single_stream_speedup: f64,
    /// 64-stream speedup (vault parallelism).
    pub multi_stream_speedup: f64,
}

/// Computes the outcome.
#[must_use]
pub fn outcome(quick: bool) -> Outcome {
    let hops = if quick { 2_000 } else { 100_000 };
    let stack = StackConfig::hmc_like();
    let mut rng = SmallRng::seed_from_u64(43);
    let chain = LinkedChain::random_cycle(64 * 1024, &mut rng).expect("valid chain");
    let h = traverse_host(&chain, &stack, 0, hops);
    let p = traverse_pnm(&chain, &stack, 0, hops);
    let (mh, mp) = concurrent_traversals(&stack, 64, hops);
    Outcome {
        single_stream_speedup: h.ns / p.ns,
        multi_stream_speedup: mh / mp,
    }
}

/// The experiment's report.
#[must_use]
pub fn report(ctx: &RunContext) -> ExperimentReport {
    let o = outcome(ctx.quick);
    ExperimentReport::new("exp09_pointer_chase", ctx.quick)
        .metric("single_stream_speedup", o.single_stream_speedup)
        .metric("multi_stream_speedup", o.multi_stream_speedup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QUICK;

    #[test]
    fn single_stream_tracks_latency_ratio() {
        let o = outcome(true);
        let stack = StackConfig::hmc_like();
        let bound = stack.external_latency_ns / stack.internal_latency_ns;
        assert!(
            o.single_stream_speedup > bound * 0.8 && o.single_stream_speedup <= bound * 1.05,
            "speedup {:.2} should approach the latency ratio {bound:.2}",
            o.single_stream_speedup
        );
    }

    #[test]
    fn walker_parallelism_multiplies_the_gain() {
        let o = outcome(true);
        assert!(o.multi_stream_speedup > o.single_stream_speedup);
    }

    #[test]
    fn host_and_in_memory_walkers_reach_the_same_node() {
        let stack = StackConfig::hmc_like();
        let mut rng = SmallRng::seed_from_u64(43);
        let chain = LinkedChain::random_cycle(64 * 1024, &mut rng).expect("valid chain");
        let h = traverse_host(&chain, &stack, 0, 2_000);
        let p = traverse_pnm(&chain, &stack, 0, 2_000);
        assert_eq!(h.end, p.end, "both walkers must reach the same node");
    }

    #[test]
    fn report_carries_both_stream_counts() {
        let rep = report(&QUICK);
        for metric in ["single_stream_speedup", "multi_stream_speedup"] {
            let v = rep.metric_value(metric);
            assert!(v.is_some_and(|x| x > 1.0), "{metric}: {v:?}");
        }
    }
}
