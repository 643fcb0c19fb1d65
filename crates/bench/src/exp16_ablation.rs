//! **E16 — The three principles compose (full-system ablation).**
//!
//! Paper claim (§II/§IV): an intelligent architecture satisfies all three
//! principles simultaneously; each should contribute, and the composition
//! should not regress. This experiment climbs the ladder baseline →
//! +data-centric → +data-driven → +data-aware on one mixed data-intensive
//! workload.

use ia_core::{run_ablation, SystemConfig};
use ia_workloads::{StreamGen, TraceGenerator, TraceRequest, ZipfGen};
use ia_xmem::{AtomRegistry, Criticality, DataAttributes, Locality};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::report::{ExperimentReport, RunContext};

// The hot structure is 4x the experiment's 64 KiB LLC: plain LRU
// thrashes under the streaming pollution, giving the cache-policy
// principles (data-driven DIP, data-aware hints) real headroom, and the
// Zipf-scattered misses span many DRAM rows, giving AL-DRAM activations
// to accelerate. A hot set that fits in the LLC makes every rung tie at
// the baseline (all misses compulsory + sequential), which is what this
// experiment originally mismeasured.
const HOT_REGION: u64 = 0;
const HOT_BYTES: u64 = 256 * 1024;
const STREAM_REGION: u64 = 1 << 26;
const STREAM_BYTES: u64 = 1 << 22;

fn workload(quick: bool) -> Vec<TraceRequest> {
    let n = if quick { 6_000 } else { 30_000 };
    let mut rng = SmallRng::seed_from_u64(97);
    let mut hot =
        ZipfGen::new(HOT_REGION, (HOT_BYTES / 4096) as usize, 4096, 1.3, 0.2).expect("valid zipf");
    let mut stream = StreamGen::new(STREAM_REGION, 64, STREAM_BYTES, 0.1).expect("valid stream");
    // Two hot accesses per stream access: the reusable structure carries
    // the run, the stream pollutes it.
    (0..n)
        .map(|i| {
            if i % 3 != 0 {
                hot.next_request(&mut rng)
            } else {
                stream.next_request(&mut rng).on_thread(1)
            }
        })
        .collect()
}

/// The system configuration all rungs share: a 64 KiB LLC the workload
/// actually fills and overflows, so cache policy is on the critical path.
fn config() -> SystemConfig {
    SystemConfig {
        llc_bytes: 64 * 1024,
        ..SystemConfig::default()
    }
}

fn registry() -> AtomRegistry {
    let mut reg = AtomRegistry::new();
    reg.register(
        HOT_REGION..HOT_REGION + HOT_BYTES,
        DataAttributes::new()
            .criticality(Criticality::Critical)
            .locality(Locality::Reuse),
    )
    .expect("disjoint");
    reg.register(
        STREAM_REGION..STREAM_REGION + STREAM_BYTES,
        DataAttributes::new().locality(Locality::Streaming),
    )
    .expect("disjoint");
    reg
}

/// The ladder's speedups (baseline = 1.0).
#[must_use]
pub fn speedups(ctx: &RunContext) -> Vec<f64> {
    let trace = workload(ctx.quick);
    run_ablation(&config(), &registry(), &trace, ctx.threads)
        // lint: allow(P001, the ladder configs are static and the trace is non-empty)
        .expect("ablation runs")
        .into_iter()
        .map(|r| r.speedup)
        .collect()
}

/// The experiment's report.
#[must_use]
pub fn report(ctx: &RunContext) -> ExperimentReport {
    let s = speedups(ctx);
    let mut rep = ExperimentReport::new("exp16_ablation", ctx.quick)
        .metric("baseline_speedup", s[0])
        .metric("data_centric_speedup", s[1])
        .metric("data_driven_speedup", s[2])
        .metric("full_system_speedup", s[3])
        .columns(&["rung", "speedup"]);
    let rungs = ["baseline", "+data-centric", "+data-driven", "+data-aware"];
    for (rung, sp) in rungs.iter().zip(&s) {
        rep = rep.row(&[(*rung).to_owned(), format!("{sp:.3}")]);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QUICK;

    #[test]
    fn full_system_is_fastest() {
        let s = speedups(&QUICK);
        assert_eq!(s.len(), 4);
        assert!((s[0] - 1.0).abs() < 1e-12);
        let best = s.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(
            s[3] >= best * 0.99,
            "full system {:.3} should be at or near the best rung {best:.3}",
            s[3]
        );
        assert!(
            s[3] > 1.05,
            "full system must clearly beat the baseline: {:.3}",
            s[3]
        );
    }

    #[test]
    fn every_rung_contributes() {
        let s = speedups(&QUICK);
        // The workload is sized so each principle has headroom: AL-DRAM
        // accelerates the Zipf-scattered activations, DIP resists the
        // stream's pollution, and the data-aware hints protect the hot
        // structure outright. A small slack absorbs scheduler
        // interleaving shifts between rungs.
        assert!(
            s[1] > 1.0,
            "data-centric rung {:.3} must beat baseline",
            s[1]
        );
        assert!(
            s[2] >= s[1] * 0.99,
            "data-driven rung {:.3} must not undo {:.3}",
            s[2],
            s[1]
        );
        assert!(
            s[3] >= s[2],
            "data-aware rung {:.3} must not undo {:.3}",
            s[3],
            s[2]
        );
    }

    #[test]
    fn report_climbs_the_whole_ladder() {
        let rep = report(&QUICK);
        let rungs: Vec<&str> = rep.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(
            rungs,
            ["baseline", "+data-centric", "+data-driven", "+data-aware"]
        );
        assert_eq!(rep.metric_value("baseline_speedup"), Some(1.0));
        assert!(rep.metric_value("full_system_speedup").is_some());
    }
}
