//! **E14 — Hybrid DRAM+PCM main memory.**
//!
//! Paper claim (§IV, Data-Centric): intelligent architectures enable
//! "low-cost data storage … via new memory technologies \[and\] hybrid
//! memory systems". Row-buffer-locality-aware placement (Yoon+, ICCD
//! 2012) recovers most of all-DRAM performance with a small DRAM tier in
//! front of large PCM, beating the conventional LRU DRAM cache by caching
//! only the pages that actually suffer on PCM.

use ia_memctrl::{HybridMemory, HybridTiming, PlacementPolicy};
use ia_workloads::{TraceGenerator, ZipfGen};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::report::{ExperimentReport, RunContext};

/// Outcome for assertions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Average access cost, all-PCM.
    pub all_pcm: f64,
    /// Average cost with an LRU DRAM cache.
    pub lru: f64,
    /// Average cost with RBLA placement.
    pub rbla: f64,
    /// Migrations performed by LRU.
    pub lru_migrations: u64,
    /// Migrations performed by RBLA.
    pub rbla_migrations: u64,
}

fn run_policy(policy: PlacementPolicy, dram_pages: usize, quick: bool) -> HybridMemory {
    let n = if quick { 8_000 } else { 80_000 };
    let mut rng = SmallRng::seed_from_u64(83);
    // Zipf over 4096 pages: a hot head plus a long tail of sequential,
    // row-hit-friendly pages.
    let mut gen = ZipfGen::new(0, 4096, 4096, 1.2, 0.3).expect("valid zipf");
    // Page migration rides the in-package bus: ~4 KiB at burst rate.
    let timing = HybridTiming {
        migration: 300,
        ..HybridTiming::default()
    };
    let mut mem = HybridMemory::new(dram_pages, 4096, timing, policy).expect("valid hybrid");
    for r in gen.generate(n, &mut rng) {
        mem.access(r.addr, matches!(r.op, ia_workloads::Op::Write));
    }
    mem
}

/// Computes the outcome (DRAM tier = 1/16 of the pages).
#[must_use]
pub fn outcome(quick: bool) -> Outcome {
    let dram_pages = 256;
    // "All-PCM": a 1-page DRAM tier with promotion disabled.
    let all_pcm = run_policy(
        PlacementPolicy::Rbla {
            miss_threshold: u32::MAX,
        },
        1,
        quick,
    );
    let lru = run_policy(PlacementPolicy::Lru, dram_pages, quick);
    let rbla = run_policy(
        PlacementPolicy::Rbla { miss_threshold: 2 },
        dram_pages,
        quick,
    );
    Outcome {
        all_pcm: all_pcm.avg_cost(),
        lru: lru.avg_cost(),
        rbla: rbla.avg_cost(),
        lru_migrations: lru.migrations,
        rbla_migrations: rbla.migrations,
    }
}

/// The experiment's report.
#[must_use]
pub fn report(ctx: &RunContext) -> ExperimentReport {
    let o = outcome(ctx.quick);
    ExperimentReport::new("exp14_hybrid_memory", ctx.quick)
        .metric("all_pcm_avg_cost", o.all_pcm)
        .metric("lru_avg_cost", o.lru)
        .metric("rbla_avg_cost", o.rbla)
        .metric("lru_migrations", o.lru_migrations as f64)
        .metric("rbla_migrations", o.rbla_migrations as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QUICK;

    #[test]
    fn hybrid_beats_all_pcm() {
        let o = outcome(true);
        assert!(
            o.lru < o.all_pcm,
            "LRU hybrid {:.1} must beat all-PCM {:.1}",
            o.lru,
            o.all_pcm
        );
        assert!(o.rbla < o.all_pcm);
    }

    #[test]
    fn rbla_migrates_less_than_lru() {
        let o = outcome(true);
        assert!(
            o.rbla_migrations < o.lru_migrations,
            "RBLA migrations {} should be below LRU {}",
            o.rbla_migrations,
            o.lru_migrations
        );
    }

    #[test]
    fn report_carries_every_configuration() {
        let rep = report(&QUICK);
        let get = |m: &str| rep.metric_value(m).expect("metric reported");
        assert!(get("rbla_avg_cost") < get("all_pcm_avg_cost"));
        assert!(get("lru_avg_cost") < get("all_pcm_avg_cost"));
        assert!(get("rbla_migrations") < get("lru_migrations"));
    }
}
