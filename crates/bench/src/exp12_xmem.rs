//! **E12 — X-Mem data-aware cache management.**
//!
//! Paper claim (§IV, Data-Aware): expressive interfaces that convey data
//! semantics (X-Mem, Vijaykumar+ ISCA 2018) let the cache protect
//! critical reused structures from streaming pollution — a benefit
//! invisible to a semantics-blind hierarchy.

use ia_cache::{Cache, CacheOp};
use ia_workloads::{Op, StreamGen, TraceGenerator, ZipfGen};
use ia_xmem::{AtomRegistry, Criticality, DataAttributes, DataAwareCache, Locality};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::report::{ExperimentReport, RunContext};

/// Outcome for assertions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Hit rate of the oblivious cache.
    pub oblivious_hit_rate: f64,
    /// Hit rate of the data-aware cache.
    pub aware_hit_rate: f64,
    /// Hot-line retention after the scan (oblivious).
    pub oblivious_retention: f64,
    /// Hot-line retention after the scan (data-aware).
    pub aware_retention: f64,
}

const HOT_REGION: u64 = 0;
const HOT_BYTES: u64 = 32 * 1024;
const STREAM_REGION: u64 = 1 << 24;
const STREAM_BYTES: u64 = 1 << 22;

fn workload(quick: bool) -> Vec<(u64, Op)> {
    let n = if quick { 4_000 } else { 40_000 };
    let mut rng = SmallRng::seed_from_u64(71);
    let mut hot =
        ZipfGen::new(HOT_REGION, (HOT_BYTES / 4096) as usize, 4096, 1.0, 0.1).expect("valid zipf");
    let mut stream = StreamGen::new(STREAM_REGION, 64, STREAM_BYTES, 0.0).expect("valid stream");
    // Interleave: 1 hot access per 3 stream accesses (a scan sweeping past
    // a latency-critical index structure).
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let r = if i % 4 == 0 {
            hot.next_request(&mut rng)
        } else {
            stream.next_request(&mut rng)
        };
        out.push((r.addr, r.op));
    }
    out
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

fn retention(contains: impl Fn(u64) -> bool) -> f64 {
    let lines = HOT_BYTES / 64;
    let kept = (0..lines)
        .filter(|&l| contains(HOT_REGION + l * 64))
        .count();
    kept as f64 / lines as f64
}

/// Computes the outcome.
#[must_use]
pub fn outcome(quick: bool) -> Outcome {
    let trace = workload(quick);
    let to_op = |op: Op| match op {
        Op::Read => CacheOp::Read,
        Op::Write => CacheOp::Write,
    };

    let mut oblivious = Cache::new(64 * 1024, 64, 16).expect("valid cache");
    for &(addr, op) in &trace {
        oblivious.access(addr, to_op(op));
    }
    let reg = registry();
    let mut aware = DataAwareCache::new(Cache::new(64 * 1024, 64, 16).expect("valid"), &reg);
    for &(addr, op) in &trace {
        aware.access(addr, to_op(op));
    }
    Outcome {
        oblivious_hit_rate: oblivious.stats().hit_rate(),
        aware_hit_rate: aware.cache().stats().hit_rate(),
        oblivious_retention: retention(|a| oblivious.contains(a)),
        aware_retention: retention(|a| aware.cache().contains(a)),
    }
}

/// The experiment's report.
#[must_use]
pub fn report(ctx: &RunContext) -> ExperimentReport {
    let o = outcome(ctx.quick);
    ExperimentReport::new("exp12_xmem", ctx.quick)
        .metric("oblivious_hit_rate", o.oblivious_hit_rate)
        .metric("aware_hit_rate", o.aware_hit_rate)
        .metric("oblivious_retention", o.oblivious_retention)
        .metric("aware_retention", o.aware_retention)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QUICK;

    #[test]
    fn data_awareness_improves_hit_rate() {
        let o = outcome(true);
        assert!(
            o.aware_hit_rate > o.oblivious_hit_rate,
            "aware {:.3} must beat oblivious {:.3}",
            o.aware_hit_rate,
            o.oblivious_hit_rate
        );
    }

    #[test]
    fn data_awareness_protects_the_hot_set() {
        let o = outcome(true);
        assert!(
            o.aware_retention > o.oblivious_retention,
            "aware retention {:.2} must beat oblivious {:.2}",
            o.aware_retention,
            o.oblivious_retention
        );
        assert!(
            o.aware_retention > 0.5,
            "most of the hot set should survive"
        );
    }

    #[test]
    fn report_compares_oblivious_and_aware_caches() {
        let rep = report(&QUICK);
        let get = |m: &str| rep.metric_value(m).expect("metric reported");
        assert!(get("aware_hit_rate") > get("oblivious_hit_rate"));
        assert!(get("aware_retention") > get("oblivious_retention"));
    }
}
