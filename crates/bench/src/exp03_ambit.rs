//! **E3 — Ambit bulk bitwise operations.**
//!
//! Paper claim (§IV): in-DRAM bulk bitwise execution yields large
//! throughput and energy gains over moving data to the CPU — the original
//! reports ~32x average throughput and 25-60x energy across operations.

use ia_dram::DramConfig;
use ia_pum::{cpu_bitwise_baseline, AmbitEngine, BitwiseOp};

use crate::report::{ExperimentReport, RunContext};

/// Aggregate outcome across operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Geometric-mean throughput gain across the seven operations.
    pub mean_throughput_gain: f64,
    /// Geometric-mean energy gain.
    pub mean_energy_gain: f64,
}

/// Computes gains at 8 MiB vectors (1 MiB in quick mode).
#[must_use]
pub fn outcome(quick: bool) -> Outcome {
    let bytes = if quick { 1 << 20 } else { 8 << 20 };
    let cfg = DramConfig::ddr3_1600();
    let engine = AmbitEngine::new(&cfg);
    let mut tp = 1.0f64;
    let mut en = 1.0f64;
    let ops = BitwiseOp::all();
    for op in ops {
        let in_dram_ns = bytes as f64 / engine.throughput_gb_s(op);
        let (cpu_ns, cpu_pj) = cpu_bitwise_baseline(&cfg, op, bytes);
        tp *= cpu_ns / in_dram_ns;
        en *= cpu_pj / (engine.energy_pj_per_byte(op) * bytes as f64);
    }
    Outcome {
        mean_throughput_gain: tp.powf(1.0 / ops.len() as f64),
        mean_energy_gain: en.powf(1.0 / ops.len() as f64),
    }
}

/// The experiment's report.
#[must_use]
pub fn report(ctx: &RunContext) -> ExperimentReport {
    let o = outcome(ctx.quick);
    ExperimentReport::new("exp03_ambit", ctx.quick)
        .param("vector_bytes", if ctx.quick { 1u64 << 20 } else { 8 << 20 })
        .metric("mean_throughput_gain", o.mean_throughput_gain)
        .metric("mean_energy_gain", o.mean_energy_gain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QUICK;

    #[test]
    fn gains_match_paper_shape() {
        let o = outcome(true);
        assert!(
            o.mean_throughput_gain > 10.0,
            "mean throughput gain {:.1} should be tens of x",
            o.mean_throughput_gain
        );
        assert!(o.mean_energy_gain > 10.0);
    }

    #[test]
    fn report_carries_the_geomeans() {
        let rep = report(&QUICK);
        for metric in ["mean_throughput_gain", "mean_energy_gain"] {
            let v = rep.metric_value(metric);
            assert!(v.is_some_and(|x| x > 1.0), "{metric}: {v:?}");
        }
    }
}
