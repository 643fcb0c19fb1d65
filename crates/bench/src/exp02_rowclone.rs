//! **E2 — RowClone bulk copy/initialization.**
//!
//! Paper claim (§IV): minimally changing DRAM enables "fast and
//! energy-efficient bulk data copy and initialization" — the original
//! reports ≈11x latency and ≈74x energy reduction for in-subarray copy.

use ia_dram::{DramConfig, DramModule, PhysAddr};
use ia_pum::{bulk_copy, CopyMode, CopyReport};

use crate::report::{ExperimentReport, RunContext};

/// Per-size results for assertions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// FPM latency speedup over CPU copy at the largest size.
    pub fpm_speedup: f64,
    /// FPM energy reduction over CPU copy at the largest size.
    pub fpm_energy_gain: f64,
    /// PSM latency speedup over CPU copy.
    pub psm_speedup: f64,
}

fn fresh() -> DramModule {
    DramModule::new(DramConfig::ddr3_1600()).expect("preset valid")
}

/// Same-bank consecutive-row byte stride under the default mapping.
fn row_stride(d: &DramModule) -> u64 {
    let g = d.config().geometry;
    g.row_bytes * (g.banks_per_group * g.bank_groups * g.ranks * g.channels) as u64
}

fn copy(mode: CopyMode, bytes: u64) -> CopyReport {
    let mut d = fresh();
    let stride = row_stride(&d);
    let dst = match mode {
        CopyMode::Psm => PhysAddr::new(8192), // a different bank
        _ => PhysAddr::new(stride),           // next row, same bank+subarray
    };
    bulk_copy(&mut d, PhysAddr::new(0), dst, bytes, mode).expect("valid copy")
}

/// Computes the headline outcome at 1 MiB (64 KiB in quick mode).
#[must_use]
pub fn outcome(quick: bool) -> Outcome {
    let bytes = if quick { 64 << 10 } else { 1 << 20 };
    let fpm = copy(CopyMode::Fpm, bytes);
    let psm = copy(CopyMode::Psm, bytes);
    let cpu = copy(CopyMode::Cpu, bytes);
    Outcome {
        fpm_speedup: cpu.ns / fpm.ns,
        fpm_energy_gain: cpu.energy_pj / fpm.energy_pj,
        psm_speedup: cpu.ns / psm.ns,
    }
}

/// The experiment's report.
#[must_use]
pub fn report(ctx: &RunContext) -> ExperimentReport {
    let o = outcome(ctx.quick);
    ExperimentReport::new("exp02_rowclone", ctx.quick)
        .metric("fpm_speedup", o.fpm_speedup)
        .metric("fpm_energy_gain", o.fpm_energy_gain)
        .metric("psm_speedup", o.psm_speedup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QUICK;

    #[test]
    fn fpm_reproduces_paper_shape() {
        let o = outcome(true);
        assert!(
            o.fpm_speedup > 8.0,
            "FPM speedup {:.1} should be ~11x",
            o.fpm_speedup
        );
        assert!(
            o.fpm_energy_gain > 30.0,
            "FPM energy gain {:.0} should be tens of x",
            o.fpm_energy_gain
        );
        assert!(o.psm_speedup > 1.0 && o.psm_speedup < o.fpm_speedup);
    }

    #[test]
    fn report_carries_the_headline_modes() {
        let rep = report(&QUICK);
        for metric in ["fpm_speedup", "fpm_energy_gain", "psm_speedup"] {
            let v = rep.metric_value(metric);
            assert!(v.is_some_and(|x| x > 1.0), "{metric}: {v:?}");
        }
    }
}
