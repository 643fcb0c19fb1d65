//! **E23 — Gather-Scatter DRAM.**
//!
//! Paper citation \[24\] (Seshadri+, MICRO 2015): in-DRAM address
//! translation makes non-unit-strided access pattern-dense on the
//! channel. Expected shape: traffic/energy reduction approaching the
//! stride factor for large strides, nothing for dense access.

use ia_dram::DramConfig;
use ia_pum::{conventional_gather, gs_dram_gather};

use crate::report::{ExperimentReport, RunContext};

/// Sweep rows `(stride, conventional bytes, gs bytes, traffic cut,
/// energy cut)`.
#[must_use]
pub fn sweep(quick: bool) -> Vec<(u64, u64, u64, f64, f64)> {
    let elements = if quick { 10_000 } else { 100_000 };
    let cfg = DramConfig::ddr3_1600();
    [8u64, 16, 32, 64, 128, 256]
        .into_iter()
        .map(|stride| {
            let conv = conventional_gather(&cfg, elements, 8, stride).expect("valid");
            let gs = gs_dram_gather(&cfg, elements, 8, stride).expect("valid");
            (
                stride,
                conv.bytes_moved,
                gs.bytes_moved,
                conv.bytes_moved as f64 / gs.bytes_moved as f64,
                conv.io_energy_pj / gs.io_energy_pj,
            )
        })
        .collect()
}

/// The experiment's report.
#[must_use]
pub fn report(ctx: &RunContext) -> ExperimentReport {
    let data = sweep(ctx.quick);
    let max_cut = data.iter().fold(0.0f64, |a, &(_, _, _, cut, _)| a.max(cut));
    let mut rep = ExperimentReport::new("exp23_gsdram", ctx.quick)
        .metric("max_traffic_cut", max_cut)
        .columns(&[
            "stride",
            "conventional_bytes",
            "gsdram_bytes",
            "traffic_cut",
            "efficiency_gain",
        ]);
    for (stride, conv, gs, cut, eff) in &data {
        rep = rep.row(&[
            stride.to_string(),
            conv.to_string(),
            gs.to_string(),
            format!("{cut:.4}"),
            format!("{eff:.4}"),
        ]);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QUICK;

    #[test]
    fn traffic_cut_tracks_the_stride() {
        let s = sweep(true);
        for (stride, _, _, cut, energy_cut) in &s {
            if *stride >= 64 {
                // The cut saturates at line/element = 8x: once each element
                // drags exactly one line, a larger stride adds no waste.
                let factor = (*stride.min(&64) / 8) as f64;
                assert!(
                    *cut > factor * 0.7,
                    "stride {stride}: cut {cut:.1} should approach {factor:.0}"
                );
                assert!(*energy_cut > factor * 0.7);
            }
        }
    }

    #[test]
    fn cuts_are_monotone_in_stride() {
        let s = sweep(true);
        for w in s.windows(2) {
            assert!(w[1].3 >= w[0].3 * 0.99, "larger stride, larger cut: {w:?}");
        }
    }

    #[test]
    fn gather_extracts_one_element_per_stride() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let gathered = ia_pum::gather_elements(&data, 64, 8, 64).expect("valid gather");
        assert_eq!(gathered.len(), 512);
    }

    #[test]
    fn report_tabulates_every_stride() {
        let rep = report(&QUICK);
        assert_eq!(rep.headers[3], "traffic_cut");
        let strides: Vec<&str> = rep.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(strides, ["8", "16", "32", "64", "128", "256"]);
        assert!(rep.metric_value("max_traffic_cut").is_some_and(|c| c > 5.0));
    }
}
