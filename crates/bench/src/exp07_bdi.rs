//! **E7 — Base-Delta-Immediate compression.**
//!
//! Paper claim (§III, data-aware): "if we knew the relative
//! compressibility of different types of data … components could
//! adaptively scale their capability". BDI (Pekhimenko+, PACT 2012)
//! achieves ≈1.5x average compression and a corresponding effective-cache
//! enlargement on real data patterns.

use ia_cache::{bdi_compress, CompressedCache};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::report::{ExperimentReport, RunContext};

/// Outcome for assertions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Mean compression ratio across the pattern suite.
    pub mean_ratio: f64,
    /// Hit-rate gain of the compressed cache on the pointer workload.
    pub hit_rate_gain: f64,
}

fn pattern_block(kind: &str, rng: &mut SmallRng) -> [u8; 64] {
    let mut b = [0u8; 64];
    match kind {
        "zeros" => {}
        "repeated" => {
            let v: u64 = 0x0102_0304_0506_0708;
            for i in 0..8 {
                b[i * 8..][..8].copy_from_slice(&v.to_le_bytes());
            }
        }
        "narrow-ints" => {
            for i in 0..16 {
                let v: u32 = rng.gen_range(0..100);
                b[i * 4..][..4].copy_from_slice(&v.to_le_bytes());
            }
        }
        "pointers" => {
            let base: u64 = 0x7F3A_0000_0000 + u64::from(rng.gen::<u16>()) * 4096;
            for i in 0..8 {
                let v = base + rng.gen_range(0..4096u64);
                b[i * 8..][..8].copy_from_slice(&v.to_le_bytes());
            }
        }
        _ => rng.fill(&mut b[..]),
    }
    b
}

/// Mean compression ratio per pattern over `blocks` samples.
fn pattern_ratio(kind: &str, blocks: usize, rng: &mut SmallRng) -> f64 {
    let mut total = 0usize;
    for _ in 0..blocks {
        total += bdi_compress(&pattern_block(kind, rng))
            .expect("64B block")
            .bytes;
    }
    (blocks * 64) as f64 / total as f64
}

/// Computes the outcome.
#[must_use]
pub fn outcome(quick: bool) -> Outcome {
    let blocks = if quick { 50 } else { 1000 };
    let mut rng = SmallRng::seed_from_u64(31);
    let kinds = ["zeros", "repeated", "narrow-ints", "pointers", "random"];
    let mean: f64 = kinds
        .iter()
        .map(|k| pattern_ratio(k, blocks, &mut rng))
        .sum::<f64>()
        / kinds.len() as f64;

    // Effective capacity: a compressed cache vs. a plain one of equal
    // bytes, over a pointer-heavy working set 2x the plain capacity.
    let mut rng2 = SmallRng::seed_from_u64(32);
    let lines: Vec<u64> = (0..256u64).map(|i| i * 64).collect();
    let sizes: Vec<usize> = lines
        .iter()
        .map(|_| {
            bdi_compress(&pattern_block("pointers", &mut rng2))
                .expect("64B")
                .bytes
        })
        .collect();
    let mut plain = CompressedCache::new(8192, 8, 64).expect("valid");
    let mut compressed = CompressedCache::new(8192, 8, 64).expect("valid");
    for round in 0..4 {
        for (i, &a) in lines.iter().enumerate() {
            let _ = round;
            plain.access(a, 64);
            compressed.access(a, sizes[i]);
        }
    }
    let plain_hr = plain.stats.hit_rate();
    let comp_hr = compressed.stats.hit_rate();
    Outcome {
        mean_ratio: mean,
        hit_rate_gain: comp_hr - plain_hr,
    }
}

/// The experiment's report.
#[must_use]
pub fn report(ctx: &RunContext) -> ExperimentReport {
    let o = outcome(ctx.quick);
    ExperimentReport::new("exp07_bdi", ctx.quick)
        .metric("mean_compression_ratio", o.mean_ratio)
        .metric("hit_rate_gain", o.hit_rate_gain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QUICK;

    #[test]
    fn mean_ratio_matches_paper_band() {
        let o = outcome(true);
        assert!(
            o.mean_ratio > 1.4,
            "mean ratio {:.2} should be ≈1.5x+",
            o.mean_ratio
        );
    }

    #[test]
    fn compression_enlarges_effective_cache() {
        let o = outcome(true);
        assert!(
            o.hit_rate_gain > 0.1,
            "hit-rate gain {:.3} should be substantial",
            o.hit_rate_gain
        );
    }

    #[test]
    fn every_pattern_compresses_as_expected() {
        let mut rng = SmallRng::seed_from_u64(31);
        let ratio = |k: &str, rng: &mut SmallRng| pattern_ratio(k, 50, rng);
        assert!(ratio("zeros", &mut rng) > 8.0, "all-zero lines collapse");
        assert!(
            ratio("pointers", &mut rng) > 1.5,
            "base+delta packs pointers"
        );
        let random = ratio("random", &mut rng);
        assert!(
            random <= 1.0 + 1e-9,
            "random data is incompressible: {random}"
        );
    }

    #[test]
    fn report_carries_ratio_and_hit_rate_gain() {
        let rep = report(&QUICK);
        assert!(rep
            .metric_value("mean_compression_ratio")
            .is_some_and(|r| r > 1.0));
        assert!(rep.metric_value("hit_rate_gain").is_some());
    }
}
