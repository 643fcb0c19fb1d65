//! Order statistics and the simulated-result fingerprint.

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles the tail is chosen from, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `n` samples above it, and its value in `xs` (nearest rank). Falls back
/// to the maximum when fewer than 11 samples exist.
#[must_use]
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in TAIL_LADDER {
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= 10 {
            return (p, v[rank - 1]);
        }
    }
    (100.0, v.last().copied().unwrap_or(0.0))
}

/// FNV-1a over the simulated results of a job. Host-independent: only
/// simulated quantities are folded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds in one word.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds in a float by its bits.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }

    /// Folds in a string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
        self.u64(s.len() as u64)
    }
}

/// SplitMix64 step: derives independent sub-seeds from the run seed.
#[must_use]
pub fn derive(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 leaves exactly 10 above rank 990.
        assert_eq!(tail(&xs), (99.0, 990.0));
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs), (95.0, 190.0));
        assert_eq!(tail(&[3.0, 1.0]), (100.0, 3.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
