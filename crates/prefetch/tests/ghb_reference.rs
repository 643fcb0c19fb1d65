//! Differential oracle for [`GhbPrefetcher`]: a reference model does the
//! lookup directly — copy the history out in chronological order on
//! every miss and scan it backward for the most recent earlier
//! occurrence of the newest delta pair — and seeded random miss streams
//! must get identical targets from both on every `observe`.

use ia_prefetch::{GhbPrefetcher, Prefetcher};
use proptest::prelude::*;

/// The global history buffer searched by a backward linear scan.
#[derive(Debug)]
struct RefGhb {
    history: Vec<u64>,
    head: usize,
    filled: bool,
    degree: usize,
}

impl RefGhb {
    fn new(entries: usize, degree: usize) -> Self {
        RefGhb {
            history: vec![0; entries.max(4)],
            head: 0,
            filled: false,
            degree: degree.max(1),
        }
    }

    fn chronological(&self) -> Vec<u64> {
        let n = self.history.len();
        if self.filled {
            (0..n).map(|i| self.history[(self.head + i) % n]).collect()
        } else {
            self.history[..self.head].to_vec()
        }
    }

    fn observe(&mut self, line: u64, miss: bool) -> Vec<u64> {
        if !miss {
            return Vec::new();
        }
        self.history[self.head] = line;
        self.head = (self.head + 1) % self.history.len();
        if self.head == 0 {
            self.filled = true;
        }
        let hist = self.chronological();
        if hist.len() < 4 {
            return Vec::new();
        }
        let n = hist.len();
        let d1 = hist[n - 1] as i64 - hist[n - 2] as i64;
        let d2 = hist[n - 2] as i64 - hist[n - 3] as i64;
        for i in (2..n - 1).rev() {
            let e1 = hist[i] as i64 - hist[i - 1] as i64;
            let e2 = hist[i - 1] as i64 - hist[i - 2] as i64;
            if e1 == d1 && e2 == d2 {
                let mut out = Vec::new();
                let mut addr = line as i64;
                for j in i + 1..n.min(i + 1 + self.degree) {
                    addr += hist[j] as i64 - hist[j - 1] as i64;
                    if addr >= 0 {
                        out.push(addr as u64);
                    }
                }
                return out;
            }
        }
        Vec::new()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Capacities 4–16 wrap the ring many times over a few hundred
    /// misses; deltas drawn from a small alphabet (including zero and
    /// negative steps) make delta pairs recur, and walks near zero make
    /// some replayed targets negative, so they are dropped.
    #[test]
    fn indexed_ghb_matches_the_backward_scan(
        entries in 4usize..=16,
        degree in 1usize..=8,
        start in 0u64..64,
        steps in prop::collection::vec((0usize..6, 0u8..8), 1..400),
    ) {
        const DELTAS: [i64; 6] = [1, 1, 5, -3, 0, -7];
        let mut fast = GhbPrefetcher::new(entries, degree);
        let mut reference = RefGhb::new(entries, degree);
        let mut line = start as i64;
        let mut out = Vec::new();
        for (d, hit) in steps {
            line = (line + DELTAS[d]).max(0);
            let miss = hit != 0;
            out.clear();
            fast.observe(line as u64, miss, &mut out);
            prop_assert_eq!(&out, &reference.observe(line as u64, miss));
        }
    }

    /// Appending never disturbs what the buffer already holds.
    #[test]
    fn observe_appends_after_existing_targets(
        entries in 4usize..=16,
        steps in prop::collection::vec(0usize..3, 4..64),
    ) {
        let mut fast = GhbPrefetcher::new(entries, 4);
        let mut line = 1_000u64;
        let mut out = vec![7, 8];
        for d in steps {
            line += [1, 1, 5][d];
            fast.observe(line, true, &mut out);
            prop_assert_eq!(&out[..2], &[7, 8]);
        }
    }
}
