//! Fixed-heuristic prefetchers: next-line and region-based stride
//! detection.

use crate::hash::FastMap;
use crate::Prefetcher;

/// Prefetches the next `degree` sequential lines on every miss.
#[derive(Debug, Clone)]
pub struct NextLinePrefetcher {
    degree: u64,
}

impl NextLinePrefetcher {
    /// Creates a next-line prefetcher of the given degree (≥ 1).
    #[must_use]
    pub fn new(degree: u64) -> Self {
        NextLinePrefetcher {
            degree: degree.max(1),
        }
    }
}

impl Prefetcher for NextLinePrefetcher {
    fn name(&self) -> &'static str {
        "next-line"
    }

    fn observe(&mut self, line: u64, miss: bool, out: &mut Vec<u64>) {
        if miss {
            out.extend((1..=self.degree).map(|d| line + d));
        }
    }
}

/// Region-based stride detection (a reference-prediction table keyed by
/// 4 KiB region in lieu of a PC): after two accesses with a repeating
/// delta in the same region, prefetch `degree` lines ahead along it.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    degree: u64,
    /// region → (last line, last delta, confidence).
    table: FastMap<u64, (u64, i64, u8)>,
    capacity: usize,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher of the given degree.
    #[must_use]
    pub fn new(degree: u64) -> Self {
        StridePrefetcher {
            degree: degree.max(1),
            table: FastMap::default(),
            capacity: 256,
        }
    }

    /// Current prefetch degree.
    #[must_use]
    pub fn degree(&self) -> u64 {
        self.degree
    }

    /// Adjusts the degree (used by feedback-directed control).
    pub fn set_degree(&mut self, degree: u64) {
        self.degree = degree.clamp(1, 64);
    }
}

impl Prefetcher for StridePrefetcher {
    fn name(&self) -> &'static str {
        "stride"
    }

    fn observe(&mut self, line: u64, _miss: bool, out: &mut Vec<u64>) {
        let region = line >> 6; // 64 lines = 4 KiB regions
        if self.table.len() >= self.capacity && !self.table.contains_key(&region) {
            self.table.clear(); // cheap bulk invalidation, as hardware does
        }
        let entry = self.table.entry(region).or_insert((line, 0, 0));
        let delta = line as i64 - entry.0 as i64;
        let (confident, stride) = if delta != 0 && delta == entry.1 {
            entry.2 = entry.2.saturating_add(1);
            (entry.2 >= 1, delta)
        } else {
            entry.2 = 0;
            (false, 0)
        };
        entry.0 = line;
        entry.1 = delta;
        if confident && stride != 0 {
            out.extend((1..=self.degree).filter_map(|d| {
                let target = line as i64 + stride * d as i64;
                (target >= 0).then_some(target as u64)
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe_once as observe;

    #[test]
    fn next_line_prefetches_on_miss_only() {
        let mut p = NextLinePrefetcher::new(2);
        assert_eq!(observe(&mut p, 10, true), vec![11, 12]);
        assert!(observe(&mut p, 10, false).is_empty());
        assert_eq!(p.name(), "next-line");
    }

    #[test]
    fn stride_detects_unit_stride() {
        let mut p = StridePrefetcher::new(2);
        assert!(observe(&mut p, 100, true).is_empty(), "first access trains");
        assert!(
            observe(&mut p, 101, true).is_empty(),
            "second sets the delta"
        );
        let out = observe(&mut p, 102, true);
        assert_eq!(out, vec![103, 104], "third confirms and prefetches");
    }

    #[test]
    fn stride_detects_negative_and_large_strides() {
        let mut p = StridePrefetcher::new(1);
        observe(&mut p, 100, true);
        observe(&mut p, 97, true);
        let out = observe(&mut p, 94, true);
        assert_eq!(out, vec![91]);
    }

    #[test]
    fn stride_resets_on_broken_pattern() {
        let mut p = StridePrefetcher::new(1);
        observe(&mut p, 10, true);
        observe(&mut p, 11, true);
        assert!(!observe(&mut p, 12, true).is_empty());
        assert!(observe(&mut p, 40, true).is_empty(), "pattern broken");
        assert!(observe(&mut p, 41, true).is_empty(), "retraining");
        assert!(!observe(&mut p, 42, true).is_empty());
    }

    #[test]
    fn regions_are_independent() {
        let mut p = StridePrefetcher::new(1);
        // Interleave two regions with different strides.
        observe(&mut p, 0, true);
        observe(&mut p, 1000, true);
        observe(&mut p, 1, true);
        observe(&mut p, 1002, true);
        assert_eq!(observe(&mut p, 2, true), vec![3]);
        assert_eq!(observe(&mut p, 1004, true), vec![1006]);
    }

    #[test]
    fn degree_is_clamped() {
        let mut p = StridePrefetcher::new(4);
        p.set_degree(0);
        assert_eq!(p.degree(), 1);
        p.set_degree(1000);
        assert_eq!(p.degree(), 64);
    }
}
