//! Feedback-directed prefetching (Srinath+, HPCA 2007): measure prefetch
//! accuracy online and throttle aggressiveness accordingly — one of the
//! earliest controllers to make a *data-driven* decision about its own
//! policy.

use crate::stride::StridePrefetcher;
use crate::Prefetcher;

/// A stride prefetcher whose degree is governed by measured accuracy.
#[derive(Debug, Clone)]
pub struct FeedbackDirected {
    inner: StridePrefetcher,
    useful: u64,
    useless: u64,
    /// Feedback events per adjustment interval.
    interval: u64,
    seen: u64,
    /// Accuracy thresholds: above `hi` grow the degree, below `lo` shrink.
    hi: f64,
    lo: f64,
    adjustments: u64,
}

impl FeedbackDirected {
    /// Creates a feedback-directed prefetcher starting at `degree`.
    #[must_use]
    pub fn new(degree: u64) -> Self {
        FeedbackDirected {
            inner: StridePrefetcher::new(degree),
            useful: 0,
            useless: 0,
            interval: 128,
            seen: 0,
            hi: 0.75,
            lo: 0.40,
            adjustments: 0,
        }
    }

    /// Current degree.
    #[must_use]
    pub fn degree(&self) -> u64 {
        self.inner.degree()
    }

    /// Number of degree adjustments made so far.
    #[must_use]
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// Accuracy over the current interval.
    #[must_use]
    pub fn interval_accuracy(&self) -> f64 {
        let total = self.useful + self.useless;
        if total == 0 {
            0.0
        } else {
            self.useful as f64 / total as f64
        }
    }
}

impl Prefetcher for FeedbackDirected {
    fn name(&self) -> &'static str {
        "feedback-directed"
    }

    fn observe(&mut self, line: u64, miss: bool, out: &mut Vec<u64>) {
        self.inner.observe(line, miss, out);
    }

    fn feedback(&mut self, _line: u64, useful: bool) {
        if useful {
            self.useful += 1;
        } else {
            self.useless += 1;
        }
        self.seen += 1;
        if self.seen >= self.interval {
            let acc = self.interval_accuracy();
            let d = self.inner.degree();
            if acc > self.hi {
                self.inner.set_degree(d * 2);
            } else if acc < self.lo {
                self.inner.set_degree(d / 2);
            }
            if self.inner.degree() != d {
                self.adjustments += 1;
            }
            self.useful = 0;
            self.useless = 0;
            self.seen = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accurate_feedback_grows_the_degree() {
        let mut p = FeedbackDirected::new(2);
        for i in 0..200 {
            p.feedback(i, true);
        }
        assert!(
            p.degree() > 2,
            "high accuracy should raise degree, got {}",
            p.degree()
        );
        assert!(p.adjustments() >= 1);
    }

    #[test]
    fn useless_feedback_shrinks_the_degree() {
        let mut p = FeedbackDirected::new(8);
        for i in 0..300 {
            p.feedback(i, false);
        }
        assert!(
            p.degree() < 8,
            "low accuracy should cut degree, got {}",
            p.degree()
        );
    }

    #[test]
    fn mixed_feedback_holds_steady() {
        let mut p = FeedbackDirected::new(4);
        for i in 0..256 {
            p.feedback(i, i % 2 == 0); // 50% accuracy: between thresholds
        }
        assert_eq!(p.degree(), 4);
    }

    #[test]
    fn degree_never_leaves_bounds() {
        let mut p = FeedbackDirected::new(1);
        for i in 0..10_000 {
            p.feedback(i, true);
        }
        assert!(p.degree() <= 64);
        let mut p = FeedbackDirected::new(64);
        for i in 0..10_000 {
            p.feedback(i, false);
        }
        assert!(p.degree() >= 1);
    }

    #[test]
    fn observe_delegates_to_stride_core() {
        let mut p = FeedbackDirected::new(1);
        let mut out = Vec::new();
        p.observe(10, true, &mut out);
        p.observe(11, true, &mut out);
        assert!(out.is_empty(), "two accesses only train");
        p.observe(12, true, &mut out);
        assert_eq!(out, vec![13]);
        assert_eq!(p.name(), "feedback-directed");
    }
}
