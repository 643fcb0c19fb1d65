//! # ia-prefetch — hardware prefetchers, fixed and adaptive
//!
//! The paper (§III) lists the prefetch controller alongside the memory
//! controller as a component that "sees a vast amount of data and makes a
//! vast number of decisions … yet is incapable of learning from that
//! data". This crate implements the lineage the paper cites:
//!
//! * [`NextLinePrefetcher`], [`StridePrefetcher`] — fixed heuristics.
//! * [`GhbPrefetcher`] — Global History Buffer delta correlation
//!   (Nesbit & Smith, HPCA 2004).
//! * [`FeedbackDirected`] — accuracy-driven aggressiveness control
//!   (Srinath+, HPCA 2007): an early data-driven controller.
//! * [`PerceptronFilter`] — perceptron-based prefetch filtering
//!   (Bhatia+, ISCA 2019): the learning generation.
//! * [`PrefetchHarness`] — drives any prefetcher against a demand stream
//!   through a real cache and measures coverage/accuracy.
//!
//! The per-demand path allocates nothing: [`Prefetcher::observe`]
//! appends its targets to a scratch buffer the harness reuses, the
//! harness probes the cache once per demand (every pending prefetch is
//! resident, so no second lookup is needed), and GHB finds the previous
//! occurrence of a delta pair through an index no larger than its
//! buffer instead of scanning a copy of the history.
//!
//! ## Example
//!
//! ```
//! use ia_prefetch::{PrefetchHarness, StridePrefetcher};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut h = PrefetchHarness::new(16 * 1024, 64, 4, Box::new(StridePrefetcher::new(4)))?;
//! for i in 0..2000u64 {
//!     h.demand(i * 64);
//! }
//! assert!(h.metrics().coverage() > 0.5, "a stride prefetcher must cover a stream");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod feedback;
mod ghb;
mod harness;
mod hash;
pub mod runahead;
mod stride;

pub use feedback::FeedbackDirected;
pub use ghb::GhbPrefetcher;
pub use harness::{PrefetchHarness, PrefetchMetrics};
pub use stride::{NextLinePrefetcher, StridePrefetcher};

use hash::FastMap;
use ia_learn::Perceptron;

/// A hardware prefetcher observing the demand-miss address stream.
pub trait Prefetcher: std::fmt::Debug {
    /// Name for reports.
    fn name(&self) -> &'static str;

    /// Observes a demand access (line address) and whether it missed,
    /// and appends the line addresses to prefetch to `out`.
    ///
    /// `out` is a scratch buffer owned by the caller: an implementation
    /// only pushes to its end and never reads, reorders or removes what
    /// was there before the call. The harness reuses one buffer for
    /// every demand, so observing allocates nothing once it has grown.
    fn observe(&mut self, line: u64, miss: bool, out: &mut Vec<u64>);

    /// Feedback: a previously-issued prefetch for `line` proved useful
    /// (`true`) or was evicted unused (`false`).
    fn feedback(&mut self, _line: u64, _useful: bool) {}
}

/// The targets of one `observe`, in a fresh buffer.
#[cfg(test)]
fn observe_once(p: &mut impl Prefetcher, line: u64, miss: bool) -> Vec<u64> {
    let mut out = Vec::new();
    p.observe(line, miss, &mut out);
    out
}

/// Perceptron features of one prefetch candidate.
type Features = [bool; 8];

/// Perceptron-based prefetch filter: wraps any prefetcher and suppresses
/// the prefetches the perceptron predicts to be useless, learning from
/// the harness's usefulness feedback.
#[derive(Debug)]
pub struct PerceptronFilter<P> {
    inner: P,
    perceptron: Perceptron,
    /// Suppressed prefetch count.
    pub suppressed: u64,
    /// Features of in-flight prefetches, by line.
    inflight: FastMap<u64, Features>,
}

impl<P: Prefetcher> PerceptronFilter<P> {
    /// Wraps `inner` with a freshly-initialized filter.
    ///
    /// # Panics
    ///
    /// Never panics; the feature width is static.
    #[must_use]
    pub fn new(inner: P) -> Self {
        PerceptronFilter {
            inner,
            // lint: allow(P001, static width 8 is always a valid perceptron size)
            perceptron: Perceptron::new(8).expect("static width"),
            suppressed: 0,
            inflight: FastMap::default(),
        }
    }

    fn features(line: u64, distance: i64) -> Features {
        // Low line bits + distance sign/magnitude: the compact feature set
        // hardware filters hash from the request.
        let far = distance.unsigned_abs();
        [
            line & 1 == 1,
            line >> 1 & 1 == 1,
            line >> 2 & 1 == 1,
            line >> 3 & 1 == 1,
            distance > 0,
            far > 1,
            far > 4,
            far > 16,
        ]
    }
}

impl<P: Prefetcher> Prefetcher for PerceptronFilter<P> {
    fn name(&self) -> &'static str {
        "perceptron-filtered"
    }

    fn observe(&mut self, line: u64, miss: bool, out: &mut Vec<u64>) {
        let start = out.len();
        self.inner.observe(line, miss, out);
        // Compact the inner prefetcher's candidates in place, keeping
        // the ones the perceptron lets through, in order.
        let mut kept = start;
        for i in start..out.len() {
            let c = out[i];
            let features = Self::features(c, c as i64 - line as i64);
            let p = self.perceptron.predict(&features);
            if p.taken || p.output.abs() < 20 {
                self.inflight.insert(c, features);
                out[kept] = c;
                kept += 1;
            } else {
                self.suppressed += 1;
            }
        }
        out.truncate(kept);
    }

    fn feedback(&mut self, line: u64, useful: bool) {
        if let Some(features) = self.inflight.remove(&line) {
            self.perceptron.train(&features, useful);
        }
        self.inner.feedback(line, useful);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_learns_to_suppress_useless_prefetches() {
        // Inner prefetcher that always suggests a useless far line and a
        // useful next line.
        #[derive(Debug)]
        struct Noisy;
        impl Prefetcher for Noisy {
            fn name(&self) -> &'static str {
                "noisy"
            }
            fn observe(&mut self, line: u64, _miss: bool, out: &mut Vec<u64>) {
                out.extend([line + 1, line + 1000]);
            }
        }
        let mut f = PerceptronFilter::new(Noisy);
        let mut issued = Vec::new();
        for i in 0..3000u64 {
            issued.clear();
            f.observe(i * 2, true, &mut issued);
            for &p in &issued {
                // The +1 prefetches are useful, the +1000 ones never are.
                f.feedback(p, p == i * 2 + 1);
            }
        }
        assert!(
            f.suppressed > 500,
            "filter should learn to drop the far line: {}",
            f.suppressed
        );
        // After training, a fresh observation should keep the near line.
        let mut kept = vec![42];
        f.observe(1 << 20, true, &mut kept);
        assert_eq!(kept[0], 42, "earlier buffer contents are untouched");
        assert!(
            kept.contains(&((1 << 20) + 1)),
            "useful near prefetch survived: {kept:?}"
        );
    }

    #[test]
    fn filter_name() {
        #[derive(Debug)]
        struct Nop;
        impl Prefetcher for Nop {
            fn name(&self) -> &'static str {
                "nop"
            }
            fn observe(&mut self, _line: u64, _miss: bool, _out: &mut Vec<u64>) {}
        }
        assert_eq!(PerceptronFilter::new(Nop).name(), "perceptron-filtered");
    }
}
