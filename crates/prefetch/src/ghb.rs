//! Global History Buffer prefetching (Nesbit & Smith, HPCA 2004):
//! a FIFO of recent miss addresses with delta-correlation lookup — the
//! technique that generalizes stride detection to recurring delta
//! *sequences* (e.g. the +1,+1,+5 walk of a blocked loop).

use crate::hash::FastMap;
use crate::Prefetcher;

/// Two consecutive miss deltas: `(older, newer)`.
type DeltaPair = (i64, i64);

/// GHB delta-correlation prefetcher.
///
/// Misses get consecutive sequence numbers; miss `s` sits in ring slot
/// `s % capacity`, and the window is the newest `capacity` misses. A
/// delta pair *ends* at the miss whose arrival completes it. `index`
/// maps each pair to the sequence number of the most recent miss that
/// ended it, so finding the previous occurrence of the newest pair is
/// one map lookup instead of a scan of the buffer. The pair a miss
/// *started* is removed when that miss leaves the window, so all three
/// misses of every indexed pair are still in the window, and the index
/// never holds more entries than the buffer.
#[derive(Debug, Clone)]
pub struct GhbPrefetcher {
    /// Circular miss-address history.
    history: Vec<u64>,
    /// Misses pushed so far: the next miss's sequence number.
    misses: usize,
    index: FastMap<DeltaPair, usize>,
    degree: usize,
}

impl GhbPrefetcher {
    /// Creates a GHB of `entries` miss addresses with the given prefetch
    /// degree.
    #[must_use]
    pub fn new(entries: usize, degree: usize) -> Self {
        let capacity = entries.max(4);
        GhbPrefetcher {
            history: vec![0; capacity],
            misses: 0,
            index: FastMap::with_capacity_and_hasher(capacity, Default::default()),
            degree: degree.max(1),
        }
    }

    /// The line of miss `seq`, which must be in the window.
    fn at(&self, seq: usize) -> u64 {
        self.history[seq % self.history.len()]
    }

    /// The delta from miss `seq - 1` to miss `seq`.
    fn delta(&self, seq: usize) -> i64 {
        (self.at(seq) as i64).wrapping_sub(self.at(seq - 1) as i64)
    }

    /// The delta pair ending at miss `seq` (`seq >= 2`).
    fn pair_ending(&self, seq: usize) -> DeltaPair {
        (self.delta(seq - 1), self.delta(seq))
    }
}

impl Prefetcher for GhbPrefetcher {
    fn name(&self) -> &'static str {
        "GHB delta-correlation"
    }

    fn observe(&mut self, line: u64, miss: bool, out: &mut Vec<u64>) {
        if !miss {
            return;
        }
        let capacity = self.history.len();
        let seq = self.misses;
        if seq >= capacity {
            // Miss `seq - capacity` leaves the window: drop the pair it
            // started, unless a later miss has ended the same pair since.
            let ended = seq - capacity + 2;
            let pair = self.pair_ending(ended);
            if self.index.get(&pair) == Some(&ended) {
                self.index.remove(&pair);
            }
        }
        self.history[seq % capacity] = line;
        self.misses += 1;
        if seq < 2 {
            return;
        }
        // Record the newest pair and fetch its previous occurrence.
        let previous = self.index.insert(self.pair_ending(seq), seq);
        debug_assert!(self.index.len() <= capacity, "index outgrew the buffer");
        let Some(matched) = previous else {
            return;
        };
        debug_assert!(
            matched - 2 >= self.misses.saturating_sub(capacity),
            "an indexed match started outside the window"
        );
        // Replay the deltas that followed the match, from this miss.
        let mut addr = line as i64;
        for j in matched + 1..=seq.min(matched + self.degree) {
            addr = addr.wrapping_add(self.delta(j));
            if addr >= 0 {
                out.push(addr as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe_once as observe;

    #[test]
    fn replays_a_recurring_delta_sequence() {
        // Pattern: +1, +1, +5 repeating — pure stride detection fails,
        // delta correlation succeeds. Each delta pair of the cycle fixes
        // the next two deltas, so once one period has been seen, every
        // miss predicts exactly the next two addresses of the walk.
        let deltas = [1u64, 1, 5];
        let walk: Vec<u64> = (0..32)
            .scan(100u64, |addr, i| {
                let here = *addr;
                *addr += deltas[i % 3];
                Some(here)
            })
            .collect();
        let mut p = GhbPrefetcher::new(64, 2);
        for (i, &addr) in walk[..30].iter().enumerate() {
            let out = observe(&mut p, addr, true);
            if i > 10 {
                assert_eq!(out, walk[i + 1..i + 3], "miss {i} at {addr}");
            }
        }
    }

    #[test]
    fn predicts_the_right_next_address_for_strides() {
        let mut p = GhbPrefetcher::new(32, 1);
        for i in 0..10u64 {
            let out = observe(&mut p, 100 + i, true);
            if i >= 3 {
                assert_eq!(out, vec![100 + i + 1], "unit stride replay at step {i}");
            }
        }
    }

    #[test]
    fn silent_without_history_or_on_hits() {
        let mut p = GhbPrefetcher::new(16, 2);
        assert!(observe(&mut p, 5, true).is_empty());
        assert!(observe(&mut p, 9, false).is_empty());
        assert_eq!(p.name(), "GHB delta-correlation");
    }

    #[test]
    fn index_never_outgrows_the_buffer() {
        let mut p = GhbPrefetcher::new(8, 2);
        let mut line = 0u64;
        for i in 0..1000u64 {
            // Deltas from a cycle of 7, so pairs recur but not in step
            // with the buffer's wrap.
            line += 1 + i * i % 7;
            observe(&mut p, line, true);
            assert!(p.index.len() <= 8, "{} pairs after miss {i}", p.index.len());
        }
        assert_eq!(p.misses, 1000);
    }
}
