//! Set-associative cache with pluggable insertion policy.
//!
//! The replacement stack is LRU; what varies across the published designs
//! the paper cites is the *insertion* position (MRU vs LRU vs bimodal —
//! Qureshi+, ISCA 2007) and whether an external filter demotes insertion
//! priority (the Evicted-Address Filter). Both knobs are exposed here.

use crate::error::CacheError;

/// Load or store, as seen by a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheOp {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Where a filled line is inserted in the recency stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InsertionPolicy {
    /// Traditional: insert at most-recently-used.
    #[default]
    Mru,
    /// LIP: insert at least-recently-used (thrash-resistant).
    Lru,
    /// BIP: insert at MRU with small probability ε, else at LRU.
    Bimodal {
        /// Per-mille probability of an MRU insertion (ε·1000).
        mru_per_mille: u16,
    },
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// Evicted dirty line's address, if the fill displaced one (a
    /// writeback the next level must absorb).
    pub writeback: Option<u64>,
    /// Evicted line address (clean or dirty), if any.
    pub evicted: Option<u64>,
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Evictions.
    pub evictions: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1]; zero if no accesses.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Merges another counter set into this one (e.g. to aggregate the
    /// stats of several cache slices or epochs).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
    }
}

impl ia_telemetry::MetricSource for CacheStats {
    fn export_into(&self, scope: &mut ia_telemetry::Scope<'_>) {
        scope.set_counter("hits", self.hits);
        scope.set_counter("misses", self.misses);
        scope.set_counter("evictions", self.evictions);
        scope.set_counter("writebacks", self.writebacks);
        scope.set_gauge("hit_rate", self.hit_rate());
    }
}

/// Tag of an empty way. A real tag equals it only when the line size
/// and the set count are both 1 and the address is `u64::MAX`; only then
/// does a lookup also check the way's stamp.
const EMPTY_TAG: u64 = u64::MAX;

/// Stamp of an empty way. Real stamps are at most the access clock,
/// which would need `u64::MAX` accesses to reach it.
const EMPTY_STAMP: u64 = u64::MAX;

/// A set-associative write-back cache.
///
/// Storage is struct-of-arrays and set-major: way `w` of set `s` sits at
/// index `s * ways + w` of the `tags`, `stamps` and `dirty` arrays, so
/// the hit check scans one contiguous row of tags (64 bytes at 8 ways).
/// An empty way holds [`EMPTY_TAG`] and [`EMPTY_STAMP`]. Sets and tags
/// come from shifts and masks, since line size and set count are powers
/// of two.
///
/// # Examples
///
/// ```
/// use ia_cache::{Cache, CacheOp};
/// let mut c = Cache::new(32 * 1024, 64, 8)?;
/// let miss = c.access(0x1000, CacheOp::Read);
/// let hit = c.access(0x1000, CacheOp::Read);
/// assert!(!miss.hit && hit.hit);
/// # Ok::<(), ia_cache::CacheError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    tags: Vec<u64>,
    /// Recency stamps: larger = more recent.
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    line_bytes: u64,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `log2(set count)`.
    set_bits: u32,
    /// `set count - 1`.
    set_mask: u64,
    ways: usize,
    policy: InsertionPolicy,
    stats: CacheStats,
    clock: u64,
    /// Deterministic counter driving the bimodal choice.
    bip_counter: u64,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `line_bytes` lines and `ways`
    /// associativity, using MRU insertion.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] if sizes are zero, not powers of two where
    /// required, or inconsistent (size not divisible by line×ways).
    pub fn new(size_bytes: u64, line_bytes: u64, ways: usize) -> Result<Self, CacheError> {
        if size_bytes == 0 || line_bytes == 0 || ways == 0 {
            return Err(CacheError::invalid("cache dimensions must be non-zero"));
        }
        if !line_bytes.is_power_of_two() {
            return Err(CacheError::invalid("line size must be a power of two"));
        }
        let divisible = line_bytes
            .checked_mul(ways as u64)
            .is_some_and(|row| size_bytes.is_multiple_of(row));
        if !divisible {
            return Err(CacheError::invalid(
                "size must be divisible by line size × ways",
            ));
        }
        let set_count = size_bytes / line_bytes / ways as u64;
        if !set_count.is_power_of_two() {
            return Err(CacheError::invalid("set count must be a power of two"));
        }
        let slots = set_count as usize * ways;
        Ok(Cache {
            tags: vec![EMPTY_TAG; slots],
            stamps: vec![EMPTY_STAMP; slots],
            dirty: vec![false; slots],
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            set_bits: set_count.trailing_zeros(),
            set_mask: set_count - 1,
            ways,
            policy: InsertionPolicy::Mru,
            stats: CacheStats::default(),
            clock: 0,
            bip_counter: 0,
        })
    }

    /// Sets the insertion policy (chainable).
    #[must_use]
    pub fn with_insertion_policy(mut self, policy: InsertionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The insertion policy in use.
    #[must_use]
    pub fn insertion_policy(&self) -> InsertionPolicy {
        self.policy
    }

    /// Mutably changes the insertion policy (for set dueling).
    pub fn set_insertion_policy(&mut self, policy: InsertionPolicy) {
        self.policy = policy;
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of sets.
    #[must_use]
    pub fn set_count(&self) -> usize {
        self.set_mask as usize + 1
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Set index of an address.
    #[must_use]
    pub fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift >> self.set_bits
    }

    fn addr_of(&self, set: usize, tag: u64) -> u64 {
        ((tag << self.set_bits) | set as u64) << self.line_shift
    }

    /// The way of set row `base` holding `tag`, if any.
    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        let row = &self.tags[base..base + self.ways];
        let w = row.iter().position(|&t| t == tag)?;
        if tag != EMPTY_TAG {
            return Some(w);
        }
        (w..self.ways).find(|&w| row[w] == tag && self.stamps[base + w] != EMPTY_STAMP)
    }

    /// Whether `addr` is currently cached (no state change).
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        self.find(self.set_of(addr) * self.ways, self.tag_of(addr))
            .is_some()
    }

    /// Accesses `addr`, filling on miss. Returns hit/eviction information.
    pub fn access(&mut self, addr: u64, op: CacheOp) -> CacheAccess {
        self.access_with_priority(addr, op, None)
    }

    /// Accesses `addr` with an explicit insertion override: `Some(true)`
    /// forces MRU insertion, `Some(false)` forces LRU insertion (used by
    /// the EAF and data-aware policies), `None` uses the default policy.
    // lint: hot-path
    pub fn access_with_priority(
        &mut self,
        addr: u64,
        op: CacheOp,
        high_priority: Option<bool>,
    ) -> CacheAccess {
        self.clock += 1;
        let set_idx = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set_idx * self.ways;

        // Hit path: promote to MRU, mark dirty on write.
        if let Some(w) = self.find(base, tag) {
            self.stamps[base + w] = self.clock;
            if op == CacheOp::Write {
                self.dirty[base + w] = true;
            }
            self.stats.hits += 1;
            return CacheAccess {
                hit: true,
                writeback: None,
                evicted: None,
            };
        }
        self.stats.misses += 1;

        // Miss path: the victim is the first empty way, else the first
        // way with the minimum stamp. `min_stamp` is the minimum over the
        // valid ways (the victim included), for LRU insertion below.
        let stamps = &self.stamps[base..base + self.ways];
        let mut empty_way = None;
        let (mut lru_way, mut min_stamp) = (0, EMPTY_STAMP);
        for (w, &s) in stamps.iter().enumerate() {
            if s == EMPTY_STAMP {
                empty_way = empty_way.or(Some(w));
            } else if s < min_stamp {
                (lru_way, min_stamp) = (w, s);
            }
        }
        let victim = base + empty_way.unwrap_or(lru_way);
        let (mut writeback, mut evicted) = (None, None);
        if empty_way.is_none() {
            let addr = self.addr_of(set_idx, self.tags[victim]);
            evicted = Some(addr);
            self.stats.evictions += 1;
            if self.dirty[victim] {
                writeback = Some(addr);
                self.stats.writebacks += 1;
            }
        }

        // Insertion stamp per policy (LRU insertion = oldest stamp in set).
        let mru = match high_priority {
            Some(p) => p,
            None => match self.policy {
                InsertionPolicy::Mru => true,
                InsertionPolicy::Lru => false,
                InsertionPolicy::Bimodal { mru_per_mille } => {
                    self.bip_counter = self.bip_counter.wrapping_add(1);
                    (self.bip_counter % 1000) < u64::from(mru_per_mille)
                }
            },
        };
        self.stamps[victim] = if mru {
            self.clock
        } else if min_stamp == EMPTY_STAMP {
            // An empty set: the new line is the only one.
            0
        } else {
            // One below the current minimum: next miss evicts this line
            // unless it is re-referenced (which promotes it).
            min_stamp.saturating_sub(1)
        };
        self.tags[victim] = tag;
        self.dirty[victim] = op == CacheOp::Write;
        CacheAccess {
            hit: false,
            writeback,
            evicted,
        }
    }

    /// Invalidates `addr` if present; returns `true` if a dirty line was
    /// dropped (caller must write it back).
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let base = self.set_of(addr) * self.ways;
        let Some(w) = self.find(base, self.tag_of(addr)) else {
            return false;
        };
        self.tags[base + w] = EMPTY_TAG;
        self.stamps[base + w] = EMPTY_STAMP;
        std::mem::replace(&mut self.dirty[base + w], false)
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.tags.fill(EMPTY_TAG);
        self.stamps.fill(EMPTY_STAMP);
        self.dirty.fill(false);
        self.stats = CacheStats::default();
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_and_export() {
        let mut c = tiny();
        c.access(0x0, CacheOp::Read);
        c.access(0x0, CacheOp::Read);
        c.access(0x40, CacheOp::Write);
        let mut total = CacheStats::default();
        total.merge(c.stats());
        total.merge(c.stats());
        assert_eq!(total.accesses(), 6);

        let mut reg = ia_telemetry::Registry::new();
        reg.collect("llc", c.stats());
        let snap = reg.snapshot(0);
        assert_eq!(snap.counter("llc.hits"), Some(1));
        assert_eq!(snap.counter("llc.misses"), Some(2));
        assert!((snap.gauge("llc.hit_rate").unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(512, 64, 2).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Cache::new(0, 64, 4).is_err());
        assert!(Cache::new(1024, 0, 4).is_err());
        assert!(Cache::new(1024, 64, 0).is_err());
        assert!(Cache::new(1024, 48, 4).is_err(), "line not power of two");
        assert!(
            Cache::new(64 * 3, 64, 1).is_err(),
            "3 sets not a power of two"
        );
    }

    #[test]
    fn size_must_be_a_whole_number_of_set_rows() {
        let err = Cache::new(100, 64, 1).unwrap_err();
        assert!(err.to_string().contains("divisible"), "{err}");
        assert!(Cache::new(64 * 6, 64, 4).is_err(), "1.5 rows of 4 ways");
        assert!(
            Cache::new(u64::MAX, 1 << 63, 4).is_err(),
            "line × ways overflows"
        );
        assert!(Cache::new(128, 64, 1).is_ok());
    }

    #[test]
    fn an_empty_way_never_matches_a_real_tag() {
        // The widest tags: 1-byte lines in one set leave every address
        // bit in the tag, so address `u64::MAX` has the empty-way tag.
        for (size, line, ways) in [(1, 1, 1), (4, 1, 4), (2, 1, 1), (64, 64, 1), (512, 64, 2)] {
            for addr in [u64::MAX, u64::MAX - 1, 0, line - 1] {
                let mut c = Cache::new(size, line, ways).unwrap();
                assert!(
                    !c.contains(addr),
                    "{size}/{line}/{ways}: empty cache holds {addr:#x}"
                );
                assert!(!c.invalidate(addr));
                assert!(!c.access(addr, CacheOp::Write).hit, "cold access must miss");
                assert!(c.contains(addr));
                assert!(c.access(addr, CacheOp::Read).hit);
                assert!(c.invalidate(addr), "the dirty line is dropped");
                assert!(
                    !c.contains(addr),
                    "{size}/{line}/{ways}: invalidated way still matches"
                );
                assert!(!c.access(addr, CacheOp::Read).hit);
            }
        }
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x0, CacheOp::Read).hit);
        assert!(c.access(0x0, CacheOp::Read).hit);
        assert!(c.contains(0x0));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_set_conflict_evicts_lru() {
        let mut c = tiny();
        // Set stride = 4 sets × 64 = 256 bytes; these three map to set 0.
        c.access(0, CacheOp::Read);
        c.access(256, CacheOp::Read);
        c.access(0, CacheOp::Read); // 0 is now MRU
        let r = c.access(512, CacheOp::Read); // evicts 256
        assert_eq!(r.evicted, Some(256));
        assert!(c.contains(0));
        assert!(!c.contains(256));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = tiny();
        c.access(0, CacheOp::Write);
        c.access(256, CacheOp::Read);
        let r = c.access(512, CacheOp::Read); // evicts 0 (LRU, dirty)
        assert_eq!(r.writeback, Some(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0, CacheOp::Read);
        c.access(256, CacheOp::Read);
        let r = c.access(512, CacheOp::Read);
        assert_eq!(r.evicted, Some(0));
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn lru_insertion_is_thrash_resistant() {
        // Working set of 3 lines cycling through a 2-way set: MRU insertion
        // yields zero hits; LRU insertion lets part of the set stick.
        let run = |policy: InsertionPolicy| {
            let mut c = Cache::new(128, 64, 2)
                .unwrap()
                .with_insertion_policy(policy);
            for _ in 0..100 {
                for addr in [0u64, 128, 256] {
                    c.access(addr, CacheOp::Read);
                }
            }
            c.stats().hits
        };
        let mru_hits = run(InsertionPolicy::Mru);
        let lip_hits = run(InsertionPolicy::Lru);
        assert_eq!(mru_hits, 0, "cyclic thrash defeats MRU insertion");
        assert!(
            lip_hits > 50,
            "LIP must retain part of the working set: {lip_hits}"
        );
    }

    #[test]
    fn bimodal_occasionally_inserts_mru() {
        let mut c = Cache::new(128, 64, 2)
            .unwrap()
            .with_insertion_policy(InsertionPolicy::Bimodal { mru_per_mille: 500 });
        for i in 0..100u64 {
            c.access(i * 128, CacheOp::Read);
        }
        assert_eq!(c.stats().misses, 100);
    }

    #[test]
    fn priority_override_pins_hot_line() {
        let mut c = Cache::new(128, 64, 2).unwrap();
        c.access_with_priority(0, CacheOp::Read, Some(true));
        // Low-priority fills should evict each other, not the pinned line.
        for i in 1..50u64 {
            c.access_with_priority(i * 128, CacheOp::Read, Some(false));
        }
        assert!(
            c.contains(0),
            "high-priority line survived low-priority churn"
        );
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.access(0, CacheOp::Write);
        assert!(c.invalidate(0));
        assert!(!c.contains(0));
        c.access(64, CacheOp::Read);
        assert!(!c.invalidate(64));
        assert!(!c.invalidate(0x9999));
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(0, CacheOp::Write);
        c.reset();
        assert!(!c.contains(0));
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn hit_rate_math() {
        let mut c = tiny();
        c.access(0, CacheOp::Read);
        c.access(0, CacheOp::Read);
        c.access(0, CacheOp::Read);
        c.access(64, CacheOp::Read);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }
}
