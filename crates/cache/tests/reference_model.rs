//! Differential oracle for [`Cache`]: a reference model stores one
//! `Option<Line>` per way and states the victim and insertion-stamp
//! rules as plain iterator chains. Seeded random call streams must get
//! an identical [`CacheAccess`] from both on every call, with identical
//! statistics at the end.

use ia_cache::{Cache, CacheAccess, CacheOp, CacheStats, InsertionPolicy};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    stamp: u64,
}

/// The set-associative cache as one `Option<Line>` per way, addressed by
/// division and remainder.
#[derive(Debug)]
struct RefCache {
    sets: Vec<Vec<Option<Line>>>,
    line_bytes: u64,
    policy: InsertionPolicy,
    stats: CacheStats,
    clock: u64,
    bip_counter: u64,
}

impl RefCache {
    fn new(size_bytes: u64, line_bytes: u64, ways: usize, policy: InsertionPolicy) -> Self {
        let set_count = (size_bytes / line_bytes / ways as u64) as usize;
        RefCache {
            sets: vec![vec![None; ways]; set_count],
            line_bytes,
            policy,
            stats: CacheStats::default(),
            clock: 0,
            bip_counter: 0,
        }
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr / self.line_bytes) % self.sets.len() as u64) as usize
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes / self.sets.len() as u64
    }

    fn addr_of(&self, set: usize, tag: u64) -> u64 {
        (tag * self.sets.len() as u64 + set as u64) * self.line_bytes
    }

    fn contains(&self, addr: u64) -> bool {
        let tag = self.tag_of(addr);
        self.sets[self.set_of(addr)]
            .iter()
            .flatten()
            .any(|l| l.tag == tag)
    }

    fn access_with_priority(
        &mut self,
        addr: u64,
        op: CacheOp,
        high_priority: Option<bool>,
    ) -> CacheAccess {
        self.clock += 1;
        let set_idx = self.set_of(addr);
        let tag = self.tag_of(addr);
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().flatten().find(|l| l.tag == tag) {
            line.stamp = self.clock;
            if op == CacheOp::Write {
                line.dirty = true;
            }
            self.stats.hits += 1;
            return CacheAccess {
                hit: true,
                writeback: None,
                evicted: None,
            };
        }
        self.stats.misses += 1;
        let victim_way = match set.iter().position(Option::is_none) {
            Some(w) => w,
            None => {
                set.iter()
                    .enumerate()
                    .filter_map(|(i, l)| l.map(|l| (i, l.stamp)))
                    .min_by_key(|&(_, stamp)| stamp)
                    .unwrap()
                    .0
            }
        };
        let (mut writeback, mut evicted) = (None, None);
        if let Some(old) = set[victim_way] {
            let addr = self.addr_of(set_idx, old.tag);
            evicted = Some(addr);
            if old.dirty {
                writeback = Some(addr);
                self.stats.writebacks += 1;
            }
            self.stats.evictions += 1;
        }
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
        let set = &mut self.sets[set_idx];
        let stamp = if mru {
            self.clock
        } else {
            set.iter()
                .flatten()
                .map(|l| l.stamp)
                .min()
                .unwrap_or(1)
                .saturating_sub(1)
        };
        set[victim_way] = Some(Line {
            tag,
            dirty: op == CacheOp::Write,
            stamp,
        });
        CacheAccess {
            hit: false,
            writeback,
            evicted,
        }
    }

    fn invalidate(&mut self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        for slot in &mut self.sets[set] {
            if let Some(line) = slot {
                if line.tag == tag {
                    let dirty = line.dirty;
                    *slot = None;
                    return dirty;
                }
            }
        }
        false
    }

    fn reset(&mut self) {
        for set in &mut self.sets {
            set.iter_mut().for_each(|l| *l = None);
        }
        self.stats = CacheStats::default();
        self.clock = 0;
    }
}

/// `(size_bytes, line_bytes, ways)`: direct-mapped, set-associative and
/// fully-associative shapes, including 1-byte lines with a single set.
const GEOMETRIES: [(u64, u64, usize); 6] = [
    (512, 64, 2),
    (4096, 64, 8),
    (256, 32, 1),
    (1024, 16, 16),
    (8, 1, 8),
    (2048, 128, 4),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn soa_cache_matches_the_reference_model(
        geometry in 0usize..GEOMETRIES.len(),
        policy_sel in 0u8..3,
        mru_per_mille in 0u16..=1000,
        ops in prop::collection::vec((0u8..16, 0u64..(1 << 14), 0u8..8), 1..600),
    ) {
        let (size, line, ways) = GEOMETRIES[geometry];
        let policy = match policy_sel {
            0 => InsertionPolicy::Mru,
            1 => InsertionPolicy::Lru,
            _ => InsertionPolicy::Bimodal { mru_per_mille },
        };
        let mut soa = Cache::new(size, line, ways).unwrap().with_insertion_policy(policy);
        let mut reference = RefCache::new(size, line, ways, policy);
        for (kind, raw, high) in ops {
            // One address in eight sits at the top of the address space,
            // where tags are widest.
            let addr = if high == 0 { u64::MAX - raw } else { raw };
            match kind {
                0..=5 => {
                    let (op, prio) = match kind {
                        0 | 1 => (CacheOp::Read, None),
                        2 => (CacheOp::Write, None),
                        3 => (CacheOp::Read, Some(true)),
                        4 => (CacheOp::Read, Some(false)),
                        _ => (CacheOp::Write, Some(false)),
                    };
                    prop_assert_eq!(
                        soa.access_with_priority(addr, op, prio),
                        reference.access_with_priority(addr, op, prio)
                    );
                }
                6..=12 => prop_assert_eq!(
                    soa.access(addr, CacheOp::Read),
                    reference.access_with_priority(addr, CacheOp::Read, None)
                ),
                13 | 14 => prop_assert_eq!(soa.invalidate(addr), reference.invalidate(addr)),
                _ => {
                    if raw % 8 == 0 {
                        soa.reset();
                        reference.reset();
                    }
                }
            }
            prop_assert_eq!(soa.contains(addr), reference.contains(addr));
        }
        prop_assert_eq!(soa.stats(), &reference.stats);
    }
}
