//! The crate's one hasher, for its integer-keyed maps: the harness's set
//! of unused prefetches, the stride table, the GHB delta-pair index and
//! the perceptron filter's in-flight features.
//!
//! These maps sit on the per-demand path and nothing iterates them, so
//! the hash function cannot reach any result. Their keys are simulated
//! line addresses and delta pairs, so SipHash's resistance to crafted
//! collisions buys nothing here, and it cost a large share of each
//! demand.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci-hashing multiplier: 2^64 / φ, odd.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fixed multiplicative hasher over 64-bit words.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(K);
    }

    fn finish(&self) -> u64 {
        // The table picks the bucket from the low bits, and a product's
        // low bits see only the key's low bits (keys on a power-of-two
        // stride would share them); rotate the well-mixed high half down.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed through [`MulHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// A `HashSet` keyed through [`MulHasher`].
pub(crate) type FastSet<K> = HashSet<K, BuildHasherDefault<MulHasher>>;
