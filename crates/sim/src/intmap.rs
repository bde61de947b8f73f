//! Fixed-hash maps for integer keys.
//!
//! The simulator's maps are keyed by page numbers, PIDs, addresses and
//! register offsets, and several sit on the per-access path (software
//! TLBs, the process table). `std`'s default `RandomState` runs SipHash
//! there, which is slow for one-word keys and seeds every map
//! differently per run. [`IntMap`]/[`IntSet`] instead use an Fx-style
//! multiply-rotate hash: a few cycles per key and the same bucket layout
//! on every run. Keys are trusted simulator state, not adversarial
//! input, so flooding resistance buys nothing here.
//!
//! ```
//! use stramash_sim::IntMap;
//! let mut m: IntMap<u64, u32> = IntMap::default();
//! m.insert(0x1000, 7);
//! assert_eq!(m.get(&0x1000), Some(&7));
//! ```

// The aliases below are the one sanctioned way to name the std maps.
#![allow(clippy::disallowed_types)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiplier (odd, high entropy in every byte).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Fx-style hasher: each word is folded in as
/// `(h.rotl(5) ^ word) * SEED`. `finish` rotates the product's
/// well-mixed high bits down to where the table takes its bucket index,
/// so keys that differ only in high bits (page-aligned addresses) still
/// spread.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Builds [`IntHasher`]s (stateless, so every map hashes identically).
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` with the fixed integer hash.
pub type IntMap<K, V> = HashMap<K, V, IntBuildHasher>;

/// A `HashSet` with the fixed integer hash.
pub type IntSet<K> = HashSet<K, IntBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hash_is_fixed_across_maps() {
        let a = IntBuildHasher::default().hash_one(0xdead_beef_u64);
        let b = IntBuildHasher::default().hash_one(0xdead_beef_u64);
        assert_eq!(a, b);
        assert_ne!(a, IntBuildHasher::default().hash_one(0xdead_bef0_u64));
    }

    #[test]
    fn page_aligned_keys_spread_over_low_bits() {
        // hashbrown takes the bucket index from the low bits; keys that
        // are multiples of 4 KiB must not all land in one bucket.
        let h = IntBuildHasher::default();
        let buckets: IntSet<u64> = (0..256u64).map(|i| h.hash_one(i << 12) & 0xff).collect();
        assert!(buckets.len() > 128, "only {} distinct buckets", buckets.len());
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut m: IntMap<u32, &str> = IntMap::default();
        m.insert(3, "c");
        m.insert(1, "a");
        assert_eq!(m.remove(&3), Some("c"));
        assert_eq!(m.len(), 1);
        let s: IntSet<u64> = [5, 5, 9].into_iter().collect();
        assert_eq!(s.len(), 2);
    }
}
