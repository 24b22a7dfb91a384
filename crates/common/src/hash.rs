//! An fx-style fast hasher.
//!
//! The dynamic index performs several hash-map lookups per propagation step
//! and per retrieve, almost always on small integer-like keys. SipHash (the
//! standard-library default) is needlessly slow for that workload; this is
//! the classic Firefox/rustc "fx" multiply-rotate hash, implemented in-tree
//! because the workspace's offline dependency set does not include
//! `rustc-hash`. HashDoS resistance is irrelevant here: keys come from our
//! own data generators, not from adversaries.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The fx multiply-rotate hasher.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Consume 8-byte chunks, then the tail. The index's hot keys
        // (`Key`, u64, u32) never take this path, but completeness keeps the
        // hasher usable for strings in the data generators.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// Hashes a single value with [`FxHasher`]; convenient for content-hash
/// dedup tables.
#[inline]
pub fn fx_hash_one<T: std::hash::Hash>(v: &T) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// One fx round: the `FxHasher::add_to_hash` step as a pure function.
#[inline(always)]
fn fx_mix(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// Hashes one bare `u64` per row — the `FxHasher::write_u64` + `finish`
/// chain the sharded executor routes partition columns through, vectorized.
pub fn fx_hash_words(words: &[u64], out: &mut Vec<u64>) {
    out.reserve(words.len());
    out.extend(words.iter().map(|&w| fx_mix(0, w)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Key;

    #[test]
    fn deterministic() {
        assert_eq!(fx_hash_one(&42u64), fx_hash_one(&42u64));
        assert_eq!(fx_hash_one(&"abc"), fx_hash_one(&"abc"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(fx_hash_one(&1u64), fx_hash_one(&2u64));
        assert_ne!(fx_hash_one(&[1u64, 2]), fx_hash_one(&[2u64, 1]));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<Key, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(Key::from_slice(&[i, i * 3]), i as u32);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m[&Key::from_slice(&[i, i * 3])], i as u32);
        }
    }

    #[test]
    fn byte_tail_handling() {
        // Strings whose lengths straddle the 8-byte chunk boundary must all
        // hash distinctly and consistently.
        let inputs = ["", "a", "abcdefg", "abcdefgh", "abcdefghi"];
        let hashes: Vec<u64> = inputs.iter().map(fx_hash_one).collect();
        for i in 0..hashes.len() {
            for j in (i + 1)..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "{:?} vs {:?}", inputs[i], inputs[j]);
            }
        }
    }

    #[test]
    fn word_kernel_matches_write_u64_chain() {
        let words: Vec<u64> = (0..9u64).map(|i| i * 0x1234_5678).collect();
        let mut out = Vec::new();
        fx_hash_words(&words, &mut out);
        let expect: Vec<u64> = words
            .iter()
            .map(|&w| {
                let mut h = FxHasher::default();
                h.write_u64(w);
                h.finish()
            })
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn spread_is_reasonable() {
        // Sequential u64 keys must not collapse into a few buckets: count
        // distinct low-10-bit patterns across 1024 sequential keys.
        let mut seen = FxHashSet::default();
        for i in 0..1024u64 {
            seen.insert(fx_hash_one(&i) & 0x3ff);
        }
        assert!(seen.len() > 600, "poor low-bit spread: {}", seen.len());
    }
}
