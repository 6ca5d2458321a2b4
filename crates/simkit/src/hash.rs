//! A seeded, deterministic fast hasher for hot-path hash maps.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 behind a per-process
//! `RandomState`: robust against adversarial keys, but ~10× the cost of a
//! multiply-mix hash on the short fixed keys the simulator looks up millions
//! of times per run (block-cache keys, interned row keys, table ids) — and
//! randomly seeded, so map iteration order varies between runs. Neither
//! property is wanted here: keys come from the workload generator, not an
//! adversary, and determinism is the whole point of the harness. This module
//! provides an FxHash-style word-at-a-time multiply-rotate hasher with a
//! fixed seed, so any map built on it hashes fast *and* iterates in the same
//! order on every run of every platform.
//!
//! Callers must still not let map iteration order leak into simulation
//! results (the byte-identity CI checks enforce that); the fixed seed just
//! removes the run-to-run wobble on paths where order is unobservable.
//!
//! The module also holds the one FNV-1a ([`fnv1a`], with its finalizer
//! [`fnv_avalanche`]) behind bloom filters, the hashing ring and YCSB's key
//! scrambling.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from FxHash (Firefox's hasher): a dense-odd constant with good
/// avalanche behaviour under `rotate ^ mul`.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Fixed seed folded into every hash stream. Arbitrary non-zero constant;
/// changing it reshuffles map iteration order everywhere at once.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-1a's 64-bit offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a's 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over `data` from a seeded offset basis: seed 0 keeps FNV's own
/// basis, any other seed is spread into it by the golden-ratio multiplier,
/// so streams of different seeds come apart once finished with
/// [`fnv_avalanche`].
#[inline]
pub fn fnv1a(data: &[u8], seed: u64) -> u64 {
    let mut h = FNV_BASIS ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The finalizer of an [`fnv1a`] hash: two xor-shifts around one multiply
/// (the first half of MurmurHash3's `fmix64`), so every input bit reaches
/// the high bits that a range split or a modulus reads.
#[inline]
pub fn fnv_avalanche(h: u64) -> u64 {
    let h = (h ^ (h >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}

/// An FxHash-style streaming hasher: one rotate-xor-multiply per word.
#[derive(Debug, Clone)]
pub struct FastHasher {
    hash: u64,
}

impl Default for FastHasher {
    fn default() -> Self {
        Self { hash: SEED }
    }
}

impl FastHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Final mix so low-entropy single-word keys (small integers) spread
        // into the high bits HashMap's bucket mask uses.
        let h = self.hash;
        h ^ (h >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.add_word(u64::from_le_bytes(w));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "a" and "a\0" hash differently.
            self.add_word(u64::from_le_bytes(w) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }
}

/// `BuildHasher` producing [`FastHasher`]s; `Default` so map constructors
/// stay one-liners.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` on the seeded fast hasher: deterministic iteration order,
/// one multiply per word hashed.
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` on the seeded fast hasher.
pub type FastHashSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FastHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn fnv_outputs_are_pinned() {
        assert_eq!(fnv1a(b"", 0), FNV_BASIS);
        assert_eq!(fnv1a(&42u64.to_le_bytes(), 0), 0xff3a_dd6b_3789_daef);
        assert_eq!(
            fnv_avalanche(fnv1a(&42u64.to_le_bytes(), 0)),
            0xd0bb_11c1_574a_2cf2
        );
        assert_eq!(fnv_avalanche(fnv1a(b"a", 0x51ed)), 0xa5e6_0110_e5d1_31a3);
    }

    #[test]
    fn deterministic_across_builders() {
        let b1 = FastBuildHasher::default();
        let b2 = FastBuildHasher::default();
        for key in [&b"user000042"[..], b"", b"a", b"0123456789abcdef"] {
            assert_eq!(b1.hash_one(key), b2.hash_one(key));
        }
    }

    #[test]
    fn distinguishes_prefixes_and_lengths() {
        assert_ne!(hash_of(b"a"), hash_of(b"b"));
        assert_ne!(hash_of(b"a"), hash_of(b"a\0"));
        assert_ne!(hash_of(b"user000001"), hash_of(b"user000002"));
        assert_ne!(hash_of(b""), hash_of(b"\0"));
    }

    #[test]
    fn spreads_sequential_integer_keys() {
        // Bucket masks use the low bits of `finish()`; sequential u64 keys
        // (table ids, block numbers) must not collide in the low byte.
        let b = FastBuildHasher::default();
        let mut low: FastHashSet<u8> = FastHashSet::default();
        for i in 0u64..64 {
            low.insert((b.hash_one(i) & 0xff) as u8);
        }
        assert!(low.len() > 48, "only {} distinct low bytes", low.len());
    }

    #[test]
    fn map_iteration_order_is_stable() {
        let build = || {
            let mut m: FastHashMap<u64, u64> = FastHashMap::default();
            for i in 0..1000u64 {
                m.insert(i * 17, i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
