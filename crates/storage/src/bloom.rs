//! Bloom filters over SSTable keys.
//!
//! A read only touches a sorted run if the run's bloom filter says the key
//! might be there, which is the main reason LSM point reads don't degrade
//! linearly with run count. Uses the standard double-hashing scheme
//! (Kirsch–Mitzenmacher) over two seeded FNV-1a streams.

use simkit::{fnv1a, fnv_avalanche};

/// A fixed-size bloom filter.
#[derive(Debug, Clone)]
pub(crate) struct BloomFilter {
    bits: Vec<u64>,
    nbits: u64,
    k: u32,
}

/// The two Kirsch–Mitzenmacher base hashes of `key`, independent of any
/// particular filter's size. A point read that consults many runs computes
/// this once and probes every filter with
/// [`BloomFilter::may_contain_hashed`]; the probe *positions* (and therefore
/// every filter's bit pattern and false-positive set) are byte-identical to
/// hashing per filter.
#[inline]
pub(crate) fn hash_pair(key: &[u8]) -> (u64, u64) {
    let h1 = fnv_avalanche(fnv1a(key, 0x51ed));
    let h2 = fnv_avalanche(fnv1a(key, 0xc0de)) | 1; // odd => full-period stepping
    (h1, h2)
}

impl BloomFilter {
    /// Build a filter sized for `expected_items` at roughly
    /// `bits_per_key` bits each (10 bits/key ≈ 1% false positives).
    pub(crate) fn with_capacity(expected_items: usize, bits_per_key: u32) -> Self {
        let nbits = ((expected_items.max(1) as u64) * bits_per_key as u64).max(64);
        // Optimal k = ln2 * bits/key, clamped to a sane range.
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 12);
        Self {
            bits: vec![0u64; nbits.div_ceil(64) as usize],
            nbits,
            k,
        }
    }

    #[inline]
    fn positions(&self, (h1, h2): (u64, u64)) -> impl Iterator<Item = u64> + '_ {
        let nbits = self.nbits;
        (0..self.k as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % nbits)
    }

    /// Record a key.
    #[cfg(test)]
    pub(crate) fn insert(&mut self, key: &[u8]) {
        self.insert_hashed(hash_pair(key));
    }

    /// Record the key whose [`hash_pair`] is `(h1, h2)`.
    #[inline]
    pub(crate) fn insert_hashed(&mut self, (h1, h2): (u64, u64)) {
        // Open-coded positions: borrowing `self` for the position iterator
        // while mutating `bits` would not check, and the old collect-to-Vec
        // workaround cost an allocation per inserted key (hot during every
        // flush and compaction).
        for i in 0..self.k as u64 {
            let pos = h1.wrapping_add(i.wrapping_mul(h2)) % self.nbits;
            self.bits[(pos / 64) as usize] |= 1 << (pos % 64);
        }
    }

    /// The filter's bit words.
    #[cfg(test)]
    pub(crate) fn words(&self) -> &[u64] {
        &self.bits
    }

    /// True if the key *might* be present; false means definitely absent.
    pub(crate) fn may_contain(&self, key: &[u8]) -> bool {
        self.may_contain_hashed(hash_pair(key))
    }

    /// [`BloomFilter::may_contain`] with the key's [`hash_pair`] precomputed
    /// by the caller — the form the LSM read path uses so one key hashed
    /// once can probe every run's filter.
    pub(crate) fn may_contain_hashed(&self, hashes: (u64, u64)) -> bool {
        self.positions(hashes)
            .all(|pos| self.bits[(pos / 64) as usize] & (1 << (pos % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_pairs_are_pinned() {
        // The bits every filter sets: a change here moves every run's
        // filter and so every false positive a read pays a block for.
        assert_eq!(
            hash_pair(b""),
            (0x4c31_933d_d918_97f0, 0x23d0_0f1f_8a48_2781)
        );
        assert_eq!(
            hash_pair(b"a"),
            (0xa5e6_0110_e5d1_31a3, 0xc6d9_65bb_2150_6cc1)
        );
        assert_eq!(
            hash_pair(b"user00000000000000000042"),
            (0xf1bc_ebeb_da15_1f55, 0x31c5_fe83_5c44_ab19)
        );
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(1000, 10);
        for i in 0..1000 {
            f.insert(format!("user{i}").as_bytes());
        }
        for i in 0..1000 {
            assert!(f.may_contain(format!("user{i}").as_bytes()));
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut f = BloomFilter::with_capacity(10_000, 10);
        for i in 0..10_000 {
            f.insert(format!("user{i}").as_bytes());
        }
        let fps = (0..10_000)
            .filter(|i| f.may_contain(format!("absent{i}").as_bytes()))
            .count();
        let rate = fps as f64 / 10_000.0;
        assert!(rate < 0.03, "false positive rate too high: {rate}");
    }

    #[test]
    fn hashed_probe_matches_keyed_probe() {
        let mut f = BloomFilter::with_capacity(1000, 10);
        for i in 0..1000 {
            f.insert(format!("user{i}").as_bytes());
        }
        for i in 0..2000 {
            let key = format!("user{i}");
            assert_eq!(
                f.may_contain(key.as_bytes()),
                f.may_contain_hashed(hash_pair(key.as_bytes()))
            );
        }
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::with_capacity(100, 10);
        assert!(!f.may_contain(b"anything"));
    }

    #[test]
    fn sizing_scales_with_capacity() {
        let small = BloomFilter::with_capacity(100, 10);
        let large = BloomFilter::with_capacity(100_000, 10);
        assert!(large.bits.len() > small.bits.len());
        assert!(small.k >= 1);
    }

    #[test]
    fn tiny_capacity_still_works() {
        let mut f = BloomFilter::with_capacity(0, 10);
        f.insert(b"x");
        assert!(f.may_contain(b"x"));
    }
}
