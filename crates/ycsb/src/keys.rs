//! Key encoding and value generation.
//!
//! YCSB's default `insertorder=hashed`: record id `i` becomes key
//! `"user" + hash(i)`, so sequential inserts scatter uniformly over the key
//! space instead of hammering the newest range — without this, a *read
//! latest* run on an ordered store degenerates to a single-server hotspot.
//! The hash is rendered as zero-padded decimal, so lexicographic byte order
//! equals hashed-value order and ordered partitioners/scans work over the
//! hashed space (exactly YCSB's behaviour on range-scan workloads).
//!
//! Values come from a small refcounted pool: the simulated stores account
//! I/O by *length*, so distinct contents would only waste memory at the
//! 10^5–10^6-record scale the experiments run at.

use bytes::Bytes;
use simkit::{fnv1a, fnv_avalanche, SimRng};

/// Width of the zero-padded numeric portion of a key (fits any `u64`).
pub(crate) const KEY_DIGITS: usize = 20;

/// FNV-1a with avalanche over the id's 8 little-endian bytes, YCSB's
/// key-scrambling role.
#[inline]
pub(crate) fn fnv_scramble(id: u64) -> u64 {
    fnv_avalanche(fnv1a(&id.to_le_bytes(), 0))
}

/// The two ASCII digits of every number below 100, in order.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        table[2 * n] = b'0' + (n / 10) as u8;
        table[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    table
};

/// Bytes in every encoded key: `"user"`, then the zero-padded digits.
const KEY_LEN: usize = 4 + KEY_DIGITS;

/// Write the key of raw 64-bit key-space position `raw` into `buf`, which
/// holds [`KEY_LEN`] bytes.
///
/// Digits are written directly, two per division from a table of digit
/// pairs — this sits on the driver's per-op issue path (every
/// key-interner miss) and on every loaded record, where a `format!`
/// round trip (its formatting machinery plus an intermediate `String`) or
/// one division per digit is measurable.
fn write_point(buf: &mut [u8], raw: u64) {
    debug_assert_eq!(buf.len(), KEY_LEN);
    buf[..4].copy_from_slice(b"user");
    let mut v = raw;
    for pair in buf[4..].rchunks_exact_mut(2) {
        let at = (v % 100) as usize * 2;
        pair.copy_from_slice(&DIGIT_PAIRS[at..at + 2]);
        v /= 100;
    }
}

/// Encode a raw 64-bit key-space position as an ordered key.
pub fn encode_point(raw: u64) -> Bytes {
    let mut buf = [0u8; KEY_LEN];
    write_point(&mut buf, raw);
    Bytes::copy_from_slice(&buf)
}

/// Encode record id `id` as its (hashed, scattered) key.
pub fn encode_key(id: u64) -> Bytes {
    encode_point(fnv_scramble(id))
}

/// Evenly spaced key-space boundary tokens for `n` partitions: token `j`
/// starts partition `j`'s range. Token 0 is the empty-prefix minimum so the
/// first partition owns everything below token 1.
pub fn balanced_tokens(n: usize) -> Vec<Bytes> {
    assert!(n > 0);
    let span = u64::MAX / n as u64;
    (0..n as u64).map(|j| encode_point(j * span)).collect()
}

/// Tracks the growing record-id space during a run: ids `0..count` exist.
#[derive(Debug, Clone)]
pub struct KeySpace {
    count: u64,
}

impl KeySpace {
    /// A key space preloaded with `initial` records.
    pub fn new(initial: u64) -> Self {
        Self { count: initial }
    }

    /// Number of records that exist.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Allocate the next record id (a transactional insert) and return its
    /// key.
    pub fn next_insert(&mut self) -> (u64, Bytes) {
        let id = self.count;
        self.count += 1;
        (id, encode_key(id))
    }
}

/// A per-run interner for generated keys: a direct-mapped cache from
/// record id to its encoded key.
///
/// The skewed request distributions the experiments run (zipfian,
/// latest) touch a small set of hot ids over and over; interning turns
/// every repeat encoding into a slot probe plus a `Bytes` refcount bump.
/// A miss evicts the slot's key. When nothing else holds that key any
/// more (the op that used it has settled and no store kept it), its
/// buffer is rewritten in place with the new key; only a victim still
/// held elsewhere costs a fresh allocation. The cache is bounded
/// (direct-mapped, power-of-two slots), so a uniform distribution
/// degrades to plain encoding into a reused buffer — never to unbounded
/// memory growth.
#[derive(Debug, Clone)]
pub struct KeyInterner {
    slots: Vec<Option<(u64, Bytes)>>,
    mask: usize,
    hits: u64,
    misses: u64,
}

impl KeyInterner {
    /// An interner with at least `capacity` slots (rounded up to a power
    /// of two).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1).next_power_of_two();
        Self {
            slots: vec![None; cap],
            mask: cap - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// The (hashed, scattered) key of record `id`, cached.
    pub fn key(&mut self, id: u64) -> Bytes {
        let slot = &mut self.slots[(id as usize) & self.mask];
        if let Some((cached, key)) = slot {
            if *cached == id {
                self.hits += 1;
                return key.clone();
            }
        }
        self.misses += 1;
        if let Some((cached, key)) = slot {
            if let Some(buf) = key.get_mut() {
                write_point(buf, fnv_scramble(id));
                *cached = id;
                return key.clone();
            }
        }
        let key = encode_key(id);
        *slot = Some((id, key.clone()));
        key
    }

    /// `(hits, misses)` since construction.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// A pool of a few shared value buffers of a fixed length. Cloning a
/// `Bytes` is a refcount bump, so a billion writes cost a few kilobytes.
#[derive(Debug, Clone)]
pub struct ValuePool {
    buffers: Vec<Bytes>,
}

impl ValuePool {
    /// Build a pool of `variants` distinct buffers of `len` bytes each.
    pub fn new(len: usize, variants: usize) -> Self {
        let variants = variants.max(1);
        let buffers = (0..variants)
            .map(|v| {
                let mut buf = vec![0u8; len];
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = b'a' + ((i + v) % 26) as u8;
                }
                Bytes::from(buf)
            })
            .collect();
        Self { buffers }
    }

    /// Draw a value (refcounted clone of a pooled buffer).
    pub fn next(&self, rng: &mut SimRng) -> Bytes {
        let i = rng.below(self.buffers.len() as u64) as usize;
        self.buffers[i].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_ordered_by_raw_position() {
        let a = encode_point(5);
        let b = encode_point(50);
        let c = encode_point(u64::MAX);
        assert!(a < b && b < c);
        assert_eq!(a.len(), KEY_LEN);
    }

    #[test]
    fn points_encode_as_zero_padded_decimal() {
        for raw in [0u64, 1, 42, u64::MAX] {
            assert_eq!(encode_point(raw), format!("user{raw:020}").as_bytes());
        }
    }

    #[test]
    fn sequential_ids_scatter_over_the_key_space() {
        // The hashed keys of consecutive ids must land in different
        // partitions — the anti-hotspot property.
        let tokens = balanced_tokens(10);
        let partition = |key: &Bytes| {
            tokens
                .iter()
                .rposition(|t| t <= key)
                .unwrap_or(tokens.len() - 1)
        };
        let mut seen = std::collections::HashSet::new();
        for id in 0..100u64 {
            seen.insert(partition(&encode_key(id)));
        }
        assert!(seen.len() >= 9, "inserts hotspotted: {seen:?}");
    }

    #[test]
    fn hashing_is_deterministic_and_collision_free_at_scale() {
        // Past the largest load any figure or benchmark makes (400 k
        // records): hstore's bulk load replays its HFile history exactly
        // only when the loaded keys are distinct.
        let mut set = std::collections::HashSet::new();
        for id in 0..500_000u64 {
            assert!(set.insert(encode_key(id)), "collision at {id}");
        }
        assert_eq!(encode_key(7), encode_key(7));
    }

    #[test]
    fn balanced_tokens_are_sorted_and_cover() {
        let t = balanced_tokens(15);
        assert_eq!(t.len(), 15);
        assert!(t.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(t[0], encode_point(0));
    }

    #[test]
    fn keyspace_grows_on_insert() {
        let mut ks = KeySpace::new(10);
        assert_eq!(ks.count(), 10);
        let (id, key) = ks.next_insert();
        assert_eq!(id, 10);
        assert_eq!(key, encode_key(10));
        assert_eq!(ks.count(), 11);
    }

    #[test]
    fn value_pool_produces_fixed_length_shared_buffers() {
        let pool = ValuePool::new(1000, 4);
        let mut rng = SimRng::new(3);
        let v1 = pool.next(&mut rng);
        assert_eq!(v1.len(), 1000);
        let distinct: std::collections::HashSet<_> =
            (0..100).map(|_| pool.next(&mut rng).to_vec()).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn encode_point_matches_formatted_reference() {
        let check = |raw: u64| {
            assert_eq!(
                encode_point(raw).as_ref(),
                format!("user{raw:0KEY_DIGITS$}").as_bytes(),
                "{raw}"
            );
        };
        // Every power-of-ten boundary and its neighbours, then the extremes.
        for power in 0..=19 {
            let p = 10u64.pow(power);
            for raw in [p - 1, p, p + 1] {
                check(raw);
            }
        }
        for raw in [0, 7, 999, u64::MAX - 1, u64::MAX] {
            check(raw);
        }
        let mut rng = SimRng::new(42);
        for _ in 0..100_000 {
            check(rng.next_u64());
        }
    }

    #[test]
    fn fnv_scramble_outputs_are_pinned() {
        // Every record's key: a change here moves every loaded row.
        assert_eq!(fnv_scramble(0), 0x30ff_fcdf_bbbc_3f43);
        assert_eq!(fnv_scramble(1), 0xe171_ffc3_cc61_4e91);
        assert_eq!(fnv_scramble(42), 0xd0bb_11c1_574a_2cf2);
        assert_eq!(fnv_scramble(u64::MAX), 0xa123_3ffa_670e_9ee5);
    }

    #[test]
    fn interner_returns_identical_keys_and_counts_hits() {
        let mut it = KeyInterner::new(16);
        let a1 = it.key(3);
        let a2 = it.key(3);
        assert_eq!(a1, a2);
        assert_eq!(a1, encode_key(3));
        assert_eq!(it.stats(), (1, 1));
        // Colliding slot (3 and 19 share slot 3 with 16 slots): both still
        // encode correctly, evicting each other.
        let b = it.key(19);
        assert_eq!(b, encode_key(19));
        assert_eq!(it.key(3), encode_key(3));
        assert_eq!(it.stats(), (1, 3));
    }

    #[test]
    fn interner_capacity_rounds_up() {
        let mut it = KeyInterner::new(0);
        assert_eq!(it.key(0), encode_key(0));
        let mut it = KeyInterner::new(1000);
        for id in 0..5000u64 {
            assert_eq!(it.key(id), encode_key(id));
        }
    }

    #[test]
    fn zero_length_values_supported() {
        let pool = ValuePool::new(0, 1);
        let mut rng = SimRng::new(3);
        assert_eq!(pool.next(&mut rng).len(), 0);
    }
}
