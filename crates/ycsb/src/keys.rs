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
use rand::Rng;

/// Width of the zero-padded numeric portion of a key (fits any `u64`).
pub(crate) const KEY_DIGITS: usize = 20;

/// FNV-1a with avalanche, YCSB's key-scrambling role.
#[inline]
pub(crate) fn fnv_scramble(id: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in id.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}

/// Encode a raw 64-bit key-space position as an ordered key.
///
/// Digits are written directly into a stack buffer — this sits on the
/// driver's per-op issue path, where a `format!` round trip (its
/// formatting machinery plus an intermediate `String`) is measurable.
pub fn encode_point(raw: u64) -> Bytes {
    let mut buf = [0u8; 4 + KEY_DIGITS];
    buf[..4].copy_from_slice(b"user");
    let mut v = raw;
    for slot in buf[4..].iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        v /= 10;
    }
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
/// The cache is bounded (direct-mapped, power-of-two slots), so a
/// uniform distribution degrades to plain encoding plus one array write —
/// never to unbounded memory growth.
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
        let slot = (id as usize) & self.mask;
        if let Some((cached, key)) = &self.slots[slot] {
            if *cached == id {
                self.hits += 1;
                return key.clone();
            }
        }
        self.misses += 1;
        let key = encode_key(id);
        self.slots[slot] = Some((id, key.clone()));
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
    pub fn next<R: Rng + ?Sized>(&self, rng: &mut R) -> Bytes {
        let i = rng.gen_range(0..self.buffers.len());
        self.buffers[i].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimRng;

    #[test]
    fn keys_are_ordered_by_raw_position() {
        let a = encode_point(5);
        let b = encode_point(50);
        let c = encode_point(u64::MAX);
        assert!(a < b && b < c);
        assert_eq!(a.len(), 4 + KEY_DIGITS);
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
        for raw in [0u64, 7, 999, 10u64.pow(19), u64::MAX] {
            assert_eq!(
                encode_point(raw).as_ref(),
                format!("user{raw:0KEY_DIGITS$}").as_bytes()
            );
        }
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
