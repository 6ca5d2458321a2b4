//! Immutable sorted runs (HBase HFiles / Cassandra SSTables).
//!
//! A run stores its entries in key order, grouped into fixed-size blocks.
//! A point read searches the block index and then the one block it names,
//! and consults the bloom filter only when that search misses (a present key
//! always passes the filter; see `LsmTree::get`); scans read consecutive
//! blocks. The block is the unit of disk I/O and of block-cache residency.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::bloom::BloomFilter;
use crate::types::{entry_encoded_len, Cell, Key};

/// Identity of an SSTable within one node's store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u64);

impl std::fmt::Display for TableId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sst{}", self.0)
    }
}

/// First 16 bytes of a key, zero-padded, read as a big-endian integer, so
/// one integer compare orders two prefixes exactly as their bytes would.
/// Stored in flat arrays so the binary searches of the point-read path
/// compare contiguous memory instead of chasing each `Bytes` key onto the
/// heap.
pub type KeyPrefix = u128;

/// Blocks per top-level index chunk. 64 keeps the top level of a large
/// run's index at a few cache lines per thousand blocks while the
/// second-level window spans a single kilobyte of prefixes.
const CHUNK: usize = 64;

/// The padded prefix of `key`.
#[inline]
pub fn key_prefix(key: &[u8]) -> KeyPrefix {
    if let Some(head) = key.first_chunk::<16>() {
        return u128::from_be_bytes(*head);
    }
    let mut p = [0u8; 16];
    let n = key.len().min(16);
    p[..n].copy_from_slice(&key[..n]);
    u128::from_be_bytes(p)
}

/// Compare two keys through their padded prefixes: when the prefixes
/// differ, their order equals the full lexicographic order (zero padding
/// preserves "shorter is smaller" because the pad byte sorts below any byte
/// the longer key continues with, and equal pads defer); only a prefix tie
/// needs the full keys.
#[inline]
pub fn cmp_via_prefix(
    prefix: KeyPrefix,
    full: &[u8],
    target_prefix: KeyPrefix,
    target: &[u8],
) -> Ordering {
    match prefix.cmp(&target_prefix) {
        Ordering::Equal => full.cmp(target),
        ord => ord,
    }
}

/// The immutable payload of a run: entries, block structure, index, bloom.
/// Built once, never mutated, shared between clones of the owning table.
#[derive(Debug)]
struct SsTableCore {
    entries: Vec<(Key, Cell)>,
    /// Index into `entries` where each block begins; always starts with 0.
    block_starts: Vec<u32>,
    /// Padded prefix of every entry key, parallel to `entries` — the
    /// in-block search runs over this flat array.
    entry_prefixes: Vec<KeyPrefix>,
    /// Padded prefix of every block's first key, parallel to
    /// `block_starts` — the block index search runs over this; the full
    /// key of block `i` (needed only on a prefix tie) is
    /// `entries[block_starts[i]]`.
    block_prefixes: Vec<KeyPrefix>,
    /// Prefix of every `CHUNK`-th block's first key: the top level of the
    /// block index. Small enough to stay cache-hot, it narrows the search
    /// to one `CHUNK`-block window before `block_prefixes` is touched.
    chunk_prefixes: Vec<KeyPrefix>,
    /// Encoded bytes per block.
    block_bytes: Vec<u64>,
    bloom: BloomFilter,
    total_bytes: u64,
}

/// An immutable sorted run with block structure, index, and bloom filter.
///
/// Cloning is O(1): the run's data lives behind an [`Arc`], so clones of a
/// loaded store (snapshots for parallel experiment cells) share every run
/// rather than copying it. Compaction replaces whole tables instead of
/// mutating them, so sharing is never observable.
#[derive(Debug, Clone)]
pub struct SsTable {
    id: TableId,
    core: Arc<SsTableCore>,
}

impl SsTable {
    /// Build a table from entries that are already sorted by key, unique per
    /// key. `block_size` is the target encoded block size in bytes.
    ///
    /// # Panics
    /// In debug builds, panics if entries are not strictly sorted.
    pub fn build(id: TableId, entries: Vec<(Key, Cell)>, block_size: u64) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "entries must be strictly sorted by key"
        );
        let mut bloom = BloomFilter::with_capacity(entries.len(), 10);
        let mut block_starts = Vec::new();
        let mut entry_prefixes = Vec::with_capacity(entries.len());
        let mut block_prefixes = Vec::new();
        let mut chunk_prefixes = Vec::new();
        let mut block_bytes = Vec::new();
        let mut total_bytes = 0u64;
        // Bytes of the block being filled; 0 between blocks (an entry
        // always encodes to more than zero bytes).
        let mut cur_bytes = 0u64;
        for (i, (key, cell)) in entries.iter().enumerate() {
            bloom.insert(key);
            entry_prefixes.push(key_prefix(key));
            let len = entry_encoded_len(key, cell);
            if cur_bytes == 0 {
                if block_starts.len() % CHUNK == 0 {
                    chunk_prefixes.push(key_prefix(key));
                }
                block_starts.push(i as u32);
                block_prefixes.push(key_prefix(key));
            }
            cur_bytes += len;
            total_bytes += len;
            if cur_bytes >= block_size {
                block_bytes.push(cur_bytes);
                cur_bytes = 0;
            }
        }
        if cur_bytes > 0 {
            block_bytes.push(cur_bytes);
        }
        Self {
            id,
            core: Arc::new(SsTableCore {
                entries,
                block_starts,
                entry_prefixes,
                block_prefixes,
                chunk_prefixes,
                block_bytes,
                bloom,
                total_bytes,
            }),
        }
    }

    /// True when `self` and `other` share one underlying allocation (they
    /// are clones of the same built run). Snapshot tests use this to prove
    /// store clones are copy-on-write rather than deep copies.
    pub fn shares_storage_with(&self, other: &SsTable) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }

    /// The table's identity.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.core.entries.len()
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.core.entries.is_empty()
    }

    /// Total encoded bytes.
    pub fn total_bytes(&self) -> u64 {
        self.core.total_bytes
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.core.block_starts.len()
    }

    /// Encoded bytes of one block.
    pub fn block_len(&self, block: usize) -> u64 {
        self.core.block_bytes[block]
    }

    /// Bloom-filter check: false means the key is definitely absent.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.core.bloom.may_contain(key)
    }

    /// [`SsTable::may_contain`] with the key's [`crate::bloom::hash_pair`]
    /// precomputed once by the caller — a point read probing many runs hashes
    /// the key a single time instead of twice per run.
    pub fn may_contain_hashed(&self, hashes: (u64, u64)) -> bool {
        self.core.bloom.may_contain_hashed(hashes)
    }

    /// Which block could contain `key`, or `None` when the key sorts before
    /// the first block or the table is empty.
    ///
    /// Both levels search flat prefix arrays — the top level
    /// `chunk_prefixes`, then one `CHUNK`-block window of `block_prefixes`
    /// — with one integer compare per probe; a block's full first key
    /// (`block_starts` into `entries`, a pointer chase) is read only when
    /// its prefix ties with the key's.
    pub fn block_for(&self, key: &[u8]) -> Option<usize> {
        let core = &*self.core;
        let target = key_prefix(key);
        // Does block `block`, whose first key has prefix `prefix`, start at
        // or below `key`?
        let starts_le = |block: usize, prefix: KeyPrefix| match prefix.cmp(&target) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => core.entries[core.block_starts[block] as usize].0.as_ref() <= key,
        };
        // Top level: how many chunks start at or below `key`.
        let chunks = &core.chunk_prefixes;
        let (mut lo, mut hi) = (0, chunks.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if starts_le(mid * CHUNK, chunks[mid]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == 0 {
            return None; // key sorts before the first block
        }
        // Second level: the rightmost block at or below `key` inside that
        // chunk's window. The window's first block is one, so the search
        // starts past it.
        let base = (lo - 1) * CHUNK;
        let window = &core.block_prefixes[base..(lo * CHUNK).min(core.block_prefixes.len())];
        let (mut lo, mut hi) = (1, window.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if starts_le(base + mid, window[mid]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Some(base + lo - 1)
    }

    /// Entry range `[start, end)` of a block within the table.
    fn block_range(&self, block: usize) -> (usize, usize) {
        let start = self.core.block_starts[block] as usize;
        let end = self
            .core
            .block_starts
            .get(block + 1)
            .map_or(self.core.entries.len(), |&s| s as usize);
        (start, end)
    }

    /// Point lookup confined to one block (the caller already paid for
    /// reading that block). Searches the block's slice of the flat prefix
    /// array; the heap-allocated key is touched only on a prefix tie.
    pub fn get_in_block(&self, block: usize, key: &[u8]) -> Option<&Cell> {
        let (start, end) = self.block_range(block);
        let prefixes = &self.core.entry_prefixes[start..end];
        let entries = &self.core.entries[start..end];
        let target = key_prefix(key);
        let mut lo = 0usize;
        let mut hi = prefixes.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match cmp_via_prefix(prefixes[mid], entries[mid].0.as_ref(), target, key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(&entries[mid].1),
            }
        }
        None
    }

    /// Full point lookup (bloom + index + block search); for tests and
    /// compaction, where I/O accounting is handled elsewhere.
    pub fn get(&self, key: &[u8]) -> Option<&Cell> {
        if !self.may_contain(key) {
            return None;
        }
        let block = self.block_for(key)?;
        self.get_in_block(block, key)
    }

    /// Index of the first entry with key >= `start` (`len()` when every key
    /// sorts below it): where a range scan's cursor over this run begins.
    ///
    /// Like a point read it goes through the two-level block index to the
    /// one block that can hold the boundary, then searches that block's
    /// slice of the flat prefix array — full keys only on a prefix tie —
    /// instead of chasing heap-allocated keys across the whole run.
    pub fn lower_bound(&self, start: &[u8]) -> usize {
        // Every block before the last one whose first key is <= `start`
        // lies wholly below `start`; with no such block, nothing does.
        let Some(block) = self.block_for(start) else {
            return 0;
        };
        let (lo, hi) = self.block_range(block);
        let prefixes = &self.core.entry_prefixes[lo..hi];
        let entries = &self.core.entries[lo..hi];
        let target = key_prefix(start);
        let mut below = 0usize;
        let mut end = prefixes.len();
        while below < end {
            let mid = below + (end - below) / 2;
            if cmp_via_prefix(prefixes[mid], entries[mid].0.as_ref(), target, start)
                == Ordering::Less
            {
                below = mid + 1;
            } else {
                end = mid;
            }
        }
        lo + below
    }

    /// All entries in key order.
    pub fn entries(&self) -> &[(Key, Cell)] {
        &self.core.entries
    }

    /// The [`key_prefix`] of every entry key, parallel to
    /// [`SsTable::entries`].
    pub fn prefixes(&self) -> &[KeyPrefix] {
        &self.core.entry_prefixes
    }

    /// The block containing entry index `idx`.
    pub fn block_of_entry(&self, idx: usize) -> usize {
        debug_assert!(idx < self.core.entries.len());
        match self.core.block_starts.binary_search(&(idx as u32)) {
            Ok(b) => b,
            Err(b) => b - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn k(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn table(n: usize, block_size: u64) -> SsTable {
        let entries: Vec<_> = (0..n)
            .map(|i| {
                (
                    k(&format!("user{i:06}")),
                    Cell::live(k(&format!("v{i}")), i as u64),
                )
            })
            .collect();
        SsTable::build(TableId(1), entries, block_size)
    }

    #[test]
    fn point_lookup_finds_every_key() {
        let t = table(500, 256);
        for i in 0..500 {
            let got = t.get(format!("user{i:06}").as_bytes()).expect("present");
            assert_eq!(got.value.as_deref(), Some(format!("v{i}").as_bytes()));
        }
    }

    #[test]
    fn absent_keys_return_none() {
        let t = table(100, 256);
        assert_eq!(t.get(b"user999999"), None);
        assert_eq!(t.get(b"aaaa"), None);
    }

    #[test]
    fn blocks_partition_the_entries() {
        let t = table(500, 256);
        assert!(t.block_count() > 1, "expected multiple blocks");
        let total: u64 = (0..t.block_count()).map(|b| t.block_len(b)).sum();
        assert_eq!(total, t.total_bytes());
    }

    #[test]
    fn block_for_respects_boundaries() {
        let t = table(100, 128);
        // Key before the first entry has no block.
        assert_eq!(t.block_for(b"a"), None);
        // Every present key maps to the block that contains it.
        for i in 0..100 {
            let key = format!("user{i:06}");
            let b = t.block_for(key.as_bytes()).expect("block");
            assert!(t.get_in_block(b, key.as_bytes()).is_some());
        }
    }

    #[test]
    fn lower_bound_lands_on_first_key_at_or_after_start() {
        // Several blocks, so the boundary search crosses the block index.
        let t = table(10, 64);
        assert!(t.block_count() > 1);
        assert_eq!(t.lower_bound(b"user000007"), 7);
        // A start between keys lands on the next one.
        assert_eq!(t.lower_bound(b"user0000071"), 8);
        // Before the first key and after the last.
        assert_eq!(t.lower_bound(b"a"), 0);
        assert_eq!(t.lower_bound(b"zebra"), 10);
    }

    #[test]
    fn block_of_entry_roundtrips() {
        let t = table(300, 200);
        for idx in [0usize, 1, 150, 299] {
            let b = t.block_of_entry(idx);
            let (start, end) = (t.core.block_starts[b] as usize, {
                t.core
                    .block_starts
                    .get(b + 1)
                    .map_or(t.core.entries.len(), |&s| s as usize)
            });
            assert!((start..end).contains(&idx));
        }
    }

    #[test]
    fn empty_table_is_harmless() {
        let t = SsTable::build(TableId(0), Vec::new(), 1024);
        assert!(t.is_empty());
        assert_eq!(t.block_count(), 0);
        assert_eq!(t.get(b"x"), None);
        assert_eq!(t.block_for(b"x"), None);
    }

    #[test]
    fn clones_share_one_allocation() {
        let t = table(500, 256);
        let c = t.clone();
        assert!(t.shares_storage_with(&c));
        // Distinct builds never share, even with identical contents.
        let rebuilt = table(500, 256);
        assert!(!t.shares_storage_with(&rebuilt));
        // Shared data reads identically through either handle.
        assert_eq!(t.get(b"user000123"), c.get(b"user000123"));
    }

    #[test]
    fn bloom_filters_skip_most_absent_lookups() {
        let t = table(1000, 512);
        let fps = (0..1000)
            .filter(|i| t.may_contain(format!("ghost{i}").as_bytes()))
            .count();
        assert!(fps < 50, "bloom ineffective: {fps} false positives");
    }
}
