//! Immutable sorted runs (HBase HFiles / Cassandra SSTables).
//!
//! A run stores its entries in key order, grouped into fixed-size blocks.
//! A point read searches the block index and then the one block it names,
//! and consults the bloom filter only when that search misses (a present key
//! always passes the filter; see `LsmTree::get`); scans read consecutive
//! blocks. The block is the unit of disk I/O and of block-cache residency.
//!
//! A run's rows live in one or more [`Segment`]s, which runs may share: the
//! block structure, index and bloom filter belong to the run, the rows to
//! the segments.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::bloom::{self, BloomFilter};
use crate::segment::{LoadQueue, Segment};
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
/// The block index keeps one per block in flat arrays, so its binary
/// searches compare integers in contiguous memory.
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

/// The immutable payload of a run: its segments, block structure, index
/// and bloom filter. Built once, never mutated, shared between clones of
/// the owning table.
///
/// An entry's index is its position in the run: the segments in order, as
/// if concatenated. Blocks are laid out over that order, so one block may
/// span the end of one segment and the start of the next.
#[derive(Debug)]
struct SsTableCore {
    /// The run's rows: non-empty segments, each sorting wholly above the
    /// one before. A load gives a run one segment per token range it
    /// replicates, every other build one segment.
    segments: Vec<Segment>,
    /// Entries in all segments.
    len: usize,
    /// Run index where each block begins; always starts with 0.
    block_starts: Vec<u32>,
    /// Padded prefix of every block's first key, parallel to
    /// `block_starts` — the block index search runs over this; the full
    /// key of block `i` (needed only on a prefix tie) is entry
    /// `block_starts[i]`.
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

/// Builds one run's block index and bloom filter from one record per row:
/// the key's bloom hash pair for the filter, and its prefix and encoded
/// length for the block index. Every run is built through one, whether a
/// flush, a compaction or a bulk load makes it.
///
/// The filter takes hash pairs in any order, the index takes records in key
/// order. [`RunBuilder::hold`] reads both from a sorted segment in one pass;
/// a bulk load instead hashes each key where [`Segment::from_queue`] reads
/// it, in arrival order, and feeds every run that holds the segment at once.
#[derive(Debug)]
pub struct RunBuilder {
    /// The segments the run holds, in key order.
    pub(crate) segments: Vec<Segment>,
    /// The row count the filter is sized for. A bulk load sizes it from
    /// the queued rows, before a sort drops duplicate keys.
    sized_for: usize,
    /// Rows in the block index so far.
    len: usize,
    block_size: u64,
    block_starts: Vec<u32>,
    block_prefixes: Vec<KeyPrefix>,
    chunk_prefixes: Vec<KeyPrefix>,
    block_bytes: Vec<u64>,
    pub(crate) bloom: BloomFilter,
    total_bytes: u64,
    /// Bytes of the block being filled; 0 between blocks (an entry always
    /// encodes to more than zero bytes).
    cur_bytes: u64,
}

impl RunBuilder {
    /// A builder for a run of `rows` rows in blocks of `block_size` bytes,
    /// with its filter sized for `rows`.
    pub fn new(rows: usize, block_size: u64) -> Self {
        Self {
            // One segment is what a flush or a compaction holds.
            segments: Vec::with_capacity(1),
            sized_for: rows,
            len: 0,
            block_size,
            block_starts: Vec::new(),
            block_prefixes: Vec::new(),
            chunk_prefixes: Vec::new(),
            block_bytes: Vec::new(),
            bloom: BloomFilter::with_capacity(rows, 10),
            total_bytes: 0,
            cur_bytes: 0,
        }
    }

    /// Reserve the block index of a run whose rows encode to at most
    /// `bytes` bytes in all, exactly: every block but the last closes at
    /// `block_size` bytes or more, so there are at most `bytes /
    /// block_size + 1` blocks.
    pub(crate) fn reserve(&mut self, bytes: u64) {
        let blocks = (bytes / self.block_size) as usize + 1;
        self.block_starts.reserve_exact(blocks);
        self.block_prefixes.reserve_exact(blocks);
        self.block_bytes.reserve_exact(blocks);
        self.chunk_prefixes.reserve_exact(blocks / CHUNK + 1);
    }

    /// True when no row has reached the block index.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add the next row in key order to the block index: its key's prefix
    /// and its encoded length.
    #[inline]
    pub(crate) fn row(&mut self, prefix: KeyPrefix, len: u64) {
        if self.cur_bytes == 0 {
            if self.block_starts.len() % CHUNK == 0 {
                self.chunk_prefixes.push(prefix);
            }
            self.block_starts.push(self.len as u32);
            self.block_prefixes.push(prefix);
        }
        self.cur_bytes += len;
        self.total_bytes += len;
        if self.cur_bytes >= self.block_size {
            self.block_bytes.push(self.cur_bytes);
            self.cur_bytes = 0;
        }
        self.len += 1;
    }

    /// Hold `segment` as the run's next stretch of rows, reading every row
    /// of it for the filter and the index. An empty segment is dropped.
    ///
    /// # Panics
    /// In debug builds, panics unless `segment` sorts wholly above the
    /// segments held before it.
    pub fn hold(&mut self, segment: Segment) {
        if segment.is_empty() {
            return;
        }
        for (key, cell) in segment.iter() {
            self.bloom.insert_hashed(bloom::hash_pair(key));
            self.row(key_prefix(key), entry_encoded_len(key, cell));
        }
        self.segments.push(segment);
    }

    /// The run, under id `id`. A filter sized for more rows than the run
    /// holds (a bulk load whose sort dropped duplicate keys) is refilled at
    /// the run's exact size, so every run's filter is the one its rows size.
    pub(crate) fn finish(mut self, id: TableId) -> SsTable {
        debug_assert!(
            (self.segments.windows(2)).all(|w| w[0].key(w[0].len() - 1) < w[1].key(0)),
            "segments must be sorted and disjoint"
        );
        if self.sized_for != self.len {
            self.bloom = BloomFilter::with_capacity(self.len, 10);
            for (key, _) in self.segments.iter().flat_map(|s| s.iter()) {
                self.bloom.insert_hashed(bloom::hash_pair(key));
            }
        }
        if self.cur_bytes > 0 {
            self.block_bytes.push(self.cur_bytes);
        }
        SsTable {
            id,
            core: Arc::new(SsTableCore {
                segments: self.segments,
                len: self.len,
                block_starts: self.block_starts,
                block_prefixes: self.block_prefixes,
                chunk_prefixes: self.chunk_prefixes,
                block_bytes: self.block_bytes,
                bloom: self.bloom,
                total_bytes: self.total_bytes,
            }),
        }
    }
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
    /// Build a table of `entries`, in any order (a key given twice keeps
    /// its newest version), in blocks of about `block_size` encoded bytes.
    pub fn build(id: TableId, entries: Vec<(Key, Cell)>, block_size: u64) -> Self {
        let mut rows = LoadQueue::default();
        for (key, cell) in entries {
            rows.push(&key, cell);
        }
        let mut run = RunBuilder::new(rows.len(), block_size);
        run.hold(Segment::from_queue(rows, &mut []));
        run.finish(id)
    }

    /// True when `self` and `other` share one underlying allocation (they
    /// are clones of the same built run). Snapshot tests use this to prove
    /// store clones are copy-on-write rather than deep copies.
    pub(crate) fn shares_storage_with(&self, other: &SsTable) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }

    /// The table's identity.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.core.len
    }

    /// True when the table holds no entries.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.core.len == 0
    }

    /// The run's rows: its non-empty segments in key order.
    pub fn segments(&self) -> &[Segment] {
        &self.core.segments
    }

    /// The segment holding entry `i`, and `i`'s index in it. For `i ==
    /// len()`, the end of the last segment. A walk over the segments: a run
    /// has a handful.
    pub(crate) fn locate(&self, i: usize) -> (usize, usize) {
        let mut at = i;
        for (segment, rows) in self.core.segments.iter().enumerate() {
            if at < rows.len() || segment + 1 == self.core.segments.len() {
                return (segment, at);
            }
            at -= rows.len();
        }
        (0, at)
    }

    /// The key of entry `i` of the run.
    fn key(&self, i: usize) -> &[u8] {
        let (segment, at) = self.locate(i);
        self.core.segments[segment].key(at)
    }

    /// Binary search of entries `lo..hi` (`lo < hi`) for `key`: the index of
    /// the first one at or above it, and that entry's cell when it holds
    /// `key`. Each segment the range touches is searched over its key
    /// arena, contiguous memory, a probe comparing padded prefixes first.
    fn search(&self, lo: usize, hi: usize, key: &[u8]) -> (usize, Option<&Cell>) {
        let target = key_prefix(key);
        let (mut segment, mut from) = self.locate(lo);
        let mut base = lo - from;
        loop {
            let rows = &self.core.segments[segment];
            let to = (hi - base).min(rows.len());
            let (mut below, mut end) = (from, to);
            while below < end {
                let mid = below + (end - below) / 2;
                let probe = rows.key(mid);
                match cmp_via_prefix(key_prefix(probe), probe, target, key) {
                    Ordering::Less => below = mid + 1,
                    Ordering::Greater => end = mid,
                    Ordering::Equal => return (base + mid, Some(rows.cell(mid))),
                }
            }
            // Stop unless `key` sorts above all of this segment's part and
            // the range goes on into the next segment.
            if below < to || base + to == hi {
                return (base + below, None);
            }
            base += rows.len();
            segment += 1;
            from = 0;
        }
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
    pub(crate) fn may_contain(&self, key: &[u8]) -> bool {
        self.core.bloom.may_contain(key)
    }

    /// [`SsTable::may_contain`] with the key's [`crate::bloom::hash_pair`]
    /// precomputed once by the caller — a point read probing many runs hashes
    /// the key a single time instead of twice per run.
    pub(crate) fn may_contain_hashed(&self, hashes: (u64, u64)) -> bool {
        self.core.bloom.may_contain_hashed(hashes)
    }

    /// Which block could contain `key`, or `None` when the key sorts before
    /// the first block or the table is empty.
    ///
    /// Both levels search flat prefix arrays — the top level
    /// `chunk_prefixes`, then one `CHUNK`-block window of `block_prefixes`
    /// — with one integer compare per probe; a block's full first key
    /// (entry `block_starts[block]`, in its segment's arena) is read only
    /// when its prefix ties with the key's.
    pub fn block_for(&self, key: &[u8]) -> Option<usize> {
        let core = &*self.core;
        let target = key_prefix(key);
        // Does block `block`, whose first key has prefix `prefix`, start at
        // or below `key`?
        let starts_le = |block: usize, prefix: KeyPrefix| match prefix.cmp(&target) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => self.key(core.block_starts[block] as usize) <= key,
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
            .map_or(self.core.len, |&s| s as usize);
        (start, end)
    }

    /// Point lookup confined to one block (the caller already paid for
    /// reading that block): a binary search of the block's keys.
    pub(crate) fn get_in_block(&self, block: usize, key: &[u8]) -> Option<&Cell> {
        let (start, end) = self.block_range(block);
        self.search(start, end, key).1
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
    /// keys only.
    pub fn lower_bound(&self, start: &[u8]) -> usize {
        // Every block before the last one whose first key is <= `start`
        // lies wholly below `start`; with no such block, nothing does.
        let Some(block) = self.block_for(start) else {
            return 0;
        };
        let (lo, hi) = self.block_range(block);
        self.search(lo, hi, start).0
    }

    /// The block containing entry index `idx`.
    pub fn block_of_entry(&self, idx: usize) -> usize {
        debug_assert!(idx < self.core.len);
        match self.core.block_starts.binary_search(&(idx as u32)) {
            Ok(b) => b,
            Err(b) => b - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::tests::from_sorted;
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
                    .map_or(t.len(), |&s| s as usize)
            });
            assert!((start..end).contains(&idx));
        }
    }

    #[test]
    fn segmented_run_matches_the_concatenated_build() {
        let rows = |ids: std::ops::Range<usize>| -> Vec<(Key, Cell)> {
            ids.map(|i| (k(&format!("user{i:06}")), Cell::live(k("v"), 1)))
                .collect()
        };
        // 28-byte entries in 64-byte blocks: three entries a block, so
        // blocks straddle both segment boundaries.
        let whole = SsTable::build(TableId(1), rows(0..10), 64);
        let parts = [0..1, 1..5, 5..10].map(|ids| from_sorted(rows(ids)));
        let mut split = RunBuilder::new(10, 64);
        for segment in [parts[0].clone(), from_sorted(rows(0..0))]
            .into_iter()
            .chain(parts[1..].iter().cloned())
        {
            split.hold(segment);
        }
        let split = split.finish(TableId(1));
        assert_eq!(split.segments().len(), 3, "empty segments are dropped");
        assert!(split.segments()[1].shares_storage_with(&parts[1]));
        assert_eq!(split.len(), whole.len());
        assert_eq!(split.block_count(), whole.block_count());
        for block in 0..whole.block_count() {
            assert_eq!(split.block_len(block), whole.block_len(block));
        }
        let probes = (0..=10)
            .map(|i| format!("user{i:06}"))
            .chain(["a", "user0000041", "user0000049", "zebra"].map(String::from));
        for probe in probes {
            let p = probe.as_bytes();
            assert_eq!(split.block_for(p), whole.block_for(p), "{probe}");
            assert_eq!(split.lower_bound(p), whole.lower_bound(p), "{probe}");
            assert_eq!(split.get(p), whole.get(p), "{probe}");
            if let Some(b) = whole.block_for(p) {
                assert_eq!(split.get_in_block(b, p), whole.get_in_block(b, p));
            }
        }
    }

    /// Everything a build lays over a run's rows.
    type Layout = (
        TableId,
        usize,
        Vec<u32>,
        Vec<KeyPrefix>,
        Vec<KeyPrefix>,
        Vec<u64>,
        Vec<u64>,
        u64,
    );

    fn layout(t: &SsTable) -> Layout {
        let c = &*t.core;
        (
            t.id,
            c.len,
            c.block_starts.clone(),
            c.block_prefixes.clone(),
            c.chunk_prefixes.clone(),
            c.block_bytes.clone(),
            c.bloom.words().to_vec(),
            c.total_bytes,
        )
    }

    #[test]
    fn a_loaded_run_is_the_run_its_sorted_rows_build() {
        // Rows out of key order, and every fifth key again: older, newer
        // or an equal-time tie with a larger value.
        let mut rows = Vec::new();
        for i in (0..300u64).rev() {
            rows.push((k(&format!("user{:06}", i * 7 % 300)), Cell::live(k("v"), 2)));
            if i % 5 == 0 {
                let value = k(["a", "w", "z"][i as usize % 3]);
                rows.push((k(&format!("user{:06}", i)), Cell::live(value, 1 + i % 3)));
            }
        }
        let queue = || {
            let mut queue = LoadQueue::default();
            for (key, cell) in &rows {
                queue.push(key, cell.clone());
            }
            queue
        };
        let unique = Segment::from_queue(queue(), &mut []);
        assert_eq!(unique.len(), 300);
        let owned = |s: &Segment| -> Vec<(Key, Cell)> {
            s.iter()
                .map(|(key, cell)| (Key::copy_from_slice(key), cell.clone()))
                .collect()
        };
        let want = SsTable::build(TableId(3), owned(&unique), 128);
        let bytes = queue().bytes();
        let mut runs = [0, 1].map(|_| {
            let mut run = RunBuilder::new(rows.len(), 128);
            run.reserve(bytes);
            run
        });
        let [a, b] = &mut runs;
        let segment = Segment::from_queue(queue(), &mut [a, b]);
        assert_eq!(owned(&segment), owned(&unique));
        for run in runs {
            let got = run.finish(TableId(3));
            assert_eq!(layout(&got), layout(&want));
            assert!(got.segments()[0].shares_storage_with(&segment));
            // The reservation held every block: the index never grew.
            assert_eq!(got.core.block_starts.capacity(), (bytes / 128) as usize + 1);
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
