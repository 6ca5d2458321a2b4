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

/// The rows of a segment: entries and the padded prefix of each key.
#[derive(Debug)]
struct SegmentRows {
    entries: Vec<(Key, Cell)>,
    /// Padded prefix of every entry key, parallel to `entries` — the
    /// in-block search runs over this flat array.
    prefixes: Vec<KeyPrefix>,
}

/// One queued row in the sort of [`Segment::from_rows`]: its key's prefix,
/// its encoded length and its index in the queue. The prefix is kept as two
/// halves: without a `u128` to align, a record packs into 24 bytes, not 32.
#[derive(Debug, Clone, Copy)]
struct SortRecord {
    high: u64,
    low: u64,
    len: u32,
    index: u32,
}

impl SortRecord {
    fn new(prefix: KeyPrefix, len: u64, index: usize) -> Self {
        Self {
            high: (prefix >> 64) as u64,
            low: prefix as u64,
            len: len as u32,
            index: index as u32,
        }
    }

    #[inline]
    fn prefix(&self) -> KeyPrefix {
        (self.high as KeyPrefix) << 64 | self.low as KeyPrefix
    }
}

/// A strictly sorted, immutable stretch of rows: the row storage of a run.
///
/// Cloning is O(1): the rows live behind an [`Arc`], so several runs can
/// hold one segment. A cstore base sorts each token range's loaded rows
/// into one segment once, and the run of every replica of that range holds
/// it, so the base stores each row once instead of once per replica.
#[derive(Debug, Clone)]
pub struct Segment(Arc<SegmentRows>);

impl Segment {
    /// A segment of `entries`, which are already strictly sorted by key.
    ///
    /// # Panics
    /// In debug builds, panics if entries are not strictly sorted.
    pub(crate) fn sorted(entries: Vec<(Key, Cell)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "entries must be strictly sorted by key"
        );
        let prefixes = entries.iter().map(|(key, _)| key_prefix(key)).collect();
        Self(Arc::new(SegmentRows { entries, prefixes }))
    }

    /// A segment of `rows`, given in any order, and its rows' records fed to
    /// every run in `holders`, which each go on to hold the segment. A key
    /// given more than once keeps its newest version by [`Cell::newer`], as a
    /// memtable would.
    ///
    /// The one pass that reads the keys walks `rows` in arrival order: a bulk
    /// load's keys were allocated in that order, so the pass runs through
    /// the heap instead of hopping around it. It takes each key's prefix and
    /// encoded length for the sort, and hashes the key once into the filter
    /// of every holder. What is sorted is a `(prefix, length, index)` array,
    /// never the rows: an integer compare per probe and the full keys only
    /// on a prefix tie. The holders' block indexes then come from that array
    /// in key order, and each key's winner moves out of `rows` into an
    /// exactly sized segment, without touching a key again.
    ///
    /// A holder must receive its segments in key order, each sorting wholly
    /// above the one before.
    pub fn from_rows(rows: Vec<(Key, Cell)>, holders: &mut [&mut RunBuilder]) -> Self {
        let mut order = Vec::with_capacity(rows.len());
        for (i, (key, cell)) in rows.iter().enumerate() {
            let hashes = bloom::hash_pair(key);
            for run in holders.iter_mut() {
                run.bloom.insert_hashed(hashes);
            }
            order.push(SortRecord::new(
                key_prefix(key),
                entry_encoded_len(key, cell),
                i,
            ));
        }
        let row = |r: &SortRecord| &rows[r.index as usize];
        order.sort_unstable_by(|a, b| {
            let by_key = || row(a).0.cmp(&row(b).0);
            a.prefix().cmp(&b.prefix()).then_with(by_key)
        });
        // One record per key, holding its newest version.
        order.dedup_by(|later, kept| {
            let (old, new) = (row(kept), row(later));
            let same = later.prefix() == kept.prefix() && old.0 == new.0;
            if same && !std::ptr::eq(Cell::newer(&old.1, &new.1), &old.1) {
                *kept = *later;
            }
            same
        });
        for r in &order {
            for run in holders.iter_mut() {
                run.row(r.prefix(), r.len as u64);
            }
        }
        let mut slots: Vec<Option<(Key, Cell)>> = rows.into_iter().map(Some).collect();
        let mut entries = Vec::with_capacity(order.len());
        entries.extend(order.iter().filter_map(|r| slots[r.index as usize].take()));
        // Freed before the prefixes are allocated, which keeps them out of
        // a bulk load's peak.
        drop(slots);
        let prefixes = order.iter().map(SortRecord::prefix).collect();
        drop(order);
        let segment = Self(Arc::new(SegmentRows { entries, prefixes }));
        if !segment.is_empty() {
            for run in holders.iter_mut() {
                run.segments.push(segment.clone());
            }
        }
        segment
    }

    /// The rows in key order.
    pub fn entries(&self) -> &[(Key, Cell)] {
        &self.0.entries
    }

    /// The [`key_prefix`] of every key, parallel to [`Segment::entries`].
    pub(crate) fn prefixes(&self) -> &[KeyPrefix] {
        &self.0.prefixes
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.0.entries.len()
    }

    /// True when the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.0.entries.is_empty()
    }

    /// True when `self` and `other` are one segment: clones of one build.
    pub fn shares_storage_with(&self, other: &Segment) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The first and last keys; `None` for an empty segment.
    pub(crate) fn key_range(&self) -> Option<(&Key, &Key)> {
        Some((&self.entries().first()?.0, &self.entries().last()?.0))
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
/// a bulk load instead hashes each key where [`Segment::from_rows`] reads it,
/// in arrival order, and feeds every run that holds the segment at once.
#[derive(Debug)]
pub struct RunBuilder {
    /// The segments the run holds, in key order.
    segments: Vec<Segment>,
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
    bloom: BloomFilter,
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
    fn row(&mut self, prefix: KeyPrefix, len: u64) {
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
        for ((key, cell), &prefix) in segment.entries().iter().zip(segment.prefixes()) {
            self.bloom.insert_hashed(bloom::hash_pair(key));
            self.row(prefix, entry_encoded_len(key, cell));
        }
        self.segments.push(segment);
    }

    /// The run, under id `id`. A filter sized for more rows than the run
    /// holds (a bulk load whose sort dropped duplicate keys) is refilled at
    /// the run's exact size, so every run's filter is the one its rows size.
    pub(crate) fn finish(mut self, id: TableId) -> SsTable {
        debug_assert!(
            self.segments
                .windows(2)
                .all(|w| w[0].key_range().map(|r| r.1) < w[1].key_range().map(|r| r.0)),
            "segments must be sorted and disjoint"
        );
        if self.sized_for != self.len {
            self.bloom = BloomFilter::with_capacity(self.len, 10);
            for (key, _) in self.segments.iter().flat_map(Segment::entries) {
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
    /// Build a table from entries that are already sorted by key, unique per
    /// key. `block_size` is the target encoded block size in bytes.
    ///
    /// # Panics
    /// In debug builds, panics if entries are not strictly sorted.
    pub fn build(id: TableId, entries: Vec<(Key, Cell)>, block_size: u64) -> Self {
        let mut run = RunBuilder::new(entries.len(), block_size);
        run.hold(Segment::sorted(entries));
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

    /// Entry `i` of the run.
    fn entry(&self, i: usize) -> &(Key, Cell) {
        let (segment, at) = self.locate(i);
        &self.core.segments[segment].entries()[at]
    }

    /// Binary search of entries `lo..hi` (`lo < hi`) for `key`: the index of
    /// the first one at or above it, and that entry when it holds `key`.
    /// Each segment the range touches is searched over its flat prefix
    /// array, the heap-allocated keys touched only on a prefix tie.
    fn search(&self, lo: usize, hi: usize, key: &[u8]) -> (usize, Option<&(Key, Cell)>) {
        let target = key_prefix(key);
        let (mut segment, mut from) = self.locate(lo);
        let mut base = lo - from;
        loop {
            let rows = &self.core.segments[segment];
            let to = (hi - base).min(rows.len());
            let prefixes = &rows.prefixes()[from..to];
            let entries = &rows.entries()[from..to];
            let (mut below, mut end) = (0, prefixes.len());
            while below < end {
                let mid = below + (end - below) / 2;
                match cmp_via_prefix(prefixes[mid], entries[mid].0.as_ref(), target, key) {
                    Ordering::Less => below = mid + 1,
                    Ordering::Greater => end = mid,
                    Ordering::Equal => return (base + from + mid, Some(&entries[mid])),
                }
            }
            // Stop unless `key` sorts above all of this segment's part and
            // the range goes on into the next segment.
            if below < prefixes.len() || base + to == hi {
                return (base + from + below, None);
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
    /// (entry `block_starts[block]`, a pointer chase) is read only when its
    /// prefix ties with the key's.
    pub fn block_for(&self, key: &[u8]) -> Option<usize> {
        let core = &*self.core;
        let target = key_prefix(key);
        // Does block `block`, whose first key has prefix `prefix`, start at
        // or below `key`?
        let starts_le = |block: usize, prefix: KeyPrefix| match prefix.cmp(&target) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => self.entry(core.block_starts[block] as usize).0.as_ref() <= key,
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
    /// reading that block). Searches the block's slice of the flat prefix
    /// arrays; the heap-allocated key is touched only on a prefix tie.
    pub(crate) fn get_in_block(&self, block: usize, key: &[u8]) -> Option<&Cell> {
        let (start, end) = self.block_range(block);
        self.search(start, end, key).1.map(|(_, cell)| cell)
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
    /// slice of the flat prefix arrays — full keys only on a prefix tie —
    /// instead of chasing heap-allocated keys across the whole run.
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
        let parts = [0..1, 1..5, 5..10].map(|ids| Segment::sorted(rows(ids)));
        let mut split = RunBuilder::new(10, 64);
        for segment in [parts[0].clone(), Segment::sorted(Vec::new())]
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
        let unique = Segment::from_rows(rows.clone(), &mut []);
        assert_eq!(unique.len(), 300);
        let want = SsTable::build(TableId(3), unique.entries().to_vec(), 128);
        let bytes: u64 = rows
            .iter()
            .map(|(key, cell)| entry_encoded_len(key, cell))
            .sum();
        let mut runs = [0, 1].map(|_| {
            let mut run = RunBuilder::new(rows.len(), 128);
            run.reserve(bytes);
            run
        });
        let [a, b] = &mut runs;
        let segment = Segment::from_rows(rows, &mut [a, b]);
        assert_eq!(segment.entries(), unique.entries());
        for run in runs {
            let got = run.finish(TableId(3));
            assert_eq!(layout(&got), layout(&want));
            assert!(got.segments()[0].shares_storage_with(&segment));
            // The reservation held every block: the index never grew.
            assert_eq!(got.core.block_starts.capacity(), (bytes / 128) as usize + 1);
        }
    }

    #[test]
    fn segment_from_rows_sorts_and_keeps_the_newest_version() {
        let s = Segment::from_rows(
            vec![
                (k("b"), Cell::live(k("old"), 1)),
                (k("a"), Cell::live(k("x"), 1)),
                (k("b"), Cell::live(k("new"), 2)),
            ],
            &mut [],
        );
        let keys: Vec<_> = s
            .entries()
            .iter()
            .map(|(key, c)| (key.clone(), c.ts))
            .collect();
        assert_eq!(keys, vec![(k("a"), 1), (k("b"), 2)]);
        assert_eq!(s.prefixes(), &[key_prefix(b"a"), key_prefix(b"b")]);
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
