//! Immutable sorted runs (HBase HFiles / Cassandra SSTables).
//!
//! A run stores its entries in key order, grouped into fixed-size blocks.
//! The block is the unit of disk I/O and of block-cache residency.
//!
//! A run's rows live in one or more [`Segment`]s, which runs may share: the
//! block layout and bloom filter belong to the run, the rows and their hash
//! tables to the segments. A run has no index of its own: every lookup
//! seeks its place through the segments' chunk prefixes (see
//! `block_hash`). A point read probes the chunk's hash table, and the row
//! it finds names the block it charges; it consults the bloom filter only
//! when that lookup misses (a present key always passes the filter; see
//! `LsmTree::get`), and only a false positive of the filter searches the
//! chunk for the block to charge. A range scan searches the chunk for its
//! first row and reads consecutive blocks from there.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::block_hash::chunk_rows;
use crate::bloom::{self, BloomFilter};
use crate::segment::{LoadQueue, Segment};
use crate::types::{cmp_via_prefix, entry_encoded_len, key_prefix, Cell, Key, KeyPrefix};

/// Identity of an SSTable within one node's store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u64);

impl std::fmt::Display for TableId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sst{}", self.0)
    }
}

/// The immutable payload of a run: its segments, block layout and bloom
/// filter. Built once, never mutated, shared between clones of
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
    /// Encoded bytes per block.
    block_bytes: Vec<u64>,
    bloom: BloomFilter,
    total_bytes: u64,
}

/// Builds one run's block layout and bloom filter from one record per row:
/// the key's bloom hash pair for the filter, and its encoded length for the
/// blocks. Every run is built through one, whether a flush, a compaction or
/// a bulk load makes it.
///
/// The filter takes hash pairs in any order, the blocks take lengths in key
/// order. [`RunBuilder::hold`] reads both from a sorted segment in one pass;
/// a bulk load instead hashes each key for the filter where
/// [`Segment::from_queue`] reads it, in arrival order, and feeds every run
/// that holds the segment at once.
#[derive(Debug)]
pub struct RunBuilder {
    /// The segments the run holds, in key order.
    pub(crate) segments: Vec<Segment>,
    /// The row count the filter is sized for. A bulk load sizes it from
    /// the queued rows, before a sort drops duplicate keys.
    sized_for: usize,
    /// Rows laid out in blocks so far.
    len: usize,
    block_size: u64,
    block_starts: Vec<u32>,
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
            block_bytes: Vec::new(),
            bloom: BloomFilter::with_capacity(rows, 10),
            total_bytes: 0,
            cur_bytes: 0,
        }
    }

    /// Reserve the block layout of a run whose rows encode to at most
    /// `bytes` bytes in all, exactly: every block but the last closes at
    /// `block_size` bytes or more, so there are at most `bytes /
    /// block_size + 1` blocks.
    pub(crate) fn reserve(&mut self, bytes: u64) {
        let blocks = (bytes / self.block_size) as usize + 1;
        self.block_starts.reserve_exact(blocks);
        self.block_bytes.reserve_exact(blocks);
    }

    /// True when no row has been laid out in a block.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lay out the next row in key order, whose encoded length is `len`.
    #[inline]
    pub(crate) fn row(&mut self, len: u64) {
        if self.cur_bytes == 0 {
            self.block_starts.push(self.len as u32);
        }
        self.cur_bytes += len;
        self.total_bytes += len;
        self.len += 1;
        if self.cur_bytes >= self.block_size {
            self.block_bytes.push(self.cur_bytes);
            self.cur_bytes = 0;
        }
    }

    /// Hold `segment` as the run's next stretch of rows, reading every row
    /// of it for the filter and the blocks. An empty segment is dropped.
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
            self.row(entry_encoded_len(key, cell));
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
                block_bytes: self.block_bytes,
                bloom: self.bloom,
                total_bytes: self.total_bytes,
            }),
        }
    }
}

/// An immutable sorted run with block layout and bloom filter.
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

    /// The place of `key`, whose prefix is `prefix`, in the run: the first
    /// entry of the last segment whose first key is at or below `key`, that
    /// segment, and its chunk of rows that can hold `key` (see
    /// `block_hash`); `None` when `key` sorts before the run's first row.
    /// The segments are disjoint and in key order, so no other chunk can
    /// hold `key`, and a segment the key sorts before costs one prefix
    /// compare.
    #[inline]
    fn seek(&self, prefix: KeyPrefix, key: &[u8]) -> Option<(usize, &Segment, usize)> {
        let mut base = self.core.len;
        for rows in self.core.segments.iter().rev() {
            base -= rows.len();
            if let Some(chunk) = rows.tables().chunk_of(rows, prefix, key) {
                return Some((base, rows, chunk));
            }
        }
        None
    }

    /// Binary search for `key` in the one chunk that can hold it: `Ok` of
    /// the index in the run of the entry holding it, `Err` of the index of
    /// the first entry above it (past the chunk when none in it is), or
    /// `None` when `key` sorts before the run. A step compares padded
    /// prefixes, and the full keys only on a tie.
    fn search(&self, key: &[u8]) -> Option<Result<usize, usize>> {
        let prefix = key_prefix(key);
        let (base, rows, chunk) = self.seek(prefix, key)?;
        let (mut lo, mut hi) = chunk_rows(chunk, rows.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let probe = rows.key(mid);
            match cmp_via_prefix(key_prefix(probe), probe, prefix, key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(Ok(base + mid)),
            }
        }
        Some(Err(base + lo))
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
    pub(crate) fn may_contain_hashed(&self, hashes: (u64, u64)) -> bool {
        self.core.bloom.may_contain_hashed(hashes)
    }

    /// Which block could contain `key`: the block of the last entry at or
    /// below it, or `None` when the key sorts before the first entry or the
    /// table is empty.
    pub fn block_for(&self, key: &[u8]) -> Option<usize> {
        let last = match self.search(key)? {
            Ok(entry) => entry,
            // A miss's chunk starts below `key`, so `above` is past its
            // first entry.
            Err(above) => above - 1,
        };
        Some(self.block_of_entry(last))
    }

    /// The entry holding `key`, as its index in the run and its cell, or
    /// `None` when the run does not hold `key`: the chunk of the key's
    /// place, probed through its hash table.
    #[inline]
    pub fn find(&self, key: &[u8]) -> Option<(usize, &Cell)> {
        let (base, rows, chunk) = self.seek(key_prefix(key), key)?;
        let row = rows.tables().probe(rows, chunk, key)?;
        Some((base + row, rows.cell(row)))
    }

    /// Index of the first entry with key >= `start` (`len()` when every key
    /// sorts below it): where a range scan's cursor over this run begins.
    /// A binary search of the one chunk of rows that can hold the boundary.
    pub fn lower_bound(&self, start: &[u8]) -> usize {
        match self.search(start) {
            Some(Ok(at) | Err(at)) => at,
            None => 0,
        }
    }

    /// The block containing entry index `idx`: the last block starting at
    /// or below it. Blocks hold nearly equal row counts, so the search
    /// starts at the block `idx` would be in if they held exactly equal
    /// ones, and gallops outward from it until a stretch of blocks brackets
    /// `idx`, then binary-searches that stretch: a compare or two when the
    /// guess is right, O(log distance) for any layout.
    pub fn block_of_entry(&self, idx: usize) -> usize {
        let starts = &self.core.block_starts;
        debug_assert!(idx < self.core.len);
        let at = idx as u32;
        let guess = (idx as u64 * starts.len() as u64 / self.core.len as u64) as usize;
        // Gallop to blocks `lo..hi` that bracket `idx` (`lo` starts at or
        // below it, `hi` or the run's end above it): down while `lo` starts
        // above it (block 0 starts at entry 0, so that walk ends), or else
        // up while `hi` starts at or below it.
        let (mut lo, mut hi, mut step) = (guess, guess + 1, 1);
        while starts[lo] > at {
            (hi, lo, step) = (lo, lo.saturating_sub(step), step * 2);
        }
        while hi < starts.len() && starts[hi] <= at {
            (lo, hi, step) = (hi, (hi + step).min(starts.len()), step * 2);
        }
        lo + starts[lo..hi].partition_point(|&start| start <= at) - 1
    }
}

#[cfg(test)]
impl SsTable {
    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.core.len
    }

    /// True when the table holds no entries.
    pub(crate) fn is_empty(&self) -> bool {
        self.core.len == 0
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
            let (_, got) = t.find(format!("user{i:06}").as_bytes()).expect("present");
            assert_eq!(got.value.as_deref(), Some(format!("v{i}").as_bytes()));
        }
    }

    #[test]
    fn absent_keys_return_none() {
        let t = table(100, 256);
        assert_eq!(t.find(b"user999999"), None);
        assert_eq!(t.find(b"aaaa"), None);
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
            let (entry, _) = t.find(key.as_bytes()).expect("present");
            assert_eq!(t.block_of_entry(entry), b);
        }
    }

    #[test]
    fn lower_bound_lands_on_first_key_at_or_after_start() {
        // Several blocks, so the boundary lies past the first.
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
            assert_eq!(split.find(p), whole.find(p), "{probe}");
        }
    }

    /// Everything a build lays over a run's rows.
    type Layout = (
        TableId,
        usize,
        Vec<u32>,
        Vec<u64>,
        Vec<Vec<u16>>,
        Vec<u64>,
        u64,
    );

    fn layout(t: &SsTable) -> Layout {
        let c = &*t.core;
        (
            t.id,
            c.len,
            c.block_starts.clone(),
            c.block_bytes.clone(),
            (c.segments.iter())
                .map(|s| s.tables().slots().to_vec())
                .collect(),
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
            // The reservation held every block: the layout never grew.
            assert_eq!(got.core.block_starts.capacity(), (bytes / 128) as usize + 1);
        }
    }

    #[test]
    fn point_reads_find_every_key_in_its_block_in_blocks_of_any_size() {
        for rows in [1, 8, 15, 16, 196, 1500] {
            // 28-byte entries, so blocks of `rows * 28` bytes hold `rows`
            // rows, and a last block 5.
            let n = 3 * rows + 5;
            let entries = (0..n)
                .map(|i| (k(&format!("user{i:06}")), Cell::live(k("v"), 1)))
                .collect();
            let t = SsTable::build(TableId(1), entries, 28 * rows as u64);
            assert_eq!(t.block_count(), 3 + 5usize.div_ceil(rows));
            assert!(!t.segments()[0].tables().slots().is_empty());
            for i in 0..n {
                let key = format!("user{i:06}");
                let (entry, cell) = t.find(key.as_bytes()).expect("present");
                assert_eq!((entry, cell), (i, t.segments()[0].cell(i)));
                let block = t.block_for(key.as_bytes()).expect("a block");
                assert_eq!(t.block_of_entry(entry), block, "{rows} rows, key {i}");
            }
            assert_eq!(t.find(b"user0000001"), None);
            assert_eq!(t.find(b"a"), None);
            assert_eq!(t.find(b"zebra"), None);
        }
    }

    #[test]
    fn runs_of_any_block_size_share_their_segments_tables() {
        let segment =
            from_sorted((0..3000).map(|i| (k(&format!("user{i:06}")), Cell::live(k("v"), 1))));
        let [a, b, small] = [64, 64, 8].map(|rows| {
            let mut run = RunBuilder::new(3000, rows * 28);
            run.hold(segment.clone());
            run.finish(TableId(2))
        });
        for run in [&a, &b, &small] {
            assert!(std::ptr::eq(run.segments()[0].tables(), segment.tables()));
        }
        assert_eq!(layout(&a), layout(&b));
    }

    /// `block_of_entry` against a binary search of the block starts, for
    /// every entry of runs whose blocks hold from 1 to about 60 rows, with
    /// values of lengths from 0 to 199 bytes drawn by a fixed LCG, so the
    /// guess it starts from is off by up to several blocks either way.
    #[test]
    fn block_of_entry_matches_a_binary_search_in_irregular_runs() {
        let mut draw = 0x2545_f491_4f6c_dd1du64;
        for (n, block_size, spread) in [
            (1, 64, 200),
            (700, 64, 200),
            (3000, 512, 200),
            (3000, 4096, 40),
            (5000, 1024, 8),
        ] {
            let entries = (0..n)
                .map(|i| {
                    draw = draw.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let len = (draw >> 33) as usize % spread;
                    (
                        k(&format!("user{i:06}")),
                        Cell::live(Bytes::from(vec![b'v'; len]), 1),
                    )
                })
                .collect();
            let t = SsTable::build(TableId(1), entries, block_size);
            let starts = &t.core.block_starts;
            for entry in 0..n {
                let want = match starts.binary_search(&(entry as u32)) {
                    Ok(b) => b,
                    Err(b) => b - 1,
                };
                assert_eq!(t.block_of_entry(entry), want, "entry {entry} of {n}");
            }
        }
    }

    #[test]
    fn empty_table_is_harmless() {
        let t = SsTable::build(TableId(0), Vec::new(), 1024);
        assert!(t.is_empty());
        assert_eq!(t.block_count(), 0);
        assert_eq!(t.find(b"x"), None);
        assert_eq!(t.block_for(b"x"), None);
        assert_eq!(t.lower_bound(b"x"), 0);
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
        assert_eq!(t.find(b"user000123"), c.find(b"user000123"));
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
