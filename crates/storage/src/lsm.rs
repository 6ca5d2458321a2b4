//! The assembled LSM tree: WAL + memtable + SSTables + block cache +
//! compaction, with I/O-plan accounting on every operation.
//!
//! One `LsmTree` is the storage engine of one replica on one node (a region
//! in `hstore`, a node's keyspace shard set in `cstore`).

use crate::bloom;
use crate::cache::{BlockCache, BlockKey, CacheStats};
use crate::compaction::SizeTieredPolicy;
use crate::io::{IoOp, IoPlan};
use crate::memtable::{self, Memtable};
use crate::merge::{clone_winners, MergeRef};
use crate::sstable::{key_prefix, KeyPrefix, Segment, SsTable, TableId};
use crate::types::{Cell, Key};
use crate::wal::WriteAheadLog;

/// Tuning knobs for one LSM tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LsmConfig {
    /// Target encoded block size (the disk-I/O and cache unit).
    pub block_size: u64,
    /// Memtable size that triggers a flush.
    pub memtable_flush_bytes: u64,
    /// Block-cache capacity in bytes.
    pub cache_bytes: u64,
    /// Compaction policy.
    pub compaction: SizeTieredPolicy,
}

impl Default for LsmConfig {
    fn default() -> Self {
        Self {
            block_size: 8 * 1024,
            memtable_flush_bytes: 2 * 1024 * 1024,
            cache_bytes: 8 * 1024 * 1024,
            compaction: SizeTieredPolicy::default(),
        }
    }
}

/// Outcome of a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteReceipt {
    /// Encoded bytes appended to the WAL (for log-bandwidth accounting).
    pub wal_bytes: u64,
    /// True when the memtable crossed its flush threshold.
    pub flush_due: bool,
}

/// Outcome of a point read.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadResult {
    /// The newest cell across memtable and all runs, if any.
    pub cell: Option<Cell>,
    /// The I/O performed.
    pub io: IoPlan,
}

/// Outcome of a range scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanResult {
    /// Up to `limit` live rows starting at the scan key.
    pub rows: Vec<(Key, Cell)>,
    /// The I/O performed.
    pub io: IoPlan,
}

/// Outcome of a memtable flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushReceipt {
    /// The new table.
    pub table: TableId,
    /// Bytes written sequentially to disk.
    pub bytes: u64,
    /// True when the flush made a compaction bucket ripe.
    pub compaction_due: bool,
}

/// Outcome of a compaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionReceipt {
    /// Tables consumed.
    pub inputs: Vec<TableId>,
    /// The replacement table.
    pub output: TableId,
    /// Bytes read sequentially from disk.
    pub read_bytes: u64,
    /// Bytes written sequentially to disk.
    pub write_bytes: u64,
}

/// A merge's position in one SSTable run: entries `from..` are the part of
/// the run the merge reads (for a scan, at or after its start key), entries
/// `from..next` what it has pulled so far. Yields each entry with its
/// prefix from its segment's prefix array, stepping from one segment to the
/// next.
struct RunCursor<'a> {
    segments: &'a [Segment],
    /// The segment being read, and the index in it of the next entry.
    segment: usize,
    at: usize,
    from: usize,
    next: usize,
}

/// How many entries ahead of the one it yields a run cursor prefetches.
/// The merge clones each returned row (two locked refcount increments), and
/// a locked increment waits for its cache line alone; fetching the lines of
/// entry `next + 2` while entry `next` is merged keeps those misses
/// overlapped (DESIGN.md §5i has the measurements).
const PREFETCH_AHEAD: usize = 2;

impl<'a> RunCursor<'a> {
    /// A cursor over `table` from entry `from` on.
    fn new(table: &'a SsTable, from: usize) -> Self {
        let (segment, at) = table.locate(from);
        Self {
            segments: table.segments(),
            segment,
            at,
            from,
            next: from,
        }
    }

    /// The entries the merge emitted from this run, given the last key it
    /// emitted: everything it pulled except, from a run it did not exhaust,
    /// one pending head beyond `end`. The last entry pulled is the one
    /// before `at`: segments are never empty, so the cursor steps into one
    /// only to pull from it.
    fn walked(&self, end: &Key) -> std::ops::Range<usize> {
        let pending =
            self.next > self.from && self.segments[self.segment].entries()[self.at - 1].0 > *end;
        self.from..self.next - usize::from(pending)
    }
}

impl<'a> Iterator for RunCursor<'a> {
    type Item = (KeyPrefix, &'a (Key, Cell));

    fn next(&mut self) -> Option<Self::Item> {
        let mut rows = self.segments.get(self.segment)?;
        if self.at == rows.len() {
            rows = self.segments.get(self.segment + 1)?;
            (self.segment, self.at) = (self.segment + 1, 0);
        }
        if let Some((key, cell)) = rows.entries().get(self.at + PREFETCH_AHEAD) {
            key.prefetch();
            if let Some(value) = &cell.value {
                value.prefetch();
            }
        }
        let row = &rows.entries()[self.at];
        let prefix = rows.prefixes()[self.at];
        self.at += 1;
        self.next += 1;
        Some((prefix, row))
    }
}

/// One merge source of a range scan: the memtable's range or a cursor over
/// an SSTable run, unified so the streaming merge can hold all sources in
/// one unboxed `Vec`.
enum ScanSource<'a> {
    Mem(memtable::Range<'a>),
    Run(RunCursor<'a>),
}

impl<'a> Iterator for ScanSource<'a> {
    type Item = (KeyPrefix, &'a (Key, Cell));

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            // The memtable keeps no prefix per row (its B-tree is keyed by
            // prefix per slot), so each row's is computed as it is pulled.
            ScanSource::Mem(it) => it.next().map(|row| (key_prefix(&row.0), row)),
            ScanSource::Run(cur) => cur.next(),
        }
    }
}

/// The compaction merge: a streaming merge straight over the runs' entries
/// and prefix arrays, so keys are read only on a prefix tie, cloning
/// (refcount-bumping) only each key's surviving winner.
fn merge_tables(tables: &[SsTable], drop_tombstones: bool) -> Vec<(Key, Cell)> {
    let total = tables.iter().map(SsTable::len).sum();
    let sources = tables.iter().map(|t| RunCursor::new(t, 0)).collect();
    clone_winners(MergeRef::new(sources), total, drop_tombstones)
}

/// A single replica's LSM storage engine.
#[derive(Debug, Clone)]
pub struct LsmTree {
    config: LsmConfig,
    wal: WriteAheadLog,
    memtable: Memtable,
    /// Oldest first; reads reconcile across all runs.
    tables: Vec<SsTable>,
    /// `(id, total_bytes)` mirror of `tables`, maintained on flush and
    /// compaction so policy checks don't rebuild a `Vec` per call.
    sizes: Vec<(TableId, u64)>,
    cache: BlockCache,
    next_table_id: u64,
}

impl LsmTree {
    /// Create an empty tree.
    pub fn new(config: LsmConfig) -> Self {
        Self {
            config,
            wal: WriteAheadLog::new(),
            memtable: Memtable::new(),
            tables: Vec::new(),
            sizes: Vec::new(),
            cache: BlockCache::new(config.cache_bytes),
            next_table_id: 1,
        }
    }

    /// The tree's configuration.
    pub fn config(&self) -> &LsmConfig {
        &self.config
    }

    /// Apply a write: WAL append then memtable insert. The WAL copy of the
    /// payload is a refcount bump; the caller's key/cell move straight into
    /// the memtable.
    pub fn put(&mut self, key: Key, cell: Cell) -> WriteReceipt {
        let (_seq, wal_bytes) = self.wal.append(&key, &cell);
        self.memtable.insert(key, cell);
        WriteReceipt {
            wal_bytes,
            flush_due: self.memtable.bytes() >= self.config.memtable_flush_bytes,
        }
    }

    /// Point read reconciling memtable and every run the bloom filters admit.
    ///
    /// Zero-copy until the very end: candidates stay borrowed out of the
    /// memtable and runs, last-write-wins folds by reference via
    /// [`Cell::newer`], and only the final winner is cloned (a refcount
    /// bump). The key is bloom-hashed at most once for all runs — when the
    /// first run misses it, so never on the common path where every run
    /// holds the key — and every run records into one shared inline
    /// [`IoPlan`].
    pub fn get(&mut self, key: &[u8]) -> ReadResult {
        let Self {
            cache,
            tables,
            memtable,
            ..
        } = self;
        let mut io = IoPlan::new();
        let mut newest: Option<&Cell> = None;
        if let Some(cell) = memtable.get(key) {
            io.push(IoOp::MemtableHit);
            newest = Some(cell);
        }
        let mut hashes = None;
        // Check every run; last-write-wins decides, so order is irrelevant.
        for table in tables.iter() {
            if let Some(cell) = Self::get_from_table(cache, table, key, &mut hashes, &mut io) {
                newest = Some(match newest {
                    Some(prev) => Cell::newer(prev, cell),
                    None => cell,
                });
            }
        }
        ReadResult {
            cell: newest.cloned(),
            io,
        }
    }

    fn get_from_table<'t>(
        cache: &mut BlockCache,
        table: &'t SsTable,
        key: &[u8],
        hashes: &mut Option<(u64, u64)>,
        io: &mut IoPlan,
    ) -> Option<&'t Cell> {
        // Search first, bloom only on a miss. A present key always passes
        // the bloom filter, so probing it up front spends k scattered bit
        // reads to learn nothing on the common read-mostly path; the index
        // and block searches run over the table's flat prefix arrays. The
        // observable effects — io plan, cache state, returned cell — are
        // identical to bloom-first order: the simulated block read happens
        // exactly when the bloom filter would have admitted the key.
        let Some(block) = table.block_for(key) else {
            // Key sorts before the table: bloom-first order also ends in a
            // skip here, whatever the filter says.
            io.push(IoOp::BloomSkip);
            return None;
        };
        let hit = table.get_in_block(block, key);
        if hit.is_none()
            && !table.may_contain_hashed(*hashes.get_or_insert_with(|| bloom::hash_pair(key)))
        {
            io.push(IoOp::BloomSkip);
            return None;
        }
        // Present key, or an absent one the filter false-positives on:
        // either way the block is (simulated-)read and charged.
        let bkey = BlockKey {
            table: table.id(),
            block: block as u32,
        };
        let bytes = table.block_len(block);
        if cache.get(bkey).is_some() {
            io.push(IoOp::CacheHit { bytes });
        } else {
            io.push(IoOp::DiskRead { bytes });
            cache.insert(bkey, bytes);
        }
        hit
    }

    /// Range scan: merge memtable and all runs from `start`, return up to
    /// `limit` live rows (tombstoned rows are skipped but still cost I/O).
    ///
    /// The work is proportional to the rows walked, not to the size of the
    /// tree: each run's lower bound is found once through its block index
    /// ([`SsTable::lower_bound`]), the streaming merge pulls from that
    /// cursor exactly as far as the `limit`-th live row — however many
    /// tombstones shadow the range — and only returned rows are cloned
    /// (refcount bumps). The I/O plan charges, per run in age order, every
    /// block of the window its cursor walked: the blocks holding that run's
    /// keys in `[start, last merged key]`.
    pub fn scan(&mut self, start: &[u8], limit: usize) -> ScanResult {
        let mut rows = Vec::with_capacity(limit);
        let io = self.walk_range(start, limit, |key, cell| {
            rows.push((key.clone(), cell.clone()));
        });
        ScanResult { rows, io }
    }

    /// [`LsmTree::scan`] for a caller that pays for a scan but never reads
    /// its rows (a read-repair probe): the same walk, the same I/O plan and
    /// the same cache state afterwards, but the rows are counted, not
    /// cloned. Returns how many of them sort below `end` (all of them
    /// without one), and the plan.
    pub fn scan_count(
        &mut self,
        start: &[u8],
        limit: usize,
        end: Option<&[u8]>,
    ) -> (usize, IoPlan) {
        let mut below = 0;
        let io = self.walk_range(start, limit, |key, _| {
            below += usize::from(end.is_none_or(|end| key.as_ref() < end));
        });
        (below, io)
    }

    /// The walk behind [`LsmTree::scan`]: hand each of the first `limit`
    /// live rows from `start` on to `emit`, in key order, and charge the
    /// blocks walked.
    fn walk_range(
        &mut self,
        start: &[u8],
        limit: usize,
        mut emit: impl FnMut(&Key, &Cell),
    ) -> IoPlan {
        let Self {
            cache,
            tables,
            memtable,
            ..
        } = self;
        let mut sources = Vec::with_capacity(1 + tables.len());
        sources.push(ScanSource::Mem(memtable.range_from(start)));
        for t in tables.iter() {
            sources.push(ScanSource::Run(RunCursor::new(t, t.lower_bound(start))));
        }
        let mut merge = MergeRef::new(sources);
        let mut live = 0;
        let mut last_key: Option<&Key> = None;
        while live < limit {
            let Some((key, cell)) = merge.next() else {
                break;
            };
            last_key = Some(key);
            if !cell.is_tombstone() {
                emit(key, cell);
                live += 1;
            }
        }
        let mut io = IoPlan::new();
        if let Some(end) = last_key {
            // Sources are the memtable, then one cursor per run in age order.
            for (table, source) in tables.iter().zip(merge.into_sources().iter().skip(1)) {
                let ScanSource::Run(cur) = source else {
                    continue;
                };
                let walked = cur.walked(end);
                if !walked.is_empty() {
                    Self::charge_scan_blocks(
                        cache,
                        table,
                        table.block_of_entry(walked.start),
                        table.block_of_entry(walked.end - 1),
                        &mut io,
                    );
                }
            }
        }
        io
    }

    /// Charge one run's blocks `first..=last` to a scan: a cache hit each,
    /// or one positioned read followed by sequential ones, inserted into
    /// the cache as they are read.
    fn charge_scan_blocks(
        cache: &mut BlockCache,
        table: &SsTable,
        first: usize,
        last: usize,
        io: &mut IoPlan,
    ) {
        for block in first..=last {
            let bkey = BlockKey {
                table: table.id(),
                block: block as u32,
            };
            let bytes = table.block_len(block);
            if cache.get(bkey).is_some() {
                io.push(IoOp::CacheHit { bytes });
            } else {
                if block == first {
                    io.push(IoOp::DiskRead { bytes });
                } else {
                    io.push(IoOp::DiskSeqRead { bytes });
                }
                cache.insert(bkey, bytes);
            }
        }
    }

    /// Flush the memtable into a new SSTable. Returns `None` when there is
    /// nothing to flush. The memtable's entries move into the new run —
    /// frozen in place, never copied.
    pub fn flush(&mut self) -> Option<FlushReceipt> {
        if self.memtable.is_empty() {
            return None;
        }
        let watermark = self.wal.last_seq();
        let entries = self.memtable.drain_sorted();
        let table = self.build_run(entries);
        let (id, bytes) = self.push_run(table);
        self.wal.truncate_through(watermark);
        let compaction_due = self.config.compaction.pick(&self.sizes).is_some();
        Some(FlushReceipt {
            table: id,
            bytes,
            compaction_due,
        })
    }

    /// Bulk-load `segments` as one new run with id `id`, the way
    /// Cassandra's `sstableloader` streams sorted SSTables in: no WAL append
    /// and no memtable. The run holds the segments themselves, so a segment
    /// loaded into several trees is stored once. Segments whose key ranges
    /// interleave (a hashing partitioner's token ranges) are first merged
    /// into one segment of this tree's own, as [`Segment::from_rows`] of
    /// all their rows. Either way the run is the one that `put` of every
    /// row and a `flush` into an empty memtable build. No rows, no run.
    ///
    /// `id` comes from [`LsmTree::reserve_table_id`], possibly long before:
    /// a caller that replays the flushes a row-by-row load would have made
    /// reserves the ids as those flushes would have taken them.
    pub fn load_segments(&mut self, id: TableId, mut segments: Vec<Segment>) {
        segments.retain(|s| !s.is_empty());
        if segments.is_empty() {
            return;
        }
        segments.sort_unstable_by(|a, b| a.key_range().cmp(&b.key_range()));
        if segments
            .windows(2)
            .any(|w| w[0].key_range().map(|r| r.1) >= w[1].key_range().map(|r| r.0))
        {
            let rows = segments
                .iter()
                .flat_map(Segment::entries)
                .cloned()
                .collect();
            segments = vec![Segment::from_rows(rows)];
        }
        self.push_run(SsTable::from_segments(id, segments, self.config.block_size));
    }

    /// Add `table` as the newest run; returns its id and size.
    fn push_run(&mut self, table: SsTable) -> (TableId, u64) {
        let (id, bytes) = (table.id(), table.total_bytes());
        self.tables.push(table);
        self.sizes.push((id, bytes));
        (id, bytes)
    }

    /// A run of `entries` under the next table id.
    fn build_run(&mut self, entries: Vec<(Key, Cell)>) -> SsTable {
        let id = self.reserve_table_id();
        SsTable::build(id, entries, self.config.block_size)
    }

    /// Take the next table id: the one the next flush, compaction or load
    /// would have taken. Ids are never reused, so an id taken and left
    /// unused is skipped.
    pub fn reserve_table_id(&mut self) -> TableId {
        self.next_table_id += 1;
        TableId(self.next_table_id - 1)
    }

    fn rebuild_sizes(&mut self) {
        self.sizes.clear();
        self.sizes
            .extend(self.tables.iter().map(|t| (t.id(), t.total_bytes())));
    }

    /// Run one compaction if the policy finds a ripe bucket.
    pub fn maybe_compact(&mut self) -> Option<CompactionReceipt> {
        let inputs = self.config.compaction.pick(&self.sizes)?;
        let major = inputs.len() == self.tables.len();
        let mut consumed = Vec::new();
        let mut read_bytes = 0;
        let mut kept = Vec::new();
        for table in self.tables.drain(..) {
            if inputs.contains(&table.id()) {
                read_bytes += table.total_bytes();
                consumed.push(table);
            } else {
                kept.push(table);
            }
        }
        // Tombstones can only be dropped when no older run might still hold
        // a shadowed value.
        let output = self.build_run(merge_tables(&consumed, major));
        let (id, write_bytes) = (output.id(), output.total_bytes());
        for t in &consumed {
            self.cache.invalidate_table(t.id());
        }
        kept.push(output);
        self.tables = kept;
        self.rebuild_sizes();
        Some(CompactionReceipt {
            inputs,
            output: id,
            read_bytes,
            write_bytes,
        })
    }

    /// Force a major compaction: merge every run into one, purging
    /// tombstones (`nodetool compact` after a bulk load). Returns `None`
    /// when there is at most one run.
    pub fn compact_all(&mut self) -> Option<CompactionReceipt> {
        if self.tables.len() <= 1 {
            return None;
        }
        let inputs: Vec<TableId> = self.tables.iter().map(|t| t.id()).collect();
        let read_bytes: u64 = self.tables.iter().map(|t| t.total_bytes()).sum();
        let output = self.build_run(merge_tables(&self.tables, true));
        let (id, write_bytes) = (output.id(), output.total_bytes());
        for t in &self.tables {
            self.cache.invalidate_table(t.id());
        }
        self.tables.clear();
        self.tables.push(output);
        self.rebuild_sizes();
        Some(CompactionReceipt {
            inputs,
            output: id,
            read_bytes,
            write_bytes,
        })
    }

    /// Mark WAL bytes synced; returns bytes a background fsync would write.
    pub fn sync_wal(&mut self) -> u64 {
        self.wal.sync()
    }

    /// Simulate a crash-restart: the memtable is lost and rebuilt from the
    /// WAL; SSTables and cache contents survive (the cache is cold in a real
    /// restart, but residency is a performance matter handled by callers).
    pub fn recover(&mut self) {
        self.memtable = Memtable::new();
        let Self { wal, memtable, .. } = self;
        for e in wal.replay() {
            memtable.insert(e.key.clone(), e.cell.clone());
        }
    }

    /// Number of live SSTables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// The live SSTables, oldest first.
    pub fn runs(&self) -> &[SsTable] {
        &self.tables
    }

    /// Bytes currently buffered in the memtable.
    pub fn memtable_bytes(&self) -> u64 {
        self.memtable.bytes()
    }

    /// Unsynced WAL bytes.
    pub fn wal_unsynced_bytes(&self) -> u64 {
        self.wal.unsynced_bytes()
    }

    /// Block-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Empty the block cache (a restart or a region move: cold cache).
    pub fn drop_cache(&mut self) {
        self.cache.clear();
    }

    /// Populate the cache as a long-running warmed process would have it:
    /// every block of every run inserted in order, LRU keeping whatever
    /// fits. Models the paper's "run the tests for a long time to overcome
    /// cold start" without burning wall-clock on warm-up operations.
    pub fn warm_cache(&mut self) {
        for t in &self.tables {
            for block in 0..t.block_count() {
                self.cache.insert(
                    crate::cache::BlockKey {
                        table: t.id(),
                        block: block as u32,
                    },
                    t.block_len(block),
                );
            }
        }
        self.cache.reset_stats();
    }

    /// True when every run of `self` shares its allocation with the
    /// corresponding run of `other` — i.e. both trees are copy-on-write
    /// snapshots of one loaded state. Trees that have since compacted or
    /// flushed diverge and stop sharing the replaced runs.
    pub fn shares_tables_with(&self, other: &LsmTree) -> bool {
        self.tables.len() == other.tables.len()
            && self
                .tables
                .iter()
                .zip(&other.tables)
                .all(|(a, b)| a.shares_storage_with(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn k(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn small_config() -> LsmConfig {
        LsmConfig {
            block_size: 256,
            memtable_flush_bytes: 4 * 1024,
            cache_bytes: 8 * 1024,
            compaction: SizeTieredPolicy {
                min_threshold: 3,
                ..Default::default()
            },
        }
    }

    fn fill(tree: &mut LsmTree, range: std::ops::Range<usize>, ts: u64) {
        for i in range {
            tree.put(
                k(&format!("user{i:06}")),
                Cell::live(k(&format!("v{ts}-{i}")), ts),
            );
        }
    }

    #[test]
    fn read_your_write_from_memtable() {
        let mut tree = LsmTree::new(small_config());
        tree.put(k("a"), Cell::live(k("1"), 10));
        let r = tree.get(b"a");
        assert_eq!(r.cell.unwrap().value.as_deref(), Some(&b"1"[..]));
        assert!(r.io.is_memory_only());
    }

    #[test]
    fn flush_then_read_costs_disk_then_cache() {
        let mut tree = LsmTree::new(small_config());
        fill(&mut tree, 0..100, 1);
        tree.flush().expect("flushes");
        assert_eq!(tree.memtable_bytes(), 0);
        let first = tree.get(b"user000050");
        assert!(first.cell.is_some());
        assert_eq!(first.io.random_reads(), 1);
        // Same block now cached.
        let second = tree.get(b"user000050");
        assert!(second.io.is_memory_only());
        assert!(second.io.cache_hit_bytes() > 0);
    }

    #[test]
    fn newest_value_wins_across_runs() {
        let mut tree = LsmTree::new(small_config());
        tree.put(k("a"), Cell::live(k("old"), 1));
        tree.flush();
        tree.put(k("a"), Cell::live(k("new"), 2));
        tree.flush();
        let r = tree.get(b"a");
        assert_eq!(r.cell.unwrap().value.as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn out_of_order_arrival_still_reads_newest() {
        // A newer write can land in an *older* run when replication delivers
        // out of order; reconciliation across all runs must still win.
        let mut tree = LsmTree::new(small_config());
        tree.put(k("a"), Cell::live(k("newest"), 100));
        tree.flush();
        tree.put(k("a"), Cell::live(k("late-stale"), 50));
        tree.flush();
        let r = tree.get(b"a");
        assert_eq!(r.cell.unwrap().value.as_deref(), Some(&b"newest"[..]));
    }

    #[test]
    fn tombstone_hides_older_value() {
        let mut tree = LsmTree::new(small_config());
        tree.put(k("a"), Cell::live(k("v"), 1));
        tree.flush();
        tree.put(k("a"), Cell::tombstone(2));
        let r = tree.get(b"a");
        assert!(r.cell.unwrap().is_tombstone());
        // Scans skip it.
        let s = tree.scan(b"a", 10);
        assert!(s.rows.is_empty());
    }

    #[test]
    fn flush_due_signal_fires() {
        let mut tree = LsmTree::new(small_config());
        let mut due = false;
        for i in 0..1000 {
            let r = tree.put(
                k(&format!("user{i:06}")),
                Cell::live(Bytes::from(vec![7u8; 64]), 1),
            );
            if r.flush_due {
                due = true;
                break;
            }
        }
        assert!(due, "4KiB of 64B values should trip the flush threshold");
    }

    #[test]
    fn scan_merges_memtable_and_runs_in_order() {
        let mut tree = LsmTree::new(small_config());
        fill(&mut tree, 0..50, 1);
        tree.flush();
        fill(&mut tree, 25..75, 2); // overlap: 25..50 updated
        let s = tree.scan(b"user000020", 10);
        assert_eq!(s.rows.len(), 10);
        assert!(
            s.rows.windows(2).all(|w| w[0].0 < w[1].0),
            "scan rows out of order"
        );
        // Row 25 must be the ts=2 version.
        let row25 = s
            .rows
            .iter()
            .find(|(key, _)| key == &k("user000025"))
            .unwrap();
        assert_eq!(row25.1.ts, 2);
    }

    #[test]
    fn scan_reaches_live_rows_behind_a_mass_deleted_stretch() {
        // 45 tombstones shadow the middle of the range: the scan must walk
        // through all of them and still return exactly `limit` live rows —
        // the cluster layers read a short page as "range exhausted".
        let mut tree = LsmTree::new(small_config());
        fill(&mut tree, 0..100, 1);
        tree.flush();
        for i in 10..55 {
            tree.put(k(&format!("user{i:06}")), Cell::tombstone(2));
        }
        let s = tree.scan(b"user000005", 20);
        let got: Vec<_> = s.rows.iter().map(|(key, _)| key.clone()).collect();
        let want: Vec<_> = (5..10)
            .chain(55..70)
            .map(|i| k(&format!("user{i:06}")))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn scan_io_counts_blocks() {
        let mut tree = LsmTree::new(LsmConfig {
            cache_bytes: 0, // force every block to disk
            ..small_config()
        });
        fill(&mut tree, 0..200, 1);
        tree.flush();
        let s = tree.scan(b"user000000", 100);
        assert_eq!(s.rows.len(), 100);
        assert!(s.io.random_reads() >= 1);
        assert!(s.io.disk_read_bytes() > 0);
    }

    #[test]
    fn compaction_reduces_table_count_and_preserves_data() {
        let mut tree = LsmTree::new(small_config());
        for round in 0..4 {
            fill(&mut tree, 0..60, round + 1);
            tree.flush();
        }
        assert_eq!(tree.table_count(), 4);
        let receipt = tree.maybe_compact().expect("ripe");
        assert!(receipt.read_bytes > 0);
        assert!(receipt.write_bytes > 0);
        assert_eq!(tree.table_count(), 1);
        // Every key readable at the newest version.
        for i in 0..60 {
            let r = tree.get(format!("user{i:06}").as_bytes());
            assert_eq!(r.cell.unwrap().ts, 4);
        }
    }

    #[test]
    fn major_compaction_purges_tombstones() {
        let mut tree = LsmTree::new(LsmConfig {
            compaction: SizeTieredPolicy {
                min_threshold: 2,
                bucket_low: 0.0,
                bucket_high: f64::MAX,
                ..Default::default()
            },
            ..small_config()
        });
        fill(&mut tree, 0..20, 1);
        tree.flush();
        for i in 0..20 {
            tree.put(k(&format!("user{i:06}")), Cell::tombstone(2));
        }
        tree.flush();
        tree.maybe_compact().expect("compacts everything");
        assert_eq!(tree.table_count(), 1);
        assert_eq!(tree.tables[0].total_bytes(), 0, "all rows were deleted");
    }

    #[test]
    fn loading_no_rows_adds_no_run() {
        // An empty run would still be probed by every read: one more bloom
        // skip in each I/O plan.
        let mut tree = LsmTree::new(small_config());
        let id = tree.reserve_table_id();
        tree.load_segments(id, vec![Segment::sorted(Vec::new())]);
        assert_eq!(tree.table_count(), 0);
        assert_eq!(tree.get(b"a").io.bloom_skips(), 0);
    }

    #[test]
    fn bloom_skips_irrelevant_tables() {
        let mut tree = LsmTree::new(small_config());
        fill(&mut tree, 0..100, 1);
        tree.flush();
        let r = tree.get(b"zebra");
        assert!(r.cell.is_none());
        assert_eq!(r.io.bloom_skips(), 1);
        assert_eq!(r.io.random_reads(), 0);
    }

    #[test]
    fn wal_recovery_restores_unflushed_writes() {
        let mut tree = LsmTree::new(small_config());
        fill(&mut tree, 0..30, 1);
        tree.flush();
        fill(&mut tree, 30..40, 2); // unflushed
        tree.recover();
        for i in 0..40 {
            assert!(
                tree.get(format!("user{i:06}").as_bytes()).cell.is_some(),
                "key {i} lost in recovery"
            );
        }
    }

    #[test]
    fn wal_sync_drains() {
        let mut tree = LsmTree::new(small_config());
        tree.put(k("a"), Cell::live(k("1"), 1));
        assert!(tree.wal_unsynced_bytes() > 0);
        let n = tree.sync_wal();
        assert!(n > 0);
        assert_eq!(tree.wal_unsynced_bytes(), 0);
    }

    #[test]
    fn snapshot_clone_shares_runs_until_divergence() {
        let mut tree = LsmTree::new(small_config());
        fill(&mut tree, 0..100, 1);
        tree.flush();
        let mut snap = tree.clone();
        assert!(tree.shares_tables_with(&snap));
        // Writes into the snapshot never leak into the base...
        snap.put(k("user000001"), Cell::live(k("mutated"), 9));
        assert_eq!(
            tree.get(b"user000001").cell.unwrap().value.as_deref(),
            Some(&b"v1-1"[..])
        );
        // ...and a flush in the snapshot leaves the base's runs untouched.
        snap.flush();
        assert!(!tree.shares_tables_with(&snap));
        assert_eq!(tree.table_count(), 1);
        assert_eq!(snap.table_count(), 2);
    }

    #[test]
    fn cache_stats_observe_hits() {
        let mut tree = LsmTree::new(small_config());
        fill(&mut tree, 0..50, 1);
        tree.flush();
        tree.get(b"user000010");
        tree.get(b"user000010");
        let stats = tree.cache_stats();
        assert!(stats.hits >= 1);
        assert!(stats.misses >= 1);
    }
}
