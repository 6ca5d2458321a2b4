//! The assembled LSM tree: commit log + memtable + SSTables + block cache
//! + compaction, with I/O-plan accounting on every operation.
//!
//! One `LsmTree` is the storage engine of one replica on one node (a region
//! in `hstore`, a node's keyspace shard set in `cstore`).
//!
//! Every range read is one walk ([`LsmTree::scan`], `scan_page`,
//! `scan_count`): a merge of the memtable's range and one cursor per
//! run, which hands over a run's consecutive entries a stretch at a time
//! and stops at the `limit`-th live row; each cursor then names the
//! entries it walked, and so the blocks the scan is charged.

use crate::bloom;
use crate::cache::{BlockCache, CacheStats};
use crate::compaction;
use crate::io::{IoOp, IoPlan};
use crate::memtable::{self, Memtable};
use crate::merge::{Head, Merge, Place, Slot, Source, Spare};
use crate::rows::Rows;
use crate::segment::{RowArena, Segment};
use crate::sstable::{RunBuilder, SsTable, TableId};
use crate::types::{entry_encoded_len, Cell, Key};

/// Tuning knobs for one LSM tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LsmConfig {
    /// Target encoded block size (the disk-I/O and cache unit).
    pub block_size: u64,
    /// Memtable size that triggers a flush.
    pub memtable_flush_bytes: u64,
    /// Block-cache capacity in bytes.
    pub cache_bytes: u64,
}

impl Default for LsmConfig {
    fn default() -> Self {
        Self {
            block_size: 8 * 1024,
            memtable_flush_bytes: 2 * 1024 * 1024,
            cache_bytes: 8 * 1024 * 1024,
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
    /// The rows from the scan key on: up to `limit` live rows, and for
    /// [`LsmTree::scan_page`] the tombstones walked among them.
    pub rows: Rows,
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
/// `from..next` what it has pulled so far. Yields each entry with the rest
/// of its segment as the most a stretch from it can take, stepping from one
/// segment to the next.
struct RunCursor<'a> {
    segments: &'a [Segment],
    /// The segment holding the last entry pulled (the first entry's
    /// segment before any), and the index in it of the next entry.
    segment: usize,
    at: usize,
    from: usize,
    next: usize,
}

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
    fn walked(&self, end: &[u8]) -> std::ops::Range<usize> {
        let pending = self.next > self.from && self.segments[self.segment].key(self.at - 1) > end;
        self.from..self.next - usize::from(pending)
    }
}

impl<'a> Source<'a> for RunCursor<'a> {
    fn pull(&mut self) -> Option<Head<'a>> {
        let mut rows = self.segments.get(self.segment)?;
        if self.at == rows.len() {
            rows = self.segments.get(self.segment + 1)?;
            (self.segment, self.at) = (self.segment + 1, 0);
        }
        self.at += 1;
        self.next += 1;
        Some(Head::entry(rows, self.at - 1, rows.len()))
    }

    fn skip(&mut self, n: usize) {
        self.at += n;
        self.next += n;
        debug_assert!(self.at <= self.segments[self.segment].len());
    }
}

/// One merge source of a range scan: the memtable's range or a cursor over
/// an SSTable run, unified so the streaming merge holds all sources in one
/// unboxed `Vec`, the one its tree keeps between scans.
enum ScanSource<'a> {
    Mem(memtable::Range<'a>),
    Run(RunCursor<'a>),
}

impl<'a> Source<'a> for ScanSource<'a> {
    fn pull(&mut self) -> Option<Head<'a>> {
        match self {
            ScanSource::Mem(rows) => rows.next().map(Head::row),
            ScanSource::Run(cur) => cur.pull(),
        }
    }

    fn skip(&mut self, n: usize) {
        match self {
            ScanSource::Mem(_) => debug_assert_eq!(n, 0, "a memtable row is a stretch of one"),
            ScanSource::Run(cur) => cur.skip(n),
        }
    }
}

/// The compaction merge: the runs' winners copied into one new segment,
/// its arena sized exactly by a first pass that counts them.
fn merge_tables(tables: &[SsTable], drop_tombstones: bool) -> Segment {
    let winners = |each: &mut dyn FnMut(&[u8], &Cell)| {
        let mut merge = Merge::new(tables.iter().map(|t| RunCursor::new(t, 0)), usize::MAX);
        while let Some(won) = merge.next() {
            for i in 0..won.len() {
                let cell = won.cell(i);
                if !(drop_tombstones && cell.is_tombstone()) {
                    each(won.key(i), cell);
                }
            }
        }
    };
    let (mut rows, mut key_bytes) = (0, 0);
    winners(&mut |key, _| (rows, key_bytes) = (rows + 1, key_bytes + key.len()));
    let mut out = RowArena::with_capacity(rows, key_bytes);
    winners(&mut |key, cell| out.push(key, cell.clone()));
    Segment::sorted(out)
}

/// A single replica's LSM storage engine.
#[derive(Debug, Clone)]
pub struct LsmTree {
    config: LsmConfig,
    /// Commit-log bytes appended since the last sync.
    wal_unsynced_bytes: u64,
    memtable: Memtable,
    /// Oldest first; reads reconcile across all runs.
    tables: Vec<SsTable>,
    /// `(id, total_bytes)` mirror of `tables`, maintained on flush and
    /// compaction so policy checks don't rebuild a `Vec` per call.
    sizes: Vec<(TableId, u64)>,
    cache: BlockCache,
    next_table_id: u64,
    /// The scan merge's slot vector, emptied between scans.
    scan_slots: Spare<Slot<'static, ScanSource<'static>>>,
}

impl LsmTree {
    /// Create an empty tree.
    pub fn new(config: LsmConfig) -> Self {
        Self {
            config,
            wal_unsynced_bytes: 0,
            memtable: Memtable::new(),
            tables: Vec::new(),
            sizes: Vec::new(),
            cache: BlockCache::new(config.cache_bytes),
            next_table_id: 1,
            scan_slots: Spare::default(),
        }
    }

    /// The tree's configuration.
    pub fn config(&self) -> &LsmConfig {
        &self.config
    }

    /// Apply a write: a commit-log append, then a memtable insert. The
    /// append is only its size (the entry's encoded length plus an 8-byte
    /// sequence number), returned for bandwidth accounting: a crash needs
    /// no record ([`LsmTree::recover`]), so a put allocates nothing beyond
    /// the memtable's insert.
    pub fn put(&mut self, key: Key, cell: Cell) -> WriteReceipt {
        let wal_bytes = entry_encoded_len(&key, &cell) + 8;
        self.wal_unsynced_bytes += wal_bytes;
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
        // Find the row first, bloom only on a miss. A present key always
        // passes the bloom filter, so probing it up front spends k
        // scattered bit reads to learn nothing on the common read-mostly
        // path. The observable effects — io plan, cache state, returned
        // cell — are identical to bloom-first order: the simulated block
        // read happens exactly when the bloom filter would have admitted
        // the key, and it is the block of the last row at or below it.
        let found = table.find(key);
        let block = match found {
            Some((entry, _)) => Some(table.block_of_entry(entry)),
            // An absent key the filter admits (a false positive) charges
            // the block of the last row below it; one before the table's
            // first row is skipped, as bloom-first order also skips it.
            None => {
                let hashes = *hashes.get_or_insert_with(|| bloom::hash_pair(key));
                let admitted = table.may_contain_hashed(hashes);
                admitted.then(|| table.block_for(key)).flatten()
            }
        };
        let Some(block) = block else {
            io.push(IoOp::BloomSkip);
            return None;
        };
        // Present key, or an absent one the filter false-positives on:
        // either way the block is (simulated-)read and charged.
        let bytes = table.block_len(block);
        if cache.fetch(table.id(), block as u32, bytes) {
            io.push(IoOp::CacheHit { bytes });
        } else {
            io.push(IoOp::DiskRead { bytes });
        }
        found.map(|(_, cell)| cell)
    }

    /// Range scan: merge memtable and all runs from `start`, return up to
    /// `limit` live rows (tombstoned rows are skipped but still cost I/O).
    ///
    /// The work is proportional to the stretches walked, not to the size of
    /// the tree: each run's lower bound is found once, by a search of the
    /// one chunk of rows that can hold it ([`SsTable::lower_bound`]), and
    /// the streaming merge pulls from that cursor exactly as far as the
    /// `limit`-th live row — however many tombstones shadow the range — a
    /// stretch of consecutive entries of one segment at a time. No row of a run is copied: the result holds ranges
    /// of the runs' immutable segments ([`Rows`]), one handle per stretch
    /// between tombstones, and clones only memtable rows (refcount bumps).
    /// The I/O plan charges, per run in age order, every block of the window
    /// its cursor walked: the blocks holding that run's keys in `[start,
    /// last merged key]`.
    pub fn scan(&mut self, start: &[u8], limit: usize) -> ScanResult {
        let mut rows = Rows::default();
        let io = self.walk_range(start, limit, |won| rows.push(won, false));
        ScanResult { rows, io }
    }

    /// [`LsmTree::scan`] for a page another node reconciles (a cstore
    /// replica's): the same walk, I/O plan and live rows, and the
    /// tombstones walked among them too, so a delete this replica holds
    /// shadows an older version another one returns.
    pub fn scan_page(&mut self, start: &[u8], limit: usize) -> ScanResult {
        let mut rows = Rows::default();
        let io = self.walk_range(start, limit, |won| rows.push(won, true));
        ScanResult { rows, io }
    }

    /// [`LsmTree::scan_page`] for a caller that pays for a scan but never
    /// reads its rows (a read-repair probe): the same walk, the same I/O
    /// plan and the same cache state afterwards, but the rows are counted,
    /// not held. Returns how many of them, tombstones included, sort below
    /// `end` (all of them without one), and the plan.
    pub fn scan_count(
        &mut self,
        start: &[u8],
        limit: usize,
        end: Option<&[u8]>,
    ) -> (usize, IoPlan) {
        let mut below = 0;
        let io = self.walk_range(start, limit, |won| {
            below += end.map_or(won.len(), |end| won.count(|key| key < end));
        });
        (below, io)
    }

    /// The walk behind [`LsmTree::scan`]: hand every row from `start` on,
    /// tombstones included, up to the `limit`-th live one to `emit`, in key
    /// order, as the places the merge emits them from, and charge the
    /// blocks walked. The merge fills the tree's slot vector, so once the
    /// tree has scanned, a walk allocates nothing.
    fn walk_range(
        &mut self,
        start: &[u8],
        limit: usize,
        mut emit: impl FnMut(Place<'_>),
    ) -> IoPlan {
        let Self {
            cache,
            tables,
            memtable,
            scan_slots,
            ..
        } = self;
        let runs =
            (tables.iter()).map(|t| ScanSource::Run(RunCursor::new(t, t.lower_bound(start))));
        let mem = ScanSource::Mem(memtable.range_from(start));
        let sources = std::iter::once(mem).chain(runs);
        let mut merge = Merge::reusing(std::mem::take(&mut scan_slots.0), sources, limit);
        let mut last_key: Option<&[u8]> = None;
        while let Some(won) = merge.next() {
            last_key = Some(won.key(won.len() - 1));
            emit(won);
        }
        let mut io = IoPlan::new();
        // Sources are the memtable, then one cursor per run in age order.
        let mut tables = tables.iter();
        scan_slots.0 = merge.finish(|source| {
            let ScanSource::Run(cur) = source else {
                return;
            };
            let (Some(table), Some(end)) = (tables.next(), last_key) else {
                return;
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
        });
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
            let bytes = table.block_len(block);
            if cache.fetch(table.id(), block as u32, bytes) {
                io.push(IoOp::CacheHit { bytes });
            } else if block == first {
                io.push(IoOp::DiskRead { bytes });
            } else {
                io.push(IoOp::DiskSeqRead { bytes });
            }
        }
    }

    /// Flush the memtable into a new SSTable. Returns `None` when there is
    /// nothing to flush. The memtable drains straight into the new run's
    /// segment, and its block layout is reserved for the memtable's bytes,
    /// so a flush allocates the same few buffers whatever its size.
    pub fn flush(&mut self) -> Option<FlushReceipt> {
        if self.memtable.is_empty() {
            return None;
        }
        let bytes = self.memtable.bytes();
        let segment = self.memtable.drain();
        let table = self.build_run(segment, bytes);
        let (id, bytes) = self.push_run(table);
        let compaction_due = compaction::pick(&self.sizes).is_some();
        Some(FlushReceipt {
            table: id,
            bytes,
            compaction_due,
        })
    }

    /// A builder for a bulk-loaded run of `rows` queued rows that encode to
    /// `bytes` bytes in all: its filter sized for `rows`, and its block
    /// layout reserved exactly for `bytes`. A load's builders grow side by
    /// side, and vectors grown by doubling would leave their spare capacity
    /// in the base.
    pub fn load_builder(&self, rows: usize, bytes: u64) -> RunBuilder {
        let mut run = RunBuilder::new(rows, self.config.block_size);
        run.reserve(bytes);
        run
    }

    /// Bulk-load the run `run` built as one new run with id `id`, the way
    /// Cassandra's `sstableloader` streams sorted SSTables in: no WAL append
    /// and no memtable. The run holds the segments it was fed, so a segment
    /// loaded into several trees is stored once. It is the run that `put` of
    /// every row and a `flush` into an empty memtable build. No rows, no
    /// run.
    ///
    /// `id` comes from [`LsmTree::reserve_table_id`], possibly long before:
    /// a caller that replays the flushes a row-by-row load would have made
    /// reserves the ids as those flushes would have taken them.
    pub fn load(&mut self, id: TableId, run: RunBuilder) {
        if !run.is_empty() {
            self.push_run(run.finish(id));
        }
    }

    /// Add `table` as the newest run, indexed in the block cache; returns
    /// its id and size.
    fn push_run(&mut self, table: SsTable) -> (TableId, u64) {
        let (id, bytes) = (table.id(), table.total_bytes());
        self.cache.add_run(id, table.block_count());
        self.tables.push(table);
        self.sizes.push((id, bytes));
        (id, bytes)
    }

    /// A run holding `segment`, whose rows encode to at most `bytes`
    /// bytes, under the next table id.
    fn build_run(&mut self, segment: Segment, bytes: u64) -> SsTable {
        let mut run = self.load_builder(segment.len(), bytes);
        run.hold(segment);
        run.finish(self.reserve_table_id())
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
        let inputs = compaction::pick(&self.sizes)?;
        Some(self.compact(inputs))
    }

    /// Force a major compaction: merge every run into one, purging
    /// tombstones (`nodetool compact` after a bulk load). Returns `None`
    /// when there is at most one run.
    pub fn compact_all(&mut self) -> Option<CompactionReceipt> {
        if self.tables.len() <= 1 {
            return None;
        }
        let inputs = self.tables.iter().map(SsTable::id).collect();
        Some(self.compact(inputs))
    }

    /// Merge the runs `inputs` names into one new run, the newest. The
    /// receipt lists the inputs again, in run order, in `inputs`' buffer.
    fn compact(&mut self, mut inputs: Vec<TableId>) -> CompactionReceipt {
        // Tombstones can only be dropped when no older run might still hold
        // a shadowed value.
        let major = inputs.len() == self.tables.len();
        let (consumed, kept): (Vec<_>, Vec<_>) = self
            .tables
            .drain(..)
            .partition(|table| inputs.contains(&table.id()));
        let read_bytes = consumed.iter().map(SsTable::total_bytes).sum();
        let output = self.build_run(merge_tables(&consumed, major), read_bytes);
        inputs.clear();
        for t in &consumed {
            self.cache.invalidate_table(t.id());
            inputs.push(t.id());
        }
        self.tables = kept;
        self.rebuild_sizes();
        let (id, write_bytes) = self.push_run(output);
        CompactionReceipt {
            inputs,
            output: id,
            read_bytes,
            write_bytes,
        }
    }

    /// Sync the commit log: every write so far is durable. Returns the
    /// bytes appended since the last sync, what a background fsync would
    /// write. O(1), and allocates nothing.
    pub fn sync_wal(&mut self) -> u64 {
        self.memtable.sync();
        std::mem::take(&mut self.wal_unsynced_bytes)
    }

    /// Simulate a crash-restart: every write since the later of the last
    /// [`LsmTree::sync_wal`] and [`LsmTree::flush`] is lost. One walk over
    /// the memtable rolls it back to the rows and `memtable_bytes()` a
    /// replay of the synced, unflushed log would rebuild. SSTables and
    /// cache contents survive (the cache is cold in a real restart, but
    /// residency is a performance matter handled by callers).
    pub fn recover(&mut self) {
        self.memtable.roll_back();
        self.wal_unsynced_bytes = 0;
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

    /// Commit-log bytes appended since the last sync.
    pub fn wal_unsynced_bytes(&self) -> u64 {
        self.wal_unsynced_bytes
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
                self.cache.fetch(t.id(), block as u32, t.block_len(block));
            }
        }
        self.cache.end_warm_up();
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
        let rows: Vec<_> = s.rows.iter().collect();
        assert!(
            rows.windows(2).all(|w| w[0].0 < w[1].0),
            "scan rows out of order"
        );
        // Row 25 must be the ts=2 version.
        let row25 = s
            .rows
            .iter()
            .find(|(key, _)| *key == b"user000025")
            .unwrap();
        assert_eq!(row25.1.ts, 2);
    }

    #[test]
    fn a_scan_limit_past_the_data_returns_the_rows_held() {
        let mut tree = LsmTree::new(small_config());
        tree.put(k("user000001"), Cell::live(k("v"), 1));
        assert_eq!(tree.scan(b"", usize::MAX).rows.len(), 1);
        assert_eq!(tree.scan_page(b"", usize::MAX).rows.len(), 1);
    }

    #[test]
    fn a_stretch_cut_at_the_limit_leaves_exactly_one_pending_head() {
        use crate::segment::tests::from_sorted;
        use crate::sstable::{RunBuilder, TableId};
        // One run of two segments, "b" a tombstone: a..d | e..h.
        let cell = |i: usize| match i {
            1 => Cell::tombstone(1),
            _ => Cell::live(k("v"), 1),
        };
        let keys = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let part = |ids: std::ops::Range<usize>| from_sorted(ids.map(|i| (keys[i], cell(i))));
        let mut run = RunBuilder::new(keys.len(), 64);
        run.hold(part(0..4));
        run.hold(part(4..8));
        let table = run.finish(TableId(1));
        // (start entry, live rows) -> (stretches as (first key, rows),
        // entries pulled, walked)
        let cases = [
            // Cut inside the first segment: "d" is the pending head.
            ((0, 2), (vec![("a", 3)], 4, 0..3)),
            // Cut at the first segment's end: the pending head is the
            // second segment's first entry.
            ((1, 2), (vec![("b", 3)], 5, 1..4)),
            // A stretch stops at its segment's end, the next is cut.
            ((2, 3), (vec![("c", 2), ("e", 1)], 6, 2..5)),
            // The run's last entry: nothing is pending.
            ((5, 9), (vec![("f", 3)], 8, 5..8)),
        ];
        for ((from, live), (want, pulled, walked)) in cases {
            let mut merge = Merge::new([RunCursor::new(&table, from)], live);
            let got: Vec<_> = std::iter::from_fn(|| merge.next())
                .map(|won| (std::str::from_utf8(won.key(0)).unwrap(), won.len()))
                .collect();
            assert_eq!(got, want, "from {from}, {live} live");
            let (last, n) = want[want.len() - 1];
            let end = keys[keys.iter().position(|key| *key == last).unwrap() + n - 1];
            let mut cursors = Vec::new();
            let _: Vec<Slot<'_, RunCursor<'_>>> = merge.finish(|cur| cursors.push(cur));
            assert_eq!(cursors[0].next, pulled, "from {from}, {live} live");
            assert_eq!(
                cursors[0].walked(end.as_bytes()),
                walked,
                "from {from}, {live} live"
            );
        }
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
        let got: Vec<_> = s.rows.iter().map(|(key, _)| key.to_vec()).collect();
        let want: Vec<_> = (5..10)
            .chain(55..70)
            .map(|i| format!("user{i:06}").into_bytes())
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
        // Three live runs and one of tombstones, all of one size bucket:
        // the policy picks every run, so the compaction is major.
        let mut tree = LsmTree::new(small_config());
        for ts in 1..=3 {
            fill(&mut tree, 0..20, ts);
            tree.flush();
        }
        for i in 0..20 {
            tree.put(k(&format!("user{i:06}")), Cell::tombstone(4));
        }
        tree.flush();
        let receipt = tree.maybe_compact().expect("compacts everything");
        assert_eq!(receipt.inputs.len(), 4);
        assert_eq!(tree.table_count(), 1);
        assert_eq!(tree.tables[0].total_bytes(), 0, "all rows were deleted");
    }

    #[test]
    fn compact_all_is_a_compaction_of_every_run() {
        // Four runs in one size bucket: `maybe_compact` then compacts what
        // `compact_all` does. Runs of different sizes make the policy's
        // size order differ from run order.
        let build = || {
            let mut tree = LsmTree::new(small_config());
            fill(&mut tree, 0..60, 1);
            tree.flush();
            fill(&mut tree, 20..40, 2);
            for i in 40..70 {
                tree.put(k(&format!("user{i:06}")), Cell::tombstone(3));
            }
            tree.flush();
            fill(&mut tree, 50..100, 4);
            tree.flush();
            fill(&mut tree, 100..155, 5);
            tree.flush();
            tree.scan(b"", 25);
            tree
        };
        let (mut all, mut picked) = (build(), build());
        let run_order: Vec<TableId> = all.tables.iter().map(SsTable::id).collect();
        let size_order = compaction::pick(&picked.sizes).expect("ripe");
        assert_eq!(size_order.len(), 4);
        assert_ne!(size_order, run_order);
        let receipt = all.compact_all().expect("four runs");
        assert_eq!(receipt.inputs, run_order);
        assert_eq!(picked.maybe_compact(), Some(receipt));
        let runs = |tree: &LsmTree| -> Vec<_> {
            tree.tables
                .iter()
                .map(|t| (t.id(), t.total_bytes(), t.block_count()))
                .collect()
        };
        assert_eq!(runs(&all), runs(&picked));
        assert_eq!(all.sizes, picked.sizes);
        for start in [&b""[..], b"user000035", b"user000045"] {
            assert_eq!(all.scan(start, 30), picked.scan(start, 30));
        }
        assert_eq!(all.cache_stats(), picked.cache_stats());
    }

    #[test]
    fn loading_no_rows_adds_no_run() {
        // An empty run would still be probed by every read: one more bloom
        // skip in each I/O plan.
        let mut tree = LsmTree::new(small_config());
        let id = tree.reserve_table_id();
        let mut run = tree.load_builder(0, 0);
        Segment::from_queue(Default::default(), &mut [&mut run]);
        tree.load(id, run);
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
    fn wal_recovery_restores_synced_writes_only() {
        let mut tree = LsmTree::new(small_config());
        fill(&mut tree, 0..30, 1);
        tree.flush();
        fill(&mut tree, 30..40, 2); // unflushed, synced
        tree.sync_wal();
        fill(&mut tree, 40..45, 3); // unflushed, unsynced
        tree.recover();
        for i in 0..45 {
            let found = tree.get(format!("user{i:06}").as_bytes()).cell.is_some();
            assert_eq!(found, i < 40, "key {i} after recovery");
        }
    }

    #[test]
    fn a_flush_then_a_crash_keeps_the_flushed_rows() {
        let mut tree = LsmTree::new(small_config());
        fill(&mut tree, 0..10, 1); // never synced, but flushed
        tree.flush();
        fill(&mut tree, 10..15, 2); // unsynced
        tree.recover();
        for i in 0..15 {
            let found = tree.get(format!("user{i:06}").as_bytes()).cell.is_some();
            assert_eq!(found, i < 10, "key {i} after recovery");
        }
        assert_eq!(tree.memtable_bytes(), 0);
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
