//! Property-based tests for the storage engine's core invariants.

use std::collections::BTreeMap;
use std::ops::Bound;

use bytes::Bytes;
use proptest::prelude::*;

use storage::cache::{BlockKey, CacheStats};
use storage::merge::merge_runs;
use storage::types::entry_encoded_len;
use storage::{
    BlockCache, Cell, IoOp, IoPlan, Key, LoadQueue, LsmConfig, LsmTree, Memtable, Reconciler, Rows,
    Segment, SsTable, TableId,
};

fn key(id: u64) -> Bytes {
    Bytes::from(format!("user{id:08}").into_bytes())
}

/// `(key, cell)` borrowed rows as owned ones.
fn owned<'r>(rows: impl Iterator<Item = (&'r [u8], &'r Cell)>) -> Vec<(Key, Cell)> {
    rows.map(|(k, c)| (Bytes::copy_from_slice(k), c.clone()))
        .collect()
}

/// The rows a scan result holds, flattened.
fn flat(rows: &Rows) -> Vec<(Key, Cell)> {
    owned(rows.iter())
}

/// A load queue of `rows`, in their order.
fn queue_of(rows: &[(Key, Cell)]) -> LoadQueue {
    let mut queue = LoadQueue::default();
    for (k, cell) in rows {
        queue.push(k, cell.clone());
    }
    queue
}

/// The live rows among `rows`.
fn live_of(rows: &[(Key, Cell)]) -> Vec<(Key, Cell)> {
    rows.iter()
        .filter(|(_, c)| !c.is_tombstone())
        .cloned()
        .collect()
}

/// A run's rows, its segments concatenated.
fn table_rows(table: &SsTable) -> Vec<(Key, Cell)> {
    owned(table.segments().iter().flat_map(|s| s.iter()))
}

/// The pre-streaming merge implementation, preserved verbatim as the
/// differential oracle for [`merge_runs`]: pop the smallest `(key, source)`
/// pair off a heap of owned entries, reconcile duplicates with
/// [`Cell::reconcile`], collect the winners. Same tie-break contract the
/// streaming borrow-based merge must reproduce byte for byte.
mod legacy {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    use storage::{Cell, Key};

    struct HeapItem {
        key: Key,
        cell: Cell,
        source: usize,
    }

    impl PartialEq for HeapItem {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key && self.source == other.source
        }
    }
    impl Eq for HeapItem {}
    impl PartialOrd for HeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for HeapItem {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .key
                .cmp(&self.key)
                .then_with(|| other.source.cmp(&self.source))
        }
    }

    pub fn merge_collect(
        sources: Vec<Vec<(Key, Cell)>>,
        drop_tombstones: bool,
    ) -> Vec<(Key, Cell)> {
        let mut iters: Vec<_> = sources.into_iter().map(|v| v.into_iter()).collect();
        let mut heap = BinaryHeap::new();
        for (source, it) in iters.iter_mut().enumerate() {
            if let Some((key, cell)) = it.next() {
                heap.push(HeapItem { key, cell, source });
            }
        }
        let mut out = Vec::new();
        while let Some(first) = heap.pop() {
            if let Some((key, cell)) = iters[first.source].next() {
                heap.push(HeapItem {
                    key,
                    cell,
                    source: first.source,
                });
            }
            let mut key = first.key;
            let mut cell = first.cell;
            while let Some(top) = heap.peek() {
                if top.key != key {
                    break;
                }
                let dup = heap.pop().expect("peeked");
                if let Some((k, c)) = iters[dup.source].next() {
                    heap.push(HeapItem {
                        key: k,
                        cell: c,
                        source: dup.source,
                    });
                }
                cell = Cell::reconcile(cell, dup.cell);
                key = dup.key;
            }
            if !(drop_tombstones && cell.is_tombstone()) {
                out.push((key, cell));
            }
        }
        out
    }
}

/// Reference model of an [`LsmTree`] that is only ever written, flushed and
/// scanned: a `BTreeMap` memtable, the flushed runs, and a block cache. Its
/// scan takes rows from one reconciled map and charges I/O with the
/// accounting `LsmTree::scan` used before it walked cursors — per run, two
/// whole-run `partition_point` searches over the full keys locate the
/// entries in `[start, last merged key]`, and every block between them is
/// charged — preserved here as the differential oracle for the cursor-driven
/// accounting.
struct ScanModel {
    mem: BTreeMap<Key, Cell>,
    runs: Vec<SsTable>,
    cache: BlockCache,
    block_size: u64,
}

impl ScanModel {
    fn new(config: &LsmConfig) -> Self {
        Self {
            mem: BTreeMap::new(),
            runs: Vec::new(),
            cache: BlockCache::new(config.cache_bytes),
            block_size: config.block_size,
        }
    }

    fn put(&mut self, key: Key, cell: Cell) {
        reconcile_into(&mut self.mem, key, cell);
    }

    /// Mirrors `LsmTree::flush`: table ids count up from 1.
    fn flush(&mut self) {
        if self.mem.is_empty() {
            return;
        }
        let entries = std::mem::take(&mut self.mem).into_iter().collect();
        let id = TableId(self.runs.len() as u64 + 1);
        self.runs.push(SsTable::build(id, entries, self.block_size));
    }

    /// Every row walked up to the `limit`-th live one, tombstones too, and
    /// the I/O.
    fn scan(&mut self, start: &[u8], limit: usize) -> (Vec<(Key, Cell)>, IoPlan) {
        let mut all = self.mem.clone();
        for run in &self.runs {
            for (key, cell) in table_rows(run) {
                reconcile_into(&mut all, key, cell);
            }
        }
        let walked = model_scan(&all, start, limit);
        let mut io = IoPlan::new();
        if let Some((end, _)) = walked.last() {
            for run in &self.runs {
                Self::whole_run_search_io(&mut self.cache, run, start, end, &mut io);
            }
        }
        (walked, io)
    }

    fn whole_run_search_io(
        cache: &mut BlockCache,
        table: &SsTable,
        start: &[u8],
        end: &Key,
        io: &mut IoPlan,
    ) {
        let entries = table_rows(table);
        let lo = entries.partition_point(|(k, _)| k.as_ref() < start);
        // One past the last entry <= end.
        let hi = entries.partition_point(|(k, _)| k <= end);
        if hi <= lo {
            return;
        }
        let first_block = table.block_of_entry(lo);
        let last_block = table.block_of_entry(hi - 1);
        for (i, block) in (first_block..=last_block).enumerate() {
            let bkey = BlockKey {
                table: table.id(),
                block: block as u32,
            };
            let bytes = table.block_len(block);
            if cache.get(bkey).is_some() {
                io.push(IoOp::CacheHit { bytes });
            } else {
                if i == 0 {
                    io.push(IoOp::DiskRead { bytes });
                } else {
                    io.push(IoOp::DiskSeqRead { bytes });
                }
                cache.insert(bkey, bytes);
            }
        }
    }
}

/// What the memtable's byte count must be for the rows in `model`.
fn model_bytes(model: &BTreeMap<Key, Cell>) -> u64 {
    model.iter().map(|(k, c)| entry_encoded_len(k, c)).sum()
}

fn reconcile_into(map: &mut BTreeMap<Key, Cell>, key: Key, cell: Cell) {
    map.entry(key)
        .and_modify(|c| *c = Cell::reconcile(c.clone(), cell.clone()))
        .or_insert(cell);
}

/// Keys that stress the padded 16-byte prefix compare: shorter than the
/// prefix (zero bytes included, so padding ties with real bytes), or longer
/// and sharing all 16 prefix bytes.
fn arb_prefix_key() -> impl Strategy<Value = Vec<u8>> {
    let byte = || (0usize..4).prop_map(|i| [0u8, 1, b'a', 0xff][i]);
    (
        prop::bool::ANY,
        prop::collection::vec(byte(), 0..5),
        prop::collection::vec(byte(), 0..4),
    )
        .prop_map(|(long, short, suffix)| {
            if long {
                let mut key = b"sixteen-byte-pfx".to_vec();
                key.extend(suffix);
                key
            } else {
                short
            }
        })
}

/// A cell for the memtable model test: timestamps from a tiny range so
/// equal-timestamp ties are common, a tombstone in a quarter of them, and
/// values of three lengths so a tie between live values has a winner and
/// changes the byte count.
fn arb_tie_cell() -> impl Strategy<Value = Cell> {
    (0u64..4, 0usize..4).prop_map(|(ts, len)| {
        if len == 0 {
            Cell::tombstone(ts)
        } else {
            Cell::live(Bytes::from(vec![b'v'; len]), ts)
        }
    })
}

/// Sorted/unique runs with duplicate keys across runs and a tombstone mix:
/// the full input space of a compaction merge, over keys that tie on their
/// 16-byte prefix.
fn arb_sorted_runs() -> impl Strategy<Value = Vec<Vec<(Key, Cell)>>> {
    prop::collection::vec(
        prop::collection::vec(
            (
                arb_prefix_key(),
                0u64..1_000,
                prop::bool::ANY,
                prop::collection::vec(any::<u8>(), 0..12),
            ),
            0..50,
        ),
        0..6,
    )
    .prop_map(|runs| {
        runs.into_iter()
            .map(|mut run| {
                // Sorted + unique per key, as the merge contract requires.
                run.sort_by(|a, b| a.0.cmp(&b.0));
                run.dedup_by(|a, b| a.0 == b.0);
                run.into_iter()
                    .map(|(key, ts, dead, value)| {
                        let cell = if dead {
                            Cell::tombstone(ts)
                        } else {
                            Cell::live(Bytes::from(value), ts)
                        };
                        (Bytes::from(key), cell)
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    })
}

fn arb_entries() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>, u64)>> {
    // (key, value, timestamp)
    prop::collection::vec(
        (
            arb_prefix_key(),
            prop::collection::vec(any::<u8>(), 0..24),
            0u64..1_000,
        ),
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The prefix-ordered memtable against a `BTreeMap<Key, Cell>` model
    /// under last-write-wins, over keys that share a 16-byte prefix, keys
    /// shorter than it, and keys that differ only by trailing zero bytes
    /// (`"a"` and `"a\0"` pad to one prefix): every insert's byte delta,
    /// `get` and `range_from` at present and arbitrary starts, `len`,
    /// `bytes`, and `drain`.
    #[test]
    fn memtable_matches_btreemap_model(
        writes in prop::collection::vec((arb_prefix_key(), arb_tie_cell()), 1..150),
        probes in prop::collection::vec(arb_prefix_key(), 1..30),
    ) {
        let mut mem = Memtable::new();
        let mut model: BTreeMap<Key, Cell> = BTreeMap::new();
        for (key, cell) in writes {
            let key = Bytes::from(key);
            let before = model_bytes(&model);
            let delta = mem.insert(key.clone(), cell.clone());
            reconcile_into(&mut model, key, cell);
            prop_assert_eq!(delta, model_bytes(&model) as i64 - before as i64);
        }
        prop_assert_eq!(mem.len(), model.len());
        prop_assert_eq!(mem.is_empty(), model.is_empty());
        prop_assert_eq!(mem.bytes(), model_bytes(&model));
        let present: Vec<Vec<u8>> = model.keys().map(|k| k.to_vec()).collect();
        for probe in probes.iter().chain(&present) {
            prop_assert_eq!(mem.get(probe), model.get(probe.as_slice()), "get {:?}", probe);
            let got: Vec<_> = mem.range_from(probe).map(|(k, c)| (k, c)).collect();
            let want: Vec<_> = model
                .range::<[u8], _>((Bound::Included(probe.as_slice()), Bound::Unbounded))
                .collect();
            prop_assert_eq!(got, want, "range_from {:?}", probe);
        }
        let drained = mem.drain();
        prop_assert_eq!(owned(drained.iter()), model.into_iter().collect::<Vec<_>>());
        prop_assert!(mem.is_empty());
        prop_assert_eq!(mem.bytes(), 0);
        prop_assert_eq!(mem.range_from(&[]).count(), 0);
    }

    /// Cell reconciliation is commutative and associative.
    #[test]
    fn reconcile_is_commutative_associative(
        a in (0u64..50, prop::collection::vec(any::<u8>(), 0..8)),
        b in (0u64..50, prop::collection::vec(any::<u8>(), 0..8)),
        c in (0u64..50, prop::collection::vec(any::<u8>(), 0..8)),
    ) {
        let mk = |(ts, v): (u64, Vec<u8>)| Cell::live(Bytes::from(v), ts);
        let (a, b, c) = (mk(a), mk(b), mk(c));
        prop_assert_eq!(
            Cell::reconcile(a.clone(), b.clone()),
            Cell::reconcile(b.clone(), a.clone())
        );
        prop_assert_eq!(
            Cell::reconcile(Cell::reconcile(a.clone(), b.clone()), c.clone()),
            Cell::reconcile(a.clone(), Cell::reconcile(b.clone(), c.clone()))
        );
    }

    /// A k-way merge equals a BTreeMap oracle built from the same sources,
    /// over keys that tie on their 16-byte prefix.
    #[test]
    fn merge_matches_oracle(
        sources in prop::collection::vec(arb_entries(), 0..5)
    ) {
        // Make each source sorted/unique (as the merge contract requires).
        let mut oracle: BTreeMap<Key, Cell> = Default::default();
        let mut merged_sources = Vec::new();
        for src in sources {
            let mut per: BTreeMap<Key, Cell> = Default::default();
            for (key, value, ts) in src {
                let cell = Cell::live(Bytes::from(value), ts);
                per.entry(Bytes::from(key))
                    .and_modify(|c| *c = Cell::reconcile(c.clone(), cell.clone()))
                    .or_insert(cell);
            }
            for (k, c) in &per {
                oracle
                    .entry(k.clone())
                    .and_modify(|o| *o = Cell::reconcile(o.clone(), c.clone()))
                    .or_insert_with(|| c.clone());
            }
            merged_sources.push(per.into_iter().collect::<Vec<_>>());
        }
        let views: Vec<&[(Key, Cell)]> = merged_sources.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(merge_runs(&views, false), oracle.into_iter().collect::<Vec<_>>());
    }

    /// Differential: the streaming borrow-based merge produces exactly what
    /// the old collect-then-merge implementation produced — same winners,
    /// same order, same tombstone handling — for both minor merges (keep
    /// tombstones) and major ones (drop them).
    #[test]
    fn streaming_merge_matches_legacy_collect_merge(
        runs in arb_sorted_runs(),
        drop_tombstones in prop::bool::ANY,
    ) {
        let views: Vec<&[(Key, Cell)]> = runs.iter().map(Vec::as_slice).collect();
        let streamed = merge_runs(&views, drop_tombstones);
        let legacy = legacy::merge_collect(runs.clone(), drop_tombstones);
        prop_assert_eq!(&streamed, &legacy);
    }

    /// `SsTable::lower_bound` — the segment and chunk of rows the start
    /// key seeks, then a binary search of that chunk — agrees with a plain
    /// partition point over the full keys, in runs of more than two chunks
    /// of rows cut into one to three segments, for keys shorter than the
    /// 16-byte prefix, keys tied on it, keys just above every row, and
    /// probes outside the run on either side.
    #[test]
    fn sstable_lower_bound_matches_partition_point(
        keys in prop::collection::btree_set(arb_prefix_key(), 0..200),
        fillers in 2045usize..2600,
        cuts in prop::collection::vec(0usize..2800, 0..3),
        probes in prop::collection::vec(arb_prefix_key(), 1..40),
        block_size in (0usize..3).prop_map(|i| [1u64, 64, 4096][i]),
    ) {
        let rows = seek_rows(keys, fillers);
        let table = segmented_run(&rows, &cuts, block_size);
        prop_assert!((1..=3).contains(&table.segments().len()));
        for probe in seek_probes(&rows, probes) {
            let want = rows.partition_point(|(k, _)| k.as_ref() < probe.as_slice());
            prop_assert_eq!(table.lower_bound(&probe), want, "probe {:?}", probe);
        }
    }

    /// `SsTable::block_for` — the same seek and search, then the block of
    /// the last entry at or below the probe — agrees with the block whose
    /// rows hold that entry, counted from the rows' encoded lengths, in
    /// runs of more than two chunks of rows cut into one to three
    /// segments, for present keys, prefix-tied keys, keys just above every
    /// row, and probes before the first row and after the last.
    #[test]
    fn sstable_block_for_matches_linear_scan(
        keys in prop::collection::btree_set(arb_prefix_key(), 0..120),
        fillers in 2045usize..2600,
        cuts in prop::collection::vec(0usize..2800, 0..3),
        probes in prop::collection::vec(arb_prefix_key(), 1..40),
        block_size in (0usize..2).prop_map(|i| [1u64, 48][i]),
    ) {
        let rows = seek_rows(keys, fillers);
        let table = segmented_run(&rows, &cuts, block_size);
        prop_assert!((1..=3).contains(&table.segments().len()));
        let starts = block_starts(&table, &rows);
        for probe in seek_probes(&rows, probes) {
            let at_or_below = rows.partition_point(|(k, _)| k.as_ref() <= probe.as_slice());
            let want = (at_or_below > 0)
                .then(|| starts.partition_point(|&start| start < at_or_below) - 1);
            prop_assert_eq!(table.block_for(&probe), want, "probe {:?}", probe);
        }
    }

    /// Range scans over multi-run trees with memtable overlap and tombstones
    /// return the rows of a `BTreeMap` model, and charge exactly the I/O —
    /// op for op, and the same block-cache hits, misses and evictions — of
    /// the whole-run-search accounting they replaced, over keys (and start
    /// keys) that tie on their 16-byte prefix. `scan_page` from the same
    /// state returns every row walked, tombstones included, and charges the
    /// same I/O; `scan_count` charges the same I/O, leaves the same cache
    /// counters, and counts the walked rows below its end key.
    #[test]
    fn scan_rows_and_io_match_model(
        writes in prop::collection::vec(
            // (key, timestamp, tombstone in 40%, flush after in 4%)
            (arb_prefix_key(), 0u64..1_000, (0u32..100).prop_map(|p| p < 40), (0u32..100).prop_map(|p| p < 4)),
            1..400,
        ),
        scans in prop::collection::vec(
            // limit: 0, 1, a short page, or more than the tree holds
            (
                arb_prefix_key(),
                (0usize..4, 2usize..30).prop_map(|(pick, n)| [0, 1, n, 10_000][pick]),
                (prop::bool::ANY, arb_prefix_key()).prop_map(|(some, end)| some.then_some(end)),
            ),
            1..12,
        ),
    ) {
        let config = LsmConfig {
            block_size: 128,
            memtable_flush_bytes: u64::MAX, // flushes only where the input says
            cache_bytes: 1024,              // a few blocks: scans evict
        };
        let mut tree = LsmTree::new(config);
        let mut model = ScanModel::new(&config);
        for (k, ts, dead, flush) in writes {
            let cell = if dead { Cell::tombstone(ts) } else { Cell::live(key(ts), ts) };
            tree.put(Bytes::from(k.clone()), cell.clone());
            model.put(Bytes::from(k), cell);
            if flush {
                tree.flush();
                model.flush();
            }
        }
        prop_assert_eq!(tree.table_count(), model.runs.len());
        for (start, limit, end) in scans {
            let mut twin = tree.clone();
            let mut paged = tree.clone();
            let got = tree.scan(&start, limit);
            let (walked, io) = model.scan(&start, limit);
            let rows = live_of(&walked);
            let below = walked
                .iter()
                .filter(|(k, _)| end.as_ref().is_none_or(|end| k.as_ref() < end.as_slice()))
                .count();
            prop_assert_eq!(flat(&got.rows), rows, "rows from {:?} limit {}", start, limit);
            prop_assert_eq!(&got.io, &io, "io from {:?} limit {}", start, limit);
            let page = paged.scan_page(&start, limit);
            prop_assert_eq!(flat(&page.rows), walked, "page from {:?} limit {}", start, limit);
            prop_assert_eq!(&page.io, &io);
            let counted = twin.scan_count(&start, limit, end.as_deref());
            prop_assert_eq!(counted, (below, io), "count from {:?} limit {} end {:?}", start, limit, end);
            prop_assert_eq!(twin.cache_stats(), tree.cache_stats());
            prop_assert_eq!(paged.cache_stats(), tree.cache_stats());
        }
        prop_assert_eq!(tree.cache_stats(), model.cache.stats());
    }

    /// [`scan_rows_and_io_match_model`] over a cstore base's shape: three
    /// replicas each hold one bulk-loaded run fed segment by segment, with
    /// tombstones among its rows and every segment shared by all three, as
    /// a cstore base shares each token range's rows; above it lie flushed
    /// runs, memtable rows and tombstones that replicas 1 and 2 each miss
    /// some of. Replica 0's `scan`, `scan_page` and `scan_count` match
    /// `ScanModel` in rows, I/O and cache counters, and the reconcile of the
    /// replicas' pages — which share stretches of the base's segments, and
    /// are clamped to an end key half the time — matches `reconcile_model`,
    /// which counts a page's tombstones row by row: every tombstone is a
    /// piece of its own.
    #[test]
    fn scans_over_a_loaded_multi_segment_run_match_model(
        base in prop::collection::vec((arb_prefix_key(), arb_tie_cell()), 1..300),
        cuts in prop::collection::vec(0usize..300, 0..6),
        writes in prop::collection::vec(
            // (key, timestamp, (tombstone in 40%, flush after in 4%), missed by replica 1 / 2)
            (arb_prefix_key(), 0u64..1_000, (0u32..100, 0u32..100).prop_map(|(d, f)| (d < 40, f < 4)), 0u32..4),
            0..200,
        ),
        scans in prop::collection::vec(
            // limit: 0, 1, a short page, or more than the tree holds
            (
                arb_prefix_key(),
                (0usize..4, 2usize..30).prop_map(|(pick, n)| [0, 1, n, 10_000][pick]),
                (prop::bool::ANY, arb_prefix_key()).prop_map(|(some, end)| some.then_some(end)),
                0usize..6,
            ),
            1..12,
        ),
    ) {
        let config = LsmConfig {
            block_size: 128,
            memtable_flush_bytes: u64::MAX, // flushes only where the input says
            cache_bytes: 1024,              // a few blocks: scans evict
        };
        let mut trees = [LsmTree::new(config), LsmTree::new(config), LsmTree::new(config)];
        let base: BTreeMap<_, _> = base.into_iter().collect();
        let rows: Vec<(Key, Cell)> = base.into_iter().map(|(k, c)| (Bytes::from(k), c)).collect();
        let bytes = rows.iter().map(|(k, c)| entry_encoded_len(k, c)).sum();
        let mut runs: Vec<_> = trees.iter().map(|t| t.load_builder(rows.len(), bytes)).collect();
        for w in segment_bounds(&cuts, rows.len()).windows(2) {
            let mut holders: Vec<&mut _> = runs.iter_mut().collect();
            Segment::from_queue(queue_of(&rows[w[0]..w[1]]), &mut holders);
        }
        for (tree, run) in trees.iter_mut().zip(runs) {
            let id = tree.reserve_table_id();
            tree.load(id, run);
        }
        let mut model = ScanModel::new(&config);
        model.runs.push(trees[0].runs()[0].clone());
        for (k, ts, (dead, flush), missed) in writes {
            let cell = if dead { Cell::tombstone(ts) } else { Cell::live(key(ts), ts) };
            for (r, tree) in trees.iter_mut().enumerate() {
                if r > 0 && missed as usize == r {
                    continue;
                }
                tree.put(Bytes::from(k.clone()), cell.clone());
                if flush {
                    tree.flush();
                }
            }
            model.put(Bytes::from(k), cell);
            if flush {
                model.flush();
            }
        }
        let ids = |runs: &[SsTable]| runs.iter().map(SsTable::id).collect::<Vec<_>>();
        prop_assert_eq!(ids(trees[0].runs()), ids(&model.runs));
        for (start, limit, end, n) in scans {
            let mut twin = trees[0].clone();
            let mut paged = trees[0].clone();
            let got = trees[0].scan(&start, limit);
            let (walked, io) = model.scan(&start, limit);
            let below = walked
                .iter()
                .filter(|(k, _)| end.as_ref().is_none_or(|end| k.as_ref() < end.as_slice()))
                .count();
            prop_assert_eq!(flat(&got.rows), live_of(&walked), "rows from {:?} limit {}", start, limit);
            prop_assert_eq!(&got.io, &io, "io from {:?} limit {}", start, limit);
            let page = paged.scan_page(&start, limit);
            prop_assert_eq!(flat(&page.rows), walked, "page from {:?} limit {}", start, limit);
            prop_assert_eq!(&page.io, &io);
            let counted = twin.scan_count(&start, limit, end.as_deref());
            prop_assert_eq!(counted, (below, io), "count from {:?} limit {} end {:?}", start, limit, end);
            prop_assert_eq!(twin.cache_stats(), trees[0].cache_stats());
            prop_assert_eq!(paged.cache_stats(), trees[0].cache_stats());

            let mut pages = vec![page.rows];
            pages.extend(trees[1..].iter_mut().map(|tree| tree.scan_page(&start, limit).rows));
            for rows in &mut pages {
                if let Some(end) = end.as_ref().filter(|_| n % 2 == 0) {
                    rows.clamp(end);
                }
            }
            pages.truncate(1 + n % 3);
            let flats: Vec<_> = pages.iter().map(flat).collect();
            let (merged, resume) = Reconciler::default().reconcile(&mut pages, limit);
            let (want, want_resume) = reconcile_model(&flats, limit);
            prop_assert_eq!(flat(&merged), want, "reconcile of {} from {:?}", flats.len(), start);
            prop_assert_eq!(resume, want_resume);
        }
        prop_assert_eq!(trees[0].cache_stats(), model.cache.stats());
    }

    /// `LsmTree::load` of one segment's run against the path it replaced: a twin with a tiny flush threshold `put`s the same rows,
    /// flushing as it fills, then flushes and runs a major compaction (a
    /// compaction in between may purge a tombstone that a later row with no
    /// newer timestamp would then resurrect), while the tree under test
    /// flushes, loads the rows as one run and runs a major compaction. Rows
    /// come in any order, with duplicate keys at equal and
    /// different timestamps and some tombstones, over keys that tie on
    /// their 16-byte prefix, on top of runs and memtable rows both trees
    /// already hold. Every key reads the same (a tombstone counting as
    /// absent) and a full scan returns the same rows; loading only live
    /// rows into an empty tree builds the twin's run exactly.
    #[test]
    fn bulk_load_matches_put_flush_compact(
        // (key, cell, flush after): what both trees hold beforehand
        held in prop::collection::vec((arb_prefix_key(), arb_tie_cell(), (0u32..100).prop_map(|p| p < 10)), 0..60),
        rows in prop::collection::vec((arb_prefix_key(), arb_tie_cell()), 0..200),
        fresh in prop::bool::ANY,
        all_live in prop::bool::ANY,
    ) {
        let config = LsmConfig {
            block_size: 64,
            memtable_flush_bytes: u64::MAX, // flushes only where `held` says
            cache_bytes: 1024,
        };
        let mut tree = LsmTree::new(config);
        let mut twin = LsmTree::new(LsmConfig { memtable_flush_bytes: 256, ..config });
        let held = if fresh { Vec::new() } else { held };
        let mut keys = std::collections::BTreeSet::new();
        for (k, cell, flush) in held {
            keys.insert(Bytes::from(k.clone()));
            tree.put(Bytes::from(k.clone()), cell.clone());
            twin.put(Bytes::from(k), cell);
            if flush {
                tree.flush();
                twin.flush();
            }
        }
        let rows: Vec<(Key, Cell)> = rows
            .into_iter()
            .map(|(k, cell)| {
                let cell = match cell.value {
                    None if all_live => Cell::live(key(cell.ts), cell.ts),
                    _ => cell,
                };
                (Bytes::from(k), cell)
            })
            .collect();
        keys.extend(rows.iter().map(|(k, _)| k.clone()));
        for (k, cell) in rows.iter().cloned() {
            if twin.put(k, cell).flush_due {
                twin.flush();
            }
        }
        twin.flush();
        twin.compact_all();
        tree.flush();
        let id = tree.reserve_table_id();
        let queue = queue_of(&rows);
        let mut run = tree.load_builder(queue.len(), queue.bytes());
        Segment::from_queue(queue, &mut [&mut run]);
        tree.load(id, run);
        tree.compact_all();

        let live = |t: &mut LsmTree, k: &Key| t.get(k).cell.filter(|c| !c.is_tombstone());
        for k in &keys {
            prop_assert_eq!(live(&mut tree, k), live(&mut twin, k), "get {:?}", k);
        }
        prop_assert_eq!(tree.scan(&[], 10_000).rows, twin.scan(&[], 10_000).rows);
        if fresh && all_live {
            prop_assert_eq!(tree.runs().len(), twin.runs().len());
            for (a, b) in tree.runs().iter().zip(twin.runs()) {
                prop_assert_eq!(table_rows(a), table_rows(b));
                prop_assert_eq!(a.block_count(), b.block_count());
                for block in 0..a.block_count() {
                    prop_assert_eq!(a.block_len(block), b.block_len(block), "block {}", block);
                }
            }
        }
    }

    /// A loaded run fed the rows cut at key boundaries into segments, one
    /// [`Segment::from_queue`] call each in key order with a second run as
    /// a co-holder, is the run that loading them as one segment builds: the
    /// same rows, blocks and bloom filter, so every get and scan returns the
    /// same rows and charges the same I/O, over keys that tie on their
    /// 16-byte prefix. Both holders hold each segment itself.
    #[test]
    fn a_run_fed_segment_by_segment_matches_one_segment(
        keys in prop::collection::btree_set(arb_prefix_key(), 1..300),
        cuts in prop::collection::vec(0usize..300, 0..6),
        probes in prop::collection::vec(arb_prefix_key(), 1..20),
    ) {
        let config = LsmConfig {
            block_size: 64,
            memtable_flush_bytes: u64::MAX,
            cache_bytes: 512, // a few blocks: gets and scans evict
        };
        let rows: Vec<(Key, Cell)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (Bytes::from(k.clone()), Cell::live(key(i as u64), 1)))
            .collect();
        let bytes = rows.iter().map(|(k, c)| entry_encoded_len(k, c)).sum();
        let mut tree = LsmTree::new(config);
        let mut other = LsmTree::new(config);
        let (mut run, mut co_run) = (tree.load_builder(rows.len(), bytes), other.load_builder(rows.len(), bytes));
        let segments: Vec<Segment> = segment_bounds(&cuts, rows.len())
            .windows(2)
            .map(|w| Segment::from_queue(queue_of(&rows[w[0]..w[1]]), &mut [&mut run, &mut co_run]))
            .collect();
        let id = tree.reserve_table_id();
        tree.load(id, run);
        let id = other.reserve_table_id();
        other.load(id, co_run);
        let mut twin = LsmTree::new(config);
        let mut one = twin.load_builder(rows.len(), bytes);
        Segment::from_queue(queue_of(&rows), &mut [&mut one]);
        let id = twin.reserve_table_id();
        twin.load(id, one);
        let (a, b) = (&tree.runs()[0], &twin.runs()[0]);
        prop_assert_eq!(table_rows(a), table_rows(b));
        prop_assert_eq!(a.block_count(), b.block_count());
        for block in 0..a.block_count() {
            prop_assert_eq!(a.block_len(block), b.block_len(block), "block {}", block);
        }
        for s in segments.iter().filter(|s| !s.is_empty()) {
            prop_assert!(a.segments().iter().any(|held| held.shares_storage_with(s)));
            prop_assert!(other.runs()[0].segments().iter().any(|held| held.shares_storage_with(s)));
        }
        for probe in probes.iter().chain(&keys) {
            prop_assert_eq!(tree.get(probe), twin.get(probe), "get {:?}", probe);
            prop_assert_eq!(tree.scan(probe, 7), twin.scan(probe, 7), "scan {:?}", probe);
        }
        prop_assert_eq!(tree.cache_stats(), twin.cache_stats());
    }

    /// Every key written into an SSTable is found; absent keys are not.
    #[test]
    fn sstable_point_lookups(ids in prop::collection::btree_set(0u64..10_000, 1..300)) {
        let entries: Vec<(Key, Cell)> = ids
            .iter()
            .map(|&i| (key(i), Cell::live(key(i), i)))
            .collect();
        let table = SsTable::build(TableId(1), entries, 256);
        for &i in &ids {
            let got = table.find(&key(i));
            prop_assert!(got.is_some(), "lost key {i}");
            prop_assert_eq!(got.unwrap().1.ts, i);
        }
        // A definitely-absent key (outside the id space).
        prop_assert!(table.find(b"zzzz").is_none());
        // Block structure partitions the byte count.
        let total: u64 = (0..table.block_count()).map(|b| table.block_len(b)).sum();
        prop_assert_eq!(total, table.total_bytes());
    }

    /// The LSM tree serves the newest acknowledged value for every key, no
    /// matter how writes interleave with flushes and compactions.
    #[test]
    fn lsm_read_your_writes_through_flushes(
        ops in prop::collection::vec((0u64..30, 0u64..1000u64, prop::bool::ANY), 1..150)
    ) {
        let mut tree = LsmTree::new(LsmConfig {
            block_size: 128,
            memtable_flush_bytes: 512,
            cache_bytes: 1024,
        });
        let mut oracle: std::collections::HashMap<u64, Cell> = Default::default();
        for (id, ts, flush) in ops {
            let cell = Cell::live(key(ts), ts);
            tree.put(key(id), cell.clone());
            oracle
                .entry(id)
                .and_modify(|c| *c = Cell::reconcile(c.clone(), cell.clone()))
                .or_insert(cell);
            if flush {
                tree.flush();
                tree.maybe_compact();
            }
        }
        for (id, expected) in &oracle {
            let got = tree.get(&key(*id)).cell;
            prop_assert_eq!(got.as_ref(), Some(expected), "key {}", id);
        }
    }

    /// WAL replay after a crash restores exactly the unflushed state, once
    /// every write is synced.
    #[test]
    fn wal_replay_restores_memtable(
        ops in prop::collection::vec((0u64..20, 0u64..100), 1..60),
        flush_at in 0usize..60,
    ) {
        let mut tree = LsmTree::new(LsmConfig {
            memtable_flush_bytes: u64::MAX, // manual flushes only
            ..LsmConfig::default()
        });
        for (i, (id, ts)) in ops.iter().enumerate() {
            tree.put(key(*id), Cell::live(key(*ts), *ts));
            if i == flush_at {
                tree.flush();
            }
        }
        let before: Vec<_> = (0..20u64).map(|id| tree.get(&key(id)).cell).collect();
        tree.sync_wal();
        tree.recover();
        let after: Vec<_> = (0..20u64).map(|id| tree.get(&key(id)).cell).collect();
        prop_assert_eq!(before, after);
    }

    /// A crash keeps what was made durable and nothing else. Against a
    /// model of the writes, each tagged durable once a WAL sync covers it
    /// or a flush writes it to a run: after any interleaving of writes,
    /// deletes, syncs, flushes and crashes, every key reads the newest
    /// durable write to it. So a synced write survives, an unsynced one
    /// is lost unless a flush saved it, and no lost write comes back
    /// after a later crash. What later flushes and scans read matches too:
    /// `memtable_bytes()` and a full scan equal a fresh tree's that `put`s
    /// the surviving writes in order and flushes where this one did.
    #[test]
    fn a_crash_keeps_exactly_the_synced_and_flushed_writes(
        // (key, ts, op): op 0..6 a put, 6 a delete, 7 a sync, 8 a flush,
        // 9 a crash
        ops in prop::collection::vec((0u64..12, 1u64..50, 0u32..10), 1..120),
    ) {
        let config = LsmConfig {
            block_size: 128,
            memtable_flush_bytes: u64::MAX,
            cache_bytes: 1024,
        };
        let mut tree = LsmTree::new(config);
        // Every write that is still readable: (key, cell, durable, a flush
        // came right after it).
        let mut writes: Vec<(u64, Cell, bool, bool)> = Vec::new();
        let durable_view = |writes: &[(u64, Cell, bool, bool)]| {
            let mut view: BTreeMap<u64, Cell> = BTreeMap::new();
            for (id, cell, _, _) in writes.iter().filter(|w| w.2) {
                let newest = match view.remove(id) {
                    Some(held) => Cell::reconcile(held, cell.clone()),
                    None => cell.clone(),
                };
                view.insert(*id, newest);
            }
            view
        };
        for (id, ts, op) in ops {
            match op {
                0..=6 => {
                    let cell = if op == 6 { Cell::tombstone(ts) } else { Cell::live(key(ts), ts) };
                    tree.put(key(id), cell.clone());
                    writes.push((id, cell, false, false));
                }
                7 => {
                    tree.sync_wal();
                    writes.iter_mut().for_each(|w| w.2 = true);
                }
                8 => {
                    tree.flush();
                    writes.iter_mut().for_each(|w| w.2 = true);
                    if let Some(last) = writes.last_mut() {
                        last.3 = true;
                    }
                }
                _ => {
                    tree.recover();
                    writes.retain(|w| w.2);
                    let view = durable_view(&writes);
                    for id in 0..12 {
                        prop_assert_eq!(tree.get(&key(id)).cell.as_ref(), view.get(&id), "key {}", id);
                    }
                    let mut fresh = LsmTree::new(config);
                    for (id, cell, _, flushed) in &writes {
                        fresh.put(key(*id), cell.clone());
                        if *flushed {
                            fresh.flush();
                        }
                    }
                    prop_assert_eq!(tree.memtable_bytes(), fresh.memtable_bytes());
                    prop_assert_eq!(flat(&tree.scan(&[], 16).rows), flat(&fresh.scan(&[], 16).rows));
                }
            }
        }
    }

    /// Scans return sorted, deduplicated, live rows consistent with gets.
    #[test]
    fn scan_agrees_with_gets(
        ids in prop::collection::btree_set(0u64..200, 1..80),
        start in 0u64..200,
        limit in 1usize..40,
    ) {
        let mut tree = LsmTree::new(LsmConfig::default());
        for &i in &ids {
            tree.put(key(i), Cell::live(key(i), 1));
        }
        tree.flush();
        let rows = flat(&tree.scan(&key(start), limit).rows);
        prop_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "unsorted");
        prop_assert!(rows.len() <= limit);
        let expected: Vec<u64> = ids.iter().copied().filter(|&i| i >= start).take(limit).collect();
        let got: Vec<Key> = rows.iter().map(|(k, _)| k.clone()).collect();
        let want: Vec<Key> = expected.iter().map(|&i| key(i)).collect();
        prop_assert_eq!(got, want);
    }
}

/// What a page of `model` from `start` at `limit` holds: every row walked
/// up to the `limit`-th live one, tombstones included. A scan returns the
/// live ones among them.
fn model_scan(model: &BTreeMap<Key, Cell>, start: &[u8], limit: usize) -> Vec<(Key, Cell)> {
    let mut live = 0;
    let mut walked = Vec::new();
    for (key, cell) in model.range::<[u8], _>((Bound::Included(start), Bound::Unbounded)) {
        if live >= limit {
            break;
        }
        walked.push((key.clone(), cell.clone()));
        live += usize::from(!cell.is_tombstone());
    }
    walked
}

/// [`Reconciler::reconcile`] on the vectors the pages flatten to: merge, keep
/// the winners at or below the smallest last key of a page with `limit`
/// live rows, drop tombstones; resume past that key when the result is
/// short.
fn reconcile_model(pages: &[Vec<(Key, Cell)>], limit: usize) -> (Vec<(Key, Cell)>, Option<Key>) {
    let cut = pages
        .iter()
        .filter(|p| !p.is_empty() && p.iter().filter(|(_, c)| !c.is_tombstone()).count() == limit)
        .map(|p| p[p.len() - 1].0.clone())
        .min();
    let out: Vec<_> = legacy::merge_collect(pages.to_vec(), false)
        .into_iter()
        .filter(|(k, _)| cut.as_ref().is_none_or(|cut| k <= cut))
        .filter(|(_, c)| !c.is_tombstone())
        .collect();
    let resume = cut
        .filter(|_| out.len() < limit)
        .map(|k| Bytes::from([k.as_ref(), &[0]].concat()));
    (out, resume)
}

/// A tree for the `Rows` tests: rows spread over the memtable and several
/// runs (blocks of a few rows, a flush wherever the input says).
fn rows_tree() -> LsmTree {
    LsmTree::new(LsmConfig {
        block_size: 64,
        memtable_flush_bytes: u64::MAX,
        cache_bytes: 1024,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A scan result is a snapshot that matches a `Vec` model. Over trees
    /// of memtable rows and several runs, with duplicate keys, tombstones
    /// and keys that tie on their 16-byte prefix, every `scan` and
    /// `scan_page` result equals the `BTreeMap` model as it was at scan
    /// time, and still does after more writes and deletes, a flush and a
    /// major compaction have replaced every run it was read from. Its
    /// `truncate`, `clamp`, `append` and `encoded_len` each equal the same
    /// operation on the vector it flattens to, and so does the reconcile
    /// of pages from replicas that each missed some writes.
    #[test]
    fn rows_are_snapshots_that_match_a_vec_model(
        // (key, cell, flush after in 10%, missed by replica 1 / 2)
        writes in prop::collection::vec(
            (arb_prefix_key(), arb_tie_cell(), (0u32..100).prop_map(|p| p < 10), 0u32..4),
            1..150,
        ),
        later in prop::collection::vec((arb_prefix_key(), arb_tie_cell()), 0..60),
        scans in prop::collection::vec(
            (arb_prefix_key(), (0usize..4, 1usize..12).prop_map(|(pick, n)| [0, 1, n, 1_000][pick]), arb_prefix_key(), 0usize..20),
            1..10,
        ),
    ) {
        let mut trees = [rows_tree(), rows_tree(), rows_tree()];
        let mut models: [BTreeMap<Key, Cell>; 3] = Default::default();
        for (k, cell, flush, missed) in writes {
            for (r, (tree, model)) in trees.iter_mut().zip(&mut models).enumerate() {
                if r > 0 && missed as usize == r {
                    continue;
                }
                tree.put(Bytes::from(k.clone()), cell.clone());
                reconcile_into(model, Bytes::from(k.clone()), cell.clone());
                if flush {
                    tree.flush();
                }
            }
        }
        let mut held = Vec::new();
        // One reconciler for every round, as a coordinator keeps one.
        let mut reconciler = Reconciler::default();
        for (start, limit, end, n) in scans {
            let got = trees[0].scan(&start, limit);
            let page = trees[0].scan_page(&start, limit);
            let walked = model_scan(&models[0], &start, limit);
            let live = live_of(&walked);
            prop_assert_eq!(flat(&got.rows), live.clone());
            prop_assert_eq!(flat(&page.rows), walked.clone());
            prop_assert_eq!(got.rows.len(), live.len());
            prop_assert_eq!(got.rows.is_empty(), live.is_empty());
            let bytes: u64 = walked.iter().map(|(k, c)| entry_encoded_len(k, c)).sum();
            prop_assert_eq!(page.rows.encoded_len(), bytes);

            let mut cut = page.rows.clone();
            cut.truncate(n);
            prop_assert_eq!(flat(&cut), walked[..n.min(walked.len())].to_vec(), "truncate {}", n);
            let below: Vec<_> = walked.iter().filter(|(k, _)| k.as_ref() < end.as_slice()).cloned().collect();
            let mut clamped = page.rows.clone();
            clamped.clamp(&end);
            prop_assert_eq!(flat(&clamped), below.clone(), "clamp {:?}", end);
            // The rows from `end` on, appended to those below it.
            let mut joined = got.rows.clone();
            joined.clamp(&end);
            let from_end = trees[0].scan(&end, limit);
            let mut want: Vec<_> = live.iter().filter(|(k, _)| k.as_ref() < end.as_slice()).cloned().collect();
            want.extend(live_of(&model_scan(&models[0], &end, limit)));
            joined.append(from_end.rows);
            prop_assert_eq!(flat(&joined), want, "append at {:?}", end);

            // Every replica's page, clamped to `end` as a range end would.
            let mut pages = Vec::new();
            let mut flats = Vec::new();
            for (tree, model) in trees.iter_mut().zip(&models) {
                let mut rows = tree.scan_page(&start, limit).rows;
                let mut walked = model_scan(model, &start, limit);
                if n % 2 == 0 {
                    rows.clamp(&end);
                    walked.retain(|(k, _)| k.as_ref() < end.as_slice());
                }
                prop_assert_eq!(flat(&rows), walked.clone());
                pages.push(rows);
                flats.push(walked);
            }
            let replicas = 1 + n % 3;
            pages.truncate(replicas);
            let (merged, resume) = reconciler.reconcile(&mut pages, limit);
            prop_assert!(pages.is_empty());
            let (want, want_resume) = reconcile_model(&flats[..replicas], limit);
            prop_assert_eq!(flat(&merged), want, "reconcile of {} from {:?}", replicas, start);
            prop_assert_eq!(resume, want_resume);
            held.push((got.rows, live, page.rows, walked));
        }
        for (k, cell) in later {
            trees[0].put(Bytes::from(k.clone()), cell.clone());
            trees[0].put(Bytes::from(k), Cell::tombstone(cell.ts + 1));
        }
        trees[0].flush();
        trees[0].compact_all();
        for (rows, live, page, walked) in &held {
            prop_assert_eq!(&flat(rows), live);
            prop_assert_eq!(&flat(page), walked);
        }
    }
}

/// The block cache's reference: every resident block with its size, least
/// recently used first, and the counters.
struct LruModel {
    blocks: Vec<(BlockKey, u64)>,
    capacity: u64,
    stats: CacheStats,
}

impl LruModel {
    fn used(&self) -> u64 {
        self.blocks.iter().map(|&(_, bytes)| bytes).sum()
    }

    fn get(&mut self, key: BlockKey) -> Option<u64> {
        let Some(i) = self.blocks.iter().position(|&(k, _)| k == key) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        let block = self.blocks.remove(i);
        self.blocks.push(block);
        Some(block.1)
    }

    /// A refresh takes the new size and recency and evicts nothing, so a
    /// grown block may leave more than the capacity resident.
    fn insert(&mut self, key: BlockKey, bytes: u64) {
        if bytes > self.capacity {
            return;
        }
        if let Some(i) = self.blocks.iter().position(|&(k, _)| k == key) {
            self.blocks.remove(i);
        } else {
            while self.used() + bytes > self.capacity {
                self.blocks.remove(0);
                self.stats.evictions += 1;
            }
        }
        self.blocks.push((key, bytes));
    }
}

/// Every block the cache test touches, and some it never does: blocks
/// past the last one inserted and a run never used.
fn cache_probes() -> impl Iterator<Item = BlockKey> {
    (1..=5).flat_map(|t| {
        (0..14).map(move |block| BlockKey {
            table: TableId(t),
            block,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The block cache against a reference LRU over 1–4 runs the cache
    /// learns of only by their inserts: random inserts (refreshes and
    /// blocks larger than the cache among them), gets, invalidations of a
    /// run and clears. After every step the get answer, the counters, the
    /// resident blocks with their sizes and the bytes the cache counts as
    /// used agree; both are read from clones, so reading moves nothing.
    #[test]
    fn block_cache_matches_a_reference_lru(
        runs in 1u64..5,
        // (operation, run, block, bytes)
        ops in prop::collection::vec((0u32..100, 0u64..4, 0u32..12, 1u64..80), 1..300),
    ) {
        const CAPACITY: u64 = 200;
        let mut cache = BlockCache::new(CAPACITY);
        let mut model = LruModel { blocks: Vec::new(), capacity: CAPACITY, stats: CacheStats::default() };
        for (step, (op, run, block, bytes)) in ops.into_iter().enumerate() {
            let table = TableId(1 + run % runs);
            let key = BlockKey { table, block };
            match op {
                0..=44 => {
                    cache.insert(key, bytes);
                    model.insert(key, bytes);
                }
                45..=54 => {
                    cache.insert(key, CAPACITY + bytes);
                    model.insert(key, CAPACITY + bytes);
                }
                55..=89 => prop_assert_eq!(cache.get(key), model.get(key), "step {} get {:?}", step, key),
                90..=95 => {
                    cache.invalidate_table(table);
                    model.blocks.retain(|(k, _)| k.table != table);
                }
                _ => {
                    cache.clear();
                    model.blocks.clear();
                }
            }
            prop_assert_eq!(cache.stats(), model.stats, "step {}", step);
            let mut probe = cache.clone();
            let mut resident: Vec<(BlockKey, u64)> = cache_probes()
                .filter_map(|key| probe.get(key).map(|bytes| (key, bytes)))
                .collect();
            let mut want = model.blocks.clone();
            want.sort_by_key(|&(k, _)| (k.table.0, k.block));
            resident.sort_by_key(|&(k, _)| (k.table.0, k.block));
            prop_assert_eq!(&resident, &want, "step {}", step);
            // The byte count, read through eviction: a new block of exactly
            // the room left evicts nothing, one byte more evicts.
            if let Some(room) = CAPACITY.checked_sub(model.used()) {
                let fresh = BlockKey { table: TableId(99), block: 0 };
                for extra in [0, 1] {
                    let mut probe = cache.clone();
                    probe.insert(fresh, room + extra);
                    let evicted = probe.stats().evictions > cache.stats().evictions;
                    prop_assert_eq!(evicted, extra == 1 && room < CAPACITY, "step {} room {}", step, room);
                }
            }
        }
    }
}

/// A YCSB-shaped key: `user` and 20 digits of `id`, 24 bytes. Ids below
/// 10^8 tie on the 16-byte prefix.
fn wide_key(id: u64) -> Key {
    Bytes::from(format!("user{id:020}").into_bytes())
}

/// Ids that tie on the 16-byte prefix half the time.
fn arb_wide_id() -> impl Strategy<Value = u64> {
    (0u64..5_000, any::<u64>(), prop::bool::ANY)
        .prop_map(|(near, far, tie)| if tie { near } else { far })
}

/// A key of another width than [`wide_key`]'s that sorts at `at` among
/// the sorted `keys`: 1 first, 2 in the middle (right after the middle
/// key), 3 last; none for 0.
fn odd_key(keys: &[Key], at: usize) -> Option<Key> {
    let key = match at {
        1 => b"user".to_vec(),
        2 => [keys[keys.len() / 2].as_ref(), b"!"].concat(),
        3 => b"userz".to_vec(),
        _ => return None,
    };
    Some(Bytes::from(key))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rows whose keys are all 24 bytes wide but for one key of another
    /// width that sorts first, in the middle, last or nowhere, against a
    /// `Vec` model: the load queue, the segment it sorts into and the
    /// segment a memtable drains into agree on `len`, `key` and `iter`; the
    /// loaded run's point gets and `lower_bound`, and the tree's `scan`,
    /// `scan_page` (with its `Rows::encoded_len`) and `scan_count`, agree at
    /// present keys, 24-byte probes and odd-width probes. A major
    /// compaction of that run with a run of keys of many widths and a run
    /// of 24-byte keys only reads like the merged model.
    #[test]
    fn segments_with_one_odd_width_key_match_a_vec_model(
        ids in prop::collection::btree_set(arb_wide_id(), 2..300),
        at in 0usize..4,
        cells in prop::collection::vec(arb_tie_cell(), 301..302),
        probes in prop::collection::vec(
            // (24-byte key id, an odd-width variant of it in a quarter, scan limit)
            (arb_wide_id(), (0u32..4).prop_map(|p| p == 0), (0usize..4, 2usize..30).prop_map(|(pick, n)| [0, 1, n, 10_000][pick])),
            1..20,
        ),
        mixed in prop::collection::vec((arb_prefix_key(), arb_tie_cell()), 0..60),
        later in prop::collection::vec((arb_wide_id(), arb_tie_cell()), 0..60),
    ) {
        let config = LsmConfig {
            block_size: 128,
            memtable_flush_bytes: u64::MAX,
            cache_bytes: 1024,
        };
        let mut keys: Vec<Key> = ids.iter().map(|&id| wide_key(id)).collect();
        keys.extend(odd_key(&keys, at));
        keys.sort();
        let rows: Vec<(Key, Cell)> = keys.into_iter().zip(cells).collect();
        let model: BTreeMap<Key, Cell> = rows.iter().cloned().collect();

        let queue = queue_of(&rows);
        prop_assert_eq!(queue.len(), rows.len());
        prop_assert_eq!(owned(queue.iter()), rows.clone());
        let bytes = rows.iter().map(|(k, c)| entry_encoded_len(k, c)).sum();
        prop_assert_eq!(queue.bytes(), bytes);
        let mut memtable = Memtable::new();
        for (k, cell) in &rows {
            memtable.insert(k.clone(), cell.clone());
        }
        let mut tree = LsmTree::new(config);
        let mut run = tree.load_builder(queue.len(), queue.bytes());
        let sorted = Segment::from_queue(queue, &mut [&mut run]);
        for segment in [sorted, memtable.drain()] {
            prop_assert_eq!(segment.len(), rows.len());
            prop_assert!(!segment.is_empty());
            for (i, (k, _)) in rows.iter().enumerate() {
                prop_assert_eq!(segment.key(i), k.as_ref(), "key {}", i);
            }
            prop_assert_eq!(owned(segment.iter()), rows.clone());
        }
        let id = tree.reserve_table_id();
        tree.load(id, run);

        let present = rows.iter().map(|(k, _)| (k.clone(), 3));
        let probed = probes.iter().map(|&(id, odd, limit)| {
            let k = wide_key(id);
            (if odd { Bytes::from([k.as_ref(), b"!"].concat()) } else { k }, limit)
        });
        let probes: Vec<(Key, usize)> = probed.chain(present).collect();
        let table = tree.runs()[0].clone();
        for (probe, limit) in &probes {
            let found = table.find(probe).map(|(_, cell)| cell);
            prop_assert_eq!(found, model.get(probe), "run find {:?}", probe);
            prop_assert_eq!(tree.get(probe).cell.as_ref(), model.get(probe), "get {:?}", probe);
            let want = rows.partition_point(|(k, _)| k < probe);
            prop_assert_eq!(table.lower_bound(probe), want, "lower_bound {:?}", probe);
            let walked = model_scan(&model, probe, *limit);
            let mut twin = tree.clone();
            let got = tree.scan(probe, *limit);
            prop_assert_eq!(flat(&got.rows), live_of(&walked), "scan {:?} limit {}", probe, limit);
            let page = tree.scan_page(probe, *limit);
            prop_assert_eq!(flat(&page.rows), walked.clone(), "page {:?} limit {}", probe, limit);
            let encoded: u64 = walked.iter().map(|(k, c)| entry_encoded_len(k, c)).sum();
            prop_assert_eq!(page.rows.encoded_len(), encoded);
            let counted = twin.scan_count(probe, *limit, None);
            prop_assert_eq!(counted, (walked.len(), got.io), "count {:?} limit {}", probe, limit);
        }

        // A compaction over the equal-width run, a run of many widths and
        // a run of 24-byte keys only.
        let mut merged = model;
        for (k, cell) in mixed {
            tree.put(Bytes::from(k.clone()), cell.clone());
            reconcile_into(&mut merged, Bytes::from(k), cell);
        }
        tree.flush();
        for (id, cell) in later {
            tree.put(wide_key(id), cell.clone());
            reconcile_into(&mut merged, wide_key(id), cell);
        }
        tree.flush();
        tree.compact_all();
        let live: Vec<(Key, Cell)> = merged.iter().filter(|(_, c)| !c.is_tombstone()).map(|(k, c)| (k.clone(), c.clone())).collect();
        prop_assert_eq!(flat(&tree.scan(&[], 10_000).rows), live);
        let (_, tail) = rows.split_at(rows.len() / 2);
        for (k, _) in tail {
            let got = tree.get(k).cell.filter(|c| !c.is_tombstone());
            prop_assert_eq!(got.as_ref(), merged.get(k).filter(|c| !c.is_tombstone()), "get {:?} after compaction", k);
        }
    }
}

/// Rows for the seek tests: the drawn `keys` and `fillers` filler keys,
/// every other one starting with the 16 bytes the drawn long keys share,
/// so the more than two chunks of rows (1,022 each) hold prefix-tied keys
/// as well as short ones.
fn seek_rows(keys: std::collections::BTreeSet<Vec<u8>>, fillers: usize) -> Vec<(Key, Cell)> {
    let fillers = (0..fillers).map(|i| {
        let tie = if i % 2 == 0 { "" } else { "sixteen-byte-pfx" };
        format!("{tie}m{i:04}").into_bytes()
    });
    let keys: std::collections::BTreeSet<Vec<u8>> = keys.into_iter().chain(fillers).collect();
    keys.into_iter()
        .map(|k| (Bytes::from(k), Cell::live(Bytes::new(), 1)))
        .collect()
}

/// Probes for the seek tests: `drawn`, every row's key and the key just
/// above it, the empty key and one above every row.
fn seek_probes(rows: &[(Key, Cell)], drawn: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    let present = rows.iter().map(|(k, _)| k.to_vec());
    let above = rows.iter().map(|(k, _)| [k.as_ref(), &[0]].concat());
    let outside = [Vec::new(), vec![0xff; 20]];
    drawn
        .into_iter()
        .chain(present)
        .chain(above)
        .chain(outside)
        .collect()
}

/// Where `cuts`, each taken modulo one more than `rows`, cut `rows` rows,
/// with 0 and `rows` added, in order.
fn segment_bounds(cuts: &[usize], rows: usize) -> Vec<usize> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (rows + 1)).collect();
    bounds.extend([0, rows]);
    bounds.sort_unstable();
    bounds
}

/// The run a tree loads from `rows`, strictly sorted, fed as one segment
/// per stretch between [`segment_bounds`], in blocks of `block_size` bytes.
fn segmented_run(rows: &[(Key, Cell)], cuts: &[usize], block_size: u64) -> SsTable {
    let mut tree = LsmTree::new(LsmConfig {
        block_size,
        memtable_flush_bytes: u64::MAX,
        cache_bytes: 0,
    });
    let bytes = rows.iter().map(|(k, c)| entry_encoded_len(k, c)).sum();
    let mut run = tree.load_builder(rows.len(), bytes);
    for w in segment_bounds(cuts, rows.len()).windows(2) {
        Segment::from_queue(queue_of(&rows[w[0]..w[1]]), &mut [&mut run]);
    }
    let id = tree.reserve_table_id();
    tree.load(id, run);
    tree.runs()[0].clone()
}

/// Encoded bytes of every row of [`block_table_rows`]'s live rows, unless
/// their lengths are mixed.
const ROW_BYTES: usize = 40;

/// Rows for the point-read test: `drawn` keys (prefix-tied, at most 19
/// bytes) and `fillers` keys of 5 and 6 bytes, each live row padded with
/// its value to [`ROW_BYTES`] encoded bytes, so blocks of `n * ROW_BYTES`
/// bytes hold `n` rows; with `tombstones`, every fifth row is a tombstone
/// and shorter, so its blocks hold more; with `mixed`, live rows encode to
/// from 17 bytes plus the key up to three times [`ROW_BYTES`], so rows per
/// block vary along the run. With `full_last`, every row is then live and
/// fills a block of `rows_per_block` rows alone, but for the last ones,
/// tombstones, as many as one such block holds: the last block holds the
/// most rows, at least two, and every other block one.
fn block_table_rows(
    drawn: &std::collections::BTreeSet<Vec<u8>>,
    fillers: usize,
    tombstones: bool,
    mixed: bool,
    full_last: Option<usize>,
) -> Vec<(Key, Cell)> {
    let fillers = (0..fillers).map(|i| {
        let suffix = if i % 2 == 0 { "" } else { "x" };
        format!("m{i:04}{suffix}").into_bytes()
    });
    let keys: std::collections::BTreeSet<Vec<u8>> = drawn.iter().cloned().chain(fillers).collect();
    let mut rows: Vec<(Key, Cell)> = keys
        .into_iter()
        .enumerate()
        .map(|(i, k)| {
            let ts = i as u64 + 1;
            let cell = if tombstones && i % 5 == 2 {
                Cell::tombstone(ts)
            } else {
                let pad = ROW_BYTES - 17 - k.len();
                let len = if mixed {
                    (pad + 2 * ROW_BYTES) * (i * 7919 % 13) / 12
                } else {
                    pad
                };
                Cell::live(Bytes::from(vec![b'v'; len]), ts)
            };
            (Bytes::from(k), cell)
        })
        .collect();
    if let Some(rows_per_block) = full_last {
        static VALUE: [u8; 400 * ROW_BYTES] = [b'v'; 400 * ROW_BYTES];
        let block = rows_per_block * ROW_BYTES;
        let tombstone = |k: &Key| entry_encoded_len(k, &Cell::tombstone(0)) as usize;
        // The last block's first row: the earliest one whose tombstone and
        // those after it, but the last row's, encode below a block.
        let (mut first, mut bytes) = (rows.len().saturating_sub(1), 0);
        while first > 0 && bytes + tombstone(&rows[first - 1].0) < block {
            first -= 1;
            bytes += tombstone(&rows[first].0);
        }
        for (i, (k, cell)) in rows.iter_mut().enumerate() {
            *cell = if i < first {
                let len = block - tombstone(k);
                Cell::live(Bytes::from_static(&VALUE[..len]), cell.ts)
            } else {
                Cell::tombstone(cell.ts)
            };
        }
    }
    rows
}

/// A tree of blocks of `rows_per_block` rows of [`ROW_BYTES`] bytes, whose
/// cache holds a few blocks.
fn block_table_config(rows_per_block: usize) -> LsmConfig {
    let block_size = (rows_per_block * ROW_BYTES) as u64;
    LsmConfig {
        block_size,
        memtable_flush_bytes: u64::MAX,
        cache_bytes: 3 * block_size, // a few blocks: gets evict
    }
}

/// The point read of one run as a block index made it before rows were
/// found by key, kept as the oracle: the block of the last row at or below
/// the probe, a binary search of that block's rows, the bloom filter on a
/// miss, and the block fetched through a reference cache unless the filter
/// rules the key out or it sorts before the run. `rows` are the run's rows
/// and `starts` where each block starts in them, then their count; the
/// run's own lookups are not asked.
fn block_index_get(
    table: &SsTable,
    rows: &[(Key, Cell)],
    starts: &[usize],
    cache: &mut BlockCache,
    probe: &[u8],
) -> (Option<Cell>, IoPlan) {
    let mut io = IoPlan::new();
    let at_or_below = rows.partition_point(|(k, _)| k.as_ref() <= probe);
    if at_or_below == 0 {
        io.push(IoOp::BloomSkip);
        return (None, io);
    }
    let block = starts.partition_point(|&start| start < at_or_below) - 1;
    let in_block = &rows[starts[block]..starts[block + 1]];
    let hit = in_block
        .binary_search_by(|(k, _)| k.as_ref().cmp(probe))
        .ok()
        .map(|i| in_block[i].1.clone());
    if hit.is_none() && !table.may_contain(probe) {
        io.push(IoOp::BloomSkip);
        return (None, io);
    }
    let key = BlockKey {
        table: table.id(),
        block: block as u32,
    };
    let bytes = table.block_len(block);
    if cache.get(key).is_some() {
        io.push(IoOp::CacheHit { bytes });
    } else {
        cache.insert(key, bytes);
        io.push(IoOp::DiskRead { bytes });
    }
    (hit, io)
}

/// Where each block of `table`, whose rows are `rows`, starts in them, then
/// their count: the rows' encoded lengths summed up to each block's.
fn block_starts(table: &SsTable, rows: &[(Key, Cell)]) -> Vec<usize> {
    let mut starts = vec![0];
    let mut bytes = 0;
    for (i, (k, c)) in rows.iter().enumerate() {
        bytes += entry_encoded_len(k, c);
        if bytes == table.block_len(starts.len() - 1) {
            starts.push(i + 1);
            bytes = 0;
        }
    }
    assert_eq!(starts.len(), table.block_count() + 1);
    starts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Point reads that find their row by key give exactly what a block
    /// index gave: in runs that hold one to three segments, shared with a
    /// second run of blocks of another size, every `LsmTree::get` of either
    /// tree returns the cell and the I/O plan of [`block_index_get`] and
    /// leaves the same cache counters, and the cell of a `BTreeMap` model.
    /// Blocks hold 1 to 400 rows; with mixed row lengths the row count
    /// varies from block to block, so `block_of_entry`'s guess is off and
    /// it has to search; in a quarter of the runs every block but the last
    /// holds one row, so its guess for the last block's rows falls short.
    /// Segments run past rows 1,022 and 2,044, so they hold several chunks
    /// of hash tables. Keys tie on their 16-byte prefix and have mixed
    /// widths; rows include tombstones; probes include keys before, between
    /// and after the rows, and absent keys the bloom filter admits. A third run of the same rows is built from one
    /// segment. Every entry's `block_of_entry` is the block whose rows
    /// hold it; at every probe `lower_bound` is the partition point, and
    /// every run's `SsTable::find` returns the model's cell.
    #[test]
    fn point_reads_by_key_match_the_block_index_and_model(
        drawn in prop::collection::btree_set(arb_prefix_key(), 0..120),
        fillers in (0usize..3, 0usize..2600).prop_map(|(pick, n)| [300, 2100, n][pick]),
        rows_per_block in (0usize..4, 1usize..401).prop_map(|(pick, n)| [1, 8, 400, n][pick]),
        co_rows_per_block in (0usize..3, 1usize..401).prop_map(|(pick, n)| [1, 16, n][pick]),
        tombstones in (0u32..4).prop_map(|p| p == 0),
        mixed in prop::bool::ANY,
        full_last in (0u32..4).prop_map(|p| p == 0),
        cuts in prop::collection::vec(0usize..2800, 0..3),
        probes in prop::collection::vec(arb_prefix_key(), 1..30),
    ) {
        let full_last = full_last.then_some(rows_per_block);
        let rows = block_table_rows(&drawn, fillers, tombstones, mixed, full_last);
        prop_assume!(!rows.is_empty());
        let model: BTreeMap<Key, Cell> = rows.iter().cloned().collect();
        let config = block_table_config(rows_per_block);
        let co_config = block_table_config(co_rows_per_block);
        let bytes = rows.iter().map(|(k, c)| entry_encoded_len(k, c)).sum();
        let mut tree = LsmTree::new(config);
        let mut other = LsmTree::new(co_config);
        let (mut run, mut co_run) = (tree.load_builder(rows.len(), bytes), other.load_builder(rows.len(), bytes));
        for w in segment_bounds(&cuts, rows.len()).windows(2) {
            Segment::from_queue(queue_of(&rows[w[0]..w[1]]), &mut [&mut run, &mut co_run]);
        }
        let id = tree.reserve_table_id();
        tree.load(id, run);
        let id = other.reserve_table_id();
        other.load(id, co_run);
        let loaded = tree.runs()[0].clone();
        let co_held = other.runs()[0].clone();
        prop_assert!((1..=3).contains(&loaded.segments().len()));
        for (a, b) in loaded.segments().iter().zip(co_held.segments()) {
            prop_assert!(a.shares_storage_with(b));
        }
        let built = SsTable::build(TableId(9), rows.clone(), config.block_size);
        prop_assert_eq!(table_rows(&loaded), rows.clone());
        let starts = block_starts(&loaded, &rows);
        let co_starts = block_starts(&co_held, &rows);
        for (table, starts) in [(&loaded, &starts), (&co_held, &co_starts)] {
            for i in 0..rows.len() {
                let want = starts.partition_point(|&start| start <= i) - 1;
                prop_assert_eq!(table.block_of_entry(i), want, "block of entry {}", i);
            }
        }
        if full_last.is_some() {
            // Every block but the last holds one row, the last the most.
            let (ones, last) = starts.split_last_chunk::<2>().expect("a block");
            prop_assert!(last[1] - last[0] >= 2.min(rows.len()), "{:?}", last);
            prop_assert!(ones.iter().enumerate().all(|(i, &start)| start == i), "{:?}", starts);
        } else if !tombstones && !mixed {
            // Every block but the last holds exactly `rows_per_block` rows.
            let (_, full) = starts.split_last().expect("a start");
            prop_assert!(full.windows(2).all(|w| w[1] - w[0] == rows_per_block), "{:?}", starts);
        }

        let between = rows.iter().map(|(k, _)| [k.as_ref(), &[0]].concat());
        let outside = [Vec::new(), vec![0xff; 20]];
        // Absent keys the filter admits: no drawn or filler key holds a 2.
        let false_positives: Vec<Vec<u8>> = (0..4000usize)
            .map(|j| [rows[j % rows.len()].0.as_ref(), &[2, j as u8, (j >> 8) as u8]].concat())
            .filter(|k| loaded.may_contain(k) || co_held.may_contain(k))
            .take(8)
            .collect();
        prop_assert!(!false_positives.is_empty());
        let probes: Vec<Vec<u8>> = probes
            .into_iter()
            .chain(rows.iter().map(|(k, _)| k.to_vec()))
            .chain(between)
            .chain(outside)
            .chain(false_positives)
            .collect();
        let mut cache = BlockCache::new(config.cache_bytes);
        let mut co_cache = BlockCache::new(co_config.cache_bytes);
        for probe in &probes {
            let want = model.get(probe.as_slice());
            let at = loaded.lower_bound(probe);
            prop_assert_eq!(at, rows.partition_point(|(k, _)| k.as_ref() < probe.as_slice()), "lower_bound {:?}", probe);
            for (run, table) in [("loaded", &loaded), ("built", &built), ("co-held", &co_held)] {
                let found = table.find(probe).map(|(_, cell)| cell);
                prop_assert_eq!(found, want, "{} run find {:?}", run, probe);
            }
            for (tree, table, starts, cache) in [
                (&mut tree, &loaded, &starts, &mut cache),
                (&mut other, &co_held, &co_starts, &mut co_cache),
            ] {
                let got = tree.get(probe);
                let (cell, io) = block_index_get(table, &rows, starts, cache, probe);
                prop_assert_eq!(got.cell.as_ref(), want, "tree get {:?}", probe);
                prop_assert_eq!(got.cell, cell, "oracle get {:?}", probe);
                prop_assert_eq!(&got.io, &io, "io {:?}", probe);
            }
        }
        prop_assert_eq!(tree.cache_stats(), cache.stats());
        prop_assert_eq!(other.cache_stats(), co_cache.stats());
    }
}
