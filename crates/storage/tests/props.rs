//! Property-based tests for the storage engine's core invariants.

use std::collections::BTreeMap;
use std::ops::Bound;

use bytes::Bytes;
use proptest::prelude::*;

use storage::cache::BlockKey;
use storage::compaction::SizeTieredPolicy;
use storage::merge::{merge_entries, merge_runs};
use storage::types::entry_encoded_len;
use storage::{
    BlockCache, Cell, IoOp, IoPlan, Key, LsmConfig, LsmTree, Memtable, Segment, SsTable, TableId,
};

fn key(id: u64) -> Bytes {
    Bytes::from(format!("user{id:08}").into_bytes())
}

/// A run's rows, its segments concatenated.
fn table_rows(table: &SsTable) -> Vec<(Key, Cell)> {
    table
        .segments()
        .iter()
        .flat_map(Segment::entries)
        .cloned()
        .collect()
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

    fn scan(&mut self, start: &[u8], limit: usize) -> (Vec<(Key, Cell)>, IoPlan) {
        let mut all = self.mem.clone();
        for run in &self.runs {
            for (key, cell) in table_rows(run) {
                reconcile_into(&mut all, key, cell);
            }
        }
        let mut rows = Vec::new();
        let mut last_key = None;
        for (key, cell) in all.range::<[u8], _>((Bound::Included(start), Bound::Unbounded)) {
            if rows.len() >= limit {
                break;
            }
            last_key = Some(key.clone());
            if !cell.is_tombstone() {
                rows.push((key.clone(), cell.clone()));
            }
        }
        let mut io = IoPlan::new();
        if let Some(end) = last_key {
            for run in &self.runs {
                Self::whole_run_search_io(&mut self.cache, run, start, &end, &mut io);
            }
        }
        (rows, io)
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
    /// `bytes`, and `drain_sorted`.
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
        let drained = mem.drain_sorted();
        prop_assert_eq!(drained, model.into_iter().collect::<Vec<_>>());
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
        let merged = merge_entries(merged_sources, false);
        prop_assert_eq!(merged, oracle.into_iter().collect::<Vec<_>>());
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
        // The owning merge moves the same winners out of its sources, and a
        // lone source comes back as the allocation that went in.
        let lone = (runs.len() == 1).then(|| runs[0].as_ptr());
        let owned = merge_entries(runs, drop_tombstones);
        if let Some(ptr) = lone {
            prop_assert_eq!(owned.as_ptr(), ptr);
        }
        prop_assert_eq!(owned, legacy);
    }

    /// `SsTable::lower_bound` — block index, then the flat prefix array —
    /// agrees with a plain partition point over the full keys, for keys
    /// shorter than the 16-byte prefix, keys tied on it, probes outside the
    /// table on either side, and the empty table.
    #[test]
    fn sstable_lower_bound_matches_partition_point(
        keys in prop::collection::btree_set(arb_prefix_key(), 0..200),
        probes in prop::collection::vec(arb_prefix_key(), 1..40),
        block_size in (0usize..3).prop_map(|i| [1u64, 64, 4096][i]),
    ) {
        let entries: Vec<(Key, Cell)> = keys
            .iter()
            .map(|k| (Bytes::from(k.clone()), Cell::live(Bytes::new(), 1)))
            .collect();
        // `block_size` 1 gives one block per entry: past 64 entries the
        // search crosses both levels of the block index.
        let table = SsTable::build(TableId(1), entries, block_size);
        let present = keys.iter().cloned();
        let outside = [Vec::new(), vec![0xff; 20]];
        for probe in probes.into_iter().chain(present).chain(outside) {
            let want = table_rows(&table).partition_point(|(k, _)| k.as_ref() < probe.as_slice());
            prop_assert_eq!(table.lower_bound(&probe), want, "probe {:?}", probe);
        }
    }

    /// `SsTable::block_for` — chunk prefixes, then one window of block
    /// prefixes, full keys only on a prefix tie — agrees with a linear scan
    /// for the block holding the last entry at or below the probe, on tables
    /// of more than `2 × CHUNK` blocks (so the top level has several
    /// chunks), for present keys, prefix-tied keys, and probes before the
    /// first block and after the last.
    #[test]
    fn sstable_block_for_matches_linear_scan(
        keys in prop::collection::btree_set(arb_prefix_key(), 1..120),
        probes in prop::collection::vec(arb_prefix_key(), 1..40),
        block_size in (0usize..2).prop_map(|i| [1u64, 48][i]),
    ) {
        // 400 filler keys guarantee the block count whatever was drawn;
        // they sort among the drawn ones (between the 'a…' and 's…' keys).
        let fillers = (0..400).map(|i| format!("m{i:04}").into_bytes());
        let keys: std::collections::BTreeSet<Vec<u8>> = keys
            .into_iter()
            .filter(|k| !k.is_empty()) // the empty probe sorts before them all
            .chain(fillers)
            .collect();
        let entries: Vec<(Key, Cell)> = keys
            .iter()
            .map(|k| (Bytes::from(k.clone()), Cell::live(Bytes::new(), 1)))
            .collect();
        let table = SsTable::build(TableId(1), entries, block_size);
        prop_assert!(table.block_count() > 2 * 64, "{} blocks", table.block_count());
        let outside = [Vec::new(), vec![0xff; 20]];
        for probe in probes.iter().chain(&keys).chain(&outside) {
            let want = table_rows(&table)
                .iter()
                .rposition(|(k, _)| k.as_ref() <= probe.as_slice())
                .map(|last| table.block_of_entry(last));
            prop_assert_eq!(table.block_for(probe), want, "probe {:?}", probe);
        }
    }

    /// Range scans over multi-run trees with memtable overlap and tombstones
    /// return the rows of a `BTreeMap` model, and charge exactly the I/O —
    /// op for op, and the same block-cache hits, misses and evictions — of
    /// the whole-run-search accounting they replaced, over keys (and start
    /// keys) that tie on their 16-byte prefix. `scan_count` from the same
    /// state charges the same I/O, leaves the same cache counters, and
    /// counts the rows below its end key.
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
            compaction: SizeTieredPolicy::default(),
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
            let got = tree.scan(&start, limit);
            let (rows, io) = model.scan(&start, limit);
            let below = rows
                .iter()
                .filter(|(k, _)| end.as_ref().is_none_or(|end| k.as_ref() < end.as_slice()))
                .count();
            prop_assert_eq!(got.rows, rows, "rows from {:?} limit {}", start, limit);
            prop_assert_eq!(&got.io, &io, "io from {:?} limit {}", start, limit);
            let counted = twin.scan_count(&start, limit, end.as_deref());
            prop_assert_eq!(counted, (below, io), "count from {:?} limit {} end {:?}", start, limit, end);
            prop_assert_eq!(twin.cache_stats(), tree.cache_stats());
        }
        prop_assert_eq!(tree.cache_stats(), model.cache.stats());
    }

    /// `LsmTree::load_segments` of one segment against the path it
    /// replaced: a twin with a tiny flush threshold `put`s the same rows,
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
            compaction: SizeTieredPolicy::default(),
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
        tree.load_segments(id, vec![Segment::from_rows(rows)]);
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

    /// `LsmTree::load_segments` of the rows cut into segments — at key
    /// boundaries, so the run holds the segments themselves, or dealt out
    /// round-robin, so their key ranges interleave and are merged first —
    /// builds the run that loading them as one segment builds: the same
    /// rows, blocks and bloom filter, so every get and scan returns the
    /// same rows and charges the same I/O, over keys that tie on their
    /// 16-byte prefix.
    #[test]
    fn load_segments_matches_one_segment(
        keys in prop::collection::btree_set(arb_prefix_key(), 1..300),
        cuts in prop::collection::vec(0usize..300, 0..6),
        interleave in prop::bool::ANY,
        probes in prop::collection::vec(arb_prefix_key(), 1..20),
    ) {
        let config = LsmConfig {
            block_size: 64,
            memtable_flush_bytes: u64::MAX,
            cache_bytes: 512, // a few blocks: gets and scans evict
            compaction: SizeTieredPolicy::default(),
        };
        let rows: Vec<(Key, Cell)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (Bytes::from(k.clone()), Cell::live(key(i as u64), 1)))
            .collect();
        let pieces: Vec<Vec<(Key, Cell)>> = if interleave {
            let n = cuts.len() + 1;
            (0..n).map(|j| rows.iter().skip(j).step_by(n).cloned().collect()).collect()
        } else {
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (rows.len() + 1)).collect();
            bounds.extend([0, rows.len()]);
            bounds.sort_unstable();
            bounds.windows(2).map(|w| rows[w[0]..w[1]].to_vec()).collect()
        };
        // Reversed: `load_segments` puts them in key order itself.
        let segments: Vec<Segment> = pieces.into_iter().rev().map(Segment::from_rows).collect();
        let mut tree = LsmTree::new(config);
        let id = tree.reserve_table_id();
        tree.load_segments(id, segments.clone());
        let mut twin = LsmTree::new(config);
        let id = twin.reserve_table_id();
        twin.load_segments(id, vec![Segment::from_rows(rows)]);
        let (a, b) = (&tree.runs()[0], &twin.runs()[0]);
        prop_assert_eq!(table_rows(a), table_rows(b));
        prop_assert_eq!(a.block_count(), b.block_count());
        for block in 0..a.block_count() {
            prop_assert_eq!(a.block_len(block), b.block_len(block), "block {}", block);
        }
        if !interleave {
            for s in segments.iter().filter(|s| !s.is_empty()) {
                prop_assert!(a.segments().iter().any(|held| held.shares_storage_with(s)));
            }
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
            let got = table.get(&key(i));
            prop_assert!(got.is_some(), "lost key {i}");
            prop_assert_eq!(got.unwrap().ts, i);
        }
        // A definitely-absent key (outside the id space).
        prop_assert!(table.get(b"zzzz").is_none());
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
            compaction: SizeTieredPolicy { min_threshold: 2, ..Default::default() },
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

    /// WAL replay after a crash restores exactly the unflushed state.
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
        tree.recover();
        let after: Vec<_> = (0..20u64).map(|id| tree.get(&key(id)).cell).collect();
        prop_assert_eq!(before, after);
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
        let rows = tree.scan(&key(start), limit).rows;
        prop_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "unsorted");
        prop_assert!(rows.len() <= limit);
        let expected: Vec<u64> = ids.iter().copied().filter(|&i| i >= start).take(limit).collect();
        let got: Vec<Key> = rows.iter().map(|(k, _)| k.clone()).collect();
        let want: Vec<Key> = expected.iter().map(|&i| key(i)).collect();
        prop_assert_eq!(got, want);
    }
}
