//! K-way merge of sorted runs with last-write-wins reconciliation.
//!
//! Used by range scans (merge memtable + every SSTable), by compaction
//! (merge input tables into one output) and by the range-read coordinator
//! (reconcile replica result sets). Sources must each be sorted by key and
//! unique per key; across sources, duplicate keys are reconciled with
//! [`Cell::newer`].
//!
//! One algorithm, `Merge`, serves two instantiations. Over *borrows*
//! (`MergeRef`) it yields `(&Key, &Cell)` straight out of the source runs,
//! so neither compaction nor a range scan ever materialises owned copies of
//! its inputs: only the winner of each key is cloned — and with
//! `Bytes`-backed keys/values a clone is a refcount bump, never a byte copy.
//! Over *owned* entries ([`merge_entries`]) it moves each winner out of its
//! source and drops the losers, so nothing is cloned at all.
//!
//! The merge advances by **replace-top**: the smallest head is overwritten
//! in place with its own source's next entry and sifted down once, instead
//! of a pop (sift the last element down from the root) followed by a push
//! (sift the new one up from the bottom). With one live source that is zero
//! key comparisons per entry, with two it is one — and a range scan is
//! almost always a two-source merge (memtable + one compacted run).
//!
//! ## How heads are ordered
//!
//! Every source yields `(KeyPrefix, row)`: the row's [`KeyPrefix`] (its
//! first 16 key bytes as a big-endian integer) next to the row itself.
//! Run-backed sources read it from the table's flat prefix array; the
//! others compute it once per row pulled, never once per compare. Heads are
//! ordered by that prefix, then — only when two prefixes tie — by full key,
//! then by source index. Prefix order with a full-key tie-break is exactly
//! key order (see [`crate::sstable::cmp_via_prefix`]), so the merge emits
//! what a `(key, source)` order would, while a sift-down compares integers
//! held in the heap instead of chasing every key onto its own allocation.
//! The duplicate check compares prefixes first as well.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::sstable::{key_prefix, KeyPrefix};
use crate::types::{Cell, Key};

/// One entry of a merge source: a borrowed `&(Key, Cell)` while streaming
/// over runs, an owned `(Key, Cell)` when the caller owns the entries. A
/// head holds the row whole — one pointer when borrowed — and splits it
/// only once it is emitted.
pub(crate) trait Row {
    /// The key as the merge emits it.
    type Key: AsRef<[u8]>;
    /// The version the merge reconciles.
    type Cell;
    /// The row's key bytes.
    fn key(&self) -> &[u8];
    /// Key and version, apart.
    fn split(self) -> (Self::Key, Self::Cell);
    /// Last-write-wins: the winner of two versions of one key.
    fn newer(a: Self::Cell, b: Self::Cell) -> Self::Cell;
}

impl<'a> Row for &'a (Key, Cell) {
    type Key = &'a Key;
    type Cell = &'a Cell;
    fn key(&self) -> &[u8] {
        &self.0
    }
    fn split(self) -> (&'a Key, &'a Cell) {
        (&self.0, &self.1)
    }
    fn newer(a: &'a Cell, b: &'a Cell) -> &'a Cell {
        Cell::newer(a, b)
    }
}

impl Row for (Key, Cell) {
    type Key = Key;
    type Cell = Cell;
    fn key(&self) -> &[u8] {
        &self.0
    }
    fn split(self) -> (Key, Cell) {
        self
    }
    fn newer(a: Cell, b: Cell) -> Cell {
        Cell::reconcile(a, b)
    }
}

/// `row` with its key's prefix: how the sources without a prefix array feed
/// a merge.
fn with_prefix<R: Row>(row: R) -> (KeyPrefix, R) {
    (key_prefix(row.key()), row)
}

/// The smallest not-yet-emitted entry of one source. Borrowed, it is 32
/// bytes: the prefix, one pointer, and a `u32` source.
struct Head<R> {
    prefix: KeyPrefix,
    row: R,
    source: u32,
}

impl<R: Row> PartialEq for Head<R> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<R: Row> Eq for Head<R> {}
impl<R: Row> PartialOrd for Head<R> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<R: Row> Ord for Head<R> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by key (reverse for BinaryHeap): prefix first, full key
        // only on a prefix tie. The source index only breaks ties for
        // determinism; reconciliation handles the semantics.
        other
            .prefix
            .cmp(&self.prefix)
            .then_with(|| other.row.key().cmp(self.row.key()))
            .then_with(|| other.source.cmp(&self.source))
    }
}

/// Merges multiple sorted sources of `(prefix, row)` entries, reconciling
/// duplicate keys by last-write-wins and yielding each key exactly once, in
/// order, as `(key, version)`. The emitted key is the lowest-numbered
/// source's copy.
pub(crate) struct Merge<R, I> {
    sources: Vec<I>,
    /// At most one head per source: the entry pulled from it but not yet
    /// emitted.
    heap: BinaryHeap<Head<R>>,
}

/// [`Merge`] over borrowed rows: winners come out still by reference.
pub(crate) type MergeRef<'a, I> = Merge<&'a (Key, Cell), I>;

impl<R: Row, I: Iterator<Item = (KeyPrefix, R)>> Merge<R, I> {
    /// Build a merge over `sources`; each must yield strictly increasing
    /// keys, each with its own [`key_prefix`].
    pub(crate) fn new(mut sources: Vec<I>) -> Self {
        let mut heap = BinaryHeap::with_capacity(sources.len());
        for (source, it) in (0u32..).zip(sources.iter_mut()) {
            if let Some((prefix, row)) = it.next() {
                heap.push(Head {
                    prefix,
                    row,
                    source,
                });
            }
        }
        Self { sources, heap }
    }

    /// Give the sources back, each positioned one past the last entry the
    /// merge pulled from it. A source that is not exhausted has had exactly
    /// one entry pulled beyond those emitted — its pending head, whose key
    /// is greater than every emitted key.
    pub(crate) fn into_sources(self) -> Vec<I> {
        self.sources
    }

    /// Take the smallest head and refill its heap slot from the same source
    /// (replace-top: one sift-down when the guard drops); only an exhausted
    /// source shrinks the heap.
    fn take_top(&mut self) -> Option<(KeyPrefix, R)> {
        let mut top = self.heap.peek_mut()?;
        let source = top.source;
        let head = match self.sources[source as usize].next() {
            Some((prefix, row)) => std::mem::replace(
                &mut *top,
                Head {
                    prefix,
                    row,
                    source,
                },
            ),
            None => PeekMut::pop(top),
        };
        Some((head.prefix, head.row))
    }
}

impl<R: Row, I: Iterator<Item = (KeyPrefix, R)>> Iterator for Merge<R, I> {
    type Item = (R::Key, R::Cell);

    fn next(&mut self) -> Option<Self::Item> {
        let (prefix, row) = self.take_top()?;
        let (key, mut cell) = row.split();
        // Fold in every other source's version of the same key; borrowed
        // losers are skipped without ever being cloned, owned ones dropped.
        while self
            .heap
            .peek()
            .is_some_and(|top| top.prefix == prefix && top.row.key() == key.as_ref())
        {
            let Some((_, dup)) = self.take_top() else {
                break;
            };
            cell = R::newer(cell, dup.split().1);
        }
        Some((key, cell))
    }
}

/// Streaming merge of borrowed sorted runs into one reconciled, sorted
/// vector. Clones (refcount-bumps) only the surviving winner of each key;
/// the input runs are left untouched. `drop_tombstones` removes deletion
/// markers from the output (valid only for a full/major merge where no older
/// data survives).
pub fn merge_runs(runs: &[&[(Key, Cell)]], drop_tombstones: bool) -> Vec<(Key, Cell)> {
    let total = runs.iter().map(|r| r.len()).sum();
    let sources = runs.iter().map(|r| r.iter().map(with_prefix)).collect();
    clone_winners(MergeRef::new(sources), total, drop_tombstones)
}

/// The winners of a borrowed merge, cloned (refcount bumps) into a vector
/// sized for `total` entries, without tombstones if `drop_tombstones`.
pub(crate) fn clone_winners<'a, I>(
    merge: MergeRef<'a, I>,
    total: usize,
    drop_tombstones: bool,
) -> Vec<(Key, Cell)>
where
    I: Iterator<Item = (KeyPrefix, &'a (Key, Cell))>,
{
    let mut out = Vec::with_capacity(total);
    for (key, cell) in merge {
        if drop_tombstones && cell.is_tombstone() {
            continue;
        }
        out.push((key.clone(), cell.clone()));
    }
    out
}

/// Merge owned sorted runs (replica result sets at the range-read
/// coordinator) into one reconciled, sorted vector, consuming them: a single
/// source is handed back as is — same allocation, no entry touched unless
/// `drop_tombstones` removes it — and several are merged by moving each
/// key's winner out of its source. Nothing is cloned. Passing a `drain(..)`
/// lets the caller keep the vector that held the sources.
pub fn merge_entries<S>(sources: S, drop_tombstones: bool) -> Vec<(Key, Cell)>
where
    S: IntoIterator<Item = Vec<(Key, Cell)>>,
    S::IntoIter: ExactSizeIterator,
{
    let mut sources = sources.into_iter();
    let mut out = if sources.len() == 1 {
        sources.next().unwrap_or_default()
    } else {
        let sources: Vec<_> = sources.map(|s| s.into_iter().map(with_prefix)).collect();
        // Every source is unique per key, so the longest one is a lower
        // bound on the output — and exact when the replicas agree.
        let longest = sources
            .iter()
            .map(ExactSizeIterator::len)
            .max()
            .unwrap_or(0);
        let mut out = Vec::with_capacity(longest);
        out.extend(Merge::new(sources));
        out
    };
    if drop_tombstones {
        out.retain(|(_, cell)| !cell.is_tombstone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn k(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn e(key: &str, val: &str, ts: u64) -> (Key, Cell) {
        (k(key), Cell::live(k(val), ts))
    }

    #[test]
    fn merges_disjoint_sources_in_order() {
        let out = merge_entries(
            vec![vec![e("a", "1", 1), e("c", "3", 1)], vec![e("b", "2", 1)]],
            false,
        );
        let keys: Vec<_> = out.iter().map(|(key, _)| key.clone()).collect();
        assert_eq!(keys, vec![k("a"), k("b"), k("c")]);
    }

    #[test]
    fn duplicate_keys_reconcile_to_newest() {
        let out = merge_entries(
            vec![
                vec![e("a", "old", 1)],
                vec![e("a", "new", 2)],
                vec![e("a", "mid", 1)],
            ],
            false,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.value.as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn tombstones_survive_minor_merge() {
        let out = merge_entries(
            vec![vec![e("a", "v", 1)], vec![(k("a"), Cell::tombstone(2))]],
            false,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].1.is_tombstone());
    }

    #[test]
    fn tombstones_dropped_in_major_merge() {
        let out = merge_entries(
            vec![
                vec![e("a", "v", 1), e("b", "w", 1)],
                vec![(k("a"), Cell::tombstone(2))],
            ],
            true,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, k("b"));
    }

    #[test]
    fn empty_sources_are_fine() {
        let out = merge_entries(vec![vec![], vec![e("a", "1", 1)], vec![]], false);
        assert_eq!(out.len(), 1);
        assert_eq!(merge_entries(Vec::new(), false).len(), 0);
        assert_eq!(merge_runs(&[], false).len(), 0);
    }

    #[test]
    fn borrowed_head_is_32_bytes() {
        // A scan allocates one head per source; a wider head costs bytes
        // on every scan.
        assert_eq!(std::mem::size_of::<Head<&(Key, Cell)>>(), 32);
    }

    #[test]
    fn merge_runs_output_shares_input_storage() {
        // The streaming merge must not deep-copy payloads: the winner in the
        // output is the *same* allocation as the winning input entry.
        let runs = [vec![e("a", "old", 1)], vec![e("a", "new", 2)]];
        let views: Vec<&[(Key, Cell)]> = runs.iter().map(Vec::as_slice).collect();
        let out = merge_runs(&views, false);
        assert_eq!(out.len(), 1);
        let winner = runs[1][0].1.value.as_ref().map(|v| v.as_ref().as_ptr());
        let got = out[0].1.value.as_ref().map(|v| v.as_ref().as_ptr());
        assert_eq!(winner, got, "winner value should be refcount-shared");
        // The emitted key is the first-popped source's copy (same bytes).
        assert_eq!(out[0].0.as_ref().as_ptr(), runs[0][0].0.as_ref().as_ptr());
    }

    #[test]
    fn merge_ref_yields_borrowed_winners_in_order() {
        let runs = [
            vec![e("a", "a1", 3), e("c", "c1", 1)],
            vec![e("a", "a2", 1), e("b", "b2", 2)],
        ];
        let sources: Vec<_> = runs.iter().map(|r| r.iter().map(with_prefix)).collect();
        let got: Vec<_> = MergeRef::new(sources)
            .map(|(key, cell)| (key.clone(), cell.clone()))
            .collect();
        assert_eq!(got, vec![e("a", "a1", 3), e("b", "b2", 2), e("c", "c1", 1)]);
    }

    #[test]
    fn matches_btreemap_oracle_on_fixed_case() {
        use std::collections::BTreeMap;
        let sources = vec![
            vec![e("a", "a1", 3), e("b", "b1", 1), e("d", "d1", 5)],
            vec![e("a", "a2", 1), e("c", "c2", 2), e("d", "d2", 9)],
            vec![e("b", "b3", 7), e("e", "e3", 1)],
        ];
        let mut oracle: BTreeMap<Key, Cell> = BTreeMap::new();
        for src in &sources {
            for (key, cell) in src {
                oracle
                    .entry(key.clone())
                    .and_modify(|c| *c = Cell::reconcile(c.clone(), cell.clone()))
                    .or_insert_with(|| cell.clone());
            }
        }
        let merged = merge_entries(sources, false);
        let oracle_vec: Vec<_> = oracle.into_iter().collect();
        assert_eq!(merged, oracle_vec);
    }
}
