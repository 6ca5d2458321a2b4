//! K-way merge of sorted runs with last-write-wins reconciliation.
//!
//! Used by range scans (merge memtable + every SSTable), by compaction
//! (merge input tables into one output) and by the range-read coordinator
//! (reconcile replica result sets). Sources must each be sorted by key and
//! unique per key; across sources, duplicate keys are reconciled with
//! [`Cell::newer`].
//!
//! One algorithm, [`Merge`], serves two instantiations. Over *borrows*
//! ([`MergeRef`]) it yields `(&Key, &Cell)` straight out of the source runs,
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

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::types::{Cell, Key};

/// A version of a row the merge can reconcile against another version of
/// the same key — by reference while streaming over runs, by value when the
/// caller owns the entries.
pub trait Version: Sized {
    /// Last-write-wins: the winner of two versions of one key.
    fn newer(self, other: Self) -> Self;
}

impl Version for &Cell {
    fn newer(self, other: Self) -> Self {
        Cell::newer(self, other)
    }
}

impl Version for Cell {
    fn newer(self, other: Self) -> Self {
        Cell::reconcile(self, other)
    }
}

/// The smallest not-yet-emitted entry of one source.
struct Head<K, V> {
    key: K,
    cell: V,
    source: usize,
}

impl<K: Ord, V> PartialEq for Head<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.source == other.source
    }
}
impl<K: Ord, V> Eq for Head<K, V> {}
impl<K: Ord, V> PartialOrd for Head<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, V> Ord for Head<K, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by key (reverse for BinaryHeap); source index only breaks
        // ties for determinism, reconciliation handles the semantics.
        other
            .key
            .cmp(&self.key)
            .then_with(|| other.source.cmp(&self.source))
    }
}

/// Merges multiple sorted iterators of `(key, cell)` entries, reconciling
/// duplicate keys by last-write-wins and yielding each key exactly once, in
/// order. The emitted key is the lowest-numbered source's copy.
pub struct Merge<K, V, I> {
    sources: Vec<I>,
    /// At most one head per source: the entry pulled from it but not yet
    /// emitted.
    heap: BinaryHeap<Head<K, V>>,
}

/// [`Merge`] over borrowed entries: winners come out still by reference.
pub type MergeRef<'a, I> = Merge<&'a Key, &'a Cell, I>;

impl<K: Ord, V: Version, I: Iterator<Item = (K, V)>> Merge<K, V, I> {
    /// Build a merge over `sources`; each must yield strictly increasing keys.
    pub fn new(mut sources: Vec<I>) -> Self {
        let mut heap = BinaryHeap::with_capacity(sources.len());
        for (source, it) in sources.iter_mut().enumerate() {
            if let Some((key, cell)) = it.next() {
                heap.push(Head { key, cell, source });
            }
        }
        Self { sources, heap }
    }

    /// Give the sources back, each positioned one past the last entry the
    /// merge pulled from it. A source that is not exhausted has had exactly
    /// one entry pulled beyond those emitted — its pending head, whose key
    /// is greater than every emitted key.
    pub fn into_sources(self) -> Vec<I> {
        self.sources
    }

    /// Take the smallest head and refill its heap slot from the same source
    /// (replace-top: one sift-down when the guard drops); only an exhausted
    /// source shrinks the heap.
    fn take_top(&mut self) -> Option<(K, V)> {
        let mut top = self.heap.peek_mut()?;
        let source = top.source;
        let head = match self.sources[source].next() {
            Some((key, cell)) => std::mem::replace(&mut *top, Head { key, cell, source }),
            None => PeekMut::pop(top),
        };
        Some((head.key, head.cell))
    }
}

impl<K: Ord, V: Version, I: Iterator<Item = (K, V)>> Iterator for Merge<K, V, I> {
    type Item = (K, V);

    fn next(&mut self) -> Option<Self::Item> {
        let (key, mut cell) = self.take_top()?;
        // Fold in every other source's version of the same key; borrowed
        // losers are skipped without ever being cloned, owned ones dropped.
        while self.heap.peek().is_some_and(|top| top.key == key) {
            let Some((_, dup)) = self.take_top() else {
                break;
            };
            cell = cell.newer(dup);
        }
        Some((key, cell))
    }
}

fn pair_refs(entry: &(Key, Cell)) -> (&Key, &Cell) {
    (&entry.0, &entry.1)
}

/// Streaming merge of borrowed sorted runs into one reconciled, sorted
/// vector. Clones (refcount-bumps) only the surviving winner of each key;
/// the input runs are left untouched. `drop_tombstones` removes deletion
/// markers from the output (valid only for a full/major merge where no older
/// data survives).
pub fn merge_runs(runs: &[&[(Key, Cell)]], drop_tombstones: bool) -> Vec<(Key, Cell)> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let sources: Vec<_> = runs.iter().map(|r| r.iter().map(pair_refs)).collect();
    let mut out = Vec::with_capacity(total);
    for (key, cell) in MergeRef::new(sources) {
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
        let sources: Vec<_> = sources.map(Vec::into_iter).collect();
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
        let sources: Vec<_> = runs.iter().map(|r| r.iter().map(pair_refs)).collect();
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
