//! K-way merge of sorted runs with last-write-wins reconciliation.
//!
//! Used by range scans (merge memtable + every SSTable), by compaction
//! (merge input tables into one output) and by the range-read coordinator
//! (reconcile replica pages, [`crate::Rows::reconcile`]). Sources must each
//! be sorted by key and unique per key; across sources, duplicate keys are
//! reconciled with [`Cell::newer`].
//!
//! The merge runs over *borrowed* rows: it yields `&(Key, Cell)` straight
//! out of its sources, so neither a scan, a compaction nor a reconcile ever
//! materialises owned copies of its inputs. Each winner comes out with the
//! source it won in and its index there, so a scan can hand out a range of
//! the immutable segment that holds it ([`crate::Rows`]) instead of a copy
//! of the row; only compaction, which builds a new run, clones its winners
//! — and with `Bytes`-backed keys/values a clone is a refcount bump, never
//! a byte copy.
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
//! Every source yields a `Pulled` entry: the row, the row's [`KeyPrefix`]
//! (its first 16 key bytes as a big-endian integer) and the row's index in
//! the source. Run-backed sources read the prefix from the segment's flat
//! prefix array; the others compute it once per row pulled, never once per
//! compare. Heads are ordered by that prefix, then — only when two prefixes
//! tie — by full key, then by source index. Prefix order with a full-key
//! tie-break is exactly key order (see [`crate::sstable::cmp_via_prefix`]),
//! so the merge emits what a `(key, source)` order would, while a sift-down
//! compares integers held in the heap instead of chasing every key onto its
//! own allocation. The duplicate check compares prefixes first as well.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::sstable::{key_prefix, KeyPrefix};
use crate::types::{Cell, Key};

/// One row a merge source yields: its key's prefix, the row, and its index
/// in the source.
pub(crate) type Pulled<'a> = (KeyPrefix, &'a (Key, Cell), u32);

/// A row pulled from one source: 32 bytes, the prefix, one pointer, the
/// `u32` source and the row's `u32` index in it. The heap holds each
/// source's smallest not-yet-emitted row as one; the merge emits each key's
/// winning version as one.
pub(crate) struct Head<'a> {
    pub(crate) prefix: KeyPrefix,
    pub(crate) row: &'a (Key, Cell),
    pub(crate) source: u32,
    pub(crate) index: u32,
}

impl PartialEq for Head<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Head<'_> {}
impl PartialOrd for Head<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Head<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by key (reverse for BinaryHeap): prefix first, full key
        // only on a prefix tie. The source index only breaks ties for
        // determinism; reconciliation handles the semantics.
        other
            .prefix
            .cmp(&self.prefix)
            .then_with(|| other.row.0.cmp(&self.row.0))
            .then_with(|| other.source.cmp(&self.source))
    }
}

/// Merges multiple sorted sources of [`Pulled`] rows, reconciling duplicate
/// keys by last-write-wins and yielding each key exactly once, in order,
/// as the [`Head`] whose [`Cell::newer`] won.
pub(crate) struct Merge<'a, I> {
    sources: Vec<I>,
    /// At most one head per source: the entry pulled from it but not yet
    /// emitted.
    heap: BinaryHeap<Head<'a>>,
}

impl<'a, I: Iterator<Item = Pulled<'a>>> Merge<'a, I> {
    /// Build a merge over `sources`; each must yield strictly increasing
    /// keys, each with its own [`key_prefix`].
    pub(crate) fn new(mut sources: Vec<I>) -> Self {
        let mut heap = BinaryHeap::with_capacity(sources.len());
        for (source, it) in (0u32..).zip(sources.iter_mut()) {
            if let Some((prefix, row, index)) = it.next() {
                heap.push(Head {
                    prefix,
                    row,
                    source,
                    index,
                });
            }
        }
        Self { sources, heap }
    }

    /// The sources, each positioned one past the last entry the merge
    /// pulled from it. A source that is not exhausted has had exactly one
    /// entry pulled beyond those emitted — its pending head, whose key is
    /// greater than every emitted key.
    pub(crate) fn sources(&self) -> &[I] {
        &self.sources
    }

    /// Take the smallest head and refill its heap slot from the same source
    /// (replace-top: one sift-down when the guard drops); only an exhausted
    /// source shrinks the heap.
    fn take_top(&mut self) -> Option<Head<'a>> {
        let mut top = self.heap.peek_mut()?;
        let source = top.source;
        Some(match self.sources[source as usize].next() {
            Some((prefix, row, index)) => std::mem::replace(
                &mut *top,
                Head {
                    prefix,
                    row,
                    source,
                    index,
                },
            ),
            None => PeekMut::pop(top),
        })
    }
}

impl<'a, I: Iterator<Item = Pulled<'a>>> Iterator for Merge<'a, I> {
    type Item = Head<'a>;

    fn next(&mut self) -> Option<Head<'a>> {
        let mut won = self.take_top()?;
        // Fold in every other source's version of the same key; losers are
        // skipped without ever being cloned.
        while self
            .heap
            .peek()
            .is_some_and(|top| top.prefix == won.prefix && top.row.0 == won.row.0)
        {
            let Some(dup) = self.take_top() else {
                break;
            };
            if !std::ptr::eq(Cell::newer(&won.row.1, &dup.row.1), &won.row.1) {
                won = dup;
            }
        }
        Some(won)
    }
}

/// `rows` as a merge source: each row with its computed prefix and index.
pub(crate) fn pull_from(rows: &[(Key, Cell)]) -> impl Iterator<Item = Pulled<'_>> {
    (0u32..)
        .zip(rows)
        .map(|(index, row)| (key_prefix(&row.0), row, index))
}

/// Streaming merge of borrowed sorted runs into one reconciled, sorted
/// vector. Clones (refcount-bumps) only the surviving winner of each key;
/// the input runs are left untouched. `drop_tombstones` removes deletion
/// markers from the output (valid only for a full/major merge where no older
/// data survives).
pub fn merge_runs(runs: &[&[(Key, Cell)]], drop_tombstones: bool) -> Vec<(Key, Cell)> {
    let total = runs.iter().map(|r| r.len()).sum();
    let sources = runs.iter().map(|r| pull_from(r)).collect();
    clone_winners(Merge::new(sources), total, drop_tombstones)
}

/// The winners of a merge, cloned (refcount bumps) into a vector sized for
/// `total` entries, without tombstones if `drop_tombstones`.
pub(crate) fn clone_winners<'a, I>(
    merge: Merge<'a, I>,
    total: usize,
    drop_tombstones: bool,
) -> Vec<(Key, Cell)>
where
    I: Iterator<Item = Pulled<'a>>,
{
    let mut out = Vec::with_capacity(total);
    for won in merge {
        if drop_tombstones && won.row.1.is_tombstone() {
            continue;
        }
        out.push(won.row.clone());
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

    fn merge(sources: &[Vec<(Key, Cell)>], drop_tombstones: bool) -> Vec<(Key, Cell)> {
        let views: Vec<&[(Key, Cell)]> = sources.iter().map(Vec::as_slice).collect();
        merge_runs(&views, drop_tombstones)
    }

    #[test]
    fn merges_disjoint_sources_in_order() {
        let out = merge(
            &[vec![e("a", "1", 1), e("c", "3", 1)], vec![e("b", "2", 1)]],
            false,
        );
        let keys: Vec<_> = out.iter().map(|(key, _)| key.clone()).collect();
        assert_eq!(keys, vec![k("a"), k("b"), k("c")]);
    }

    #[test]
    fn duplicate_keys_reconcile_to_newest() {
        let out = merge(
            &[
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
        let out = merge(
            &[vec![e("a", "v", 1)], vec![(k("a"), Cell::tombstone(2))]],
            false,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].1.is_tombstone());
    }

    #[test]
    fn tombstones_dropped_in_major_merge() {
        let out = merge(
            &[
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
        let out = merge(&[vec![], vec![e("a", "1", 1)], vec![]], false);
        assert_eq!(out.len(), 1);
        assert_eq!(merge_runs(&[], false).len(), 0);
    }

    #[test]
    fn borrowed_head_is_32_bytes() {
        // A scan allocates one head per source; a wider head costs bytes
        // on every scan.
        assert_eq!(std::mem::size_of::<Head<'_>>(), 32);
    }

    #[test]
    fn merge_runs_output_shares_input_storage() {
        // The streaming merge must not deep-copy payloads: the winner in the
        // output is the *same* allocation as the winning input row, key
        // included.
        let runs = [vec![e("a", "old", 1)], vec![e("a", "new", 2)]];
        let out = merge(&runs, false);
        assert_eq!(out.len(), 1);
        let winner = runs[1][0].1.value.as_ref().map(|v| v.as_ref().as_ptr());
        let got = out[0].1.value.as_ref().map(|v| v.as_ref().as_ptr());
        assert_eq!(winner, got, "winner value should be refcount-shared");
        assert_eq!(out[0].0.as_ref().as_ptr(), runs[1][0].0.as_ref().as_ptr());
    }

    #[test]
    fn winners_name_their_source_and_index() {
        let runs = [
            vec![e("a", "a1", 3), e("c", "c1", 1)],
            vec![e("a", "a2", 1), e("b", "b2", 2)],
        ];
        let sources: Vec<_> = runs.iter().map(|r| pull_from(r)).collect();
        let got: Vec<_> = Merge::new(sources)
            .map(|w| (w.row.clone(), w.source, w.index))
            .collect();
        assert_eq!(
            got,
            vec![
                (e("a", "a1", 3), 0, 0),
                (e("b", "b2", 2), 1, 1),
                (e("c", "c1", 1), 0, 1)
            ]
        );
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
        let oracle_vec: Vec<_> = oracle.into_iter().collect();
        assert_eq!(merge(&sources, false), oracle_vec);
    }
}
