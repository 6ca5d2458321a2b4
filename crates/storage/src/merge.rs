//! K-way merge of sorted runs with last-write-wins reconciliation.
//!
//! Used by range scans (merge memtable + every SSTable), by compaction
//! (merge input tables into one output) and by the range-read coordinator
//! (reconcile replica pages, [`crate::Rows::reconcile`]). Sources must each
//! be sorted by key and unique per key; across sources, duplicate keys are
//! reconciled with [`Cell::newer`].
//!
//! The merge runs over *borrowed* rows: it yields each key as a `&[u8]`
//! and its cell as a `&Cell` straight out of its sources, so neither a
//! scan, a compaction nor a reconcile ever materialises owned copies of its
//! inputs. Each winner comes out with the source it won in and its index
//! there, so a scan can hand out a range of the immutable segment that
//! holds it ([`crate::Rows`]) instead of a copy of the row, and a
//! compaction copies each winner's key into its output's arena.
//!
//! The merge advances by **replace-top**: the smallest head is overwritten
//! in place with its own source's next entry and sifted down once, instead
//! of a pop (sift the last element down from the root) followed by a push
//! (sift the new one up from the bottom). With one live source that is zero
//! key comparisons per entry, with two it is one — and a range scan is
//! almost always a two-source merge (memtable + one compacted run).
//!
//! Heads are ordered by key, then by source index. A key compare is one
//! integer compare of the keys' first 16 bytes (a
//! [`crate::sstable::KeyPrefix`]) unless those tie, and a run's keys lie
//! back to back in its segment's arena ([`crate::Segment`]), so it reads
//! contiguous memory.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::sstable::{cmp_via_prefix, key_prefix};
use crate::types::{Cell, Key};

/// One row a merge source yields: its key, its cell and its index in the
/// source.
pub(crate) type Pulled<'a> = (&'a [u8], &'a Cell, u32);

/// A row pulled from one source: 32 bytes, the key slice, the cell pointer,
/// the `u32` source and the row's `u32` index in it. The heap holds each
/// source's smallest not-yet-emitted row as one; the merge emits each key's
/// winning version as one.
pub(crate) struct Head<'a> {
    pub(crate) key: &'a [u8],
    pub(crate) cell: &'a Cell,
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
        // Min-heap by key (reverse for BinaryHeap), one integer compare of
        // the padded prefixes unless they tie. The source index only breaks
        // ties for determinism; reconciliation handles the semantics.
        let (a, b) = (other.key, self.key);
        cmp_via_prefix(key_prefix(a), a, key_prefix(b), b)
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
    /// keys.
    pub(crate) fn new(mut sources: Vec<I>) -> Self {
        let mut heap = BinaryHeap::with_capacity(sources.len());
        for (source, it) in (0u32..).zip(sources.iter_mut()) {
            if let Some((key, cell, index)) = it.next() {
                heap.push(Head {
                    key,
                    cell,
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
            Some((key, cell, index)) => std::mem::replace(
                &mut *top,
                Head {
                    key,
                    cell,
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
        let (key, prefix) = (won.key, key_prefix(won.key));
        while self
            .heap
            .peek()
            .is_some_and(|top| key_prefix(top.key) == prefix && top.key == key)
        {
            let Some(dup) = self.take_top() else {
                break;
            };
            if !std::ptr::eq(Cell::newer(won.cell, dup.cell), won.cell) {
                won = dup;
            }
        }
        Some(won)
    }
}

/// `rows` as a merge source: each row with its index.
pub(crate) fn pull_from(rows: &[(Key, Cell)]) -> impl Iterator<Item = Pulled<'_>> {
    (0u32..)
        .zip(rows)
        .map(|(index, (key, cell))| (key.as_ref(), cell, index))
}

/// Streaming merge of borrowed sorted runs into one reconciled, sorted
/// vector. Clones (refcount-bumps) only the surviving winner of each key;
/// the input runs are left untouched. `drop_tombstones` removes deletion
/// markers from the output (valid only for a full/major merge where no older
/// data survives).
pub fn merge_runs(runs: &[&[(Key, Cell)]], drop_tombstones: bool) -> Vec<(Key, Cell)> {
    let total = runs.iter().map(|r| r.len()).sum();
    let sources = runs.iter().map(|r| pull_from(r)).collect();
    let mut out = Vec::with_capacity(total);
    for won in Merge::new(sources) {
        if !(drop_tombstones && won.cell.is_tombstone()) {
            out.push(runs[won.source as usize][won.index as usize].clone());
        }
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
            .map(|w| {
                (
                    (Key::copy_from_slice(w.key), w.cell.clone()),
                    w.source,
                    w.index,
                )
            })
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
