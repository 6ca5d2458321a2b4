//! Row storage: the one layout of every run's rows, built by flushes,
//! compactions and bulk loads alike. While every key has one width — as
//! YCSB's 24-byte keys all do — a row costs its key bytes plus a 16-byte
//! cell (40 bytes for a 24-byte key): row `i`'s key sits at `i` times the
//! width. From the first key of another width on, each row also keeps a
//! `u32` offset where its key ends (44 bytes for a 24-byte key). No row
//! makes an allocation of its own. Every segment also keeps the hash tables
//! point reads find its rows through (see `block_hash`), built with its
//! rows and shared by every run that holds it. A segment knows no runs:
//! each run lays its own blocks and filter over the segments it holds.

use std::ops::Deref;
use std::sync::Arc;

use crate::block_hash::{TableFill, Tables};
use crate::types::{entry_encoded_len, key_prefix, Cell, KeyPrefix};

/// Rows as arrays: every key's bytes back to back in one arena, a cell
/// per row, and — only once keys of two widths are present — a `u32`
/// offset per row where its key ends in the arena. What a [`Segment`] and
/// a [`LoadQueue`] dereference to.
#[derive(Debug, Clone, Default)]
pub struct RowArena {
    /// Every row's key bytes, back to back in row order.
    keys: Vec<u8>,
    /// The width of the first row's key: while `ends` is empty, the width
    /// of every key, and row `i`'s key is `keys[i * width..][..width]`.
    width: usize,
    /// Where each row's key ends in `keys`, built at the first key of
    /// another width and empty until then; a key starts where the key of
    /// the row before it ends.
    ends: Vec<u32>,
    cells: Vec<Cell>,
}

impl RowArena {
    /// Room for exactly `rows` rows whose keys total `key_bytes` bytes.
    /// The offsets, if keys of two widths come, are sized to `rows` then.
    pub(crate) fn with_capacity(rows: usize, key_bytes: usize) -> Self {
        Self {
            keys: Vec::with_capacity(key_bytes),
            cells: Vec::with_capacity(rows),
            ..Self::default()
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// When rows have keys of two widths and their key bytes pass
    /// `u32::MAX`, which the offsets cannot address.
    pub(crate) fn push(&mut self, key: &[u8], cell: Cell) {
        self.push_key(self.cells.len(), key);
        self.cells.push(cell);
    }

    /// Append the key of row `row`, the next one, whose cell follows in
    /// `cells`; panics as [`RowArena::push`] does.
    fn push_key(&mut self, row: usize, key: &[u8]) {
        if row == 0 {
            self.width = key.len();
        } else if self.ends.is_empty() && key.len() != self.width {
            // The first key of another width: every earlier row gets its
            // end, in a buffer as large as the cells'.
            let mut ends = Vec::with_capacity(self.cells.capacity());
            ends.extend((1..=row).map(|i| end_offset(i * self.width)));
            self.ends = ends;
        }
        self.keys.extend_from_slice(key);
        if !self.ends.is_empty() {
            self.ends.push(end_offset(self.keys.len()));
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Where the key of row `i` starts, in an arena with offsets: where
    /// row `i - 1`'s ends.
    #[inline]
    fn start(&self, i: usize) -> usize {
        self.ends
            .get(i.wrapping_sub(1))
            .map_or(0, |&end| end as usize)
    }

    /// The key of row `i`.
    #[inline]
    pub fn key(&self, i: usize) -> &[u8] {
        debug_assert!(i < self.len(), "row {i} of {}", self.len());
        if self.ends.is_empty() {
            let start = i * self.width;
            return &self.keys[start..start + self.width];
        }
        &self.keys[self.start(i)..self.ends[i] as usize]
    }

    /// The cell of row `i`.
    #[inline]
    pub fn cell(&self, i: usize) -> &Cell {
        &self.cells[i]
    }

    /// Every row's cell, in row order.
    pub(crate) fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The rows in order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &Cell)> + '_ {
        (0..self.len()).map(|i| (self.key(i), &self.cells[i]))
    }

    /// The bytes of the keys of rows `from..to` together: one subtraction,
    /// since they lie back to back in the arena.
    pub(crate) fn key_bytes(&self, from: usize, to: usize) -> u64 {
        if from == to {
            return 0;
        }
        if self.ends.is_empty() {
            return ((to - from) * self.width) as u64;
        }
        (self.ends[to - 1] as usize - self.start(from)) as u64
    }
}

/// `end` as a key's end offset in an arena.
fn end_offset(end: usize) -> u32 {
    let Ok(end) = u32::try_from(end) else {
        panic!("a segment's keys exceed {} bytes", u32::MAX);
    };
    end
}

/// One queued row in the sort of [`Segment::from_queue`]: its key's prefix
/// and its index in the queue. The prefix is kept as two halves: without a
/// `u128` to align, a record packs into 24 bytes, not 32.
#[derive(Debug, Clone, Copy)]
struct SortRecord {
    high: u64,
    low: u64,
    index: u32,
}

impl SortRecord {
    fn new(prefix: KeyPrefix, index: usize) -> Self {
        Self {
            high: (prefix >> 64) as u64,
            low: prefix as u64,
            index: index as u32,
        }
    }

    #[inline]
    fn prefix(&self) -> KeyPrefix {
        (self.high as KeyPrefix) << 64 | self.low as KeyPrefix
    }
}

/// A strictly sorted, immutable stretch of rows: the row storage of a run.
/// It dereferences to its [`RowArena`].
///
/// Cloning is O(1): the rows live behind an [`Arc`], so several runs can
/// hold one segment. A cstore base sorts each token range's loaded rows
/// into one segment once, and the run of every replica of that range holds
/// it, so the base stores each row once instead of once per replica, and
/// fills its hash tables once.
#[derive(Debug, Clone)]
pub struct Segment(Arc<SegmentCore>);

/// What the clones of a segment share: its rows and their hash tables.
#[derive(Debug)]
struct SegmentCore {
    rows: RowArena,
    tables: Tables,
}

impl Segment {
    /// A segment of `rows`, which are strictly sorted by key, with its hash
    /// tables filled from them: the one place a segment's tables are built,
    /// whether a flush, a compaction or a bulk load sorted its rows.
    ///
    /// # Panics
    /// In debug builds, panics if the rows are not strictly sorted, or
    /// unless the tables find every row by its own key.
    pub(crate) fn sorted(rows: RowArena) -> Self {
        let mut fill = TableFill::new(rows.len());
        for (key, _) in rows.iter() {
            fill.push(key);
        }
        let tables = fill.finish();
        debug_assert!(
            (1..rows.len()).all(|i| rows.key(i - 1) < rows.key(i)),
            "rows must be strictly sorted by key"
        );
        debug_assert!(
            rows.iter().enumerate().all(|(i, (key, _))| {
                let chunk = tables.chunk_of(&rows, key_prefix(key), key);
                chunk.and_then(|chunk| tables.probe(&rows, chunk, key)) == Some(i)
            }),
            "a segment's tables must find each of its rows by its key"
        );
        Self(Arc::new(SegmentCore { rows, tables }))
    }

    /// The segment's hash tables.
    #[inline]
    pub(crate) fn tables(&self) -> &Tables {
        &self.0.tables
    }

    /// A segment of the rows of `queue`, sorted by key. A key queued more
    /// than once keeps its newest version by [`Cell::newer`], as a memtable
    /// would.
    ///
    /// What is sorted is an array of `(prefix, index)` records taken in one
    /// pass in arrival order, never the rows; each winner's key then moves
    /// into an exactly sized arena, and then the cells move.
    pub fn from_queue(queue: LoadQueue) -> Self {
        let queued = queue.rows;
        let mut order = Vec::with_capacity(queued.len());
        for i in 0..queued.len() {
            order.push(SortRecord::new(key_prefix(queued.key(i)), i));
        }
        let key = |r: &SortRecord| queued.key(r.index as usize);
        order.sort_unstable_by(|a, b| {
            a.prefix()
                .cmp(&b.prefix())
                .then_with(|| cmp_tied(&queued, a, b))
        });
        // One record per key, holding its newest version.
        let mut dropped = 0;
        order.dedup_by(|later, kept| {
            let same = later.prefix() == kept.prefix() && key(later) == key(kept);
            if same {
                dropped += key(later).len();
                let (old, new) = (
                    &queued.cells[kept.index as usize],
                    &queued.cells[later.index as usize],
                );
                if !std::ptr::eq(Cell::newer(old, new), old) {
                    *kept = *later;
                }
            }
            same
        });
        let mut rows = RowArena::with_capacity(order.len(), queued.keys.len() - dropped);
        for (row, r) in order.iter().enumerate() {
            rows.push_key(row, key(r));
        }
        drop((queued.keys, queued.ends));
        let mut cells = queued.cells;
        let moved =
            |r: &SortRecord| std::mem::replace(&mut cells[r.index as usize], Cell::tombstone(0));
        rows.cells.extend(order.iter().map(moved));
        Self::sorted(rows)
    }

    /// True when `self` and `other` are one segment: clones of one build.
    pub fn shares_storage_with(&self, other: &Segment) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// The order of two queued rows whose key prefixes tie: their full keys.
/// Out of line, so that the sort's comparator stays small.
#[inline(never)]
fn cmp_tied(queued: &RowArena, a: &SortRecord, b: &SortRecord) -> std::cmp::Ordering {
    queued
        .key(a.index as usize)
        .cmp(queued.key(b.index as usize))
}

impl Deref for Segment {
    type Target = RowArena;

    fn deref(&self) -> &RowArena {
        &self.0.rows
    }
}

/// A bulk load's rows, queued in arrival order in the segment layout: each
/// key is copied into one arena, so a queued row holds no allocation of its
/// own. It dereferences to its [`RowArena`]; [`Segment::from_queue`] sorts
/// it into a segment.
#[derive(Debug, Clone, Default)]
pub struct LoadQueue {
    rows: RowArena,
    /// The encoded bytes of all queued rows.
    bytes: u64,
}

impl LoadQueue {
    /// Queue a row; returns its encoded length.
    pub fn push(&mut self, key: &[u8], cell: Cell) -> u64 {
        let len = entry_encoded_len(key, &cell);
        self.rows.push(key, cell);
        self.bytes += len;
        len
    }

    /// The encoded bytes of all queued rows, which bound the block layout of
    /// every run that holds them.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Deref for LoadQueue {
    type Target = RowArena;

    fn deref(&self) -> &RowArena {
        &self.rows
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    /// A segment of `rows`, given strictly sorted by key.
    pub(crate) fn from_sorted<K: AsRef<[u8]>>(
        rows: impl IntoIterator<Item = (K, Cell)>,
    ) -> Segment {
        let mut arena = RowArena::default();
        for (key, cell) in rows {
            arena.push(key.as_ref(), cell);
        }
        Segment::sorted(arena)
    }

    fn k(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn from_queue_sorts_and_keeps_the_newest_version() {
        let mut queue = LoadQueue::default();
        queue.push(b"b", Cell::live(k("old"), 1));
        queue.push(b"a", Cell::live(k("x"), 1));
        queue.push(b"b", Cell::live(k("new"), 2));
        assert_eq!(queue.bytes(), 3 * (1 + 9 + 8) + 3 + 1 + 3);
        let s = Segment::from_queue(queue);
        let rows: Vec<_> = s.iter().map(|(key, c)| (key.to_vec(), c.clone())).collect();
        assert_eq!(
            rows,
            [
                (b"a".to_vec(), Cell::live(k("x"), 1)),
                (b"b".to_vec(), Cell::live(k("new"), 2))
            ]
        );
        // The arena holds the winners' key bytes exactly.
        assert_eq!(s.0.rows.keys.capacity(), 2);
        assert_eq!(s.key_bytes(0, 2), 2);
    }

    #[test]
    fn keys_are_slices_of_one_arena() {
        let s = from_sorted(
            [("", 1), ("ab", 2), ("abc", 3)].map(|(key, ts)| (key, Cell::tombstone(ts))),
        );
        assert_eq!(
            (s.key(0), s.key(1), s.key(2)),
            (&b""[..], &b"ab"[..], &b"abc"[..])
        );
        assert_eq!(
            (s.key_bytes(0, 3), s.key_bytes(1, 2), s.key_bytes(2, 2)),
            (5, 2, 0)
        );
        assert!(from_sorted(Vec::<(&[u8], Cell)>::new()).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Rows whose keys share one width but for one row that sits
        /// first, in the middle, last or nowhere, against the vector of
        /// their keys: `len`, every `key`, and `key_bytes` over every
        /// range, in the arena that offsets only the mixed case.
        #[test]
        fn key_bytes_match_a_vec_model_with_one_odd_width_key(
            width in 0usize..30,
            rows in 1usize..40,
            at in 0usize..4,
            odd in 0usize..40,
        ) {
            let mut keys: Vec<Vec<u8>> = (0..rows).map(|i| vec![i as u8; width]).collect();
            let row = [None, Some(0), Some(rows / 2), Some(rows - 1)][at];
            if let Some(row) = row.filter(|_| odd != width) {
                keys[row] = vec![0xff; odd];
            }
            let mut arena = RowArena::default();
            for (i, key) in keys.iter().enumerate() {
                arena.push(key, Cell::tombstone(i as u64));
            }
            prop_assert_eq!(arena.ends.is_empty(), keys.iter().all(|k| k.len() == keys[0].len()));
            prop_assert_eq!(arena.len(), rows);
            for (i, key) in keys.iter().enumerate() {
                prop_assert_eq!(arena.key(i), key.as_slice());
            }
            for from in 0..=rows {
                for to in from..=rows {
                    let want: usize = keys[from..to].iter().map(Vec::len).sum();
                    prop_assert_eq!(arena.key_bytes(from, to), want as u64, "{}..{}", from, to);
                }
            }
        }
    }
}
