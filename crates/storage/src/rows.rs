//! Scan results as handles into the segments that hold their rows.
//!
//! A run's rows live in immutable [`Segment`]s behind an `Arc`, so a scan
//! need not copy the rows it returns: [`Rows`] holds *pieces*, each either
//! a `(segment, from, to)` range of one segment or one owned row (a
//! memtable row, which no segment holds). A scan takes each stretch the
//! merge emits as one piece, split only at tombstones, and a stretch that
//! continues the last piece in the same segment extends it, so a scan over
//! one run costs one `Arc` clone in all, not two refcount increments per
//! row, and dropping the result one decrement per piece. The first piece is
//! held inline and a vector only from the second on, so a page of one
//! stretch — most pages — allocates nothing. Segments never change, so a
//! result is a snapshot: later writes, flushes and compactions cannot
//! alter it.
//!
//! A coordinator reconciles the pages several replicas returned for one
//! range with a [`Reconciler`]: one merge cursor per page, a piece a
//! stretch, in a slot vector it keeps from one round to the next.

use crate::merge::{gallop, Cursor, Merge, Place, Slot, Spare, Stretch};
use crate::segment::Segment;
use crate::types::{entry_encoded_len, Cell, Key};

/// One stretch of a [`Rows`]: never empty.
#[derive(Clone)]
enum Piece {
    /// Entries `from..to` of a segment.
    Shared {
        segment: Segment,
        from: u32,
        to: u32,
    },
    /// One row of its own.
    Owned((Key, Cell)),
}

impl Stretch for Piece {
    fn place(&self) -> Place<'_> {
        match self {
            Piece::Shared { segment, from, to } => Place::Segment(segment, *from, *to),
            Piece::Owned(row) => Place::Row(row),
        }
    }
}

impl Piece {
    /// The encoded size of the piece's rows: for a range of a segment, its
    /// key bytes in one subtraction plus each cell's size.
    fn encoded_len(&self) -> u64 {
        match self {
            Piece::Shared { segment, from, to } => {
                let (from, to) = (*from as usize, *to as usize);
                let cells: u64 = (from..to).map(|i| segment.cell(i).encoded_len() + 8).sum();
                segment.key_bytes(from, to) + cells
            }
            Piece::Owned((key, cell)) => entry_encoded_len(key, cell),
        }
    }

    /// Keep the first `n` rows (`0 < n <= len`).
    fn shorten(&mut self, n: usize) {
        if let Piece::Shared { from, to, .. } = self {
            *to = *from + n as u32;
        }
    }
}

/// The pieces of a [`Rows`]: the first inline, a vector from the second on.
#[derive(Clone)]
enum Pieces {
    /// Exactly one piece.
    One(Piece),
    /// Any number of pieces; when empty, it may keep its buffer.
    Many(Vec<Piece>),
}

impl Default for Pieces {
    fn default() -> Self {
        Pieces::Many(Vec::new())
    }
}

/// The rows of a scan, in key order: ranges of shared immutable segments
/// and owned memtable rows. Equality and `Debug` are those of the rows.
///
/// A result handed to a client holds only live rows; a cstore replica's
/// page also carries the tombstones it walked, for the coordinator's
/// reconcile ([`Reconciler::reconcile`]). A tombstone is always a piece of
/// its own — a one-row range of its segment, or an owned memtable row — so
/// a page's tombstones are counted per piece, not per row. A `Rows` holds
/// its first piece inline and moves to a vector at its second, so it is a
/// piece and a tag wide: 32 bytes.
#[derive(Clone, Default)]
pub struct Rows {
    pieces: Pieces,
}

impl Rows {
    fn pieces(&self) -> &[Piece] {
        match &self.pieces {
            Pieces::One(piece) => std::slice::from_ref(piece),
            Pieces::Many(pieces) => pieces,
        }
    }

    fn pieces_mut(&mut self) -> &mut [Piece] {
        match &mut self.pieces {
            Pieces::One(piece) => std::slice::from_mut(piece),
            Pieces::Many(pieces) => pieces,
        }
    }

    /// Add a piece after the others: inline when it is the first and there
    /// is no buffer; into a vector with room for four (a vector's first
    /// growth) when it is the second.
    fn add(&mut self, piece: Piece) {
        self.pieces = match std::mem::take(&mut self.pieces) {
            Pieces::Many(pieces) if pieces.capacity() == 0 => Pieces::One(piece),
            Pieces::Many(mut pieces) => {
                pieces.push(piece);
                Pieces::Many(pieces)
            }
            Pieces::One(first) => {
                let mut pieces = Vec::with_capacity(4);
                pieces.extend([first, piece]);
                Pieces::Many(pieces)
            }
        };
    }

    /// Keep the first `n` pieces.
    fn keep(&mut self, n: usize) {
        match self.pieces {
            Pieces::One(_) if n == 0 => self.pieces = Pieces::default(),
            Pieces::One(_) => {}
            Pieces::Many(ref mut pieces) => pieces.truncate(n),
        }
    }

    /// Add the rows at `place`, which sort above every row held; without
    /// `tombstones`, only the live ones among them. A tombstone is a piece
    /// of its own. A segment's live rows between tombstones are one piece,
    /// which the last piece absorbs when it holds live rows that end right
    /// before them in the same segment.
    pub(crate) fn push(&mut self, place: Place<'_>, tombstones: bool) {
        let (segment, mut from, to) = match place {
            Place::Segment(segment, from, to) => (segment, from, to),
            Place::Row(row) => {
                if tombstones || !row.1.is_tombstone() {
                    self.add(Piece::Owned(row.clone()));
                }
                return;
            }
        };
        while from < to {
            let dead = |at: u32| segment.cell(at as usize).is_tombstone();
            if dead(from) {
                if tombstones {
                    self.add(Piece::Shared {
                        segment: segment.clone(),
                        from,
                        to: from + 1,
                    });
                }
                from += 1;
                continue;
            }
            let rest = &segment.cells()[from as usize + 1..to as usize];
            let end = rest
                .iter()
                .position(Cell::is_tombstone)
                .map_or(to, |n| from + 1 + n as u32);
            match self.pieces_mut().last_mut() {
                Some(Piece::Shared {
                    segment: held,
                    to: held_to,
                    ..
                }) if *held_to == from && held.shares_storage_with(segment) && !dead(from - 1) => {
                    *held_to = end
                }
                _ => self.add(Piece::Shared {
                    segment: segment.clone(),
                    from,
                    to: end,
                }),
            }
            from = end;
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.pieces().iter().map(|piece| piece.place().len()).sum()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.pieces().is_empty()
    }

    /// Number of tombstones: the one-row pieces that are one.
    fn tombstones(&self) -> usize {
        self.pieces()
            .iter()
            .map(Piece::place)
            .filter(|place| place.len() == 1 && place.cell(0).is_tombstone())
            .count()
    }

    /// The rows in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &Cell)> + '_ {
        (self.pieces().iter())
            .map(Piece::place)
            .flat_map(|p| (0..p.len()).map(move |i| (p.key(i), p.cell(i))))
    }

    /// The encoded size of all rows ([`entry_encoded_len`] summed): what
    /// they add to a message on the wire. A piece's keys lie back to back
    /// in its segment's arena, so their bytes cost one subtraction; only the
    /// cells are read row by row.
    pub fn encoded_len(&self) -> u64 {
        self.pieces().iter().map(Piece::encoded_len).sum()
    }

    /// Keep the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        let mut left = n;
        let mut keep = 0;
        let pieces = self.pieces_mut();
        while left > 0 {
            let Some(piece) = pieces.get_mut(keep) else {
                return;
            };
            let len = piece.place().len();
            if left < len {
                piece.shorten(left);
                left = 0;
            } else {
                left -= len;
            }
            keep += 1;
        }
        self.keep(keep);
    }

    /// Keep the rows that sort below `end`. When every row is below `end`
    /// only the last one is compared.
    pub fn clamp(&mut self, end: &[u8]) {
        while let Some(piece) = self.pieces_mut().last_mut() {
            let place = piece.place();
            let n = place.len();
            if place.key(n - 1) < end {
                return;
            }
            // The piece's rows below `end` are a prefix of it.
            let lo = gallop(0, n - 1, |i| place.key(i) < end);
            if lo > 0 {
                piece.shorten(lo);
                return;
            }
            let n = self.pieces().len();
            self.keep(n - 1);
        }
    }

    /// Add `other`'s rows, which sort above every row held, after them.
    pub fn append(&mut self, other: Rows) {
        if self.is_empty() {
            // The first rows (of most scans, the only ones) become the
            // result as they are, not a copy.
            *self = other;
            return;
        }
        let mut more = match other.pieces {
            Pieces::One(piece) => return self.add(piece),
            Pieces::Many(pieces) => pieces.into_iter(),
        };
        // The first moves a one-piece `self` into a vector; the rest follow
        // in one reservation.
        if let Some(piece) = more.next() {
            self.add(piece);
        }
        if let Pieces::Many(pieces) = &mut self.pieces {
            pieces.extend(more);
        }
    }
}

/// The merge slot vector of a coordinator's replica-page reconciles, kept
/// between them: a round over no more pages than one before allocates no
/// slots. A clone is empty.
#[derive(Clone, Debug, Default)]
pub struct Reconciler {
    slots: Spare<Slot<'static, Cursor<'static, Piece>>>,
}

impl Reconciler {
    /// Reconcile the pages several replicas returned for one range, each
    /// read with the same `limit`, the way Cassandra's range resolver with
    /// short-read protection does. Pages carry tombstones, so a delete one
    /// replica missed is still seen on another.
    ///
    /// A page that came back full — with `limit` live rows — may stop short
    /// of rows that follow in its replica, so the result keeps only the
    /// rows at or below the smallest last key among the full pages; below
    /// it, every replica's page is complete. Each key's newest version by
    /// [`Cell::newer`] wins, and tombstone winners are dropped. Pages that
    /// hold the same range of one shared segment (replicas of a cstore
    /// base) hold the same rows, so the merge moves through it for all of
    /// them at once, a stretch at a time, not one tie per row. `pages` is
    /// left empty, with its capacity, for the next round.
    ///
    /// Returns the live winners and, when they are fewer than `limit` and
    /// some page was full, the key to read the rest of the range from: just
    /// past that smallest last key. Without tombstones the full page with
    /// that key alone holds `limit` rows, so no read continues.
    pub fn reconcile(&mut self, pages: &mut Vec<Rows>, limit: usize) -> (Rows, Option<Key>) {
        if let [page] = pages.as_mut_slice() {
            if page.tombstones() == 0 {
                let page = std::mem::take(page);
                pages.clear();
                return (page, None);
            }
        }
        let cut = pages
            .iter()
            .filter(|page| page.len() - page.tombstones() == limit)
            .filter_map(|page| page.pieces().last())
            .map(Piece::place)
            .map(|place| place.key(place.len() - 1))
            .min();
        let mut out = Rows::default();
        let cursors = pages.iter().map(|page| Cursor::new(page.pieces()));
        let spare = std::mem::take(&mut self.slots.0);
        let mut merge = Merge::reusing(spare, cursors, usize::MAX);
        while let Some(won) = merge.next() {
            let n = cut.map_or(won.len(), |cut| won.count(|key| key <= cut));
            if n > 0 {
                out.push(won.first(n), false);
            }
            if n < won.len() {
                break;
            }
        }
        let resume = cut
            .filter(|_| out.len() < limit)
            .map(|key| Key::from([key, &[0]].concat()));
        self.slots.0 = merge.finish(drop);
        pages.clear();
        (out, resume)
    }
}

impl PartialEq for Rows {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Rows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::tests::from_sorted;
    use bytes::Bytes;

    #[test]
    fn a_piece_is_the_size_of_a_row_and_rows_fit_an_event() {
        use std::mem::size_of;
        assert_eq!(size_of::<Piece>(), size_of::<(Key, Cell)>());
        assert_eq!(size_of::<Piece>(), 24);
        // A piece inline and a tag; the op result that carries rows keeps
        // its own tag in that tag's spare values, so it is as wide.
        assert!(size_of::<Rows>() <= 32, "{}", size_of::<Rows>());
        assert_eq!(size_of::<crate::OpResult>(), 32);
    }

    fn row(k: &str, ts: u64, live: bool) -> (Key, Cell) {
        let cell = if live {
            Cell::live(Bytes::copy_from_slice(b"v"), ts)
        } else {
            Cell::tombstone(ts)
        };
        (Bytes::copy_from_slice(k.as_bytes()), cell)
    }

    /// Each piece as `(first key, rows, shared)`.
    fn shape(rows: &Rows) -> Vec<(String, usize, bool)> {
        (rows.pieces().iter())
            .map(|p| {
                let key = String::from_utf8(p.place().key(0).to_vec()).unwrap();
                (key, p.place().len(), matches!(p, Piece::Shared { .. }))
            })
            .collect()
    }

    #[test]
    fn contiguous_entries_of_one_segment_share_a_piece() {
        let segment = from_sorted(vec![
            row("a", 1, true),
            row("b", 1, true),
            row("c", 1, false),
            row("d", 1, true),
        ]);
        let other = from_sorted(vec![row("e", 1, true)]);
        let mem = row("da", 2, true);
        let mut rows = Rows::default();
        rows.push(Place::Segment(&segment, 0, 1), true);
        rows.push(Place::Segment(&segment, 1, 2), true);
        // Entry 2 skipped: the next entry starts a new piece.
        rows.push(Place::Segment(&segment, 3, 4), true);
        rows.push(Place::Row(&mem), true);
        rows.push(Place::Segment(&other, 0, 1), true);
        assert_eq!(rows.pieces().len(), 4);
        let keys: Vec<_> = rows.iter().map(|(k, _)| k.to_vec()).collect();
        assert_eq!(keys, [&b"a"[..], b"b", b"d", b"da", b"e"]);
        assert_eq!(rows.len(), 5);
        // A tombstone is a piece of its own, a range of its segment, and
        // the entry after it another, whether the rows come one by one or
        // as one stretch.
        let mut page = Rows::default();
        for at in 0..4 {
            page.push(Place::Segment(&segment, at, at + 1), true);
        }
        assert_eq!(page.pieces().len(), 3);
        assert!(matches!(
            page.pieces()[1],
            Piece::Shared { from: 2, to: 3, .. }
        ));
        assert_eq!((page.len(), page.tombstones()), (4, 1));
        assert_eq!(page.encoded_len(), 4 * (1 + 8) + 3 * 10 + 9);
        let mut whole = Rows::default();
        whole.push(Place::Segment(&segment, 0, 4), true);
        assert_eq!(shape(&whole), shape(&page));
        // Without tombstones the stretch is its live rows.
        let mut live = Rows::default();
        live.push(Place::Segment(&segment, 0, 4), false);
        assert_eq!(shape(&live), [("a".into(), 2, true), ("d".into(), 1, true)]);
    }

    #[test]
    fn pages_sharing_a_segment_reconcile_with_an_interleaving_page() {
        // Two replicas return the same range of one shared segment; a third
        // holds a newer "c", a key of its own and a newer tombstone of "f".
        let shared = from_sorted(["a", "b", "c", "d", "e", "f", "g", "h"].map(|k| row(k, 1, true)));
        let extra = [row("c", 2, true), row("e5", 2, true), row("f", 2, false)];
        let page = || {
            let mut rows = Rows::default();
            rows.push(Place::Segment(&shared, 0, 8), true);
            rows
        };
        let mut third = Rows::default();
        for row in &extra {
            third.push(Place::Row(row), true);
        }
        let mut reconciler = Reconciler::default();
        let mut pages = vec![page(), page(), third];
        let (got, resume) = reconciler.reconcile(&mut pages, 100);
        assert_eq!(resume, None);
        let want = [
            ("a".into(), 2, true),
            ("c".into(), 1, false),
            ("d".into(), 2, true),
            ("e5".into(), 1, false),
            ("g".into(), 2, true),
        ];
        assert_eq!(shape(&got), want);
        assert_eq!(got.iter().find(|(k, _)| *k == b"c").unwrap().1.ts, 2);
        // A page full at "d" cuts the result there, inside the shared stretch.
        let mut full = Rows::default();
        full.push(Place::Segment(&shared, 0, 4), true);
        let mut pages = vec![page(), page(), full];
        let (got, resume) = reconciler.reconcile(&mut pages, 4);
        assert_eq!(shape(&got), [("a".into(), 4, true)]);
        assert_eq!(resume, None);
    }

    /// The test segment's entries: `k000`…`k059`, every seventh a
    /// tombstone.
    fn entries() -> Vec<(Key, Cell)> {
        (0..60)
            .map(|i| row(&format!("k{i:03}"), 1, i % 7 != 3))
            .collect()
    }

    /// Push one `(owned, len, gap)` chunk per entry of `chunks` from entry
    /// `*at` on: an owned copy of the entry at `*at`, or entries
    /// `*at..*at + len` of `segment`; then skip `gap` entries. Returns the
    /// rows it added to the model.
    fn fill(
        rows: &mut Rows,
        segment: &Segment,
        chunks: &[(bool, u32, u32)],
        at: &mut u32,
        tombstones: bool,
    ) -> Vec<(Key, Cell)> {
        let mut added = Vec::new();
        for &(owned, len, gap) in chunks {
            let len = if owned { 1 } else { len.min(60 - *at) };
            if len == 0 {
                break;
            }
            let place_rows: Vec<_> = (*at..*at + len)
                .map(|i| {
                    let (k, c) = (segment.key(i as usize), segment.cell(i as usize));
                    (Bytes::copy_from_slice(k), c.clone())
                })
                .collect();
            if owned {
                rows.push(Place::Row(&place_rows[0]), tombstones);
            } else {
                rows.push(Place::Segment(segment, *at, *at + len), tombstones);
            }
            let kept = place_rows.into_iter();
            added.extend(kept.filter(|(_, c)| tombstones || !c.is_tombstone()));
            *at = (*at + len + gap).min(60);
        }
        added
    }

    /// The rows, their count, emptiness, tombstones and encoded size all
    /// agree with the model.
    fn check(rows: &Rows, model: &[(Key, Cell)], what: &str) {
        let flat: Vec<_> = (rows.iter())
            .map(|(k, c)| (Bytes::copy_from_slice(k), c.clone()))
            .collect();
        assert_eq!(flat, model, "{what}");
        assert_eq!(rows.len(), model.len(), "{what}");
        assert_eq!(rows.is_empty(), model.is_empty(), "{what}");
        let dead = model.iter().filter(|(_, c)| c.is_tombstone()).count();
        assert_eq!(rows.tombstones(), dead, "{what}");
        let bytes: u64 = model.iter().map(|(k, c)| entry_encoded_len(k, c)).sum();
        assert_eq!(rows.encoded_len(), bytes, "{what}");
    }

    fn arb_chunks() -> impl proptest::prelude::Strategy<Value = Vec<(bool, u32, u32)>> {
        use proptest::prelude::*;
        prop::collection::vec((any::<bool>(), 1u32..5, 0u32..3), 0..5)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Every change between no piece, the inline piece and a vector of
        /// pieces — a push after the inline piece, `truncate` to 0 or 1 row
        /// or more, `clamp` popping the inline piece, `append` of each form
        /// into each form, and a push after each — matches the same change
        /// to the vector of rows.
        #[test]
        fn rows_change_form_like_a_vec_model(
            (head, tail, more) in (arb_chunks(), arb_chunks(), arb_chunks()),
            (tombstones, cut, end) in (proptest::prelude::any::<bool>(), 0usize..12, 0u32..61),
        ) {
            let segment = from_sorted(entries());
            let end = Bytes::from(format!("k{end:03}").into_bytes());
            let mut at = 0;
            let mut rows = Rows::default();
            let mut model = fill(&mut rows, &segment, &head, &mut at, tombstones);
            check(&rows, &model, "head");
            let mut other = Rows::default();
            let added = fill(&mut other, &segment, &tail, &mut at, tombstones);
            check(&other, &added, "tail");
            rows.append(other);
            model.extend(added);
            check(&rows, &model, "append");
            rows.truncate(cut);
            model.truncate(cut);
            check(&rows, &model, "truncate");
            rows.clamp(&end);
            model.retain(|(k, _)| *k < end);
            check(&rows, &model, "clamp");
            // Entries from `at` on sort above every row still held.
            model.extend(fill(&mut rows, &segment, &more, &mut at, tombstones));
            check(&rows, &model, "push after");
        }
    }
}
