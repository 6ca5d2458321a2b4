//! K-way merge of sorted runs with last-write-wins reconciliation.
//!
//! Used by range scans (merge memtable + every SSTable), by compaction
//! (merge input tables into one output) and by the range-read coordinator
//! (reconcile replica pages, [`crate::Reconciler`]). Sources must each
//! be sorted by key and unique per key; across sources, duplicate keys are
//! reconciled with [`Cell::newer`].
//!
//! The merge runs over *borrowed* rows: it emits where its winners live, a
//! range of an immutable segment ([`crate::Segment`]) or one row no segment
//! holds, so a scan hands out ranges of the segments that hold its rows
//! ([`crate::Rows`]) instead of copies, and a compaction copies each
//! winner's key into its output's arena.
//!
//! The merge advances by **stretches**. It keeps one head per source — the
//! smallest entry pulled from it but not yet emitted — in a small vector
//! sorted by key, then source, so the runner-up is always the second head.
//! When the smallest key's only version sits in a segment, its source hands
//! over, in one step, every entry of that segment from the head on that
//! sorts strictly below the runner-up, cut at the last live row of the
//! merge's live-row budget (a scan's `limit`): a compare of the runner-up
//! with the next entry, one with the last key of a window as long as the
//! budget, and a galloping search only when it falls inside. Replica pages
//! that hold the same entry of one shared segment hold the same rows, so
//! such heads advance together the same way. A key with distinct versions,
//! or held by no segment (a memtable row), is emitted alone, its versions
//! folded with [`Cell::newer`]. A scan page of consecutive rows of one
//! compacted run is then one step, not one heap sift per row.
//!
//! A merge's one buffer is its slot vector. `Merge::reusing` fills an
//! emptied one its caller keeps and `Merge::finish` hands it back, so an
//! `LsmTree`'s scans and a coordinator's reconciles allocate no slots once
//! warm.
//!
//! A key compare is one integer compare of the keys' first 16 bytes (a
//! [`crate::types::KeyPrefix`]) unless those tie, and a segment's keys lie
//! back to back in its arena, so a search reads contiguous memory.

use std::cmp::Ordering;

use crate::segment::Segment;
use crate::types::{cmp_via_prefix, key_prefix, Cell, Key};

/// Where rows a merge handles live.
#[derive(Clone, Copy)]
pub(crate) enum Place<'a> {
    /// Entries `from..to` of a segment (`from < to`).
    Segment(&'a Segment, u32, u32),
    /// One row no segment holds: a memtable row or an owned row.
    Row(&'a (Key, Cell)),
}

impl<'a> Place<'a> {
    /// Number of rows.
    pub(crate) fn len(self) -> usize {
        match self {
            Place::Segment(_, from, to) => (to - from) as usize,
            Place::Row(_) => 1,
        }
    }

    /// The key of row `i`.
    pub(crate) fn key(self, i: usize) -> &'a [u8] {
        match self {
            Place::Segment(segment, from, _) => segment.key(from as usize + i),
            Place::Row((key, _)) => key,
        }
    }

    /// The cell of row `i`.
    pub(crate) fn cell(self, i: usize) -> &'a Cell {
        match self {
            Place::Segment(segment, from, _) => segment.cell(from as usize + i),
            Place::Row((_, cell)) => cell,
        }
    }

    /// How many rows, from the first, have a key for which `below` holds;
    /// it must hold for a prefix of them.
    pub(crate) fn count(self, below: impl Fn(&[u8]) -> bool) -> usize {
        gallop(0, self.len(), |i| below(self.key(i)))
    }

    /// The first `n` rows (`0 < n <= len`).
    pub(crate) fn first(self, n: usize) -> Self {
        match self {
            Place::Segment(segment, from, _) => Place::Segment(segment, from, from + n as u32),
            row => row,
        }
    }
}

/// A source's smallest not-yet-emitted row: its key and cell, and where it
/// lives. For a segment entry `at` that is `Place::Segment(segment, at,
/// end)`, where `at..end` are the entries the source yields next, in order:
/// the most one stretch from it can take.
#[derive(Clone, Copy)]
pub(crate) struct Head<'a> {
    key: &'a [u8],
    cell: &'a Cell,
    place: Place<'a>,
}

impl<'a> Head<'a> {
    /// The head of row `at` of `segment`, whose source yields its entries
    /// up to `end` next.
    pub(crate) fn entry(segment: &'a Segment, at: usize, end: usize) -> Self {
        Self {
            key: segment.key(at),
            cell: segment.cell(at),
            place: Place::Segment(segment, at as u32, end as u32),
        }
    }

    /// The head of a row no segment holds.
    pub(crate) fn row(row: &'a (Key, Cell)) -> Self {
        Self {
            key: &row.0,
            cell: &row.1,
            place: Place::Row(row),
        }
    }
}

/// One input of a [`Merge`]: rows in strictly increasing key order.
pub(crate) trait Source<'a> {
    /// Pull the next row.
    fn pull(&mut self) -> Option<Head<'a>>;

    /// Pull the `n` entries after the row last pulled without reading them:
    /// its head's place covers them.
    fn skip(&mut self, n: usize);
}

/// A slice of rows (of [`merge_runs`]) as a merge source.
impl<'a> Source<'a> for std::slice::Iter<'a, (Key, Cell)> {
    fn pull(&mut self) -> Option<Head<'a>> {
        self.next().map(Head::row)
    }

    fn skip(&mut self, n: usize) {
        debug_assert_eq!(n, 0, "a row of a slice is a stretch of one");
    }
}

/// One source and its head, `None` once it is exhausted.
pub(crate) struct Slot<'a, S> {
    source: S,
    /// The source's position among the sources given: breaks key ties.
    index: u32,
    head: Option<Head<'a>>,
}

/// The merge order: by head key, then source; exhausted sources last.
fn order<S>(a: &Slot<'_, S>, b: &Slot<'_, S>) -> Ordering {
    match (&a.head, &b.head) {
        (Some(x), Some(y)) => cmp_via_prefix(key_prefix(x.key), x.key, key_prefix(y.key), y.key),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => Ordering::Equal,
    }
    .then(a.index.cmp(&b.index))
}

/// Merges sorted sources, reconciling duplicate keys by last-write-wins and
/// emitting each key exactly once, in order, as the [`Place`] of its
/// winning version.
pub(crate) struct Merge<'a, S> {
    /// Every source with its head, in [`order`]: a merge's one buffer,
    /// which [`Merge::reusing`] takes over and [`Merge::finish`] hands back.
    slots: Vec<Slot<'a, S>>,
    /// Live rows still to emit.
    live: usize,
}

/// An emptied vector kept between merges for the next one to fill: the
/// slots of one kind of source, named with `'static` borrows. A clone is
/// empty, so copying its holder copies no buffer.
pub(crate) struct Spare<T>(pub(crate) Vec<T>);

impl<T> Default for Spare<T> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<T> Clone for Spare<T> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<T> std::fmt::Debug for Spare<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Spare({} slots)", self.0.capacity())
    }
}

/// An emptied vector as one of another element type. When the two types
/// share a layout — as one type under two lifetimes does — the standard
/// library collects the mapped `IntoIter` in place, so the buffer carries
/// over and nothing is allocated.
fn retype<T, U>(empty: Vec<T>) -> Vec<U> {
    debug_assert!(empty.is_empty());
    empty.into_iter().map(|_| unreachable!("empty")).collect()
}

impl<'a, S: Source<'a>> Merge<'a, S> {
    /// A merge over `sources`, each yielding strictly increasing keys,
    /// that stops after emitting `live` live rows (`usize::MAX`: no limit).
    pub(crate) fn new(sources: impl IntoIterator<Item = S>, live: usize) -> Self {
        Self::reusing(Vec::<Slot<'a, S>>::new(), sources, live)
    }

    /// [`Merge::new`] with its slots in `spare`, an emptied vector of slots
    /// of the same sources under other borrows (see [`retype`]): a merge
    /// over no more sources than it holds room for allocates nothing.
    pub(crate) fn reusing<T>(
        spare: Vec<T>,
        sources: impl IntoIterator<Item = S>,
        live: usize,
    ) -> Self {
        let mut slots = retype(spare);
        slots.extend((0..).zip(sources).map(|(index, mut source)| Slot {
            head: source.pull(),
            source,
            index,
        }));
        slots.sort_unstable_by(order);
        Self { slots, live }
    }

    /// End the merge: hand `each` the sources in the order given, each
    /// positioned one past the last entry the merge pulled from it — a
    /// source that is not exhausted has had exactly one entry pulled beyond
    /// those emitted, its head, whose key is greater than every emitted key
    /// — and return the emptied slot vector for [`Merge::reusing`].
    pub(crate) fn finish<T>(mut self, each: impl FnMut(S)) -> Vec<T> {
        self.slots.sort_unstable_by_key(|slot| slot.index);
        self.slots.drain(..).map(|slot| slot.source).for_each(each);
        retype(self.slots)
    }

    /// Emit the next rows: the smallest key's winning version, or a stretch
    /// of one segment that starts with it. `None` when every source is
    /// exhausted or the live-row budget is spent.
    pub(crate) fn next(&mut self) -> Option<Place<'a>> {
        if self.live == 0 {
            return None;
        }
        let first = self.slots.first()?.head?;
        let prefix = key_prefix(first.key);
        let ties = 1
            + (self.slots[1..].iter())
                .take_while(|slot| {
                    slot.head
                        .is_some_and(|h| key_prefix(h.key) == prefix && h.key == first.key)
                })
                .count();
        let won = match self.shared(ties) {
            Some((segment, at, end)) => self.stretch(segment, at, end, ties),
            None => {
                let mut won = first;
                for slot in &self.slots[1..ties] {
                    let Some(dup) = slot.head else { break };
                    if !std::ptr::eq(Cell::newer(won.cell, dup.cell), won.cell) {
                        won = dup;
                    }
                }
                self.live -= usize::from(!won.cell.is_tombstone());
                won.place.first(1)
            }
        };
        let n = won.len();
        for slot in &mut self.slots[..ties] {
            slot.source.skip(n - 1);
            slot.head = slot.source.pull();
        }
        for i in (0..ties).rev() {
            let to = i
                + (self.slots[i + 1..].iter())
                    .take_while(|next| order(&self.slots[i], next) == Ordering::Greater)
                    .count();
            self.slots[i..=to].rotate_left(1);
        }
        debug_assert!(
            (self.slots.iter()).all(|slot| slot.head.is_none_or(|h| h.key > won.key(n - 1))),
            "every pending head sorts above the rows emitted"
        );
        debug_assert!(self
            .slots
            .is_sorted_by(|a, b| order(a, b) != Ordering::Greater));
        Some(won)
    }

    /// When the `ties` smallest heads all lie in one segment — and so, as
    /// they share a key, are one entry of it — that segment, the entry, and
    /// the end of the entries every one of their sources yields next.
    fn shared(&self, ties: usize) -> Option<(&'a Segment, u32, u32)> {
        let Place::Segment(segment, at, mut end) = self.slots[0].head?.place else {
            return None;
        };
        for slot in &self.slots[1..ties] {
            match slot.head?.place {
                Place::Segment(other, _, other_end) if other.shares_storage_with(segment) => {
                    end = end.min(other_end)
                }
                _ => return None,
            }
        }
        Some((segment, at, end))
    }

    /// The stretch of `segment` from entry `at` (below `end`) that sorts
    /// strictly below the runner-up — the smallest head after the `ties`
    /// that hold `at` — cut at the live-row budget's last live row.
    ///
    /// Each round first compares the entry after the stretch so far with
    /// the runner-up, which alone ends the stretch where sources interleave
    /// finely. Otherwise the stretch covers the window of entries from there
    /// that holds at most the budget's live rows, unless the runner-up sorts
    /// within it, which one compare with the window's last key tells and a
    /// galloping search then places. A scan so reads no key past its page to
    /// find the runner-up; only tombstones, which spend none of the budget,
    /// open another round.
    fn stretch(&mut self, segment: &'a Segment, at: u32, end: u32, ties: usize) -> Place<'a> {
        let runner = self.slots.get(ties).and_then(|slot| slot.head);
        let bound = runner.map_or(&[][..], |r| r.key);
        let prefix = key_prefix(bound);
        let below = |i: usize| {
            let key = segment.key(i);
            runner.is_none() || cmp_via_prefix(key_prefix(key), key, prefix, bound).is_lt()
        };
        let (at, end) = (at as usize, end as usize);
        self.live -= usize::from(!segment.cell(at).is_tombstone());
        let mut to = at + 1;
        while to < end && self.live > 0 && below(to) {
            let mut hi = end.min(to.saturating_add(self.live));
            let reached = !below(hi - 1);
            if reached {
                hi = gallop(to + 1, hi - 1, below);
            }
            for cell in &segment.cells()[to..hi] {
                self.live -= usize::from(!cell.is_tombstone());
            }
            to = hi;
            if reached {
                break;
            }
        }
        debug_assert!(
            runner.is_none_or(|r| segment.key(to - 1) < r.key),
            "below the runner-up"
        );
        debug_assert!(to <= segment.len(), "within one segment");
        Place::Segment(segment, at as u32, to as u32)
    }
}

/// The first index in `lo..hi` for which `below` fails, or `hi`; it holds
/// for every index before `lo`. Probes at doubling distances from `lo`,
/// then bisects the last gap, so a stretch of `n` entries costs about
/// `2 log n` probes however long the range.
pub(crate) fn gallop(mut lo: usize, mut hi: usize, below: impl Fn(usize) -> bool) -> usize {
    let mut step = 1;
    while lo < hi {
        let probe = lo + step - 1;
        if probe >= hi {
            break;
        }
        if !below(probe) {
            hi = probe;
            break;
        }
        lo = probe + 1;
        step *= 2;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Streaming merge of borrowed sorted runs into one reconciled, sorted
/// vector. Clones (refcount-bumps) only the surviving winner of each key;
/// the input runs are left untouched. `drop_tombstones` removes deletion
/// markers from the output (valid only for a full/major merge where no older
/// data survives).
pub fn merge_runs(runs: &[&[(Key, Cell)]], drop_tombstones: bool) -> Vec<(Key, Cell)> {
    let total = runs.iter().map(|r| r.len()).sum();
    let mut merge = Merge::new(runs.iter().map(|r| r.iter()), usize::MAX);
    let mut out = Vec::with_capacity(total);
    while let Some(won) = merge.next() {
        let Place::Row(row) = won else {
            unreachable!("a slice holds no segment");
        };
        if !(drop_tombstones && row.1.is_tombstone()) {
            out.push(row.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::tests::from_sorted;
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

    /// A merge source over whole segments, one after another.
    struct Segments<'a> {
        segments: &'a [Segment],
        segment: usize,
        at: usize,
    }

    impl<'a> Segments<'a> {
        fn new(segments: &'a [Segment]) -> Self {
            Self {
                segments,
                segment: 0,
                at: 0,
            }
        }
    }

    impl<'a> Source<'a> for Segments<'a> {
        fn pull(&mut self) -> Option<Head<'a>> {
            let mut rows = self.segments.get(self.segment)?;
            if self.at == rows.len() {
                rows = self.segments.get(self.segment + 1)?;
                (self.segment, self.at) = (self.segment + 1, 0);
            }
            self.at += 1;
            Some(Head::entry(rows, self.at - 1, rows.len()))
        }

        fn skip(&mut self, n: usize) {
            self.at += n;
        }
    }

    /// Every step of a merge: a segment range as its segment's position in
    /// `all`, from and to; a row as `(usize::MAX, 0, 0)`.
    fn steps<'a, S: Source<'a>>(
        mut merge: Merge<'a, S>,
        all: &[&Segment],
    ) -> Vec<(usize, u32, u32)> {
        std::iter::from_fn(|| merge.next())
            .map(|won| match won {
                Place::Segment(segment, from, to) => {
                    let n = all.iter().position(|s| s.shares_storage_with(segment));
                    (n.expect("a segment given"), from, to)
                }
                Place::Row(_) => (usize::MAX, 0, 0),
            })
            .collect()
    }

    fn seg(keys: &[&str], ts: u64) -> Segment {
        from_sorted(keys.iter().map(|key| (*key, Cell::live(k("v"), ts))))
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
    fn a_head_is_40_bytes() {
        // A merge allocates one slot per source, its head included; a wider
        // head costs bytes on every scan.
        assert_eq!(std::mem::size_of::<Head<'_>>(), 40);
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
    fn a_stretch_runs_to_the_runner_up_and_a_tie_goes_alone() {
        let (a, b) = (seg(&["a", "b", "c", "e", "f"], 1), seg(&["d", "e", "g"], 2));
        let merge = Merge::new(
            [&a, &b].map(|s| Segments::new(std::slice::from_ref(s))),
            usize::MAX,
        );
        // a..c below d; d below e; e ties (b's is newer); f below g; g.
        assert_eq!(
            steps(merge, &[&a, &b]),
            [(0, 0, 3), (1, 0, 1), (1, 1, 2), (0, 4, 5), (1, 2, 3)]
        );
    }

    #[test]
    fn three_sources_tie_at_a_stretch_boundary() {
        // Each stretch ends below the next source's head; the three
        // versions of "m" fold to the newest, source 1's, as one row; then
        // "n" alone, "p" and "q" as one stretch, and "x".
        let s = [
            seg(&["a", "b", "m", "x"], 1),
            seg(&["c", "m", "n"], 3),
            seg(&["d", "e", "m", "p", "q"], 2),
        ];
        let merge = Merge::new(
            s.iter().map(|s| Segments::new(std::slice::from_ref(s))),
            usize::MAX,
        );
        assert_eq!(
            steps(merge, &[&s[0], &s[1], &s[2]]),
            [
                (0, 0, 2),
                (1, 0, 1),
                (2, 0, 2),
                (1, 1, 2),
                (1, 2, 3),
                (2, 3, 5),
                (0, 3, 4),
            ]
        );
    }

    #[test]
    fn a_stretch_ends_at_its_segment_end() {
        // The source's first segment ends below the runner-up: the stretch
        // stops there and the next one starts the next segment.
        let parts = [seg(&["a", "b"], 1), seg(&["c", "d"], 1)];
        let other = seg(&["z"], 1);
        let merge = Merge::new(
            [
                Segments::new(&parts),
                Segments::new(std::slice::from_ref(&other)),
            ],
            usize::MAX,
        );
        assert_eq!(
            steps(merge, &[&parts[0], &parts[1], &other]),
            [(0, 0, 2), (1, 0, 2), (2, 0, 1)]
        );
    }

    #[test]
    fn the_live_budget_cuts_a_stretch_at_its_last_live_row() {
        let rows = from_sorted([
            ("a", Cell::live(k("v"), 1)),
            ("b", Cell::tombstone(1)),
            ("c", Cell::live(k("v"), 1)),
            ("d", Cell::tombstone(1)),
            ("e", Cell::live(k("v"), 1)),
        ]);
        let merge = Merge::new([Segments::new(std::slice::from_ref(&rows))], 2);
        assert_eq!(steps(merge, &[&rows]), [(0, 0, 3)]);
    }

    #[test]
    fn identical_heads_advance_together() {
        // Two sources over one segment, a third holding "c" newer: the pair
        // moves as one stretch up to "c", which goes alone, then together.
        let shared = seg(&["a", "b", "c", "d", "e"], 1);
        let other = seg(&["c"], 2);
        let parts = [shared.clone(), shared.clone(), other.clone()];
        let merge = Merge::new(
            parts.iter().map(|s| Segments::new(std::slice::from_ref(s))),
            usize::MAX,
        );
        assert_eq!(
            steps(merge, &[&shared, &other]),
            [(0, 0, 2), (1, 0, 1), (0, 3, 5)]
        );
    }

    #[test]
    fn galloping_finds_the_first_entry_not_below() {
        let keys: Vec<String> = (0..100).map(|i| format!("k{i:03}")).collect();
        let rows = seg(&keys.iter().map(String::as_str).collect::<Vec<_>>(), 1);
        for lo in [0, 1, 17, 99] {
            for bound in ["a", "k000", "k0005", "k050", "k099", "k0995", "z"] {
                let want = lo.max(keys.partition_point(|key| key.as_str() < bound));
                let below = |i: usize| rows.key(i) < bound.as_bytes();
                assert_eq!(gallop(lo, 100, below), want, "{lo} {bound}");
            }
        }
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
