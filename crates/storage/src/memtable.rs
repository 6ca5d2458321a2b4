//! The in-memory sorted write buffer.
//!
//! HBase calls this the memstore, Cassandra the memtable. Writes are
//! absorbed here (after the log append) and served back at memory speed; when
//! the buffer exceeds its flush threshold it is frozen into an immutable
//! SSTable.
//! It also keeps its rows as of the last commit-log sync, for a crash to
//! roll back to.

use std::collections::btree_map::{self, BTreeMap, Entry};

use crate::segment::{RowArena, Segment};
use crate::types::{entry_encoded_len, key_prefix, Cell, Key, KeyPrefix};

/// How many commit-log syncs the memtable has seen since it was last
/// emptied.
type Epoch = u32;

/// The rows of the memtable whose keys share one [`KeyPrefix`], and the
/// epoch of their last change (it sits in the tag's padding, so a slot is
/// no larger for it).
#[derive(Debug, Clone)]
enum Slot {
    /// The prefix's only row — every slot, unless keys longer than 16 bytes
    /// agree on their first 16.
    One((Key, Cell), Epoch),
    /// Two or more rows, strictly sorted by full key.
    Many(Vec<(Key, Cell)>, Epoch),
}

impl Slot {
    fn rows(&self) -> &[(Key, Cell)] {
        match self {
            Slot::One(row, _) => std::slice::from_ref(row),
            Slot::Many(rows, _) => rows,
        }
    }

    fn rows_mut(&mut self) -> &mut [(Key, Cell)] {
        match self {
            Slot::One(row, _) => std::slice::from_mut(row),
            Slot::Many(rows, _) => rows,
        }
    }

    fn epoch_mut(&mut self) -> &mut Epoch {
        match self {
            Slot::One(_, epoch) | Slot::Many(_, epoch) => epoch,
        }
    }

    /// Add a row for a key the slot does not hold yet at `at`, its place in
    /// key order.
    fn add(&mut self, at: usize, key: Key, cell: Cell) {
        let (mut rows, epoch) = match std::mem::replace(self, Slot::Many(Vec::new(), 0)) {
            Slot::One(row, epoch) => (vec![row], epoch),
            Slot::Many(rows, epoch) => (rows, epoch),
        };
        rows.insert(at, (key, cell));
        *self = Slot::Many(rows, epoch);
    }
}

/// A sorted, size-tracked in-memory table of the newest cell per key.
///
/// Rows are ordered by key prefix first: the B-tree is keyed by the
/// big-endian [`KeyPrefix`] of the first 16 key bytes, so a lookup descends
/// it with integer compares and reads a full key only to confirm the hit,
/// and the few keys that share a prefix sit in one slot sorted by full key.
/// Prefix order, then full-key order within a prefix, is exactly key order
/// (see [`crate::types::cmp_via_prefix`]).
#[derive(Debug, Clone, Default)]
pub struct Memtable {
    slots: BTreeMap<KeyPrefix, Slot>,
    /// Rows across all slots.
    len: usize,
    /// Key bytes across all slots: what a flush's arena holds.
    key_bytes: usize,
    bytes: u64,
    /// The current sync epoch: slots stamped with it changed since the
    /// last sync.
    epoch: Epoch,
    /// The slots changed since the last sync, as they stood at it.
    synced: Vec<(KeyPrefix, Slot)>,
}

impl Memtable {
    /// An empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a cell, reconciling with any existing version of the key by
    /// last-write-wins. Returns the change in approximate byte footprint.
    pub fn insert(&mut self, key: Key, cell: Cell) -> i64 {
        let prefix = key_prefix(&key);
        let delta = match self.slots.entry(prefix) {
            Entry::Vacant(v) => {
                let len = entry_encoded_len(&key, &cell) as i64;
                self.key_bytes += key.len();
                v.insert(Slot::One((key, cell), self.epoch));
                self.len += 1;
                len
            }
            Entry::Occupied(o) => {
                let slot = o.into_mut();
                let found = slot.rows().binary_search_by(|(k, _)| k[..].cmp(&key[..]));
                // Reconcile by reference: the held cell stays unless the
                // new one wins, and then the new one moves in.
                if let Ok(at) = found {
                    let held = &slot.rows()[at].1;
                    if std::ptr::eq(Cell::newer(held, &cell), held) {
                        return 0;
                    }
                }
                if *slot.epoch_mut() != self.epoch {
                    // The slot's first change since the sync: a crash puts
                    // it back as it was. Cloning a row bumps refcounts.
                    self.synced.push((prefix, slot.clone()));
                    *slot.epoch_mut() = self.epoch;
                }
                match found {
                    Ok(at) => {
                        let held = &mut slot.rows_mut()[at].1;
                        let delta = cell.encoded_len() as i64 - held.encoded_len() as i64;
                        *held = cell;
                        delta
                    }
                    Err(at) => {
                        let len = entry_encoded_len(&key, &cell) as i64;
                        self.key_bytes += key.len();
                        slot.add(at, key, cell);
                        self.len += 1;
                        len
                    }
                }
            }
        };
        self.bytes = self.bytes.wrapping_add_signed(delta);
        delta
    }

    /// Look up the newest cell for `key`, if buffered here.
    pub fn get(&self, key: &[u8]) -> Option<&Cell> {
        self.row(key).map(|(_, cell)| cell)
    }

    /// The row of `key`, if buffered here.
    pub(crate) fn row(&self, key: &[u8]) -> Option<&(Key, Cell)> {
        let rows = self.slots.get(&key_prefix(key))?.rows();
        let at = rows.binary_search_by(|(k, _)| k.as_ref().cmp(key)).ok()?;
        Some(&rows[at])
    }

    /// Iterate entries with key >= `start`, in key order. The concrete
    /// `Range` type lets the LSM scan path store this iterator alongside
    /// SSTable iterators in one merge source without boxing.
    pub fn range_from<'a>(&'a self, start: &[u8]) -> Range<'a> {
        let mut slots = self.slots.range(key_prefix(start)..);
        // Only the first slot can share `start`'s prefix, so only its rows
        // can sort below `start`.
        let rows = slots.next().map_or(&[][..], |(_, slot)| {
            let rows = slot.rows();
            &rows[rows.partition_point(|(k, _)| k.as_ref() < start)..]
        });
        Range {
            slots,
            rows: rows.iter(),
        }
    }

    /// Number of distinct keys buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate byte footprint (drives flush decisions).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Freeze and drain the table into a segment of its rows, each key
    /// copied into an exactly sized arena. The memtable is empty afterwards.
    pub fn drain(&mut self) -> Segment {
        let mut rows = RowArena::with_capacity(self.len, self.key_bytes);
        for slot in std::mem::take(&mut self.slots).into_values() {
            match slot {
                Slot::One((key, cell), _) => rows.push(&key, cell),
                Slot::Many(many, _) => many.into_iter().for_each(|(k, c)| rows.push(&k, c)),
            }
        }
        *self = Self::default();
        Segment::sorted(rows)
    }

    /// A commit-log sync: every row held now is durable. Forgets the slots
    /// saved since the last sync and allocates nothing.
    pub(crate) fn sync(&mut self) {
        self.synced.clear();
        if self.epoch == Epoch::MAX {
            // After 2^32 syncs without a flush, the stamps start over.
            self.slots
                .values_mut()
                .for_each(|slot| *slot.epoch_mut() = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// A crash: the table rolls back to its last sync, or to empty if it
    /// was drained since. Drops the slots changed since, puts their synced
    /// versions back and recounts the rows left.
    pub(crate) fn roll_back(&mut self) {
        let epoch = self.epoch;
        self.slots.retain(|_, slot| *slot.epoch_mut() != epoch);
        self.slots.extend(self.synced.drain(..));
        debug_assert!(
            self.slots
                .values_mut()
                .all(|slot| *slot.epoch_mut() != epoch),
            "a slot changed since the last sync survived a crash"
        );
        (self.len, self.key_bytes, self.bytes) = (0, 0, 0);
        for (key, cell) in self.slots.values().flat_map(Slot::rows) {
            self.len += 1;
            self.key_bytes += key.len();
            self.bytes += entry_encoded_len(key, cell);
        }
    }
}

/// The memtable's rows from some start key on, in key order
/// ([`Memtable::range_from`]).
pub struct Range<'a> {
    slots: btree_map::Range<'a, KeyPrefix, Slot>,
    /// What is left of the slot being walked.
    rows: std::slice::Iter<'a, (Key, Cell)>,
}

impl<'a> Iterator for Range<'a> {
    type Item = &'a (Key, Cell);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.rows.next() {
                return Some(row);
            }
            self.rows = self.slots.next()?.1.rows().iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn k(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn live(s: &str, ts: u64) -> Cell {
        Cell::live(k(s), ts)
    }

    #[test]
    fn insert_then_get() {
        let mut m = Memtable::new();
        m.insert(k("a"), live("1", 10));
        assert_eq!(m.get(b"a"), Some(&live("1", 10)));
        assert_eq!(m.get(b"b"), None);
    }

    #[test]
    fn newer_write_replaces_older() {
        let mut m = Memtable::new();
        m.insert(k("a"), live("old", 10));
        m.insert(k("a"), live("new", 20));
        assert_eq!(m.get(b"a").unwrap().value.as_deref(), Some(&b"new"[..]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn stale_write_does_not_regress() {
        let mut m = Memtable::new();
        m.insert(k("a"), live("new", 20));
        m.insert(k("a"), live("old", 10));
        assert_eq!(m.get(b"a").unwrap().value.as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn byte_tracking_grows_and_updates() {
        let mut m = Memtable::new();
        assert_eq!(m.bytes(), 0);
        m.insert(k("a"), live("xx", 1));
        let after_one = m.bytes();
        assert!(after_one > 0);
        // Overwrite with a longer value grows footprint.
        m.insert(k("a"), live("xxxxxxxx", 2));
        assert!(m.bytes() > after_one);
        // Distinct key adds more.
        m.insert(k("b"), live("y", 1));
        assert!(m.bytes() > after_one);
    }

    #[test]
    fn tombstones_are_stored() {
        let mut m = Memtable::new();
        m.insert(k("a"), live("v", 1));
        m.insert(k("a"), Cell::tombstone(2));
        assert!(m.get(b"a").unwrap().is_tombstone());
    }

    #[test]
    fn range_iteration_is_ordered() {
        let mut m = Memtable::new();
        for s in ["d", "a", "c", "b"] {
            m.insert(k(s), live(s, 1));
        }
        let keys: Vec<_> = m.range_from(b"b").map(|(key, _)| key.clone()).collect();
        assert_eq!(keys, vec![k("b"), k("c"), k("d")]);
    }

    #[test]
    fn drain_empties_and_sorts() {
        let mut m = Memtable::new();
        m.insert(k("b"), live("2", 1));
        m.insert(k("a"), live("1", 1));
        m.insert(k("a"), live("3", 2));
        let drained = m.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained.key(0), b"a");
        assert_eq!(drained.cell(0), &live("3", 2));
        assert_eq!(drained.key_bytes(0, 2), 2);
        assert!(m.is_empty());
        assert_eq!(m.bytes(), 0);
    }

    /// The rows and counters a crash must restore.
    fn state(m: &Memtable) -> (Vec<(Key, Cell)>, usize, usize, u64) {
        (
            m.range_from(b"").cloned().collect(),
            m.len(),
            m.key_bytes,
            m.bytes(),
        )
    }

    #[test]
    fn a_crash_loses_exactly_the_writes_after_the_last_sync() {
        let mut m = Memtable::new();
        m.insert(k("a"), live("1", 1));
        m.insert(k("b"), live("2", 1));
        m.sync();
        let synced = state(&m);
        m.insert(k("c"), live("3", 2));
        m.insert(k("b"), Cell::tombstone(2));
        m.roll_back();
        assert_eq!(state(&m), synced);
    }

    #[test]
    fn a_crash_before_any_sync_loses_everything() {
        let mut m = Memtable::new();
        m.insert(k("a"), live("1", 1));
        m.roll_back();
        assert_eq!(state(&m), (vec![], 0, 0, 0));
    }

    #[test]
    fn an_overwrite_after_a_sync_rolls_back_to_the_synced_version() {
        let mut m = Memtable::new();
        m.insert(k("a"), live("1", 1));
        m.sync();
        let synced = state(&m);
        m.insert(k("a"), live("longer", 2));
        m.insert(k("a"), live("longest", 3));
        assert_eq!(m.synced.len(), 1, "only the first change saves");
        m.roll_back();
        assert_eq!(state(&m), synced);
        assert_eq!(m.get(b"a"), Some(&live("1", 1)));
    }

    #[test]
    fn a_shared_prefix_slot_rolls_back_whole() {
        // Keys longer than 16 bytes that agree on their first 16 share a slot.
        let (x, y, z) = (
            k("sixteen-byte-keyX"),
            k("sixteen-byte-keyY"),
            k("sixteen-byte-keyZ"),
        );
        let mut m = Memtable::new();
        m.insert(x.clone(), live("1", 1));
        m.insert(z.clone(), live("1", 1));
        m.sync();
        let synced = state(&m);
        m.insert(y, live("2", 2));
        m.insert(x, live("2", 2));
        m.roll_back();
        assert_eq!(state(&m), synced);
    }

    #[test]
    fn a_losing_write_saves_nothing() {
        let mut m = Memtable::new();
        m.insert(k("a"), live("new", 2));
        m.sync();
        assert_eq!(m.insert(k("a"), live("old", 1)), 0);
        assert!(m.synced.is_empty());
    }

    #[test]
    fn a_second_crash_without_a_sync_loses_nothing_more() {
        let mut m = Memtable::new();
        m.insert(k("a"), live("1", 1));
        m.sync();
        let synced = state(&m);
        m.insert(k("a"), live("2", 2));
        m.roll_back();
        m.roll_back();
        assert_eq!(state(&m), synced);
        // A write after the crash is lost by the next one, and the synced
        // version is still there to go back to.
        m.insert(k("a"), live("3", 3));
        m.insert(k("b"), live("3", 3));
        m.roll_back();
        assert_eq!(state(&m), synced);
    }

    #[test]
    fn a_drain_makes_a_crash_lose_only_later_writes() {
        let mut m = Memtable::new();
        m.insert(k("a"), live("1", 1));
        m.sync();
        m.insert(k("a"), live("2", 2));
        m.drain();
        m.insert(k("b"), live("3", 3));
        m.roll_back();
        assert_eq!(state(&m), (vec![], 0, 0, 0));
    }

    #[test]
    fn the_stamps_start_over_when_the_epoch_runs_out() {
        let mut m = Memtable::new();
        m.insert(k("a"), live("1", 1));
        m.epoch = Epoch::MAX;
        m.insert(k("b"), live("1", 1));
        m.sync();
        assert_eq!(m.epoch, 1);
        let synced = state(&m);
        m.insert(k("a"), live("2", 2));
        m.insert(k("b"), live("2", 2));
        m.roll_back();
        assert_eq!(state(&m), synced);
    }
}
