//! The in-memory sorted write buffer.
//!
//! HBase calls this the memstore, Cassandra the memtable. Writes are
//! absorbed here (after the log append) and served back at memory speed; when
//! the buffer exceeds its flush threshold it is frozen into an immutable
//! SSTable.

use std::collections::btree_map::{self, BTreeMap, Entry};

use crate::segment::{RowArena, Segment};
use crate::sstable::{key_prefix, KeyPrefix};
use crate::types::{entry_encoded_len, Cell, Key};

/// The rows of the memtable whose keys share one [`KeyPrefix`].
#[derive(Debug, Clone)]
enum Slot {
    /// The prefix's only row — every slot, unless keys longer than 16 bytes
    /// agree on their first 16.
    One((Key, Cell)),
    /// Two or more rows, strictly sorted by full key.
    Many(Vec<(Key, Cell)>),
}

impl Slot {
    fn rows(&self) -> &[(Key, Cell)] {
        match self {
            Slot::One(row) => std::slice::from_ref(row),
            Slot::Many(rows) => rows,
        }
    }

    /// The version of `key` this slot holds, if any.
    fn find_mut(&mut self, key: &[u8]) -> Option<&mut Cell> {
        let rows = match self {
            Slot::One(row) => std::slice::from_mut(row),
            Slot::Many(rows) => rows.as_mut_slice(),
        };
        let at = rows.binary_search_by(|(k, _)| k.as_ref().cmp(key)).ok()?;
        Some(&mut rows[at].1)
    }

    /// Add a row for a key the slot does not hold yet, keeping key order.
    fn add(&mut self, key: Key, cell: Cell) {
        let mut rows = match std::mem::replace(self, Slot::Many(Vec::new())) {
            Slot::One(row) => vec![row],
            Slot::Many(rows) => rows,
        };
        let at = rows.partition_point(|(k, _)| *k < key);
        rows.insert(at, (key, cell));
        *self = Slot::Many(rows);
    }
}

/// A sorted, size-tracked in-memory table of the newest cell per key.
///
/// Rows are ordered by key prefix first: the B-tree is keyed by the
/// big-endian [`KeyPrefix`] of the first 16 key bytes, so a lookup descends
/// it with integer compares and reads a full key only to confirm the hit,
/// and the few keys that share a prefix sit in one slot sorted by full key.
/// Prefix order, then full-key order within a prefix, is exactly key order
/// (see [`crate::sstable::cmp_via_prefix`]).
#[derive(Debug, Clone, Default)]
pub struct Memtable {
    slots: BTreeMap<KeyPrefix, Slot>,
    /// Rows across all slots.
    len: usize,
    /// Key bytes across all slots: what a flush's arena holds.
    key_bytes: usize,
    bytes: u64,
}

impl Memtable {
    /// An empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a cell, reconciling with any existing version of the key by
    /// last-write-wins. Returns the change in approximate byte footprint.
    pub fn insert(&mut self, key: Key, cell: Cell) -> i64 {
        let delta = match self.slots.entry(key_prefix(&key)) {
            Entry::Vacant(v) => {
                let len = entry_encoded_len(&key, &cell) as i64;
                self.key_bytes += key.len();
                v.insert(Slot::One((key, cell)));
                self.len += 1;
                len
            }
            Entry::Occupied(o) => {
                let slot = o.into_mut();
                match slot.find_mut(&key) {
                    // Reconcile by reference: the held cell stays unless the
                    // new one wins, and then the new one moves in.
                    Some(held) if std::ptr::eq(Cell::newer(held, &cell), held) => 0,
                    Some(held) => {
                        let delta = cell.encoded_len() as i64 - held.encoded_len() as i64;
                        *held = cell;
                        delta
                    }
                    None => {
                        let len = entry_encoded_len(&key, &cell) as i64;
                        self.key_bytes += key.len();
                        slot.add(key, cell);
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
                Slot::One((key, cell)) => rows.push(&key, cell),
                Slot::Many(many) => many.into_iter().for_each(|(k, c)| rows.push(&k, c)),
            }
        }
        *self = Self::default();
        Segment::sorted(rows)
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
}
