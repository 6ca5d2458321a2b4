//! The write-ahead / commit log.
//!
//! Every mutation is appended here before it touches the memtable, and the
//! log is replayed after a crash to rebuild memtable state. Both databases in
//! the paper acknowledge writes after the log *append* (group/periodic sync),
//! not after the sync itself — the mechanism behind the paper's flat write
//! latencies — so the log tracks synced vs unsynced bytes separately and the
//! simulation layer charges disk bandwidth for syncs in the background.

use std::collections::VecDeque;

use crate::types::{entry_encoded_len, Cell, Key};

/// One logged mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WalEntry {
    /// Sequence number, monotonically increasing from 1.
    pub seq: u64,
    /// The mutated key.
    pub key: Key,
    /// The new cell (live or tombstone).
    pub cell: Cell,
}

/// An append-only mutation log with replay and truncation.
///
/// Entries live in a `VecDeque`: appends push to the back and truncation
/// after a flush pops the covered prefix off the front in O(removed),
/// instead of the `retain` scan that walked every surviving entry on each
/// flush.
#[derive(Debug, Clone, Default)]
pub(crate) struct WriteAheadLog {
    entries: VecDeque<WalEntry>,
    next_seq: u64,
    bytes: u64,
    unsynced_bytes: u64,
    truncated_through: u64,
}

impl WriteAheadLog {
    /// An empty log.
    pub(crate) fn new() -> Self {
        Self {
            entries: VecDeque::new(),
            next_seq: 1,
            bytes: 0,
            unsynced_bytes: 0,
            truncated_through: 0,
        }
    }

    /// Append a mutation; returns the assigned sequence number and the
    /// encoded size of the record (for bandwidth accounting). Takes the key
    /// and cell by reference: the log's copy is a refcount bump on the
    /// `Bytes` payloads, and the caller keeps its originals for the memtable
    /// insert without a second clone at the call site.
    pub(crate) fn append(&mut self, key: &Key, cell: &Cell) -> (u64, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let len = entry_encoded_len(key, cell) + 8;
        self.bytes += len;
        self.unsynced_bytes += len;
        self.entries.push_back(WalEntry {
            seq,
            key: key.clone(),
            cell: cell.clone(),
        });
        (seq, len)
    }

    /// Mark all appended bytes as durably synced; returns how many bytes the
    /// sync had to push (what a periodic-fsync thread would write).
    pub(crate) fn sync(&mut self) -> u64 {
        std::mem::take(&mut self.unsynced_bytes)
    }

    /// Bytes appended but not yet synced.
    pub(crate) fn unsynced_bytes(&self) -> u64 {
        self.unsynced_bytes
    }

    /// Total bytes ever appended.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of live (non-truncated) entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Highest sequence number assigned so far (0 if none).
    pub(crate) fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Drop entries with `seq <= through` — called after the covering
    /// memtable flush makes them redundant. Sequence numbers are assigned in
    /// append order, so the covered entries are exactly a front prefix.
    pub(crate) fn truncate_through(&mut self, through: u64) {
        while self.entries.front().is_some_and(|e| e.seq <= through) {
            self.entries.pop_front();
        }
        self.truncated_through = self.truncated_through.max(through);
    }

    /// Replay all live entries in sequence order (crash recovery).
    pub(crate) fn replay(&self) -> impl Iterator<Item = &WalEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::Memtable;
    use bytes::Bytes;

    fn k(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn append_assigns_increasing_seqs() {
        let mut w = WriteAheadLog::new();
        let (s1, len1) = w.append(&k("a"), &Cell::live(k("1"), 1));
        let (s2, _) = w.append(&k("b"), &Cell::live(k("2"), 2));
        assert_eq!((s1, s2), (1, 2));
        assert!(len1 > 0);
        assert_eq!(w.last_seq(), 2);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn sync_drains_unsynced_bytes() {
        let mut w = WriteAheadLog::new();
        w.append(&k("a"), &Cell::live(k("1"), 1));
        let pending = w.unsynced_bytes();
        assert!(pending > 0);
        assert_eq!(w.sync(), pending);
        assert_eq!(w.unsynced_bytes(), 0);
        assert_eq!(w.sync(), 0);
        // Total bytes unaffected by sync.
        assert_eq!(w.bytes(), pending);
    }

    #[test]
    fn truncate_drops_flushed_prefix() {
        let mut w = WriteAheadLog::new();
        for i in 0..5u64 {
            w.append(&k(&format!("k{i}")), &Cell::live(k("v"), i));
        }
        w.truncate_through(3);
        let seqs: Vec<_> = w.replay().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5]);
    }

    #[test]
    fn replay_rebuilds_memtable_state() {
        let mut w = WriteAheadLog::new();
        let mut m = Memtable::new();
        for (key, val, ts) in [("a", "1", 1u64), ("b", "2", 2), ("a", "3", 3)] {
            let cell = Cell::live(k(val), ts);
            w.append(&k(key), &cell);
            m.insert(k(key), cell);
        }
        // Crash: rebuild a fresh memtable from the log.
        let mut rebuilt = Memtable::new();
        for e in w.replay() {
            rebuilt.insert(e.key.clone(), e.cell.clone());
        }
        assert_eq!(rebuilt.get(b"a"), m.get(b"a"));
        assert_eq!(rebuilt.get(b"b"), m.get(b"b"));
        assert_eq!(rebuilt.len(), m.len());
    }

    #[test]
    fn replay_is_idempotent() {
        let mut w = WriteAheadLog::new();
        w.append(&k("a"), &Cell::live(k("1"), 1));
        w.append(&k("a"), &Cell::live(k("2"), 2));
        let mut m = Memtable::new();
        for _ in 0..3 {
            for e in w.replay() {
                m.insert(e.key.clone(), e.cell.clone());
            }
        }
        assert_eq!(m.get(b"a").unwrap().value.as_deref(), Some(&b"2"[..]));
        assert_eq!(m.len(), 1);
    }
}
