//! Core data types shared by every storage component.

use std::cmp::Ordering;

use bytes::Bytes;

/// A row key. Lexicographic byte order is the storage order everywhere,
/// which is what both HBase and an order-preserving-partitioned Cassandra
/// give the paper's scan workloads.
pub type Key = Bytes;

/// A row value (YCSB writes a single opaque blob per record).
pub type Value = Bytes;

/// A write timestamp in microseconds. Both stores use last-write-wins
/// reconciliation keyed on this.
pub type Timestamp = u64;

/// A timestamped cell: either a live value or a tombstone. The newest
/// timestamp wins during reconciliation; ties break toward the tombstone and
/// then the lexicographically larger value, matching Cassandra's rule so
/// reconciliation is commutative and deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// The value, or `None` for a tombstone (deletion marker).
    pub value: Option<Value>,
    /// Write timestamp used for last-write-wins.
    pub ts: Timestamp,
}

impl Cell {
    /// A live cell.
    pub fn live(value: Value, ts: Timestamp) -> Self {
        Self {
            value: Some(value),
            ts,
        }
    }

    /// A tombstone.
    pub fn tombstone(ts: Timestamp) -> Self {
        Self { value: None, ts }
    }

    /// True when this cell is a deletion marker.
    pub fn is_tombstone(&self) -> bool {
        self.value.is_none()
    }

    /// Approximate on-disk footprint of the cell in bytes: the value plus a
    /// fixed per-cell overhead (timestamp + flags).
    pub fn encoded_len(&self) -> u64 {
        self.value.as_ref().map_or(0, |v| v.len() as u64) + 9
    }

    /// Last-write-wins reconciliation without taking ownership: returns a
    /// reference to the winner of two versions of the same key. The hot
    /// read/merge paths fold candidates with this and clone only the final
    /// winner, so losers never cost a refcount touch.
    pub fn newer<'c>(a: &'c Cell, b: &'c Cell) -> &'c Cell {
        match a.ts.cmp(&b.ts) {
            Ordering::Greater => a,
            Ordering::Less => b,
            Ordering::Equal => {
                // Deterministic tie-break: tombstone beats value; otherwise
                // the larger value wins.
                match (&a.value, &b.value) {
                    (None, _) => a,
                    (_, None) => b,
                    (Some(va), Some(vb)) => {
                        if va >= vb {
                            a
                        } else {
                            b
                        }
                    }
                }
            }
        }
    }

    /// Last-write-wins reconciliation. Returns the winner of two versions of
    /// the same key. Commutative: `reconcile(a, b) == reconcile(b, a)`.
    pub fn reconcile(a: Cell, b: Cell) -> Cell {
        if std::ptr::eq(Cell::newer(&a, &b), &a) {
            a
        } else {
            b
        }
    }
}

/// First 16 bytes of a key, zero-padded, read as a big-endian integer, so
/// one integer compare orders two prefixes exactly as their bytes would.
/// The memtable keys its slots by it, a load sorts its rows by it, and each
/// chunk of a segment's hash tables keeps its first key's, so their
/// searches compare integers and read a full key only on a tie.
pub type KeyPrefix = u128;

/// The padded prefix of `key`.
#[inline]
pub fn key_prefix(key: &[u8]) -> KeyPrefix {
    if let Some(head) = key.first_chunk::<16>() {
        return u128::from_be_bytes(*head);
    }
    let mut p = [0u8; 16];
    let n = key.len().min(16);
    p[..n].copy_from_slice(&key[..n]);
    u128::from_be_bytes(p)
}

/// Compare two keys through their padded prefixes: when the prefixes
/// differ, their order equals the full lexicographic order (zero padding
/// preserves "shorter is smaller" because the pad byte sorts below any byte
/// the longer key continues with, and equal pads defer); only a prefix tie
/// needs the full keys.
#[inline]
pub fn cmp_via_prefix(
    prefix: KeyPrefix,
    full: &[u8],
    target_prefix: KeyPrefix,
    target: &[u8],
) -> Ordering {
    match prefix.cmp(&target_prefix) {
        Ordering::Equal => full.cmp(target),
        ord => ord,
    }
}

/// Approximate encoded size of one key/cell entry (key + cell + length
/// prefixes), used for memtable thresholds and block layout.
pub fn entry_encoded_len(key: &[u8], cell: &Cell) -> u64 {
    key.len() as u64 + cell.encoded_len() + 8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn newest_timestamp_wins() {
        let old = Cell::live(k("old"), 10);
        let new = Cell::live(k("new"), 20);
        assert_eq!(Cell::reconcile(old.clone(), new.clone()), new);
        assert_eq!(Cell::reconcile(new.clone(), old), new);
    }

    #[test]
    fn tombstone_beats_value_on_tie() {
        let v = Cell::live(k("v"), 10);
        let t = Cell::tombstone(10);
        assert_eq!(Cell::reconcile(v.clone(), t.clone()), t);
        assert_eq!(Cell::reconcile(t.clone(), v), t);
    }

    #[test]
    fn value_tie_breaks_deterministically() {
        let a = Cell::live(k("aaa"), 5);
        let b = Cell::live(k("zzz"), 5);
        assert_eq!(Cell::reconcile(a.clone(), b.clone()), b);
        assert_eq!(Cell::reconcile(b.clone(), a), b);
    }

    #[test]
    fn reconcile_is_idempotent() {
        let a = Cell::live(k("x"), 3);
        assert_eq!(Cell::reconcile(a.clone(), a.clone()), a);
    }

    #[test]
    fn newer_agrees_with_reconcile() {
        let cases = [
            (Cell::live(k("old"), 10), Cell::live(k("new"), 20)),
            (Cell::live(k("v"), 10), Cell::tombstone(10)),
            (Cell::live(k("aaa"), 5), Cell::live(k("zzz"), 5)),
            (Cell::tombstone(3), Cell::tombstone(3)),
        ];
        for (a, b) in cases {
            assert_eq!(
                Cell::newer(&a, &b).clone(),
                Cell::reconcile(a.clone(), b.clone())
            );
            assert_eq!(
                Cell::newer(&b, &a).clone(),
                Cell::reconcile(b.clone(), a.clone())
            );
        }
    }

    #[test]
    fn tombstone_flags() {
        assert!(Cell::tombstone(1).is_tombstone());
        assert!(!Cell::live(k("x"), 1).is_tombstone());
    }

    #[test]
    fn encoded_lengths_scale_with_payload() {
        let small = Cell::live(k("x"), 1);
        let big = Cell::live(Bytes::from(vec![0u8; 1000]), 1);
        assert!(big.encoded_len() > small.encoded_len());
        assert_eq!(big.encoded_len(), 1009);
        assert_eq!(Cell::tombstone(1).encoded_len(), 9);
        assert_eq!(entry_encoded_len(&k("key"), &small), 3 + 10 + 8);
    }

    /// Every stored row, memtable slot and queued op holds these, so their
    /// size is the per-row memory overhead: one-word keys and values, and a
    /// tombstone that costs nothing extra.
    #[test]
    fn rows_and_ops_hold_one_word_per_buffer() {
        use std::mem::size_of;
        assert_eq!(size_of::<Cell>(), 16);
        assert_eq!(size_of::<(Key, Cell)>(), 24);
        assert_eq!(size_of::<crate::api::StoreOp>(), 24);
    }
}
