//! Stale-read detection: measuring consistency instead of assuming it.
//!
//! The tracker implements a time-based staleness check in the spirit of
//! Bermbach et al. (the paper's related work \[14\]): a read is *stale* when
//! it returns a version older than the newest write that was already
//! acknowledged **before the read was issued**. Concurrent writes (in
//! flight at read-issue time) do not count against the store.

use simkit::FastHashMap;

/// The verdict for one completed read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCheck {
    /// The read returned a version older than the newest write
    /// acknowledged before it was issued (not-found included).
    pub stale: bool,
    /// The read found *no* value at all after an acknowledged write — a
    /// lost-write symptom rather than a lagging replica. Always implies
    /// `stale` (missing ⊂ stale), so the stale counts figures already
    /// report are unchanged by tracking it.
    pub missing: bool,
}

/// Per-record acknowledged-write watermarks, which judge each read; the
/// driver counts the verdicts.
///
/// Records are named by their YCSB record id, the driver's handle on an op:
/// a record's key is `encode_key(id)`, one key per id, so a watermark per
/// id is one per key without hashing or holding key bytes.
#[derive(Debug, Clone, Default)]
pub struct StalenessTracker {
    acked: FastHashMap<u64, u64>,
}

impl StalenessTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that a write of record `id` with version timestamp `ts` has
    /// been acknowledged to the client.
    pub fn write_acked(&mut self, id: u64, ts: u64) {
        let slot = self.acked.entry(id).or_insert(ts);
        *slot = (*slot).max(ts);
    }

    /// Snapshot the expectation for a read being issued now: the newest
    /// acknowledged version of record `id` (0 when never written).
    pub fn expected(&self, id: u64) -> u64 {
        self.acked.get(&id).copied().unwrap_or(0)
    }

    /// Judge a completed read: `expected` is the snapshot taken at issue
    /// time, `observed` the version timestamp the read returned (`None` for
    /// not-found). The verdict splits "found no value after an acked write"
    /// (`missing`) out of the plain stale count, so lost writes are
    /// distinguishable from stale reads.
    pub fn check_read(&self, expected: u64, observed: Option<u64>) -> ReadCheck {
        ReadCheck {
            stale: observed.unwrap_or(0) < expected,
            missing: observed.is_none() && expected > 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: u64 = 7;

    #[test]
    fn fresh_read_is_not_stale() {
        let mut t = StalenessTracker::new();
        t.write_acked(A, 100);
        let exp = t.expected(A);
        assert!(!t.check_read(exp, Some(100)).stale);
        assert_eq!(
            t.check_read(exp, Some(150)),
            ReadCheck::default(),
            "newer than expected is fine"
        );
    }

    #[test]
    fn old_version_is_stale() {
        let mut t = StalenessTracker::new();
        t.write_acked(A, 100);
        assert!(t.check_read(t.expected(A), Some(50)).stale);
        assert!(
            t.check_read(t.expected(A), None).stale,
            "not-found after an ack is stale"
        );
    }

    #[test]
    fn missing_splits_not_found_out_of_stale() {
        let mut t = StalenessTracker::new();
        t.write_acked(A, 100);
        // An old version is stale but not missing.
        assert_eq!(
            t.check_read(t.expected(A), Some(50)),
            ReadCheck {
                stale: true,
                missing: false
            }
        );
        // Not-found after an ack is both: missing ⊂ stale.
        assert_eq!(
            t.check_read(t.expected(A), None),
            ReadCheck {
                stale: true,
                missing: true
            }
        );
        // Not-found on a never-written key is neither.
        assert_eq!(t.check_read(0, None), ReadCheck::default());
    }

    #[test]
    fn unwritten_keys_never_stale() {
        let t = StalenessTracker::new();
        assert_eq!(t.expected(42), 0);
        assert_eq!(t.check_read(0, None), ReadCheck::default());
    }

    #[test]
    fn concurrent_write_does_not_count() {
        let mut t = StalenessTracker::new();
        t.write_acked(A, 100);
        let snapshot = t.expected(A); // read issued here
        t.write_acked(A, 200); // concurrent write acks later
        assert!(
            !t.check_read(snapshot, Some(100)).stale,
            "expected only ts>=100"
        );
    }

    #[test]
    fn watermark_is_monotone() {
        let mut t = StalenessTracker::new();
        t.write_acked(A, 100);
        t.write_acked(A, 50); // late ack of an older write
        assert_eq!(t.expected(A), 100);
        assert_eq!(t.acked.len(), 1);
    }
}
