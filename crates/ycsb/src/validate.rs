//! Stale-read detection: measuring consistency instead of assuming it.
//!
//! The tracker implements a time-based staleness check in the spirit of
//! Bermbach et al. (the paper's related work \[14\]): a read is *stale* when
//! it returns a version older than the newest write that was already
//! acknowledged **before the read was issued**. Concurrent writes (in
//! flight at read-issue time) do not count against the store.

use simkit::FastHashMap;

use bytes::Bytes;

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

/// Per-key acknowledged-write watermarks plus staleness counters.
#[derive(Debug, Clone, Default)]
pub struct StalenessTracker {
    acked: FastHashMap<Bytes, u64>,
    stale: u64,
    missing: u64,
    checked: u64,
}

impl StalenessTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that a write of `key` with version timestamp `ts` has been
    /// acknowledged to the client.
    pub fn write_acked(&mut self, key: &Bytes, ts: u64) {
        match self.acked.get_mut(key.as_ref()) {
            Some(slot) => *slot = (*slot).max(ts),
            None => {
                self.acked.insert(key.clone(), ts);
            }
        }
    }

    /// Snapshot the expectation for a read being issued now: the newest
    /// acknowledged version of `key` (0 when never written).
    pub fn expected(&self, key: &[u8]) -> u64 {
        self.acked.get(key).copied().unwrap_or(0)
    }

    /// Judge a completed read: `expected` is the snapshot taken at issue
    /// time, `observed` the version timestamp the read returned (`None` for
    /// not-found). The verdict splits "found no value after an acked write"
    /// (`missing`) out of the plain stale count, so lost writes are
    /// distinguishable from stale reads.
    pub fn check_read(&mut self, expected: u64, observed: Option<u64>) -> ReadCheck {
        self.checked += 1;
        let stale = observed.unwrap_or(0) < expected;
        let missing = observed.is_none() && expected > 0;
        if stale {
            self.stale += 1;
        }
        if missing {
            self.missing += 1;
        }
        ReadCheck { stale, missing }
    }

    /// `(stale, checked)` counts so far.
    #[cfg(test)]
    pub(crate) fn counts(&self) -> (u64, u64) {
        (self.stale, self.checked)
    }

    /// Reads that found no value after an acknowledged write (a subset of
    /// the stale count).
    #[cfg(test)]
    pub(crate) fn missing(&self) -> u64 {
        self.missing
    }

    /// Stale fraction (0 when nothing checked).
    #[cfg(test)]
    pub(crate) fn stale_fraction(&self) -> f64 {
        if self.checked == 0 {
            0.0
        } else {
            self.stale as f64 / self.checked as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn fresh_read_is_not_stale() {
        let mut t = StalenessTracker::new();
        t.write_acked(&k("a"), 100);
        let exp = t.expected(b"a");
        assert!(!t.check_read(exp, Some(100)).stale);
        assert!(
            !t.check_read(exp, Some(150)).stale,
            "newer than expected is fine"
        );
        assert_eq!(t.counts(), (0, 2));
    }

    #[test]
    fn old_version_is_stale() {
        let mut t = StalenessTracker::new();
        t.write_acked(&k("a"), 100);
        assert!(t.check_read(t.expected(b"a"), Some(50)).stale);
        assert!(
            t.check_read(t.expected(b"a"), None).stale,
            "not-found after an ack is stale"
        );
        assert_eq!(t.counts(), (2, 2));
        assert!((t.stale_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn missing_splits_not_found_out_of_stale() {
        let mut t = StalenessTracker::new();
        t.write_acked(&k("a"), 100);
        // An old version is stale but not missing.
        assert_eq!(
            t.check_read(t.expected(b"a"), Some(50)),
            ReadCheck {
                stale: true,
                missing: false
            }
        );
        // Not-found after an ack is both: missing ⊂ stale.
        assert_eq!(
            t.check_read(t.expected(b"a"), None),
            ReadCheck {
                stale: true,
                missing: true
            }
        );
        // Not-found on a never-written key is neither.
        assert_eq!(t.check_read(0, None), ReadCheck::default());
        assert_eq!(t.counts(), (2, 3));
        assert_eq!(t.missing(), 1);
    }

    #[test]
    fn unwritten_keys_never_stale() {
        let mut t = StalenessTracker::new();
        assert_eq!(t.expected(b"ghost"), 0);
        assert!(!t.check_read(0, None).stale);
    }

    #[test]
    fn concurrent_write_does_not_count() {
        let mut t = StalenessTracker::new();
        t.write_acked(&k("a"), 100);
        let snapshot = t.expected(b"a"); // read issued here
        t.write_acked(&k("a"), 200); // concurrent write acks later
        assert!(
            !t.check_read(snapshot, Some(100)).stale,
            "expected only ts>=100"
        );
    }

    #[test]
    fn watermark_is_monotone() {
        let mut t = StalenessTracker::new();
        t.write_acked(&k("a"), 100);
        t.write_acked(&k("a"), 50); // late ack of an older write
        assert_eq!(t.expected(b"a"), 100);
        assert_eq!(t.acked.len(), 1);
    }
}
