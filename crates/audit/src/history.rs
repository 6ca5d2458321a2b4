//! The operation-history model: what the driver records, what the
//! checkers replay.

use simkit::SimTime;
use storage::{Key, OpKind};

/// Driver-side recording configuration: off, or every settled operation.
///
/// Off, the driver adds no bookkeeping and the run is bit-identical to one
/// without the audit layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditConfig {
    record: bool,
}

impl AuditConfig {
    /// Recording disabled (the default).
    pub fn off() -> Self {
        Self { record: false }
    }

    /// Record every client's operations.
    pub fn all() -> Self {
        Self { record: true }
    }

    /// True when recording is on.
    pub fn enabled(&self) -> bool {
        self.record
    }
}

/// How one recorded operation resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// A successful point read: the staleness expectation snapshotted at
    /// issue time (the newest acknowledged version, 0 when never written)
    /// and the version timestamp the read returned (`None` = not found).
    Read {
        /// Newest version acknowledged before the read was issued.
        expected_ts: u64,
        /// Version the read observed (`None` for not-found).
        observed_ts: Option<u64>,
    },
    /// A successful write (update, insert, delete, or the write phase of a
    /// read-modify-write) with the version timestamp the store assigned.
    Write {
        /// Version timestamp assigned to the write.
        ts: u64,
    },
    /// A successful scan (no per-version accounting).
    Scanned,
    /// A client-visible failure after retries gave up. A failed write is
    /// *indeterminate*: it may or may not have taken effect with a
    /// timestamp the client never learned — exactly the case the
    /// linearizability checker models as a phantom write.
    Failed,
}

/// One settled logical operation: an invocation/response interval in
/// virtual time plus what came back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// The issuing client (closed loop: client thread; open loop: tenant).
    pub client: u32,
    /// Operation kind as issued.
    pub kind: OpKind,
    /// The key (a scan's start key).
    pub key: Key,
    /// Invocation: virtual time the client issued the op.
    pub issued: SimTime,
    /// Response: virtual time the op settled (success or give-up).
    pub settled: SimTime,
    /// True when the op settled inside the measured window (post warm-up),
    /// mirroring the driver's metrics gating.
    pub measured: bool,
    /// How the operation resolved.
    pub fate: Fate,
}

impl OpRecord {
    /// True for kinds whose success acknowledges a state change.
    pub(crate) fn is_write_kind(&self) -> bool {
        matches!(
            self.kind,
            OpKind::Update | OpKind::Insert | OpKind::Delete | OpKind::ReadModifyWrite
        )
    }
}

/// Per-run history sink, owned by the driver.
///
/// Determinism contract: every method is pure bookkeeping. No randomness,
/// no event scheduling, no simulated-resource access — a run with
/// recording enabled is bit-identical (metrics, counters, event order) to
/// the same run with recording disabled.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    cfg: AuditConfig,
    records: Vec<OpRecord>,
}

impl Recorder {
    /// A recorder for one run. No-ops until the config enables it.
    pub fn new(cfg: AuditConfig) -> Self {
        Self {
            cfg,
            records: Vec::new(),
        }
    }

    /// Record one settled operation. No-op when disabled.
    pub fn push(&mut self, rec: OpRecord) {
        if self.cfg.enabled() {
            self.records.push(rec);
        }
    }

    /// Finish the run: the recorded history, in settle order (which is
    /// deterministic, because the event loop is).
    pub fn finish(self) -> History {
        History {
            records: self.records,
        }
    }
}

/// Staleness accounting replayed from a history — definitionally identical
/// to `ycsb`'s tracker counters, so the two views can be cross-checked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaleCounts {
    /// Successful point reads judged (measured window only).
    pub checked: u64,
    /// Reads that returned a version older than the newest write
    /// acknowledged before they were issued (not-found included).
    pub stale: u64,
    /// Of the stale reads, those that found *no* value at all after an
    /// acknowledged write — a lost-write symptom, not a lagging replica.
    pub missing: u64,
}

/// One run's recorded operation history, in settle order.
#[derive(Debug, Clone, Default)]
pub struct History {
    records: Vec<OpRecord>,
}

impl History {
    /// The records, in settle order.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Replay the driver's staleness accounting from the history: one
    /// check per successful measured point read, `stale` when the
    /// observed version predates the issue-time expectation. This
    /// reproduces `RunMetrics::staleness()` exactly — the cross-check
    /// invariant the end-to-end tests assert.
    pub fn stale_counts(&self) -> StaleCounts {
        let mut c = StaleCounts::default();
        for r in &self.records {
            let Fate::Read {
                expected_ts,
                observed_ts,
            } = r.fate
            else {
                continue;
            };
            if !r.measured {
                continue;
            }
            c.checked += 1;
            if observed_ts.unwrap_or(0) < expected_ts {
                c.stale += 1;
            }
            if observed_ts.is_none() && expected_ts > 0 {
                c.missing += 1;
            }
        }
        c
    }

    /// Distinct point-op keys ordered by activity (record count,
    /// descending; ties by key bytes) — the designated-key selector for
    /// the linearizability checker. Scans are excluded.
    pub fn keys_by_activity(&self) -> Vec<Key> {
        let mut count: simkit::FastHashMap<Key, u64> = simkit::FastHashMap::default();
        for r in &self.records {
            if matches!(r.kind, OpKind::Scan) {
                continue;
            }
            *count.entry(r.key.clone()).or_insert(0) += 1;
        }
        let mut keys: Vec<(Key, u64)> = count.into_iter().collect();
        keys.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        keys.into_iter().map(|(k, _)| k).collect()
    }
}

#[cfg(test)]
impl History {
    /// A history from hand-written records, for the checkers' unit tests.
    pub(crate) fn from_records(records: Vec<OpRecord>) -> Self {
        Self { records }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn k(s: &str) -> Key {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn read(client: u32, key: &str, expected: u64, observed: Option<u64>) -> OpRecord {
        OpRecord {
            client,
            kind: OpKind::Read,
            key: k(key),
            issued: 0,
            settled: 1,
            measured: true,
            fate: Fate::Read {
                expected_ts: expected,
                observed_ts: observed,
            },
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(AuditConfig::off());
        r.push(read(0, "a", 0, Some(1)));
        assert!(r.records.is_empty());
        assert!(r.finish().is_empty());
    }

    #[test]
    fn stale_counts_mirror_tracker_semantics() {
        let h = History::from_records(vec![
            read(0, "a", 100, Some(100)), // fresh
            read(0, "a", 100, Some(50)),  // stale
            read(0, "a", 100, None),      // stale and missing
            read(0, "b", 0, None),        // never written: clean
            OpRecord {
                measured: false,
                ..read(0, "a", 100, Some(50))
            }, // warm-up: not judged
        ]);
        assert_eq!(
            h.stale_counts(),
            StaleCounts {
                checked: 4,
                stale: 2,
                missing: 1,
            }
        );
    }

    #[test]
    fn keys_by_activity_orders_hot_first() {
        let h = History::from_records(vec![
            read(0, "cold", 0, None),
            read(0, "hot", 0, None),
            read(1, "hot", 0, None),
            OpRecord {
                kind: OpKind::Scan,
                fate: Fate::Scanned,
                ..read(0, "scan-start", 0, None)
            },
        ]);
        let keys = h.keys_by_activity();
        assert_eq!(keys, vec![k("hot"), k("cold")]);
    }
}
