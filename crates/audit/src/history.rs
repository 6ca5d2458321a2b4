//! The operation-history model: what the driver records, what the
//! checkers replay.

use std::cmp::Reverse;

use simkit::SimTime;
use storage::OpKind;

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
///
/// The record names its target by YCSB record id, not by key: the key is
/// `ycsb::encode_key(id)`, one per id, so a history holds no key bytes and
/// keeps none of the driver's key buffers alive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// The issuing client (closed loop: client thread; open loop: tenant).
    pub client: u32,
    /// Operation kind as issued.
    pub kind: OpKind,
    /// The record id whose key the op targets (a scan: its start key's).
    pub id: u64,
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
    /// A recorder for one run of `ops` logical ops. No-ops unless the config
    /// enables it; enabled, it holds room for one record per op from the
    /// start, so recording never regrows the history.
    pub fn new(cfg: AuditConfig, ops: usize) -> Self {
        let records = if cfg.enabled() {
            Vec::with_capacity(ops)
        } else {
            Vec::new()
        };
        Self { cfg, records }
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

    /// The record ids of distinct point-op keys, ordered by activity
    /// (record count, descending; ties by key bytes, `encode_key(id)`, not
    /// by id) — the designated-key selector for the linearizability
    /// checker. Scans are excluded.
    pub fn keys_by_activity(&self) -> Vec<u64> {
        let mut count: simkit::FastHashMap<u64, u64> = simkit::FastHashMap::default();
        for r in &self.records {
            if matches!(r.kind, OpKind::Scan) {
                continue;
            }
            *count.entry(r.id).or_insert(0) += 1;
        }
        let mut ids: Vec<(u64, u64)> = count.into_iter().collect();
        ids.sort_by_cached_key(|&(id, n)| (Reverse(n), ycsb::encode_key(id)));
        ids.into_iter().map(|(id, _)| id).collect()
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

    const A: u64 = 1;
    const B: u64 = 2;

    fn read(client: u32, id: u64, expected: u64, observed: Option<u64>) -> OpRecord {
        OpRecord {
            client,
            kind: OpKind::Read,
            id,
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
        let mut r = Recorder::new(AuditConfig::off(), 4);
        r.push(read(0, A, 0, Some(1)));
        assert!(r.records.is_empty());
        assert_eq!(
            r.records.capacity(),
            0,
            "a disabled recorder allocates nothing"
        );
        assert!(r.finish().is_empty());
    }

    #[test]
    fn an_enabled_recorder_is_sized_once_for_the_run() {
        let mut r = Recorder::new(AuditConfig::all(), 3);
        for _ in 0..3 {
            r.push(read(0, A, 0, Some(1)));
        }
        assert_eq!(r.records.capacity(), 3);
        assert_eq!(r.finish().len(), 3);
    }

    #[test]
    fn stale_counts_mirror_tracker_semantics() {
        let h = History::from_records(vec![
            read(0, A, 100, Some(100)), // fresh
            read(0, A, 100, Some(50)),  // stale
            read(0, A, 100, None),      // stale and missing
            read(0, B, 0, None),        // never written: clean
            OpRecord {
                measured: false,
                ..read(0, A, 100, Some(50))
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
        let (cold, hot, scan_start) = (10, 11, 12);
        let h = History::from_records(vec![
            read(0, cold, 0, None),
            read(0, hot, 0, None),
            read(1, hot, 0, None),
            OpRecord {
                kind: OpKind::Scan,
                fate: Fate::Scanned,
                ..read(0, scan_start, 0, None)
            },
        ]);
        assert_eq!(h.keys_by_activity(), vec![hot, cold]);
    }

    #[test]
    fn keys_by_activity_breaks_ties_by_key_bytes_not_by_id() {
        // Ids 1 < 42, but their keys sort the other way round.
        assert!(ycsb::encode_key(42) < ycsb::encode_key(1));
        let h = History::from_records(vec![
            read(0, 1, 0, None),
            read(0, 42, 0, None),
            read(0, 7, 0, None),
            read(1, 7, 0, None),
        ]);
        assert_eq!(h.keys_by_activity(), vec![7, 42, 1]);
    }
}
