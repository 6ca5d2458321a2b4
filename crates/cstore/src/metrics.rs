//! Cluster-level behaviour counters, used by experiments and assertions.

/// Counters accumulated by a [`crate::Cluster`] during a run. (GC pauses
/// and admission sheds are counted by the node runtime.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Point reads coordinated.
    pub reads: u64,
    /// Writes coordinated.
    pub writes: u64,
    /// Scans coordinated.
    pub scans: u64,
    /// Operations rejected for insufficient live replicas.
    pub unavailable: u64,
    /// Operations that timed out waiting for replica responses.
    pub timeouts: u64,
    /// Reads whose consistency quota saw disagreeing versions.
    pub digest_mismatches: u64,
    /// Reads that probed every replica (read-repair fan-out).
    pub repair_fanouts: u64,
    /// Repair mutations sent to stale replicas.
    pub repair_writes: u64,
    /// Hints queued for dead replicas.
    pub hints_stored: u64,
    /// Hints delivered after recovery.
    pub hints_replayed: u64,
    /// Memtable flushes across the cluster.
    pub flushes: u64,
    /// Compactions across the cluster.
    pub compactions: u64,
}

impl Metrics {
    /// Fresh counters.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Every counter as `(label, value)` in report order, with the
    /// runtime's `gc_pauses` and `shed` in their places. The destructuring
    /// makes a field without a label a compile error.
    pub(crate) fn counters(&self, gc_pauses: u64, shed: u64) -> Vec<(&'static str, u64)> {
        let Metrics {
            reads,
            writes,
            scans,
            unavailable,
            timeouts,
            digest_mismatches,
            repair_fanouts,
            repair_writes,
            hints_stored,
            hints_replayed,
            flushes,
            compactions,
        } = *self;
        vec![
            ("reads", reads),
            ("writes", writes),
            ("scans", scans),
            ("unavailable", unavailable),
            ("timeouts", timeouts),
            ("digest_mismatches", digest_mismatches),
            ("repair_fanouts", repair_fanouts),
            ("repair_writes", repair_writes),
            ("hints_stored", hints_stored),
            ("hints_replayed", hints_replayed),
            ("flushes", flushes),
            ("compactions", compactions),
            ("gc_pauses", gc_pauses),
            ("shed", shed),
        ]
    }
}
