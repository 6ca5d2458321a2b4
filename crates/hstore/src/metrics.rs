//! Cluster behaviour counters.

/// Counters accumulated by a [`crate::Cluster`] during a run. (Admission
/// sheds are counted by the node runtime.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Metrics {
    /// Point reads served.
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
    /// Scans served.
    pub scans: u64,
    /// Operations rejected because the serving region's server is down.
    pub server_down: u64,
    /// WAL group commits (pipeline round trips).
    pub wal_groups: u64,
    /// Mutations covered by those group commits.
    pub wal_entries: u64,
    /// WAL blocks rolled.
    pub wal_blocks_rolled: u64,
    /// Memstore flushes.
    pub flushes: u64,
    /// Compactions.
    pub compactions: u64,
    /// Regions moved by failover.
    pub regions_moved: u64,
    /// WAL groups shipped to follower regions (async cluster replication);
    /// one count per (group, follower) arrival.
    pub wal_ships: u64,
}

impl Metrics {
    /// Fresh counters.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Every counter as `(label, value)` in report order, with the
    /// runtime's `shed` in its place. The destructuring makes a field
    /// without a label a compile error.
    pub(crate) fn counters(&self, shed: u64) -> Vec<(&'static str, u64)> {
        let Metrics {
            reads,
            writes,
            scans,
            server_down,
            wal_groups,
            wal_entries,
            wal_blocks_rolled,
            flushes,
            compactions,
            regions_moved,
            wal_ships,
        } = *self;
        vec![
            ("reads", reads),
            ("writes", writes),
            ("scans", scans),
            ("server_down", server_down),
            ("wal_groups", wal_groups),
            ("wal_entries", wal_entries),
            ("wal_blocks_rolled", wal_blocks_rolled),
            ("flushes", flushes),
            ("compactions", compactions),
            ("regions_moved", regions_moved),
            ("wal_ships", wal_ships),
            ("shed", shed),
        ]
    }
}
