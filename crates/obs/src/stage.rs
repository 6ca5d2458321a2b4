//! The stage taxonomy: every instrumented interval is tagged with one of
//! these. The set is deliberately store-agnostic — both analogs map their
//! lifecycle onto it so fig6 can compare breakdowns side by side.

/// A lifecycle stage of a client operation (or background activity).
///
/// The discriminant order is the tie-break order for critical-path
/// extraction and the column order in exports, so it is part of the
/// deterministic output contract: append new stages at the end (before
/// [`Stage::Wait`]) rather than reordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Client → coordinator/regionserver request transfer (NIC + propagation).
    ClientSend,
    /// Coordinator / regionserver CPU service for the request itself.
    ServerCpu,
    /// Coordinator ↔ replica RPC hop (one direction).
    ReplicaRpc,
    /// Replica-side CPU work applying or serving the op.
    ReplicaWork,
    /// Waiting in the WAL group-commit queue for the current group to drain.
    WalQueue,
    /// WAL group commit: sync/pipeline flush until the entry is durable-acked.
    WalCommit,
    /// One DFS pipeline hop inside a WAL group commit.
    PipelineHop,
    /// Disk service (reads: block fetches; writes: commitlog sync).
    DiskIo,
    /// Coordinator waiting for the consistency level's replica quota.
    QuorumWait,
    /// Coordinator CPU reconciling replica responses (digest compare, merge).
    Reconcile,
    /// Read blocked on synchronous read-repair completing.
    RepairBlock,
    /// Memstore apply after WAL commit (HBase-side post-durability work).
    Apply,
    /// Per-row scan iteration CPU.
    ScanRows,
    /// Server → client response transfer.
    RespSend,
    /// Client-side retry backoff between attempts.
    RetryBackoff,
    /// A cross-region (WAN) network hop: replica RPC or WAL shipment whose
    /// endpoints sit in different datacenters.
    WanHop,
    /// Admission-control decision point: a zero-width span marks an op shed
    /// at the door (rejected/early-dropped before entering the server).
    AdmissionQueue,
    /// Synthetic filler for critical-path gaps no recorded span covers
    /// (e.g. event-queue ordering slack). Keeps stage sums exact.
    Wait,
}

impl Stage {
    /// All stages, in discriminant (= export column) order.
    pub const ALL: [Stage; 18] = [
        Stage::ClientSend,
        Stage::ServerCpu,
        Stage::ReplicaRpc,
        Stage::ReplicaWork,
        Stage::WalQueue,
        Stage::WalCommit,
        Stage::PipelineHop,
        Stage::DiskIo,
        Stage::QuorumWait,
        Stage::Reconcile,
        Stage::RepairBlock,
        Stage::Apply,
        Stage::ScanRows,
        Stage::RespSend,
        Stage::RetryBackoff,
        Stage::WanHop,
        Stage::AdmissionQueue,
        Stage::Wait,
    ];

    /// Stable snake_case label used in exports and report columns.
    pub fn label(self) -> &'static str {
        match self {
            Stage::ClientSend => "client_send",
            Stage::ServerCpu => "server_cpu",
            Stage::ReplicaRpc => "replica_rpc",
            Stage::ReplicaWork => "replica_work",
            Stage::WalQueue => "wal_queue",
            Stage::WalCommit => "wal_commit",
            Stage::PipelineHop => "pipeline_hop",
            Stage::DiskIo => "disk_io",
            Stage::QuorumWait => "quorum_wait",
            Stage::Reconcile => "reconcile",
            Stage::RepairBlock => "repair_block",
            Stage::Apply => "apply",
            Stage::ScanRows => "scan_rows",
            Stage::RespSend => "resp_send",
            Stage::RetryBackoff => "retry_backoff",
            Stage::WanHop => "wan_hop",
            Stage::AdmissionQueue => "admission_queue",
            Stage::Wait => "wait",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_ordered() {
        let labels: Vec<_> = Stage::ALL.iter().map(|s| s.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        // ALL is in discriminant order.
        for w in Stage::ALL.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(Stage::Wait.to_string(), "wait");
    }
}
