//! The cluster's internal event vocabulary.
//!
//! Internal events reference their operation by slab key ([`OpKey`], see
//! [`simkit::slab`]): a late event whose op already completed carries a
//! stale generation and resolves to nothing, replacing the old
//! `HashMap`-miss semantics.

use simkit::{NodeId, OpKey, SimTime};
use storage::{Key, OpResult};

/// An internal simulation event of the HBase-analog cluster.
#[derive(Debug, Clone)]
pub enum Event {
    /// A client request fully arrived at its region server.
    Arrive {
        /// Slab key of the pending op.
        op: OpKey,
    },
    /// A WAL group commit's pipeline round trip finished on a server.
    WalFlushDone {
        /// The region server whose WAL group completed.
        server: NodeId,
        /// The mutations covered by this group.
        group: Vec<OpKey>,
    },
    /// A scan leg arrived at the server of `region`.
    ScanExec {
        /// Slab key of the pending op.
        op: OpKey,
        /// Region index to scan.
        region: usize,
        /// First key of this leg.
        start: Key,
    },
    /// The final response reached the client.
    Deliver {
        /// The driver token.
        token: u64,
        /// Slab key of the pending op (stale when the op timed out first).
        op: OpKey,
        /// The outcome.
        result: OpResult,
    },
    /// Give up on an incomplete operation.
    Timeout {
        /// Slab key of the pending op.
        op: OpKey,
    },
    /// Trickle one chunk of throttled background (flush/compaction) disk
    /// I/O on a server.
    BgIo {
        /// The server draining its backlog.
        server: NodeId,
    },
    /// The master detects a crashed server (ZooKeeper session expiry) and
    /// starts region failover. Every crash schedules one,
    /// `failover_delay_us` after it; a no-op if the server already
    /// recovered.
    FailOver {
        /// The server whose crash was detected.
        server: NodeId,
    },
    /// A shipped WAL group arrives at a follower region's replication sink
    /// (async cluster replication); the gap `now - commit_ts` is the
    /// replication window. Followers serve no reads, so nothing else is
    /// kept of it.
    WalShip {
        /// When the group committed on the primary.
        commit_ts: SimTime,
    },
}

impl node::NodeEvent for Event {
    fn arrive(op: OpKey) -> Self {
        Event::Arrive { op }
    }

    fn timeout(op: OpKey) -> Self {
        Event::Timeout { op }
    }

    fn deliver(token: u64, op: OpKey, result: OpResult) -> Self {
        Event::Deliver { token, op, result }
    }

    fn bg_io(server: NodeId) -> Self {
        Event::BgIo { server }
    }
}

#[cfg(test)]
mod tests {
    /// The runtime's event vocabulary must not grow queue entries: this is
    /// the size before the runtime existed.
    #[test]
    fn events_stay_within_the_pre_runtime_size() {
        assert!(std::mem::size_of::<super::Event>() <= 48);
    }
}
