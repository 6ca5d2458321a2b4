//! The cluster's internal event vocabulary.
//!
//! The driver embeds these events in its own enum (`node::DriverEvent`),
//! the queue type of the cluster's `SimStore` surface. The private handlers
//! stay generic over `W: From<Event>`, the bound `faults::FaultTarget`'s
//! hooks use: pinning them to `DriverEvent<Event>` would delete nothing.
//!
//! Internal events reference their operation by slab key ([`OpKey`], see
//! [`simkit::slab`]): a late event whose op already completed carries a
//! stale generation and resolves to nothing, replacing the old
//! `HashMap`-miss semantics. Replica-side events additionally carry the
//! driver token for span tracing, which must keep recording work performed
//! on behalf of an op even after the op itself timed out.

use simkit::{NodeId, OpKey};
use storage::{Cell, Key, OpResult, Rows};

/// An internal simulation event of the Cassandra-analog cluster.
#[derive(Debug, Clone)]
pub enum Event {
    /// A client request has fully arrived at its coordinator.
    Arrive {
        /// Slab key of the pending op.
        op: OpKey,
    },
    /// A mutation has arrived at a replica.
    ReplicaWrite {
        /// Slab key; [`OpKey::NONE`] for repair/hint writes (no pending op).
        op: OpKey,
        /// Driver token for tracing; 0 for repair/hint writes.
        token: u64,
        /// The replica.
        node: NodeId,
        /// Mutated key.
        key: Key,
        /// New cell.
        cell: Cell,
        /// Whether the replica should acknowledge to the coordinator.
        ack: bool,
    },
    /// A replica finished applying a mutation (CPU/log done).
    WriteApplied {
        /// Slab key; [`OpKey::NONE`] when `ack` is false.
        op: OpKey,
        /// The replica.
        node: NodeId,
        /// Mutated key.
        key: Key,
        /// New cell.
        cell: Cell,
        /// Whether to acknowledge.
        ack: bool,
    },
    /// A replica's write acknowledgement reached the coordinator.
    WriteAck {
        /// Slab key of the pending op.
        op: OpKey,
        /// The acking replica — the datacenter-aware consistency levels
        /// count acks per datacenter.
        node: NodeId,
    },
    /// A read request arrived at a replica.
    ReplicaRead {
        /// Slab key of the pending op.
        op: OpKey,
        /// Driver token for tracing.
        token: u64,
        /// The replica.
        node: NodeId,
        /// Key to read.
        key: Key,
    },
    /// A replica's read response reached the coordinator.
    ReadReturn {
        /// Slab key of the pending op.
        op: OpKey,
        /// The responding replica.
        node: NodeId,
        /// What the replica had (None = no version).
        cell: Option<Cell>,
    },
    /// A scan request arrived at a replica.
    ReplicaScan {
        /// Slab key of the pending op.
        op: OpKey,
        /// Driver token for tracing.
        token: u64,
        /// The replica.
        node: NodeId,
        /// First key of the range.
        start: Key,
        /// Row budget for this range.
        limit: usize,
        /// Exclusive end of the replica's scanned range, when known.
        clamp: Option<Key>,
        /// False for repair probes: their responses add load but the
        /// coordinator neither waits for nor merges them.
        count: bool,
    },
    /// A replica's scan response reached the coordinator.
    ScanReturn {
        /// Slab key of the pending op.
        op: OpKey,
        /// The replica's page: its rows in the range, tombstones included
        /// (the coordinator's reconcile drops them).
        rows: Rows,
    },
    /// The final response reached the client: deliver the completion.
    Deliver {
        /// The driver token.
        token: u64,
        /// The outcome.
        result: OpResult,
    },
    /// Give up on an operation that is still incomplete.
    Timeout {
        /// Slab key of the pending op.
        op: OpKey,
    },
    /// Drain this node's hint queue toward recovered replicas.
    HintReplay {
        /// The hint-holding node.
        node: NodeId,
    },
    /// Trickle one chunk of throttled background (flush/compaction) disk
    /// I/O on a node.
    BgIo {
        /// The node draining its backlog.
        node: NodeId,
    },
}

impl ::node::NodeEvent for Event {
    fn arrive(op: OpKey) -> Self {
        Event::Arrive { op }
    }

    fn timeout(op: OpKey) -> Self {
        Event::Timeout { op }
    }

    fn deliver(token: u64, _op: OpKey, result: OpResult) -> Self {
        Event::Deliver { token, result }
    }

    fn bg_io(node: NodeId) -> Self {
        Event::BgIo { node }
    }
}

#[cfg(test)]
mod tests {
    /// Every queued event pays for the largest variant, a replica write
    /// carrying a one-word key and a 16-byte cell: keep queue entries at
    /// that size.
    #[test]
    fn events_hold_one_word_keys_within_48_bytes() {
        assert!(std::mem::size_of::<super::Event>() <= 48);
    }
}
