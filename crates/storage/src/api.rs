//! The client-facing operation API shared by both database analogs.
//!
//! The YCSB driver speaks this vocabulary to either store; the stores
//! complete operations asynchronously (in virtual time) by emitting
//! [`Completion`]s keyed by the driver's token.

use crate::types::{Cell, Key, Value};

/// A client operation submitted to a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreOp {
    /// Insert a new record.
    Insert {
        /// Record key.
        key: Key,
        /// Record value.
        value: Value,
    },
    /// Overwrite an existing record.
    Update {
        /// Record key.
        key: Key,
        /// New value.
        value: Value,
    },
    /// Point read.
    Read {
        /// Record key.
        key: Key,
    },
    /// Range scan of up to `limit` rows starting at `start`.
    Scan {
        /// First key of the range.
        start: Key,
        /// Maximum rows to return.
        limit: usize,
    },
    /// Delete a record.
    Delete {
        /// Record key.
        key: Key,
    },
}

impl StoreOp {
    /// The key the operation targets (scan: its start key).
    pub fn key(&self) -> &Key {
        match self {
            StoreOp::Insert { key, .. }
            | StoreOp::Update { key, .. }
            | StoreOp::Read { key }
            | StoreOp::Delete { key } => key,
            StoreOp::Scan { start, .. } => start,
        }
    }
}

/// Operation kinds, including the client-composed read-modify-write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Insert a new record.
    Insert,
    /// Overwrite an existing record.
    Update,
    /// Point read.
    Read,
    /// Range scan.
    Scan,
    /// Delete.
    Delete,
    /// Read-modify-write (a read followed by an update, measured together).
    ReadModifyWrite,
}

impl OpKind {
    /// All kinds, in display order.
    #[cfg(test)]
    pub(crate) const ALL: [OpKind; 6] = [
        OpKind::Insert,
        OpKind::Update,
        OpKind::Read,
        OpKind::Scan,
        OpKind::Delete,
        OpKind::ReadModifyWrite,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Insert => "INSERT",
            OpKind::Update => "UPDATE",
            OpKind::Read => "READ",
            OpKind::Scan => "SCAN",
            OpKind::Delete => "DELETE",
            OpKind::ReadModifyWrite => "RMW",
        }
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why an operation failed.
///
/// Every variant is a *transient* server-side condition: a later attempt
/// may land on a recovered node, a failed-over region, a restored quorum or
/// a less loaded interval, so a retrying client may re-attempt any of them.
/// A client that gives up on its deadline settles the op with the last
/// error the store reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpError {
    /// Not enough live replicas to satisfy the consistency level.
    Unavailable,
    /// The responsible server is down and nothing has taken over.
    ServerDown,
    /// The request stayed incomplete past the store's RPC timeout (the
    /// replica or server it was routed to stopped answering mid-flight).
    Timeout,
    /// The store's admission controller shed the request before queuing it:
    /// the server is saturated and chose a fast-fail over an unbounded
    /// queue.
    Overloaded,
}

/// The outcome a store reports for one operation.
#[derive(Debug, Clone, PartialEq)]
pub enum OpResult {
    /// A write (insert/update/delete) was acknowledged; carries the version
    /// timestamp the store assigned (Cassandra clients know their write
    /// timestamps; the driver uses it for staleness measurement).
    Written {
        /// Version timestamp assigned to the write.
        ts: crate::types::Timestamp,
    },
    /// A point read completed; `None` means not found (or tombstoned).
    Value(Option<Cell>),
    /// A scan completed with these rows.
    Rows(Vec<(Key, Cell)>),
    /// The operation failed.
    Error(OpError),
}

/// A finished operation, delivered back to the driver.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The driver's token from `submit`.
    pub token: u64,
    /// What happened.
    pub result: OpResult,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn k(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn key_accessor_covers_all_variants() {
        for op in [
            StoreOp::Insert {
                key: k("x"),
                value: k("v"),
            },
            StoreOp::Update {
                key: k("x"),
                value: k("v"),
            },
            StoreOp::Read { key: k("x") },
            StoreOp::Scan {
                start: k("x"),
                limit: 1,
            },
            StoreOp::Delete { key: k("x") },
        ] {
            assert_eq!(op.key(), &k("x"));
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(OpKind::ReadModifyWrite.label(), "RMW");
        assert_eq!(OpKind::Read.to_string(), "READ");
        assert_eq!(OpKind::ALL.len(), 6);
    }
}
