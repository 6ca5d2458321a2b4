//! One server node's storage engine and hints (its hardware lives in the
//! cluster's [`::node::Runtime`]).

use storage::{Cell, Key, LsmConfig, LsmTree};

use crate::metrics::Metrics;

/// A mutation owed to a replica that was down when it was written.
#[derive(Debug, Clone)]
pub struct Hint {
    /// The replica that missed the write.
    pub target: simkit::NodeId,
    /// Key of the missed mutation.
    pub key: Key,
    /// The missed cell.
    pub cell: Cell,
}

/// One Cassandra-analog server.
#[derive(Debug, Clone)]
pub struct CNode {
    /// The node's storage engine (commit log + memtable + SSTables).
    pub lsm: LsmTree,
    /// Hinted-handoff queue held *by* this node for other nodes.
    pub hints: Vec<Hint>,
}

impl CNode {
    /// Build a node.
    pub(crate) fn new(lsm: LsmConfig) -> Self {
        Self {
            lsm: LsmTree::new(lsm),
            hints: Vec::new(),
        }
    }

    /// Run the post-write maintenance that a replica performs when its
    /// memtable fills: flush, then compact if ripe, counting both into
    /// `metrics`. The disk work is *not* charged here: the returned bytes
    /// go to the background-I/O throttle (real stores rate-limit compaction
    /// so it cannot monopolize the spindle).
    pub(crate) fn maintain(&mut self, metrics: &mut Metrics) -> u64 {
        let mut bg_bytes = 0;
        if self.lsm.memtable_bytes() >= self.lsm.config().memtable_flush_bytes {
            if let Some(receipt) = self.lsm.flush() {
                bg_bytes += receipt.bytes;
                metrics.flushes += 1;
                if receipt.compaction_due {
                    if let Some(c) = self.lsm.maybe_compact() {
                        bg_bytes += c.read_bytes + c.write_bytes;
                        metrics.compactions += 1;
                    }
                }
            }
        }
        bg_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn node() -> CNode {
        CNode::new(LsmConfig {
            memtable_flush_bytes: 2_048,
            ..LsmConfig::default()
        })
    }

    #[test]
    fn maintain_flushes_when_threshold_crossed() {
        let mut n = node();
        for i in 0..200 {
            n.lsm.put(
                Bytes::from(format!("user{i:06}").into_bytes()),
                Cell::live(Bytes::from(vec![1u8; 64]), i),
            );
        }
        assert!(n.lsm.memtable_bytes() >= 2_048);
        let mut m = Metrics::new();
        let bg_bytes = n.maintain(&mut m);
        assert_eq!(m.flushes, 1);
        assert_eq!(n.lsm.memtable_bytes(), 0);
        assert!(
            bg_bytes > 0,
            "flush bytes must enter the background-I/O backlog"
        );
    }

    #[test]
    fn maintain_is_noop_below_threshold() {
        let mut n = node();
        n.lsm.put(
            Bytes::from_static(b"a"),
            Cell::live(Bytes::from_static(b"v"), 1),
        );
        let mut m = Metrics::new();
        assert_eq!(n.maintain(&mut m), 0);
        assert_eq!(m, Metrics::new());
    }
}
