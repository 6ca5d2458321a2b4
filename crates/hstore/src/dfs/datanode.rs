//! Datanodes: per-machine block replica storage.

use simkit::FastHashMap;

use simkit::NodeId;

use super::ids::BlockId;

/// A datanode daemon: the set of block replicas on one machine. A replica
/// is its logical length only: `hstore` keeps HFile contents in its own
/// structures.
#[derive(Debug, Clone)]
pub(crate) struct DataNode {
    node: NodeId,
    /// Each stored replica's logical length in bytes.
    blocks: FastHashMap<BlockId, u64>,
    used_bytes: u64,
    up: bool,
}

impl DataNode {
    /// An empty datanode on machine `node`.
    pub(crate) fn new(node: NodeId) -> Self {
        Self {
            node,
            blocks: FastHashMap::default(),
            used_bytes: 0,
            up: true,
        }
    }

    /// Which machine this daemon runs on.
    pub(crate) fn node(&self) -> NodeId {
        self.node
    }

    /// Store a replica. Overwrites any prior replica of the same block.
    pub(crate) fn store(&mut self, block: BlockId, len: u64) {
        if let Some(old) = self.blocks.insert(block, len) {
            self.used_bytes -= old;
        }
        self.used_bytes += len;
    }

    /// True when this node holds a replica of `block`.
    pub(crate) fn has(&self, block: BlockId) -> bool {
        self.blocks.contains_key(&block)
    }

    /// Drop a replica; returns the bytes freed.
    pub(crate) fn remove(&mut self, block: BlockId) -> u64 {
        let len = self.blocks.remove(&block).unwrap_or(0);
        self.used_bytes -= len;
        len
    }

    /// Bytes stored on this node.
    #[cfg(test)]
    pub(crate) fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// True while the daemon is serving.
    pub(crate) fn is_up(&self) -> bool {
        self.up
    }

    /// Crash the daemon. Stored replicas survive (disk persists) but are
    /// unreadable until recovery.
    pub(crate) fn fail(&mut self) {
        self.up = false;
    }

    /// Restart the daemon.
    pub(crate) fn recover(&mut self) {
        self.up = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_account() {
        let mut d = DataNode::new(NodeId(3));
        d.store(BlockId(1), 5);
        assert!(d.has(BlockId(1)));
        assert_eq!(d.used_bytes(), 5);
        assert_eq!(d.node(), NodeId(3));
    }

    #[test]
    fn overwrite_adjusts_usage() {
        let mut d = DataNode::new(NodeId(0));
        d.store(BlockId(1), 100);
        d.store(BlockId(1), 40);
        assert_eq!(d.used_bytes(), 40);
        assert_eq!(d.blocks.len(), 1);
    }

    #[test]
    fn remove_frees_bytes() {
        let mut d = DataNode::new(NodeId(0));
        d.store(BlockId(1), 100);
        assert_eq!(d.remove(BlockId(1)), 100);
        assert_eq!(d.remove(BlockId(1)), 0);
        assert_eq!(d.used_bytes(), 0);
    }

    #[test]
    fn crash_keeps_data() {
        let mut d = DataNode::new(NodeId(0));
        d.store(BlockId(1), 10);
        d.fail();
        assert!(!d.is_up());
        assert!(d.has(BlockId(1)), "crash does not lose the disk");
        d.recover();
        assert!(d.is_up());
    }
}
