//! Datanodes: per-machine block replica storage.

use simkit::FastHashMap;

use bytes::Bytes;
use simkit::NodeId;

use crate::ids::BlockId;

/// One stored replica. Payload is optional: `hstore` keeps HFile contents in
/// its own structures and stores length-only replicas here, while tests (and
/// any direct user of `dfs`) can round-trip real bytes.
#[derive(Debug, Clone)]
pub struct StoredBlock {
    /// Logical length in bytes.
    pub len: u64,
    /// Optional real contents.
    pub payload: Option<Bytes>,
}

/// A datanode daemon: the set of block replicas on one machine.
#[derive(Debug, Clone)]
pub struct DataNode {
    node: NodeId,
    blocks: FastHashMap<BlockId, StoredBlock>,
    used_bytes: u64,
    up: bool,
}

impl DataNode {
    /// An empty datanode on machine `node`.
    pub fn new(node: NodeId) -> Self {
        Self {
            node,
            blocks: FastHashMap::default(),
            used_bytes: 0,
            up: true,
        }
    }

    /// Which machine this daemon runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Store a replica. Overwrites any prior replica of the same block.
    pub fn store(&mut self, block: BlockId, len: u64, payload: Option<Bytes>) {
        if let Some(old) = self.blocks.insert(block, StoredBlock { len, payload }) {
            self.used_bytes -= old.len;
        }
        self.used_bytes += len;
    }

    /// True when this node holds a replica of `block`.
    pub fn has(&self, block: BlockId) -> bool {
        self.blocks.contains_key(&block)
    }

    /// Access a stored replica.
    pub fn get(&self, block: BlockId) -> Option<&StoredBlock> {
        self.blocks.get(&block)
    }

    /// Drop a replica; returns the bytes freed.
    pub fn remove(&mut self, block: BlockId) -> u64 {
        match self.blocks.remove(&block) {
            Some(b) => {
                self.used_bytes -= b.len;
                b.len
            }
            None => 0,
        }
    }

    /// Bytes stored on this node.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// True while the daemon is serving.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Crash the daemon. Stored replicas survive (disk persists) but are
    /// unreadable until recovery.
    pub fn fail(&mut self) {
        self.up = false;
    }

    /// Restart the daemon.
    pub fn recover(&mut self) {
        self.up = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_retrieve_with_payload() {
        let mut d = DataNode::new(NodeId(3));
        d.store(BlockId(1), 5, Some(Bytes::from_static(b"hello")));
        assert!(d.has(BlockId(1)));
        assert_eq!(
            d.get(BlockId(1)).unwrap().payload.as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(d.used_bytes(), 5);
        assert_eq!(d.node(), NodeId(3));
    }

    #[test]
    fn overwrite_adjusts_usage() {
        let mut d = DataNode::new(NodeId(0));
        d.store(BlockId(1), 100, None);
        d.store(BlockId(1), 40, None);
        assert_eq!(d.used_bytes(), 40);
        assert_eq!(d.blocks.len(), 1);
    }

    #[test]
    fn remove_frees_bytes() {
        let mut d = DataNode::new(NodeId(0));
        d.store(BlockId(1), 100, None);
        assert_eq!(d.remove(BlockId(1)), 100);
        assert_eq!(d.remove(BlockId(1)), 0);
        assert_eq!(d.used_bytes(), 0);
    }

    #[test]
    fn crash_keeps_data() {
        let mut d = DataNode::new(NodeId(0));
        d.store(BlockId(1), 10, None);
        d.fail();
        assert!(!d.is_up());
        assert!(d.has(BlockId(1)), "crash does not lose the disk");
        d.recover();
        assert!(d.is_up());
    }
}
