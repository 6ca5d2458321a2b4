//! The namenode: authoritative file → block → replica-location metadata.

use simkit::FastHashMap;

use simkit::NodeId;

use crate::ids::{BlockId, FileId};

/// Metadata for one block.
#[derive(Debug, Clone)]
pub struct BlockMeta {
    /// The block's identity.
    pub id: BlockId,
    /// Logical length in bytes.
    pub len: u64,
    /// Nodes currently holding a replica, pipeline order (first = primary).
    pub replicas: Vec<NodeId>,
    /// Replication factor this block wants.
    pub target_replication: u32,
}

impl BlockMeta {
    /// True when fewer live replicas exist than requested.
    pub fn under_replicated(&self) -> bool {
        (self.replicas.len() as u32) < self.target_replication
    }
}

/// Metadata for one file.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// The file's identity.
    pub id: FileId,
    /// Human-readable name (e.g. `"/hstore/wal/n3"`).
    pub name: String,
    /// Ordered blocks.
    pub blocks: Vec<BlockId>,
    /// Total logical length.
    pub len: u64,
}

/// The metadata server.
#[derive(Debug, Clone, Default)]
pub struct NameNode {
    files: FastHashMap<FileId, FileMeta>,
    blocks: FastHashMap<BlockId, BlockMeta>,
    next_file: u64,
    next_block: u64,
}

impl NameNode {
    /// An empty namespace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty file.
    pub fn create_file(&mut self, name: &str) -> FileId {
        let id = FileId(self.next_file);
        self.next_file += 1;
        self.files.insert(
            id,
            FileMeta {
                id,
                name: name.to_owned(),
                blocks: Vec::new(),
                len: 0,
            },
        );
        id
    }

    /// Register a new block for `file`, placed on `replicas`. A file id this
    /// namenode never issued has no block list, so the block joins none.
    pub fn add_block(
        &mut self,
        file: FileId,
        len: u64,
        replicas: Vec<NodeId>,
        target_replication: u32,
    ) -> BlockId {
        let id = BlockId(self.next_block);
        self.next_block += 1;
        self.blocks.insert(
            id,
            BlockMeta {
                id,
                len,
                replicas,
                target_replication,
            },
        );
        let Some(meta) = self.files.get_mut(&file) else {
            return id;
        };
        meta.blocks.push(id);
        meta.len += len;
        id
    }

    /// Look up a file.
    pub fn file(&self, id: FileId) -> Option<&FileMeta> {
        self.files.get(&id)
    }

    /// Look up a block.
    pub fn block(&self, id: BlockId) -> Option<&BlockMeta> {
        self.blocks.get(&id)
    }

    /// Mutable block access (re-replication bookkeeping).
    pub fn block_mut(&mut self, id: BlockId) -> Option<&mut BlockMeta> {
        self.blocks.get_mut(&id)
    }

    /// Delete a file, returning its (now orphaned) block metadata so the
    /// caller can free datanode space.
    pub fn delete_file(&mut self, id: FileId) -> Option<Vec<BlockMeta>> {
        let meta = self.files.remove(&id)?;
        Some(
            meta.blocks
                .iter()
                .filter_map(|b| self.blocks.remove(b))
                .collect(),
        )
    }

    /// Remove a dead node from every block's replica list; returns blocks
    /// that became under-replicated.
    pub fn drop_node(&mut self, node: NodeId) -> Vec<BlockId> {
        let mut damaged = Vec::new();
        for meta in self.blocks.values_mut() {
            let before = meta.replicas.len();
            meta.replicas.retain(|&n| n != node);
            if meta.replicas.len() != before && meta.under_replicated() {
                damaged.push(meta.id);
            }
        }
        damaged.sort();
        damaged
    }

    /// All blocks currently under-replicated.
    pub fn under_replicated(&self) -> Vec<BlockId> {
        let mut v: Vec<_> = self
            .blocks
            .values()
            .filter(|b| b.under_replicated())
            .map(|b| b.id)
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn create_and_grow_file() {
        let mut nn = NameNode::new();
        let f = nn.create_file("/wal/0");
        nn.add_block(f, 100, vec![n(0), n(1), n(2)], 3);
        nn.add_block(f, 50, vec![n(1), n(2), n(3)], 3);
        let meta = nn.file(f).unwrap();
        assert_eq!(meta.len, 150);
        assert_eq!(meta.blocks.len(), 2);
        assert_eq!(meta.name, "/wal/0");
        assert_eq!(nn.blocks.len(), 2);
    }

    #[test]
    fn delete_returns_orphans() {
        let mut nn = NameNode::new();
        let f = nn.create_file("/x");
        nn.add_block(f, 10, vec![n(0)], 1);
        let orphans = nn.delete_file(f).unwrap();
        assert_eq!(orphans.len(), 1);
        assert!(nn.file(f).is_none());
        assert_eq!(nn.blocks.len(), 0);
        assert!(nn.delete_file(f).is_none());
    }

    #[test]
    fn drop_node_flags_under_replication() {
        let mut nn = NameNode::new();
        let f = nn.create_file("/x");
        let b1 = nn.add_block(f, 10, vec![n(0), n(1), n(2)], 3);
        let b2 = nn.add_block(f, 10, vec![n(3), n(4), n(5)], 3);
        let damaged = nn.drop_node(n(1));
        assert_eq!(damaged, vec![b1]);
        assert!(nn.block(b1).unwrap().under_replicated());
        assert!(!nn.block(b2).unwrap().under_replicated());
        assert_eq!(nn.under_replicated(), vec![b1]);
    }

    #[test]
    fn block_mut_allows_repair() {
        let mut nn = NameNode::new();
        let f = nn.create_file("/x");
        let b = nn.add_block(f, 10, vec![n(0), n(1)], 3);
        assert!(nn.block(b).unwrap().under_replicated());
        nn.block_mut(b).unwrap().replicas.push(n(2));
        assert!(!nn.block(b).unwrap().under_replicated());
        assert!(nn.under_replicated().is_empty());
    }
}
