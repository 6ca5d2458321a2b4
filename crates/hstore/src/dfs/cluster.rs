//! The assembled filesystem: placement, pipelines, reads, re-replication.

use simkit::{NodeId, SimRng};

use super::datanode::DataNode;
use super::ids::{BlockId, FileId};
use super::namenode::NameNode;

/// Result of appending one block: identity plus the write pipeline the
/// caller must charge for (in order: first hop is the writer-local replica).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BlockWrite {
    /// The new block.
    pub block: BlockId,
    /// Replica nodes in pipeline order.
    pub pipeline: Vec<NodeId>,
}

/// One block copy the re-replication scanner wants performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReplicationTask {
    /// Block to copy.
    pub block: BlockId,
    /// A surviving replica to read from.
    pub src: NodeId,
    /// The destination node.
    pub dst: NodeId,
    /// Bytes to move.
    pub len: u64,
}

/// A whole filesystem: one namenode plus a datanode per cluster machine.
#[derive(Debug, Clone)]
pub(crate) struct DfsCluster {
    namenode: NameNode,
    datanodes: Vec<DataNode>,
    replication: u32,
}

impl DfsCluster {
    /// A filesystem over `nodes` machines with default replication factor
    /// `replication`.
    pub(crate) fn new(nodes: usize, replication: u32) -> Self {
        assert!(nodes > 0, "need at least one datanode");
        assert!(replication >= 1, "replication factor must be at least 1");
        Self {
            namenode: NameNode::new(),
            datanodes: (0..nodes as u32)
                .map(|i| DataNode::new(NodeId(i)))
                .collect(),
            replication,
        }
    }

    /// The namenode (read access for assertions and bookkeeping).
    pub(crate) fn namenode(&self) -> &NameNode {
        &self.namenode
    }

    /// A datanode by machine.
    #[cfg(test)]
    pub(crate) fn datanode(&self, node: NodeId) -> &DataNode {
        &self.datanodes[node.index()]
    }

    /// Create an empty file.
    pub(crate) fn create_file(&mut self) -> FileId {
        self.namenode.create_file()
    }

    /// Choose a pipeline: writer-local replica first (if that datanode is
    /// up), then distinct random live nodes. Mirrors HDFS's default
    /// single-rack placement.
    fn place(&self, writer: NodeId, rng: &mut SimRng) -> Vec<NodeId> {
        let want = self.replication as usize;
        let mut pipeline = Vec::with_capacity(want);
        if self
            .datanodes
            .get(writer.index())
            .is_some_and(DataNode::is_up)
        {
            pipeline.push(writer);
        }
        let mut candidates: Vec<NodeId> = self
            .datanodes
            .iter()
            .filter(|d| d.is_up() && !pipeline.contains(&d.node()))
            .map(DataNode::node)
            .collect();
        while pipeline.len() < want && !candidates.is_empty() {
            let i = rng.below(candidates.len() as u64) as usize;
            pipeline.push(candidates.swap_remove(i));
        }
        pipeline
    }

    /// Append one block of `len` bytes to `file`, written from `writer`.
    /// Stores a replica on every pipeline node and registers the block.
    /// `None` when no datanode is up: nothing is stored or registered.
    pub(crate) fn append_block(
        &mut self,
        file: FileId,
        len: u64,
        writer: NodeId,
        rng: &mut SimRng,
    ) -> Option<BlockWrite> {
        let pipeline = self.place(writer, rng);
        if pipeline.is_empty() {
            return None;
        }
        let block = self
            .namenode
            .add_block(file, len, pipeline.clone(), self.replication);
        for &node in &pipeline {
            self.datanodes[node.index()].store(block, len);
        }
        Some(BlockWrite { block, pipeline })
    }

    /// Replica locations of a block (namenode view).
    pub(crate) fn locations(&self, block: BlockId) -> &[NodeId] {
        self.namenode
            .block(block)
            .map(|b| b.replicas.as_slice())
            .unwrap_or(&[])
    }

    /// Pick the replica a reader on `reader` should use: itself when local
    /// (short-circuit read), otherwise the first live replica.
    pub(crate) fn pick_read_replica(&self, block: BlockId, reader: NodeId) -> Option<NodeId> {
        let locs = self.locations(block);
        if locs.contains(&reader) && self.datanodes[reader.index()].is_up() {
            return Some(reader);
        }
        locs.iter()
            .copied()
            .find(|n| self.datanodes[n.index()].is_up())
    }

    /// Delete a file and free all replica space. Returns total bytes freed
    /// across the cluster.
    pub(crate) fn delete_file(&mut self, file: FileId) -> u64 {
        let Some(orphans) = self.namenode.delete_file(file) else {
            return 0;
        };
        let mut freed = 0;
        for block in orphans {
            for node in block.replicas {
                freed += self.datanodes[node.index()].remove(block.id);
            }
        }
        freed
    }

    /// Mark a datanode dead and update namenode metadata. Returns the blocks
    /// that became under-replicated.
    pub(crate) fn fail_node(&mut self, node: NodeId) -> Vec<BlockId> {
        self.datanodes[node.index()].fail();
        self.namenode.drop_node(node)
    }

    /// Bring a datanode back up. Its surviving replicas are re-registered
    /// with the namenode (HDFS block reports on restart).
    pub(crate) fn recover_node(&mut self, node: NodeId) {
        // Collect first: the datanode borrow must end before namenode writes.
        self.datanodes[node.index()].recover();
        let held: Vec<BlockId> = self
            .namenode
            .under_replicated()
            .into_iter()
            .filter(|&b| self.datanodes[node.index()].has(b))
            .collect();
        for b in held {
            let Some(meta) = self.namenode.block_mut(b) else {
                continue; // listed as under-replicated, so it exists
            };
            if !meta.replicas.contains(&node) {
                meta.replicas.push(node);
            }
        }
    }

    /// Plan and apply re-replication for every under-replicated block:
    /// choose a live source replica and a live node not yet holding the
    /// block. Returns the copies performed so the caller can charge network
    /// and disk time.
    pub(crate) fn rereplicate(&mut self, rng: &mut SimRng) -> Vec<ReplicationTask> {
        let mut tasks = Vec::new();
        for block in self.namenode.under_replicated() {
            while let Some(meta) = self.namenode.block(block).filter(|m| m.under_replicated()) {
                let len = meta.len;
                let Some(src) = meta
                    .replicas
                    .iter()
                    .copied()
                    .find(|n| self.datanodes[n.index()].is_up())
                else {
                    break; // all replicas dead: data loss, nothing to copy
                };
                let holders = meta.replicas.clone();
                let mut candidates: Vec<NodeId> = self
                    .datanodes
                    .iter()
                    .filter(|d| d.is_up() && !holders.contains(&d.node()))
                    .map(DataNode::node)
                    .collect();
                if candidates.is_empty() {
                    break; // nowhere to put another replica
                }
                let dst = candidates.swap_remove(rng.below(candidates.len() as u64) as usize);
                self.datanodes[dst.index()].store(block, len);
                let Some(meta) = self.namenode.block_mut(block) else {
                    break;
                };
                meta.replicas.push(dst);
                tasks.push(ReplicationTask {
                    block,
                    src,
                    dst,
                    len,
                });
            }
        }
        tasks
    }

    /// Bytes stored per node, for balance assertions.
    #[cfg(test)]
    pub(crate) fn node_used_bytes(&self) -> Vec<u64> {
        self.datanodes.iter().map(DataNode::used_bytes).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(7)
    }

    #[test]
    fn pipeline_is_writer_local_first_and_distinct() {
        let mut fs = DfsCluster::new(10, 3);
        let f = fs.create_file();
        let w = fs
            .append_block(f, 100, NodeId(4), &mut rng())
            .expect("a live datanode");
        assert_eq!(w.pipeline.len(), 3);
        assert_eq!(w.pipeline[0], NodeId(4));
        let mut uniq = w.pipeline.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 3);
    }

    #[test]
    fn replicas_actually_stored() {
        let mut fs = DfsCluster::new(5, 3);
        let f = fs.create_file();
        let w = fs
            .append_block(f, 64, NodeId(0), &mut rng())
            .expect("a live datanode");
        for &n in &w.pipeline {
            assert!(fs.datanode(n).has(w.block));
            assert_eq!(fs.datanode(n).used_bytes(), 64);
        }
        assert_eq!(fs.locations(w.block), w.pipeline.as_slice());
    }

    #[test]
    fn replication_clamped_by_cluster_size() {
        let mut fs = DfsCluster::new(2, 3);
        let f = fs.create_file();
        let w = fs
            .append_block(f, 10, NodeId(0), &mut rng())
            .expect("a live datanode");
        assert_eq!(w.pipeline.len(), 2, "only two nodes exist");
        assert!(fs.namenode().block(w.block).unwrap().under_replicated());
    }

    #[test]
    fn short_circuit_read_prefers_local() {
        let mut fs = DfsCluster::new(6, 3);
        let f = fs.create_file();
        let w = fs
            .append_block(f, 10, NodeId(2), &mut rng())
            .expect("a live datanode");
        assert_eq!(fs.pick_read_replica(w.block, NodeId(2)), Some(NodeId(2)));
        // A non-holder reads from the first live replica.
        let non_holder = (0..6u32)
            .map(NodeId)
            .find(|n| !w.pipeline.contains(n))
            .unwrap();
        let picked = fs.pick_read_replica(w.block, non_holder).unwrap();
        assert!(w.pipeline.contains(&picked));
    }

    #[test]
    fn delete_frees_all_replica_space() {
        let mut fs = DfsCluster::new(5, 3);
        let f = fs.create_file();
        fs.append_block(f, 100, NodeId(0), &mut rng())
            .expect("a live datanode");
        fs.append_block(f, 50, NodeId(0), &mut rng())
            .expect("a live datanode");
        let total_before: u64 = fs.node_used_bytes().iter().sum();
        assert_eq!(total_before, 150 * 3);
        assert_eq!(fs.delete_file(f), 150 * 3);
        assert_eq!(fs.node_used_bytes().iter().sum::<u64>(), 0);
    }

    #[test]
    fn failure_then_rereplication_restores_factor() {
        let mut r = rng();
        let mut fs = DfsCluster::new(8, 3);
        let f = fs.create_file();
        let w = fs
            .append_block(f, 100, NodeId(0), &mut r)
            .expect("a live datanode");
        let victim = w.pipeline[1];
        let damaged = fs.fail_node(victim);
        assert_eq!(damaged, vec![w.block]);
        let tasks = fs.rereplicate(&mut r);
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].block, w.block);
        assert_ne!(tasks[0].dst, victim);
        let meta = fs.namenode().block(w.block).unwrap();
        assert!(!meta.under_replicated());
        // The copy landed on the destination.
        assert!(fs.datanode(tasks[0].dst).has(w.block));
        assert_eq!(fs.datanode(tasks[0].dst).used_bytes(), 100);
    }

    #[test]
    fn recovery_re_registers_surviving_replicas() {
        let mut r = rng();
        let mut fs = DfsCluster::new(3, 3);
        let f = fs.create_file();
        let w = fs
            .append_block(f, 10, NodeId(0), &mut r)
            .expect("a live datanode");
        fs.fail_node(NodeId(1));
        assert_eq!(fs.locations(w.block).len(), 2);
        // No spare node exists, so re-replication cannot help.
        assert!(fs.rereplicate(&mut r).is_empty());
        fs.recover_node(NodeId(1));
        assert_eq!(fs.locations(w.block).len(), 3);
        assert!(fs.namenode().under_replicated().is_empty());
    }

    #[test]
    fn a_block_with_no_live_datanode_is_not_placed() {
        let mut r = rng();
        let mut fs = DfsCluster::new(2, 2);
        fs.fail_node(NodeId(0));
        fs.fail_node(NodeId(1));
        let f = fs.create_file();
        let before = r.clone();
        assert_eq!(fs.append_block(f, 10, NodeId(0), &mut r), None);
        assert_eq!(fs.namenode().file(f), Some(&[][..]));
        assert_eq!(fs.node_used_bytes(), vec![0, 0]);
        assert_eq!(r, before, "no placement, no draw");
    }

    #[test]
    fn reads_skip_dead_replicas() {
        let mut r = rng();
        let mut fs = DfsCluster::new(5, 2);
        let f = fs.create_file();
        let w = fs
            .append_block(f, 10, NodeId(0), &mut r)
            .expect("a live datanode");
        fs.fail_node(w.pipeline[0]);
        let picked = fs.pick_read_replica(w.block, w.pipeline[0]);
        assert_eq!(picked, Some(w.pipeline[1]));
    }

    #[test]
    fn placement_spreads_load_roughly_evenly() {
        let mut r = rng();
        let mut fs = DfsCluster::new(10, 3);
        let f = fs.create_file();
        // Writers round-robin, many blocks.
        for i in 0..3000u32 {
            fs.append_block(f, 1, NodeId(i % 10), &mut r)
                .expect("a live datanode");
        }
        let usage = fs.node_used_bytes();
        let (min, max) = (
            *usage.iter().min().unwrap() as f64,
            *usage.iter().max().unwrap() as f64,
        );
        assert!(max / min < 1.5, "placement skew too large: {usage:?}");
    }
}
