//! A replicated block store: the HDFS analog.
//!
//! HBase does not replicate data itself: it writes WALs and HFiles into
//! HDFS, and HDFS replicates the blocks. The paper varies the replication
//! factor *here* ("HBase uses HDFS to configure the replication factor and
//! save replicas"), so this module is where hstore's RF knob lives.
//!
//! [`Dfs`] is one block table: each block's length and the nodes holding
//! it. It places write pipelines, picks local-first read replicas (HBase's
//! short-circuit read), deletes blocks, marks datanodes failed and
//! recovered, and plans re-replication. Timing is deliberately absent: the
//! cluster charges pipeline hops and disk transfers against its simulated
//! nodes using the placements this module reports.

use std::collections::BTreeMap;

use simkit::{NodeId, SimRng};

/// Identity of one stored block: blocks are numbered in creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct BlockId(u64);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Block {
    /// Logical length in bytes.
    len: u64,
    /// Nodes serving a replica, pipeline order (first = primary).
    replicas: Vec<NodeId>,
    /// Nodes a failure removed from `replicas` whose copy is still on disk:
    /// a recovering node re-registers it if the block still lacks replicas.
    dropped: Vec<NodeId>,
}

/// The filesystem over a cluster's machines: a datanode per machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Dfs {
    blocks: BTreeMap<BlockId, Block>,
    /// Datanode liveness, per machine. It lags the machine's own health
    /// while a crash waits for failover.
    up: Vec<bool>,
    replication: u32,
    next_block: u64,
}

impl Dfs {
    /// A filesystem over `nodes` machines with replication factor
    /// `replication`.
    pub(crate) fn new(nodes: usize, replication: u32) -> Self {
        assert!(nodes > 0, "need at least one datanode");
        assert!(replication >= 1, "replication factor must be at least 1");
        Self {
            blocks: BTreeMap::new(),
            up: vec![true; nodes],
            replication,
            next_block: 0,
        }
    }

    /// Append a block of `len` bytes written from `writer` and return it
    /// with its write pipeline: the writer-local replica first (if that
    /// datanode is up), then distinct random live nodes, as HDFS's default
    /// single-rack placement. With no datanode up the block gets no replica
    /// and no random number is drawn.
    pub(crate) fn append_block(
        &mut self,
        len: u64,
        writer: NodeId,
        rng: &mut SimRng,
    ) -> (BlockId, Vec<NodeId>) {
        let want = self.replication as usize;
        let mut pipeline = Vec::with_capacity(want);
        if self.up.get(writer.index()).is_some_and(|&up| up) {
            pipeline.push(writer);
        }
        let mut candidates = live_except(&self.up, &pipeline);
        while pipeline.len() < want && !candidates.is_empty() {
            let i = rng.below(candidates.len() as u64) as usize;
            pipeline.push(candidates.swap_remove(i));
        }
        let id = BlockId(self.next_block);
        self.next_block += 1;
        let block = Block {
            len,
            replicas: pipeline.clone(),
            dropped: Vec::new(),
        };
        self.blocks.insert(id, block);
        (id, pipeline)
    }

    /// Delete a block and every copy of it.
    pub(crate) fn delete_block(&mut self, block: BlockId) {
        self.blocks.remove(&block);
    }

    /// The replica a reader on `reader` should use: itself when it holds a
    /// live one (short-circuit read), otherwise the first live replica.
    pub(crate) fn pick_read_replica(&self, block: BlockId, reader: NodeId) -> Option<NodeId> {
        let replicas = self.blocks.get(&block).map_or(&[][..], |b| &b.replicas);
        if replicas.contains(&reader) && self.up[reader.index()] {
            return Some(reader);
        }
        replicas.iter().copied().find(|n| self.up[n.index()])
    }

    /// Mark a datanode dead: it stops serving its replicas, which stay on
    /// its disk.
    pub(crate) fn fail_node(&mut self, node: NodeId) {
        self.up[node.index()] = false;
        for block in self.blocks.values_mut() {
            if let Some(i) = block.replicas.iter().position(|&n| n == node) {
                block.replicas.remove(i);
                block.dropped.push(node);
            }
        }
    }

    /// Bring a datanode back up. Its surviving copies of blocks that still
    /// lack replicas are registered again (HDFS block reports on restart).
    pub(crate) fn recover_node(&mut self, node: NodeId) {
        self.up[node.index()] = true;
        let want = self.replication as usize;
        for block in self.blocks.values_mut() {
            if block.replicas.len() >= want {
                continue;
            }
            if let Some(i) = block.dropped.iter().position(|&n| n == node) {
                block.dropped.remove(i);
                block.replicas.push(node);
            }
        }
    }

    /// Copy every block short of the replication factor, in block order,
    /// from its first live replica to random live nodes not holding it,
    /// until it has enough replicas or no node is left. Returns each copy
    /// as `(source, destination, bytes)` for the cluster to charge.
    pub(crate) fn rereplicate(&mut self, rng: &mut SimRng) -> Vec<(NodeId, NodeId, u64)> {
        let want = self.replication as usize;
        let mut copies = Vec::new();
        for block in self.blocks.values_mut() {
            if block.replicas.len() >= want {
                continue;
            }
            let Some(&src) = block.replicas.iter().find(|n| self.up[n.index()]) else {
                continue; // every replica is dead: the data is lost
            };
            // Removing in place keeps node order, as re-listing would.
            let mut candidates = live_except(&self.up, &block.replicas);
            while block.replicas.len() < want && !candidates.is_empty() {
                let dst = candidates.remove(rng.below(candidates.len() as u64) as usize);
                block.replicas.push(dst);
                block.dropped.retain(|&n| n != dst);
                copies.push((src, dst, block.len));
            }
        }
        copies
    }
}

/// The live datanodes not in `exclude`, in node order.
fn live_except(up: &[bool], exclude: &[NodeId]) -> Vec<NodeId> {
    (0..up.len() as u32)
        .map(NodeId)
        .filter(|n| up[n.index()] && !exclude.contains(n))
        .collect()
}

#[cfg(test)]
impl Dfs {
    /// A block's live replicas, pipeline order; none for an unknown block.
    pub(crate) fn replicas(&self, block: BlockId) -> &[NodeId] {
        self.blocks.get(&block).map_or(&[][..], |b| &b.replicas)
    }

    /// Every block short of the replication factor, in block order.
    pub(crate) fn under_replicated(&self) -> Vec<BlockId> {
        let want = self.replication as usize;
        let short = self.blocks.iter().filter(|(_, b)| b.replicas.len() < want);
        short.map(|(&id, _)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn rng() -> SimRng {
        SimRng::new(7)
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Nodes as one digit each: `[0, 4, 2]` is `"042"`.
    fn digits(nodes: &[NodeId]) -> String {
        nodes.iter().map(|n| n.0.to_string()).collect()
    }

    /// Six datanodes at RF 3: 40 blocks from rotating writers, every third
    /// deleted; node 2 fails, re-replication, node 2 recovers; nodes 4 and
    /// 5 fail, re-replication; 5 more blocks. Returns every pipeline, every
    /// copy as `src>dst:len`, the final replicas of every block not
    /// deleted, and the RNG's next draw below 10^6.
    fn script(seed: u64) -> [String; 4] {
        let mut rng = SimRng::new(seed);
        let mut fs = Dfs::new(6, 3);
        let (mut blocks, mut pipelines, mut copies) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..45 {
            if i == 40 {
                for &b in blocks.iter().step_by(3) {
                    fs.delete_block(b);
                }
                fs.fail_node(n(2));
                copies.extend(fs.rereplicate(&mut rng));
                fs.recover_node(n(2));
                fs.fail_node(n(4));
                fs.fail_node(n(5));
                copies.extend(fs.rereplicate(&mut rng));
            }
            let (block, pipeline) = fs.append_block(100 + i, n((i % 6) as u32), &mut rng);
            pipelines.push(digits(&pipeline));
            blocks.push(block);
        }
        let copies: Vec<String> = copies
            .into_iter()
            .map(|(src, dst, len)| format!("{}>{}:{len}", src.0, dst.0))
            .collect();
        let kept = blocks
            .iter()
            .enumerate()
            .filter(|&(i, _)| i % 3 != 0 || i >= 40);
        let finals: Vec<String> = kept.map(|(_, &b)| digits(fs.replicas(b))).collect();
        [
            pipelines.join(" "),
            copies.join(" "),
            finals.join(" "),
            rng.below(1_000_000).to_string(),
        ]
    }

    /// The placement RNG is pinned: the order of draws (the writer-local
    /// replica first, then candidates in node order, picked with
    /// `swap_remove`; re-replication in block order) decides every HFile
    /// and WAL placement the figures read. These are the placements the
    /// namenode/datanode model this module replaced made for the same
    /// script, one file per block.
    #[test]
    fn the_placement_script_is_pinned() {
        assert_eq!(
            script(7),
            [
                "042 154 254 305 420 524 054 135 215 305 402 531 041 103 201 305 453 541 023 154 \
                 250 320 430 534 043 145 214 345 402 543 013 154 214 350 412 503 025 135 243 315 \
                 012 032 012 103 231",
                "5>0:102 4>1:104 5>1:105 1>3:108 4>5:110 0>4:114 5>3:120 1>0:126 4>1:128 1>0:132 \
                 4>5:134 4>0:138 1>0:101 1>3:101 0>2:102 0>3:102 0>2:104 1>3:105 1>2:105 1>2:107 \
                 1>2:108 0>3:110 0>2:110 3>0:111 0>3:114 3>2:116 3>1:116 1>3:117 1>0:117 1>3:119 \
                 1>0:119 0>1:120 3>1:122 3>2:123 3>0:123 1>2:125 1>0:125 1>2:126 0>3:128 3>0:129 \
                 3>2:129 1>2:131 1>0:131 1>2:132 1>0:134 1>3:134 0>1:135 1>0:137 3>2:138",
                "103 023 012 132 132 132 032 310 103 013 321 130 130 031 301 320 120 102 013 302 \
                 120 102 103 031 130 302 012 032 012 103 231",
                "947986",
            ]
            .map(String::from)
        );
        assert_eq!(
            script(42),
            [
                "012 145 254 345 432 531 052 145 245 342 405 524 025 124 240 325 453 542 041 134 \
                 235 354 450 524 054 132 203 301 423 524 054 124 205 302 420 531 043 142 210 304 \
                 031 032 032 132 201",
                "5>1:102 4>1:104 4>1:108 5>1:111 1>3:113 4>3:114 5>1:117 3>4:120 5>0:123 1>4:125 \
                 0>1:126 4>5:128 5>1:129 1>0:131 0>4:132 4>5:134 1>5:137 1>4:138 1>3:101 1>0:101 \
                 1>0:102 1>3:102 3>2:104 3>0:105 1>0:107 1>3:107 1>0:108 1>3:108 0>1:110 0>2:110 \
                 1>3:111 1>2:111 1>2:113 0>2:114 3>0:116 3>1:116 1>2:117 1>0:117 1>2:119 3>2:120 \
                 3>0:120 0>3:122 0>1:122 0>1:123 0>3:123 1>0:125 3>0:128 3>1:128 1>2:129 1>3:129 \
                 1>3:131 0>2:132 0>1:132 0>3:134 0>1:134 3>2:135 1>2:137 1>0:137 1>3:138",
                "130 103 312 310 103 103 012 132 132 032 301 120 132 320 031 013 130 031 301 123 \
                 103 021 031 312 120 103 031 032 032 132 201",
                "210547",
            ]
            .map(String::from)
        );
    }

    #[test]
    fn pipeline_is_writer_local_first_and_distinct() {
        let mut fs = Dfs::new(10, 3);
        let (_, pipeline) = fs.append_block(100, n(4), &mut rng());
        assert_eq!(pipeline.len(), 3);
        assert_eq!(pipeline[0], n(4));
        let mut uniq = pipeline.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 3);
    }

    #[test]
    fn blocks_are_registered_in_order_on_their_pipeline() {
        let mut fs = Dfs::new(5, 3);
        let (b1, p1) = fs.append_block(64, n(0), &mut rng());
        let (b2, p2) = fs.append_block(50, n(1), &mut rng());
        assert!(b1 < b2, "ids are issued in creation order");
        assert_eq!(fs.replicas(b1), p1.as_slice());
        assert_eq!(fs.replicas(b2), p2.as_slice());
        assert_eq!(fs.blocks[&b2].len, 50);
    }

    #[test]
    fn replication_clamped_by_cluster_size() {
        let mut fs = Dfs::new(2, 3);
        let (b, pipeline) = fs.append_block(10, n(0), &mut rng());
        assert_eq!(pipeline.len(), 2, "only two nodes exist");
        assert_eq!(fs.under_replicated(), vec![b]);
    }

    #[test]
    fn short_circuit_read_prefers_local() {
        let mut fs = Dfs::new(6, 3);
        let (b, pipeline) = fs.append_block(10, n(2), &mut rng());
        assert_eq!(fs.pick_read_replica(b, n(2)), Some(n(2)));
        // A non-holder reads from the first live replica.
        let non_holder = (0..6).map(n).find(|x| !pipeline.contains(x)).unwrap();
        assert_eq!(fs.pick_read_replica(b, non_holder), Some(pipeline[0]));
    }

    #[test]
    fn reads_skip_dead_replicas() {
        let mut fs = Dfs::new(5, 2);
        let (b, pipeline) = fs.append_block(10, n(0), &mut rng());
        fs.fail_node(pipeline[0]);
        assert_eq!(fs.pick_read_replica(b, pipeline[0]), Some(pipeline[1]));
    }

    #[test]
    fn delete_removes_every_replica() {
        let mut fs = Dfs::new(5, 3);
        let (b1, _) = fs.append_block(100, n(0), &mut rng());
        let (b2, _) = fs.append_block(50, n(0), &mut rng());
        fs.delete_block(b1);
        assert!(fs.replicas(b1).is_empty());
        assert_eq!(fs.pick_read_replica(b1, n(0)), None);
        assert_eq!(fs.replicas(b2).len(), 3, "other blocks stay");
        fs.delete_block(b1);
        assert_eq!(fs.blocks.len(), 1, "a second delete is a no-op");
    }

    #[test]
    fn failure_flags_under_replication() {
        let mut fs = Dfs::new(6, 3);
        let (b1, p1) = fs.append_block(10, n(0), &mut rng());
        let (b2, p2) = fs.append_block(10, n(3), &mut rng());
        let victim = *p1.iter().find(|x| !p2.contains(x)).unwrap();
        fs.fail_node(victim);
        assert_eq!(fs.under_replicated(), vec![b1]);
        assert!(!fs.replicas(b1).contains(&victim));
        assert_eq!(fs.replicas(b2), p2.as_slice());
    }

    #[test]
    fn failure_then_rereplication_restores_factor() {
        let mut r = rng();
        let mut fs = Dfs::new(8, 3);
        let (b, pipeline) = fs.append_block(100, n(0), &mut r);
        let victim = pipeline[1];
        fs.fail_node(victim);
        assert_eq!(fs.under_replicated(), vec![b]);
        let copies = fs.rereplicate(&mut r);
        assert_eq!(copies.len(), 1);
        let (src, dst, len) = copies[0];
        assert_eq!((src, len), (pipeline[0], 100));
        assert_ne!(dst, victim);
        assert!(fs.under_replicated().is_empty());
        assert_eq!(fs.replicas(b), [pipeline[0], pipeline[2], dst]);
    }

    #[test]
    fn crash_keeps_the_disk_and_recovery_re_registers_it() {
        let mut r = rng();
        let mut fs = Dfs::new(3, 3);
        let (b, _) = fs.append_block(10, n(0), &mut r);
        fs.fail_node(n(1));
        assert_eq!(fs.replicas(b).len(), 2);
        assert_eq!(fs.blocks[&b].dropped, [n(1)], "the copy survives on disk");
        // No spare node exists, so re-replication cannot help.
        assert!(fs.rereplicate(&mut r).is_empty());
        fs.recover_node(n(1));
        assert_eq!(fs.replicas(b).len(), 3);
        assert!(fs.under_replicated().is_empty());
        assert!(fs.blocks[&b].dropped.is_empty());
    }

    #[test]
    fn recovery_skips_a_block_deleted_while_the_node_was_down() {
        let mut r = rng();
        let mut fs = Dfs::new(3, 3);
        let (gone, _) = fs.append_block(10, n(0), &mut r);
        let (kept, _) = fs.append_block(10, n(0), &mut r);
        fs.fail_node(n(1));
        fs.delete_block(gone);
        fs.recover_node(n(1));
        assert!(fs.replicas(gone).is_empty());
        assert_eq!(fs.blocks.keys().copied().collect::<Vec<_>>(), [kept]);
        assert_eq!(fs.pick_read_replica(gone, n(1)), None);
    }

    #[test]
    fn recovery_skips_a_block_already_re_replicated() {
        let mut r = rng();
        let mut fs = Dfs::new(4, 3);
        let (b, _) = fs.append_block(10, n(0), &mut r);
        let victim = fs.replicas(b)[1];
        fs.fail_node(victim);
        assert_eq!(fs.rereplicate(&mut r).len(), 1);
        let healed = fs.replicas(b).to_vec();
        fs.recover_node(victim);
        assert_eq!(fs.replicas(b), healed.as_slice(), "no fourth replica");
        // The copy is still on the recovered node's disk: once the block
        // falls short again, the node's next recovery registers it.
        let other = healed[0];
        fs.fail_node(other);
        fs.fail_node(victim);
        fs.recover_node(victim);
        assert_eq!(fs.replicas(b), [healed[1], healed[2], victim]);
    }

    #[test]
    fn a_copy_onto_a_node_with_a_dropped_replica_registers_it_once() {
        let mut r = rng();
        let mut fs = Dfs::new(4, 3);
        let (b, pipeline) = fs.append_block(10, n(0), &mut r);
        let spare = (0..4).map(n).find(|x| !pipeline.contains(x)).unwrap();
        let victim = pipeline[1];
        fs.fail_node(victim);
        assert_eq!(fs.rereplicate(&mut r), [(pipeline[0], spare, 10)]);
        fs.recover_node(victim); // the block is full: the copy stays dropped
        fs.fail_node(spare);
        assert_eq!(fs.rereplicate(&mut r), [(pipeline[0], victim, 10)]);
        fs.fail_node(pipeline[2]);
        // The node is up and already serving the block.
        fs.recover_node(victim);
        assert_eq!(fs.replicas(b), [pipeline[0], victim]);
    }

    #[test]
    fn recovery_skips_a_block_the_node_never_held() {
        let mut r = rng();
        let mut fs = Dfs::new(4, 2);
        let (b, pipeline) = fs.append_block(10, n(0), &mut r);
        let stranger = (0..4).map(n).find(|x| !pipeline.contains(x)).unwrap();
        fs.fail_node(stranger);
        fs.fail_node(pipeline[1]);
        fs.recover_node(stranger);
        assert_eq!(fs.replicas(b), [pipeline[0]]);
    }

    #[test]
    fn a_block_with_no_live_datanode_gets_no_replica() {
        let mut r = rng();
        let mut fs = Dfs::new(2, 2);
        fs.fail_node(n(0));
        fs.fail_node(n(1));
        let before = r.clone();
        let (b, pipeline) = fs.append_block(10, n(0), &mut r);
        assert!(pipeline.is_empty());
        assert!(fs.replicas(b).is_empty());
        assert_eq!(r, before, "no placement, no draw");
        fs.recover_node(n(0));
        assert!(fs.rereplicate(&mut r).is_empty(), "nothing to copy from");
        assert_eq!(r, before);
    }

    #[test]
    fn placement_spreads_load_roughly_evenly() {
        let mut r = rng();
        let mut fs = Dfs::new(10, 3);
        // Writers round-robin, many blocks.
        let mut held = [0u32; 10];
        for i in 0..3000u32 {
            for x in fs.append_block(1, n(i % 10), &mut r).1 {
                held[x.index()] += 1;
            }
        }
        let (min, max) = (held.iter().min().unwrap(), held.iter().max().unwrap());
        assert!(
            f64::from(*max) / f64::from(*min) < 1.5,
            "placement skew too large: {held:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Pipelines are always distinct nodes, include the writer when alive,
        /// and have min(rf, live) members.
        #[test]
        fn pipelines_are_distinct_and_writer_local(
            nodes in 1usize..12,
            rf in 1u32..6,
            writes in prop::collection::vec((0u32..12, 1u64..10_000), 1..40),
            seed in any::<u64>(),
        ) {
            let mut rng = SimRng::new(seed);
            let mut fs = Dfs::new(nodes, rf);
            for (writer, len) in writes {
                let writer = NodeId(writer % nodes as u32);
                let (b, pipeline) = fs.append_block(len, writer, &mut rng);
                let mut uniq = pipeline.clone();
                uniq.sort();
                uniq.dedup();
                prop_assert_eq!(uniq.len(), pipeline.len(), "duplicate replicas");
                prop_assert_eq!(pipeline.len(), (rf as usize).min(nodes));
                prop_assert_eq!(pipeline[0], writer, "writer-local first replica");
                prop_assert_eq!(fs.replicas(b), pipeline.as_slice());
            }
        }

        /// After a delete no replica of the block remains, on any node, even
        /// after its failed holders recover.
        #[test]
        fn after_a_delete_no_replica_remains(
            nodes in 2usize..10,
            rf in 1u32..4,
            lens in prop::collection::vec(1u64..5_000, 1..30),
            victim in 0u32..10,
            seed in any::<u64>(),
        ) {
            let mut rng = SimRng::new(seed);
            let mut fs = Dfs::new(nodes, rf);
            let blocks: Vec<BlockId> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| fs.append_block(len, NodeId((i % nodes) as u32), &mut rng).0)
                .collect();
            let victim = NodeId(victim % nodes as u32);
            fs.fail_node(victim);
            for &b in &blocks {
                fs.delete_block(b);
            }
            fs.recover_node(victim);
            prop_assert!(fs.rereplicate(&mut rng).is_empty());
            for &b in &blocks {
                for reader in (0..nodes as u32).map(NodeId) {
                    prop_assert_eq!(fs.pick_read_replica(b, reader), None);
                }
            }
            prop_assert!(fs.blocks.is_empty());
        }

        /// After any single failure, re-replication restores the replication
        /// factor whenever enough live nodes exist, and never places two
        /// replicas on one node.
        #[test]
        fn rereplication_restores_factor(
            nodes in 3usize..10,
            blocks in 1usize..20,
            victim in 0u32..10,
            seed in any::<u64>(),
        ) {
            let rf = 3u32.min(nodes as u32 - 1).max(1);
            let mut rng = SimRng::new(seed);
            let mut fs = Dfs::new(nodes, rf);
            for i in 0..blocks {
                fs.append_block(100, NodeId((i % nodes) as u32), &mut rng);
            }
            let victim = NodeId(victim % nodes as u32);
            fs.fail_node(victim);
            fs.rereplicate(&mut rng);
            prop_assert!(
                fs.under_replicated().is_empty(),
                "blocks left under-replicated with {} live nodes", nodes - 1
            );
            for block in fs.blocks.values() {
                let mut uniq = block.replicas.clone();
                uniq.sort();
                uniq.dedup();
                prop_assert_eq!(uniq.len(), block.replicas.len());
                prop_assert!(!block.replicas.contains(&victim));
            }
        }
    }
}
