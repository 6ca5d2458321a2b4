//! A replicated block filesystem: the HDFS analog.
//!
//! HBase does not replicate data itself: it writes WALs and HFiles into
//! HDFS, and HDFS replicates the blocks. The paper varies the replication
//! factor *here* ("HBase uses HDFS to configure the replication factor and
//! save replicas"), so this module is where hstore's RF knob lives.
//!
//! The module is functional: a [`namenode::NameNode`] tracks files → blocks →
//! replica locations, [`datanode::DataNode`]s hold length-only block
//! replicas, and [`cluster::DfsCluster`] implements write
//! pipelines, local-first read replica selection (HBase's short-circuit
//! read), deletion, failure marking, and re-replication planning. Timing is
//! deliberately absent: the cluster charges pipeline hops and disk transfers
//! against its simulated nodes using the placement facts this module reports.

mod cluster;
mod datanode;
mod ids;
mod namenode;

pub(crate) use cluster::DfsCluster;
#[cfg(test)]
pub(crate) use ids::BlockId;
pub(crate) use ids::FileId;

#[cfg(test)]
mod tests {
    //! Property-based tests for the filesystem's invariants.

    use proptest::prelude::*;
    use simkit::{NodeId, SimRng};

    use super::DfsCluster;

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
            let mut fs = DfsCluster::new(nodes, rf);
            let f = fs.create_file();
            for (writer, len) in writes {
                let writer = NodeId(writer % nodes as u32);
                let w = fs.append_block(f, len, writer, &mut rng).expect("a live datanode");
                let mut uniq = w.pipeline.clone();
                uniq.sort();
                uniq.dedup();
                prop_assert_eq!(uniq.len(), w.pipeline.len(), "duplicate replicas");
                prop_assert_eq!(w.pipeline.len(), (rf as usize).min(nodes));
                prop_assert_eq!(w.pipeline[0], writer, "writer-local first replica");
                // Every pipeline member actually stores the block.
                for &n in &w.pipeline {
                    prop_assert!(fs.datanode(n).has(w.block));
                }
            }
        }

        /// Bytes are conserved: sum of datanode usage equals replicas × lengths,
        /// and deletion frees everything.
        #[test]
        fn byte_accounting_balances(
            nodes in 2usize..10,
            rf in 1u32..4,
            lens in prop::collection::vec(1u64..5_000, 1..30),
            seed in any::<u64>(),
        ) {
            let mut rng = SimRng::new(seed);
            let mut fs = DfsCluster::new(nodes, rf);
            let f = fs.create_file();
            let mut expect = 0u64;
            for (i, &len) in lens.iter().enumerate() {
                let w = fs.append_block(f, len, NodeId((i % nodes) as u32), &mut rng).expect("a live datanode");
                expect += len * w.pipeline.len() as u64;
            }
            prop_assert_eq!(fs.node_used_bytes().iter().sum::<u64>(), expect);
            prop_assert_eq!(fs.delete_file(f), expect);
            prop_assert_eq!(fs.node_used_bytes().iter().sum::<u64>(), 0);
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
            let mut fs = DfsCluster::new(nodes, rf);
            let f = fs.create_file();
            for i in 0..blocks {
                fs.append_block(f, 100, NodeId((i % nodes) as u32), &mut rng).expect("a live datanode");
            }
            let victim = NodeId(victim % nodes as u32);
            fs.fail_node(victim);
            fs.rereplicate(&mut rng);
            prop_assert!(
                fs.namenode().under_replicated().is_empty(),
                "blocks left under-replicated with {} live nodes", nodes - 1
            );
            // No block lists a node twice.
            let blocks = fs.namenode().file(f).unwrap().to_vec();
            for b in &blocks {
                let locs = fs.locations(*b).to_vec();
                let mut uniq = locs.clone();
                uniq.sort();
                uniq.dedup();
                prop_assert_eq!(uniq.len(), locs.len());
            }
        }
    }
}
