//! # dfs — a replicated block filesystem (the HDFS analog)
//!
//! HBase does not replicate data itself: it writes WALs and HFiles into
//! HDFS, and HDFS replicates the blocks. The paper varies the replication
//! factor *here* ("HBase uses HDFS to configure the replication factor and
//! save replicas"), so this substrate is where `hstore`'s RF knob lives.
//!
//! The crate is functional: a [`namenode::NameNode`] tracks files → blocks →
//! replica locations, [`datanode::DataNode`]s hold length-only block
//! replicas, and [`cluster::DfsCluster`] implements write
//! pipelines, local-first read replica selection (HBase's short-circuit
//! read), deletion, failure marking, and re-replication planning. Timing is
//! deliberately absent — `hstore` charges pipeline hops and disk transfers
//! against its simulated nodes using the placement facts this crate reports.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cluster;
pub mod datanode;
pub mod ids;
pub mod namenode;

pub use cluster::{BlockWrite, DfsCluster, ReplicationTask};
pub use datanode::DataNode;
pub use ids::{BlockId, FileId};
pub use namenode::{BlockMeta, NameNode};
