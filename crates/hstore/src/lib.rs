//! # hstore — the HBase analog
//!
//! A from-scratch implementation of the HBase-side machinery the paper
//! benchmarks:
//!
//! * **regions**: contiguous key ranges, each served by exactly one region
//!   server — the reason HBase reads are strongly consistent and blind to
//!   the replication factor;
//! * a **write-ahead log per region server stored in `dfs`**, the module
//!   holding the HDFS analog (namenode, datanodes, pipelines): appends are
//!   replicated through an in-memory pipeline (acknowledged before any disk
//!   sync, with group commit batching concurrent writers) — the mechanism
//!   the paper credits for HBase's flat write latency as RF grows;
//! * **memstores** that flush into HFiles written through the `dfs`
//!   pipeline, so flush/compaction disk traffic *does* scale with RF;
//! * **short-circuit local reads**: flushes place the first HFile replica on
//!   the writing server, so reads are always local disk + block cache;
//! * a **master** that assigns regions and, on server failure, reassigns
//!   them (with WAL-replay and cold-cache costs) for the availability
//!   extension experiments.
//!
//! As with `cstore`, everything is functionally real and temporally
//! simulated on `simkit` resources, and node hardware, the front door and
//! the in-flight table are the shared [`node::Runtime`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cluster;
mod config;
mod dfs;
mod event;
mod group_commit;
mod master;
mod metrics;
mod region;

pub use cluster::Cluster;
pub use config::{HStoreConfig, ServiceCosts};
pub use master::Master;
pub use region::{Region, RegionMap};
