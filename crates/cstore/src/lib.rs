//! # cstore — the Cassandra analog
//!
//! A from-scratch implementation of the replication and consistency
//! machinery the paper benchmarks in Cassandra:
//!
//! * a token **ring** with SimpleStrategy successor replication and either
//!   an order-preserving or a hashing partitioner (`ring`);
//! * a **coordinator** path with tunable consistency levels (ONE / QUORUM /
//!   LOCAL_QUORUM / EACH_QUORUM / ALL, read and write set independently) —
//!   writes go to
//!   *every* live replica and acknowledge after the level's quota, reads
//!   fan to the level's quota starting at the **main replica** (ring-order
//!   first, exactly the paper's description) and reconcile by timestamp;
//! * **read repair**: with a configurable chance a read probes *all*
//!   replicas in the background and rewrites stale ones — the mechanism the
//!   paper blames for Cassandra's read-latency growth at RF > 3;
//! * per-node **commit log + memtable + SSTables** (via the shared
//!   [`storage`] engine), flushes and size-tiered compactions that contend
//!   for the node's simulated disk; a bulk load sorts each token range's
//!   rows once, and all its replicas hold that one [`storage::Segment`];
//! * **hinted handoff** and unavailable-error semantics for failure
//!   experiments.
//!
//! Everything is functionally real (reads return actually-stored bytes;
//! repair really rewrites replicas) and temporally simulated (every hop,
//! CPU slice, and disk access is charged to `simkit` resources). Node
//! hardware, the front door and the in-flight table are the shared
//! [`::node::Runtime`]; this crate is the protocol.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cluster;
mod config;
mod event;
mod metrics;
mod node;
mod protocol;
mod ring;

pub use cluster::Cluster;
pub use config::{CStoreConfig, CommitlogSync, Consistency};
pub use event::Event;
pub use ring::{Partitioner, Ring, Strategy};
