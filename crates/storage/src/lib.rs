//! # storage — shared LSM storage-engine components
//!
//! Both databases in the reproduced paper (HBase and Cassandra) are
//! log-structured merge stores: updates land in a durable log and an
//! in-memory table, immutable sorted runs are flushed to disk, and background
//! compaction merges runs. This crate implements those shared components
//! once, functionally for real:
//!
//! * [`types`] — keys, values, timestamped cells, tombstones.
//! * `memtable` — the in-memory sorted write buffer.
//! * `wal` — the write-ahead/commit log with replay.
//! * `bloom` — a bloom filter to skip sorted runs on reads.
//! * [`sstable`] — immutable sorted runs with block structure and an index.
//! * [`cache`] — an O(1) LRU block cache with hit/miss accounting.
//! * [`merge`] — k-way merge with last-write-wins reconciliation.
//! * [`compaction`] — size-tiered compaction policy.
//! * [`lsm`] — the assembled LSM tree.
//!
//! ## The I/O-plan contract
//!
//! This crate knows nothing about simulated time. Every operation that could
//! touch a disk returns an [`io::IoPlan`] describing the cache hits, random
//! reads, and sequential transfers it performed. The database crates
//! (`hstore`, `cstore`) charge those plans against their nodes' simulated
//! disks, so performance *emerges* from real data layout (how many runs a
//! read touches, how effective the bloom filters and cache are) rather than
//! from hard-coded latency constants.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod api;
mod bloom;
pub mod cache;
pub mod compaction;
mod io;
pub mod lsm;
mod memtable;
pub mod merge;
pub mod sstable;
pub mod types;
mod wal;

pub use api::{Completion, OpError, OpKind, OpResult, StoreOp};
pub use cache::BlockCache;
pub use io::{IoOp, IoPlan};
pub use lsm::{LsmConfig, LsmTree};
pub use memtable::Memtable;
pub use sstable::{Segment, SsTable, TableId};
pub use types::{Cell, Key, Timestamp, Value};
