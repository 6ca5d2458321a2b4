//! # storage — shared LSM storage-engine components
//!
//! Both databases in the reproduced paper (HBase and Cassandra) are
//! log-structured merge stores: updates land in a durable log and an
//! in-memory table, immutable sorted runs are flushed to disk, and background
//! compaction merges runs. This crate implements those shared components
//! once, functionally for real:
//!
//! * [`types`] — keys, values, timestamped cells, tombstones.
//! * `memtable` — the in-memory sorted write buffer, which also keeps its
//!   rows as of the last commit-log sync for a crash to roll back to.
//! * `bloom` — a bloom filter to skip sorted runs on reads.
//! * [`Segment`] — the rows of runs: one key arena, offsets and cells, and
//!   the hash tables point reads find a row by.
//! * [`sstable`] — immutable sorted runs with block structure and a bloom
//!   filter.
//! * `block_hash` — the hash tables every segment gets, which point reads
//!   find their row through: tagged 16-bit slots over fixed chunks of rows
//!   and each chunk's first-key prefix, in one allocation, filled once for
//!   every run that holds the segment. The chunk prefixes are a run's only
//!   index: scans seek their first row through them too.
//! * [`cache`] — an O(1) LRU block cache with hit/miss accounting.
//! * [`merge`] — k-way merge with last-write-wins reconciliation.
//! * [`Rows`] — scan results as handles into the segments holding them;
//!   [`Reconciler`], the coordinator's merge of replica pages.
//! * `compaction` — the size-tiered compaction policy, at Cassandra's
//!   default thresholds.
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
mod block_hash;
mod bloom;
pub mod cache;
mod compaction;
mod io;
pub mod lsm;
mod memtable;
pub mod merge;
mod rows;
mod segment;
pub mod sstable;
pub mod types;

pub use api::{Completion, OpError, OpKind, OpResult, StoreOp};
pub use cache::BlockCache;
pub use io::{IoOp, IoPlan};
pub use lsm::{LsmConfig, LsmTree};
pub use memtable::Memtable;
pub use rows::{Reconciler, Rows};
pub use segment::{LoadQueue, RowArena, Segment};
pub use sstable::{RunBuilder, SsTable, TableId};
pub use types::{Cell, Key, Timestamp, Value};
