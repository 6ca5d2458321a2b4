//! # ycsb — the workload generator and measurement kit (YCSB analog)
//!
//! A faithful reimplementation of the parts of the Yahoo! Cloud Serving
//! Benchmark the paper relies on:
//!
//! * [`generator`] — request-key distributions: uniform, scrambled zipfian
//!   and latest, over a zipfian sampler (Gray et al.'s algorithm with
//!   YCSB's constants).
//! * `keys` — zero-padded ordered key encoding and a memory-thrifty value
//!   pool.
//! * `workload` — operation-mix specifications: the paper's five Table 1
//!   stress workloads, the YCSB core workloads A–F, and the micro-benchmark
//!   atomic-operation rounds.
//! * `stats` — HDR-style log-bucketed latency histograms and run metrics.
//! * `client` — closed-loop client-thread pacing with optional target
//!   throughput throttling (YCSB's `-target`), the mechanism behind the
//!   paper's runtime-vs-target throughput curves.
//! * `arrival` — open-loop arrival processes (Poisson interarrivals
//!   split over a weighted multi-tenant mix) whose percentiles are
//!   coordinated-omission-free.
//! * `validate` — stale-read detection, used to *measure* consistency
//!   rather than assume it.
//!
//! Generators draw from simkit's `SimRng`; otherwise the crate is
//! simulation-agnostic: time is plain `u64` microseconds supplied by the
//! caller.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod arrival;
mod client;
pub mod generator;
mod keys;
mod stats;
mod validate;
mod workload;

pub use arrival::{OpenLoop, Tenant};
pub use client::Throttle;
pub use keys::{balanced_tokens, encode_key, encode_point, KeyInterner, KeySpace, ValuePool};
pub use stats::{Histogram, ResilienceCounters, RunMetrics, TenantStats, Timeline, TimelineWindow};
pub use validate::{ReadCheck, StalenessTracker};
pub use workload::{DistributionKind, OpMix, WorkloadSpec};
