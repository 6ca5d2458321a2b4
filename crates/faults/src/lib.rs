//! # faults — deterministic fault injection for the simulated clusters
//!
//! The paper benchmarks the *cost* of replication (latency and throughput
//! versus replication factor and consistency level); replication exists to
//! buy *fault tolerance*. This crate supplies the benefit side of that
//! trade-off: a declarative, seed-deterministic way to crash, recover, and
//! degrade nodes mid-run so availability experiments (fig4) can measure how
//! each store rides through failures.
//!
//! * [`FaultPlan`] — a time-ordered schedule of [`FaultEvent`]s (crash /
//!   recover at absolute virtual times, transient slow-disk and
//!   network-delay windows, or a randomized plan derived via splitmix64
//!   from the cell seed).
//! * [`FaultTarget`] — the uniform fail/recover/degrade surface both store
//!   analogs implement.
//! * [`FaultInjector`] — schedules one wrapper event per plan entry into
//!   the driver's `Sim` queue and applies entries when they pop, so faults
//!   land at exact virtual instants interleaved with client operations.
//!
//! Everything is plain data plus explicit dispatch: an empty plan adds no
//! events and draws no randomness, leaving fault-free runs bit-identical to
//! builds without the subsystem.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod injector;
pub mod plan;

pub use injector::{FaultInjector, FaultTarget};
pub use plan::{FaultEvent, FaultKind, FaultPlan};
