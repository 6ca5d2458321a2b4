//! Deterministic per-op span tracing for the simulated stores.
//!
//! Every client operation a store executes passes through a sequence of
//! *stages* — client/coordinator hops, CPU service, WAL group commit,
//! replica RPC fan-out, quorum waits, read-repair blocks. This crate
//! records those stages as virtual-time intervals ([`StageSpan`]) keyed by
//! the driver's attempt token, then extracts each op's
//! [critical path](critical_path) (whose segment lengths sum
//! *exactly* to the op's measured latency), aggregates time-in-stage per
//! [`OpKind`](storage::OpKind) ([`StageAgg`]), and exports sampled traces
//! as JSONL ([`RunTrace`]).
//!
//! Determinism is the design constraint: the [`Tracer`] is pure
//! bookkeeping. It never draws randomness, never schedules events, and
//! never touches simulated resources, so enabling or disabling tracing
//! cannot perturb a run — metrics are bit-identical either way. Sampling
//! ([`TraceConfig`]) is seed-derived (every-Nth op with a splitmix64
//! offset), so the same seed always traces the same ops.
//!
//! Span recording happens on store hot paths where a panic would take down
//! a whole sweep worker; unwraps are banned outright, tests included.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod agg;
mod critical;
mod export;
mod span;
mod stage;
mod tracer;

pub use agg::{StageAgg, StageCell};
pub use critical::{critical_path, Segment};
pub use export::{OpTrace, RunTrace};
pub use span::{StageSpan, BG_OP, CLIENT_NODE};
pub use stage::Stage;
pub use tracer::{TraceConfig, Tracer};
