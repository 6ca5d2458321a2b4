//! # bench-core — the paper's benchmarking methodology as a library
//!
//! This crate is the reproduction of the paper's *contribution*: the
//! methodology of §3 ("Benchmarking Replication and Consistency") and the
//! experiments of §4, runnable against the simulated stores.
//!
//! * [`store`] — the [`store::SimStore`] abstraction over the two database
//!   analogs plus the driver-facing event wrapper.
//! * [`driver`] — the YCSB client, closed-loop (the paper's) or open-loop:
//!   thread pacing, target throughput, warm-up separation, RMW
//!   composition, latency histograms, and stale-read measurement.
//! * [`resilience`] — the client-side resilience policy: bounded retries
//!   with jittered exponential backoff, per-operation deadline budgets, and
//!   hedged reads — pure decision logic the driver schedules through the
//!   simulation event queue, so resilient runs stay deterministic.
//! * [`setup`] — calibrated cluster builders: the paper's testbed scaled
//!   down by a documented factor (record counts and cache sizes shrink
//!   together so cache-hit regimes are preserved).
//! * `sweep` — the scheduling engine ([`Sweep`]): a self-scheduling
//!   parallel executor, ordered result collection with wall-time
//!   telemetry, and load-once base-state pools, one state per group of
//!   cells whose stores load alike.
//! * `experiment` — the experiment grid: the [`Experiment`] description
//!   every figure implements, the one engine that builds its cells, loads
//!   each group's data once, runs and collects them, the [`Report`] the
//!   `fig` binary prints and writes, and the [`FIGURES`] registry.
//! * `report` — tables declared as column lists (`Table::of`), rendered
//!   as aligned text or CSV, and ASCII charts.
//!
//! The figures, one [`Experiment`] each:
//!
//! * `stress` (`table1`, `fig2`) — Table 1, and peak runtime throughput
//!   and latency vs replication factor for its five workloads, both stores.
//! * [`micro`] (`fig1`) — per-operation latency vs replication factor at an
//!   unsaturated load, both stores.
//! * `consistency` (`fig3`) — runtime vs target throughput under ONE /
//!   QUORUM / write-ALL, Cassandra analog at RF=3.
//! * `failure` (`fig4`) — the failure timeline: a node crashes mid-run and
//!   per-window metrics trace the throughput dip, error spike, and
//!   recovery for every (store, RF, consistency) combination. Home of the
//!   `failure::CrashPlan` that Figs 5 and 8 rerun.
//! * `availability` (`fig5`) — the crash plan under each retry policy:
//!   goodput (first-try vs retried successes), error rate, attempts per op.
//! * `decomposition` (`fig6`) — every op span-traced, its critical path
//!   extracted, and virtual time attributed to pipeline stages (HBase:
//!   in-memory WAL ack, flat in RF; Cassandra: quorum wait growing with RF
//!   and CL).
//! * `geo_experiment` (`fig7`) — the geo-replication PACELC sweep: region
//!   count × consistency level over multi-datacenter topologies.
//! * `audit_experiment` (`fig8`) — every client's operation history
//!   recorded through the crash plan, then replayed through the
//!   session-guarantee checkers, the (Δ,p)-staleness curves, and a bounded
//!   linearizability check, per fault phase.
//! * `overload` (`fig10`) — an open-loop offered-load sweep across the
//!   capacity knee, with and without server-side admission control; each
//!   load step is judged against an `overload::Sla`, the paper's §6
//!   future work (SLA-based stress specification).
//! * `ablation` (`ablations`) — read repair on/off, commit-log
//!   durability modes, partitioner choice.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod ablation;
mod audit_experiment;
mod availability;
mod consistency;
mod decomposition;
pub mod driver;
mod experiment;
mod failure;
mod geo_experiment;
pub mod micro;
mod overload;
mod report;
pub mod resilience;
pub mod setup;
pub mod store;
mod stress;
mod sweep;

pub use experiment::{Experiment, Figure, Grid, Part, Report, RunShape, Store, FIGURES};
pub use store::{DriverEvent, SimStore};
pub use sweep::{BadSweepThreads, Sweep, SweepOutcome, Telemetry};
