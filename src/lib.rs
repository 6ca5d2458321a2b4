//! # cloudserve — umbrella crate
//!
//! Reproduction of *Wang, Li, Zhang, Zhou: "Benchmarking Replication and
//! Consistency Strategies in Cloud Serving Databases: HBase and Cassandra"*
//! (BPOE 2014 / VLDB workshops, LNCS 8807).
//!
//! This crate re-exports the whole workspace under one roof so the examples
//! and integration tests have a single dependency:
//!
//! * [`simkit`] — the discrete-event simulation kernel (the "testbed"),
//!   including the cluster topology and its multi-region WAN model.
//! * [`storage`] — shared LSM storage-engine components.
//! * [`hstore`] — the HBase analog, with its replicated block filesystem
//!   (the HDFS analog) as a private module.
//! * [`cstore`] — the Cassandra analog, with its ring and replica placement
//!   strategies.
//! * [`faults`] — the deterministic fault-injection subsystem (declarative
//!   crash/recover/degradation plans the driver replays in virtual time).
//! * [`obs`] — deterministic per-op span tracing: stage taxonomy,
//!   critical-path extraction, and trace export (zero-cost when disabled).
//! * [`audit`] — client-centric consistency auditing: per-client
//!   operation-history recording (zero-cost when disabled),
//!   session-guarantee checkers, (Δ,p)-staleness curves, and a bounded
//!   linearizability checker.
//! * [`ycsb`] — the YCSB-analog workload generator and client.
//! * [`bench_core`] — the paper's benchmark methodology (micro/stress/
//!   consistency experiments, sweeps, report rendering).
//!
//! The package's one binary, `fig [<name>] [--quick]`, regenerates the
//! evaluation artifacts: it prints each figure's tables and writes its
//! CSVs under `results/` (`RESULTS_DIR` overrides). `<name>` is a key of
//! [`bench_core::FIGURES`]; with no name `fig` runs every entry in
//! registry order, and at full scale that one run writes all of
//! `results/`. The repo's benchmark, which times
//! every layer from the event queue up, is the standalone `benchmark/`
//! package.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record.

#![warn(missing_docs)]

pub use audit;
pub use bench_core;
pub use cstore;
pub use faults;
pub use hstore;
pub use obs;
pub use simkit;
pub use storage;
pub use ycsb;
