//! # bench — harness regenerating every evaluation artifact
//!
//! One binary (run with `--release`):
//!
//! * `fig <name> [--quick]` — regenerates one artifact: prints its tables
//!   and writes its CSVs under `results/` (`RESULTS_DIR` overrides).
//!   `<name>` is one of `table1`, `fig1`…`fig8`, `fig10`, `ablations`; the
//!   registry, and what each figure measures, is
//!   [`bench_core::experiment::FIGURES`]. `--quick` selects the smoke-scale
//!   configuration.
//!
//! The repo's benchmark, which times every layer from the event queue up,
//! is the standalone `benchmark/` package.
