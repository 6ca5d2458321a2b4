//! # bench — harness regenerating every evaluation artifact
//!
//! Binaries (run with `--release`):
//!
//! * `fig <name> [--quick]` — regenerates one artifact: prints its tables
//!   and writes its CSVs under `results/` (`RESULTS_DIR` overrides).
//!   `<name>` is one of `table1`, `fig1`…`fig8`, `fig10`, `ablations`; the
//!   registry, and what each figure measures, is
//!   [`bench_core::experiment::FIGURES`]. `--quick` selects the smoke-scale
//!   configuration.
//! * `calibrate` — read-path decomposition probe for retuning the hardware
//!   and cost model; not a paper artifact.
//!
//! Criterion microbenches for the hot components live in `benches/`; the
//! repo's regression benchmark is the standalone `benchmark/` package.
