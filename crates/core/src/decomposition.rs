//! Figure 6: latency decomposition — where does the time go?
//!
//! The paper reports *end-to-end* latencies and argues from architecture
//! why they differ: HBase acknowledges writes once the WAL append is in
//! the memory of every pipeline datanode, so write latency is flat in the
//! replication factor; Cassandra's coordinator waits for a consistency
//! quota of replica acks, so write latency grows with RF and CL. This
//! experiment *measures* that argument. Every operation is traced through
//! the span tracer ([`obs`]), its critical path extracted, and virtual
//! time attributed to pipeline stages — so each cell shows not just how
//! long an op took but exactly which stage the time went to.
//!
//! Because the simulation is deterministic and the critical path tiles
//! `[issued, settled)` by construction, the per-op stage sums equal the
//! measured client latency *exactly*, in virtual µs — asserted for every
//! traced op of every cell.

use obs::{critical_path, OpTrace, Stage, StageAgg, TraceConfig};
use storage::OpKind;
use ycsb::WorkloadSpec;

use crate::driver::{DriverConfig, RunOutcome};
use crate::experiment::{
    point_cols, rf_level_grid, Experiment, Grid, Level, Part, Point, RunShape, Store,
};
use crate::report::{fmt_us, Table};
use crate::setup::{Scale, StoreKind};

/// Configuration of the Fig. 6 experiment.
#[derive(Debug, Clone)]
pub(crate) struct DecompositionConfig {
    /// Scale, run length and seed.
    pub run: RunShape,
    /// Replication factors to sweep, ascending.
    pub rfs: Vec<u32>,
    /// Client threads; every run is unthrottled.
    pub threads: usize,
    /// Trace every Nth issued op (1 = every op).
    pub sample_every: u64,
    /// Full span trees kept per cell for the JSONL exporter (the stage
    /// aggregation always covers every traced op).
    pub keep_traces: usize,
    /// The workload to decompose.
    pub workload: WorkloadSpec,
}

impl Default for DecompositionConfig {
    fn default() -> Self {
        Self {
            run: RunShape {
                scale: Scale::stress(),
                warmup_ops: 2_000,
                measure_ops: 20_000,
                seed: 42,
            },
            rfs: vec![1, 3, 5],
            threads: 32,
            sample_every: 1,
            keep_traces: 8,
            workload: WorkloadSpec::read_update(),
        }
    }
}

/// One (store, RF, consistency) cell: per-stage time attribution over
/// every traced op's critical path.
#[derive(Debug, Clone)]
pub(crate) struct DecompositionCell {
    /// Per-(op kind, stage) critical-path time.
    pub agg: StageAgg,
    /// Ops whose critical path was extracted and aggregated.
    pub ops_traced: u64,
    /// The first [`DecompositionConfig::keep_traces`] successful op
    /// traces, kept for the JSONL exporter.
    pub sample: Vec<OpTrace>,
}

impl DecompositionCell {
    /// The stages ops of `kind` spent time in, largest share first.
    pub(crate) fn stages_by_share(&self, kind: OpKind) -> Vec<(Stage, f64)> {
        let mut stages: Vec<(Stage, f64)> = Stage::ALL
            .iter()
            .map(|&s| (s, self.agg.share(kind, s)))
            .filter(|&(_, share)| share > 0.0)
            .collect();
        stages.sort_by(|a, b| b.1.total_cmp(&a.1));
        stages
    }
}

impl Experiment for DecompositionConfig {
    type Spec = Point;
    type Cell = DecompositionCell;

    fn quick() -> Self {
        Self {
            run: RunShape {
                scale: Scale::tiny(),
                warmup_ops: 200,
                measure_ops: 2_000,
                seed: 42,
            },
            threads: 8,
            keep_traces: 4,
            ..Self::default()
        }
    }

    fn shape(&self) -> &RunShape {
        &self.run
    }

    fn specs(&self) -> Vec<Point> {
        rf_level_grid(&self.rfs)
    }

    fn build(&self, spec: &Point) -> Store {
        Store::paper(&self.run.scale, spec)
    }

    fn driver(&self, _: &Point) -> DriverConfig {
        DriverConfig {
            trace: TraceConfig::every(self.sample_every),
            ..self.run.driver(self.workload.clone(), self.threads, 0.0)
        }
    }

    fn cell(&self, spec: &Point, out: RunOutcome, _: &Store) -> DecompositionCell {
        let trace = out.trace.unwrap_or_default();
        let mut cell = DecompositionCell {
            agg: StageAgg::new(),
            ops_traced: 0,
            sample: Vec::new(),
        };
        for op in trace.ops.iter().filter(|op| op.ok) {
            let path = critical_path(op.issued, op.settled, &op.spans);
            // The tracing soundness invariant.
            assert_eq!(
                path.iter().map(|seg| seg.len()).sum::<u64>(),
                op.latency_us(),
                "critical-path sum must equal measured latency ({spec:?})"
            );
            cell.agg.record_path(op.kind, &path);
            cell.ops_traced += 1;
            if cell.sample.len() < self.keep_traces {
                cell.sample.push(op.clone());
            }
        }
        cell
    }

    /// The summary table — one row per (store, RF, CL, op kind) with the
    /// mean latency and the two dominant critical-path stages — then the
    /// per-(store, RF, CL, op kind, stage) CSV, plus a handful of full span
    /// trees from the most interesting cell — quorum writes at the paper's
    /// standard RF=3 — for trace tooling.
    fn report(grid: &Grid<Self>) -> Vec<Part> {
        let traced: u64 = grid.cells.iter().map(|c| c.ops_traced).sum();
        let kinds = grid.rows().flat_map(|(p, c)| {
            c.agg
                .kinds()
                .into_iter()
                .filter(|&kind| c.agg.ops(kind) > 0)
                .map(move |kind| (*p, c, kind, c.stages_by_share(kind)))
        });
        let title = format!(
            "Fig. 6 — latency decomposition ({})",
            grid.exp.workload.name
        );
        let mut summary = point_cols(Table::of(title, kinds), |r| r.0)
            .col("op", |&(_, _, kind, _)| kind.label().into())
            .col("ops", |&(_, c, kind, _)| c.agg.ops(kind).to_string())
            .col("mean", |&(_, c, kind, _)| {
                fmt_us(c.agg.total_us(kind) as f64 / c.agg.ops(kind) as f64)
            });
        for (i, stage) in ["top stage", "2nd stage"].into_iter().enumerate() {
            summary = summary
                .col(stage, move |(.., stages)| {
                    stages.get(i).map_or("-".into(), |(s, _)| s.label().into())
                })
                .col("share", move |(.., stages)| {
                    stages
                        .get(i)
                        .map_or("-".into(), |(_, share)| format!("{:.0}%", share * 100.0))
                });
        }
        let text = format!(
            "critical paths exact: yes ({} cells, {traced} traced ops)\n{}\n",
            grid.cells.len(),
            summary.table().render()
        );
        let stages = grid.rows().flat_map(|(p, c)| {
            c.agg
                .iter()
                .map(move |(kind, stage, cell)| (*p, c, kind, stage, cell))
        });
        let csv = point_cols(Table::of("fig6_decomposition", stages), |r| r.0)
            .col("op", |&(_, _, kind, ..)| kind.label().into())
            .col("stage", |&(.., stage, _)| stage.label().into())
            .col("ops", |&(_, c, kind, ..)| c.agg.ops(kind).to_string())
            .col("total_us", |(.., cell)| cell.total_us.to_string())
            .col("mean_us", |&(_, c, kind, stage, _)| {
                format!("{:.1}", c.agg.mean_us(kind, stage))
            })
            .col("share", |&(_, c, kind, stage, _)| {
                format!("{:.4}", c.agg.share(kind, stage))
            })
            .table();
        let mut parts = vec![Part::Text(text), Part::csv("fig6_decomposition.csv", &csv)];
        if let Some(c) = grid.cell(&(StoreKind::CStore, 3, Level::QUORUM)) {
            let trace = obs::RunTrace {
                ops: c.sample.clone(),
                background: Vec::new(),
            };
            parts.push(Part::File {
                name: "fig6_traces.jsonl",
                body: trace.to_jsonl(),
                announce: Some("sample traces"),
            });
        }
        parts
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;

    fn res() -> Grid<DecompositionConfig> {
        DecompositionConfig::quick().run()
    }

    #[test]
    fn every_cell_traces_ops_and_keeps_a_sample() {
        // `cell()` asserts the exactness invariant for every traced op, so
        // running the grid at all is the soundness check.
        let res = res();
        for (spec, c) in res.rows() {
            assert!(c.ops_traced > 0, "{spec:?}");
            assert!(!c.sample.is_empty());
        }
    }

    #[test]
    fn hstore_write_path_is_in_memory_wal_ack_at_every_rf() {
        let res = res();
        let mut wal_commit_means = Vec::new();
        for &rf in &[1u32, 3, 5] {
            let c = res
                .cell(&(StoreKind::HStore, rf, Level::STRONG))
                .expect("cell");
            // The write ack is in-memory end to end: the WAL pipeline acks
            // from datanode memory, so no disk stage ever appears on the
            // write critical path, at any replication factor.
            assert_eq!(
                c.agg.share(OpKind::Update, Stage::DiskIo),
                0.0,
                "rf={rf}: disk on the write critical path"
            );
            // The WAL ack stages are always present on that path.
            let wal = c.agg.share(OpKind::Update, Stage::WalQueue)
                + c.agg.share(OpKind::Update, Stage::WalCommit);
            assert!(wal > 0.0, "rf={rf}: no WAL time on the write path");
            wal_commit_means.push(c.agg.mean_us(OpKind::Update, Stage::WalCommit));
        }
        // What does grow with RF is exactly the pipeline commit (one more
        // serial in-memory hop per extra replica) — nothing else.
        assert!(wal_commit_means[0] < wal_commit_means[1]);
        assert!(wal_commit_means[1] < wal_commit_means[2]);
    }

    #[test]
    fn hstore_writes_flatter_in_rf_than_cstore_write_all() {
        let res = res();
        // The paper's architectural contrast, measured: replication makes
        // the HBase analog's writes only mildly slower (serial in-memory
        // pipeline hops), while the Cassandra analog's write-ALL quorum
        // wait — waiting on the slowest of RF replica round trips — grows
        // much faster.
        let h_mean = |rf| {
            let c = res
                .cell(&(StoreKind::HStore, rf, Level::STRONG))
                .expect("cell");
            c.agg.total_us(OpKind::Update) as f64 / c.agg.ops(OpKind::Update) as f64
        };
        let h_growth = h_mean(5) / h_mean(1);
        let qw = |rf| {
            res.cell(&(StoreKind::CStore, rf, Level::WRITE_ALL))
                .expect("cell")
                .agg
                .mean_us(OpKind::Update, Stage::QuorumWait)
        };
        let c_growth = qw(5) / qw(1);
        assert!(
            h_growth < c_growth,
            "hstore write growth {h_growth:.2}x should undercut write-ALL quorum growth {c_growth:.2}x"
        );
    }

    #[test]
    fn cstore_quorum_wait_grows_with_rf_and_cl() {
        let res = res();
        let qw = |rf: u32, level: Level| -> f64 {
            res.cell(&(StoreKind::CStore, rf, level))
                .expect("cell")
                .agg
                .mean_us(OpKind::Update, Stage::QuorumWait)
        };
        // More required acks at fixed RF: ONE ≤ QUORUM ≤ ALL (strict at
        // the endpoints).
        assert!(qw(3, Level::ONE) < qw(3, Level::WRITE_ALL));
        assert!(qw(3, Level::ONE) <= qw(3, Level::QUORUM));
        assert!(qw(3, Level::QUORUM) <= qw(3, Level::WRITE_ALL));
        // Waiting for all of more replicas takes longer: RF 1 < 3 ≤ 5.
        assert!(qw(1, Level::WRITE_ALL) < qw(3, Level::WRITE_ALL));
        assert!(qw(3, Level::WRITE_ALL) <= qw(5, Level::WRITE_ALL));
    }

    #[test]
    fn sample_traces_export_quorum_wait_spans() {
        let report = res().report();
        let jsonl = report
            .parts
            .iter()
            .find_map(|p| match p {
                Part::File { name, body, .. } if *name == "fig6_traces.jsonl" => Some(body),
                _ => None,
            })
            .expect("traces exported");
        assert!(jsonl.contains("\"spans\""));
        assert!(jsonl.contains("quorum_wait"));
    }
}
