//! Beyond-paper ablations.
//!
//! The design-choice ablations DESIGN.md calls out, all on the Cassandra
//! analog:
//!
//! * **read repair on/off** — isolates the mechanism the paper blames for
//!   Cassandra's read-latency growth at RF > 3;
//! * **commit-log durability** — periodic (the paper's deployment) vs
//!   per-write sync, isolating the mechanism behind flat write latency;
//! * **partitioner** — the order-preserving partitioner the scan workloads
//!   require vs the hashing (Murmur-style) one Cassandra defaults to.
//!
//! (Node failure is covered by Figs 4 and 5, with timelines.)

use cstore::{CommitlogSync, Consistency, Partitioner};
use ycsb::WorkloadSpec;

use crate::driver::{DriverConfig, RunOutcome};
use crate::experiment::{Experiment, Grid, Part, RunShape, Store};
use crate::report::{fmt_ops, fmt_us, Table};
use crate::setup::{build_cstore_with, Scale};

/// One ablation variant: a single knob turned on an otherwise default
/// Cassandra-analog cluster at CL=ONE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Variant {
    /// Read-repair chance at a high RF, read mostly: the mechanism behind
    /// the Fig. 1 Cassandra read knee.
    ReadRepair(f64),
    /// Commit-log sync mode at RF=3, read & update.
    Commitlog(CommitlogSync),
    /// Ordered (`true`) vs hashing partitioner at RF=3, read & update.
    /// Range scans are only meaningful under the ordered partitioner.
    Partitioner {
        /// Order-preserving when true, Murmur-style hashing otherwise.
        ordered: bool,
    },
}

/// Replication factor of the read-repair ablation: high, so the repair
/// fan-out is visible.
const READ_REPAIR_RF: u32 = 6;

/// Configuration of the ablation runs.
#[derive(Debug, Clone)]
pub(crate) struct AblationConfig {
    /// Scale, run length and seed.
    pub run: RunShape,
    /// Client threads; every run is unthrottled.
    pub threads: usize,
}

impl Default for AblationConfig {
    fn default() -> Self {
        Self {
            run: RunShape {
                scale: Scale::stress(),
                warmup_ops: 2_000,
                measure_ops: 15_000,
                seed: 42,
            },
            threads: 64,
        }
    }
}

/// One labelled measurement row.
#[derive(Debug, Clone)]
pub(crate) struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Runtime throughput, ops/s.
    pub throughput: f64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Stale-read fraction.
    pub stale_fraction: f64,
    /// Errors in the measured window.
    pub errors: u64,
    /// Primary-load balance, max/min keys per node (how evenly the
    /// preloaded keys spread).
    pub primary_skew: f64,
}

impl Experiment for AblationConfig {
    type Spec = Variant;
    type Cell = AblationRow;

    fn quick() -> Self {
        Self {
            run: RunShape {
                scale: Scale::tiny(),
                warmup_ops: 100,
                measure_ops: 800,
                seed: 42,
            },
            threads: 8,
        }
    }

    fn shape(&self) -> &RunShape {
        &self.run
    }

    fn specs(&self) -> Vec<Variant> {
        vec![
            Variant::ReadRepair(0.0),
            Variant::ReadRepair(0.1),
            Variant::ReadRepair(1.0),
            Variant::Commitlog(CommitlogSync::Periodic),
            Variant::Commitlog(CommitlogSync::PerWrite),
            Variant::Partitioner { ordered: true },
            Variant::Partitioner { ordered: false },
        ]
    }

    fn build(&self, variant: &Variant) -> Store {
        let scale = &self.run.scale;
        let rf = match variant {
            Variant::ReadRepair(_) => READ_REPAIR_RF,
            _ => 3,
        };
        let one = Consistency::One;
        Store::C(build_cstore_with(scale, rf, one, one, |c| match *variant {
            Variant::ReadRepair(chance) => c.read_repair_chance = chance,
            Variant::Commitlog(mode) => c.commitlog_sync = mode,
            Variant::Partitioner { ordered: true } => {}
            Variant::Partitioner { ordered: false } => c.partitioner = Partitioner::murmur(),
        }))
    }

    fn driver(&self, variant: &Variant) -> DriverConfig {
        let workload = match variant {
            Variant::ReadRepair(_) => WorkloadSpec::read_mostly(),
            _ => WorkloadSpec::read_update(),
        };
        self.run.driver(workload, self.threads, 0.0)
    }

    fn cell(&self, variant: &Variant, out: RunOutcome, store: &Store) -> AblationRow {
        let mut per_node = vec![0u64; self.run.scale.nodes];
        if let Store::C(c) = store {
            for i in 0..self.run.scale.records.min(20_000) {
                per_node[c.ring().primary(&ycsb::encode_key(i))] += 1;
            }
        }
        let min = per_node.iter().copied().min().unwrap_or(0) as f64;
        let max = per_node.iter().copied().max().unwrap_or(0) as f64;
        AblationRow {
            variant: match *variant {
                Variant::ReadRepair(chance) => format!("read_repair_chance={chance}"),
                Variant::Commitlog(CommitlogSync::Periodic) => "periodic (default)".into(),
                Variant::Commitlog(CommitlogSync::PerWrite) => "per-write sync".into(),
                Variant::Partitioner { ordered: true } => "order-preserving".into(),
                Variant::Partitioner { ordered: false } => "murmur (hashing)".into(),
            },
            throughput: out.throughput,
            mean_us: out.mean_latency_us,
            stale_fraction: out.stale_fraction,
            errors: out.errors,
            primary_skew: max / min.max(1.0),
        }
    }

    /// The three ablation tables, then the same three as CSVs written
    /// without a stdout announcement.
    fn report(grid: &Grid<Self>) -> Vec<Part> {
        let table = |title: String, first: &str, pick: fn(&Variant) -> bool| {
            Table::of(title, grid.rows().filter(move |(v, _)| pick(v)))
                .col(first, |(_, r)| r.variant.clone())
                .col("throughput", |(_, r)| fmt_ops(r.throughput))
                .col("mean latency", |(_, r)| fmt_us(r.mean_us))
        };
        let [read_repair, commitlog] = [
            table(
                format!(
                    "Ablation — read repair chance (cstore, RF={READ_REPAIR_RF}, CL=ONE, read mostly)"
                ),
                "variant",
                |v| matches!(v, Variant::ReadRepair(_)),
            ),
            table(
                "Ablation — commit-log durability (cstore, RF=3, read & update)".into(),
                "variant",
                |v| matches!(v, Variant::Commitlog(_)),
            ),
        ]
        .map(|t| {
            t.col("stale%", |(_, r)| format!("{:.3}%", r.stale_fraction * 100.0))
                .col("errors", |(_, r)| r.errors.to_string())
                .table()
        });
        let partitioner = table(
            "Ablation — partitioner (cstore, RF=3, read & update)".into(),
            "partitioner",
            |v| matches!(v, Variant::Partitioner { .. }),
        )
        .col("primary-load skew (max/min)", |(_, r)| {
            format!("{:.2}", r.primary_skew)
        })
        .table();
        let tables = [
            ("ablation_read_repair.csv", read_repair),
            ("ablation_commitlog.csv", commitlog),
            ("ablation_partitioner.csv", partitioner),
        ];
        let text = tables.iter().map(|(_, t)| t.render() + "\n").collect();
        let mut parts = vec![Part::Text(text)];
        parts.extend(tables.into_iter().map(|(name, t)| Part::File {
            name,
            body: t.to_csv(),
            announce: None,
        }));
        parts
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn commitlog_ablation_shows_per_write_cost() {
        let res = AblationConfig::quick().run();
        let tput = |mode| {
            res.cell(&Variant::Commitlog(mode))
                .expect("cell")
                .throughput
        };
        let (periodic, perwrite) = (tput(CommitlogSync::Periodic), tput(CommitlogSync::PerWrite));
        assert!(
            periodic > perwrite,
            "periodic {periodic} should out-run per-write {perwrite}"
        );
    }

    #[test]
    fn both_partitioners_balance_hashed_keys() {
        let res = AblationConfig::quick().run();
        for ordered in [true, false] {
            let r = res.cell(&Variant::Partitioner { ordered }).expect("cell");
            assert!(
                r.primary_skew < 1.6,
                "{} skew {} too high",
                r.variant,
                r.primary_skew
            );
        }
    }
}
