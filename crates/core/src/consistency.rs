//! Figure 3: the stress benchmark for consistency.
//!
//! "In this benchmark, we use a replication factor of 3, a constant number
//! of test threads and a variety of target throughputs to detect the
//! runtime throughput of Cassandra. ... We conduct three rounds of testing,
//! the consistency levels of which are respectively ONE, write ALL and
//! QUORUM." (HBase has no consistency knob, so only the Cassandra analog
//! participates — same as the paper.)

use ycsb::WorkloadSpec;

use crate::driver::{DriverConfig, RunOutcome};
use crate::experiment::{Experiment, Grid, Level, Part, RunShape, Store, PAPER_LEVELS};
use crate::report::{bar_chart, fmt_ops, Table};
use crate::setup::{Scale, StoreKind};

/// Configuration of the Fig. 3 experiment.
#[derive(Debug, Clone)]
pub(crate) struct ConsistencyConfig {
    /// Scale, run length and seed.
    pub run: RunShape,
    /// Replication factor (the paper: 3).
    pub rf: u32,
    /// Consistency strategies to compare.
    pub levels: Vec<Level>,
    /// The workloads (default: the paper's five).
    pub workloads: Vec<WorkloadSpec>,
    /// Client threads, constant across the sweep.
    pub threads: usize,
    /// Target throughputs swept (the x-axis of Fig. 3); `0.0` probes the
    /// unthrottled peak.
    pub targets: Vec<f64>,
}

impl Default for ConsistencyConfig {
    fn default() -> Self {
        Self {
            run: RunShape {
                scale: Scale::stress(),
                warmup_ops: 2_000,
                measure_ops: 30_000,
                seed: 42,
            },
            rf: 3,
            levels: PAPER_LEVELS.to_vec(),
            workloads: WorkloadSpec::paper_stress_workloads(),
            threads: 64,
            targets: vec![5_000.0, 10_000.0, 20_000.0, 40_000.0, 0.0],
        }
    }
}

/// One point of Fig. 3: runtime throughput at one target under one level.
#[derive(Debug, Clone)]
pub(crate) struct ConsistencyCell {
    /// Workload name.
    pub workload: String,
    /// Achieved runtime throughput, ops/s.
    pub runtime: f64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Stale-read fraction.
    pub stale_fraction: f64,
    /// Fraction of checked reads that found *no* value after an
    /// acknowledged write — lost writes, split out of the stale fraction
    /// (missing ⊂ stale).
    pub missing_fraction: f64,
    /// Background repair mutations the level generated (cumulative counter
    /// at run end; compare across levels, not across workloads).
    pub repair_writes: u64,
}

/// Sort key putting the unthrottled probe (target 0) last.
fn target_order(target: f64) -> f64 {
    if target == 0.0 {
        f64::MAX
    } else {
        target
    }
}

impl Experiment for ConsistencyConfig {
    /// `(level, index into workloads, target)`; target 0 = unthrottled.
    type Spec = (Level, usize, f64);
    type Cell = ConsistencyCell;

    fn quick() -> Self {
        Self {
            run: RunShape {
                scale: Scale::tiny(),
                warmup_ops: 100,
                measure_ops: 800,
                seed: 42,
            },
            workloads: vec![WorkloadSpec::read_update()],
            threads: 8,
            targets: vec![500.0, 0.0],
            ..Self::default()
        }
    }

    fn shape(&self) -> &RunShape {
        &self.run
    }

    fn specs(&self) -> Vec<Self::Spec> {
        let mut specs = Vec::new();
        for &level in &self.levels {
            for w in 0..self.workloads.len() {
                specs.extend(self.targets.iter().map(|&target| (level, w, target)));
            }
        }
        specs
    }

    fn build(&self, &(level, _, _): &Self::Spec) -> Store {
        Store::paper(&self.run.scale, &(StoreKind::CStore, self.rf, level))
    }

    fn driver(&self, &(_, w, target): &Self::Spec) -> DriverConfig {
        self.run
            .driver(self.workloads[w].clone(), self.threads, target)
    }

    fn cell(&self, &(_, w, _): &Self::Spec, run: RunOutcome, _: &Store) -> ConsistencyCell {
        let repair_writes = run
            .counters
            .iter()
            .find(|(k, _)| *k == "repair_writes")
            .map_or(0, |(_, v)| *v);
        let (_, checked) = run.metrics.staleness();
        ConsistencyCell {
            workload: self.workloads[w].name.clone(),
            runtime: run.throughput,
            mean_us: run.mean_latency_us,
            stale_fraction: run.stale_fraction,
            missing_fraction: if checked == 0 {
                0.0
            } else {
                run.metrics.missing_reads() as f64 / checked as f64
            },
            repair_writes,
        }
    }

    /// One table per workload — target rows × level columns (runtime
    /// throughput), the shape of each Fig. 3 sub-plot — then the peak per
    /// level, then the CSV.
    fn report(grid: &Grid<Self>) -> Vec<Part> {
        let cfg = &grid.exp;
        let mut by_name: Vec<usize> = (0..cfg.workloads.len()).collect();
        by_name.sort_by_key(|&w| &cfg.workloads[w].name);
        let mut targets = cfg.targets.clone();
        targets.sort_by(|a, b| target_order(*a).total_cmp(&target_order(*b)));
        targets.dedup();
        let mut out = String::new();
        for w in by_name {
            let title = format!(
                "Fig. 3 — consistency stress: {} (Cassandra analog, RF=3)",
                cfg.workloads[w].name
            );
            let mut t = Table::of(title, &targets).col("target", |&&target| {
                if target == 0.0 {
                    "unthrottled".to_owned()
                } else {
                    fmt_ops(target)
                }
            });
            for &level in &cfg.levels {
                t = t.col(format!("{} runtime", level.name), move |&&target| {
                    grid.cell(&(level, w, target))
                        .map_or("-".to_owned(), |c| fmt_ops(c.runtime))
                });
            }
            out.push_str(&t.table().render());
            out.push('\n');
        }
        out.push('\n');
        for w in &cfg.workloads {
            let title = format!(
                "\"{}\" peak runtime throughput by consistency level",
                w.name
            );
            let peaks: Vec<(String, f64)> = cfg
                .levels
                .iter()
                .map(|l| (l.name.to_owned(), grid.peak(l.name, &w.name)))
                .collect();
            out.push_str(&bar_chart(&title, "ops/s", &peaks));
            out.push('\n');
        }
        let csv = Table::of("fig3_stress_consistency", grid.rows())
            .col("level", |(s, _)| s.0.name.into())
            .col("workload", |(_, c)| c.workload.clone())
            .col("target", |(s, _)| format!("{:.0}", s.2))
            .col("runtime", |(_, c)| format!("{:.1}", c.runtime))
            .col("mean_us", |(_, c)| format!("{:.1}", c.mean_us))
            .col("stale_fraction", |(_, c)| {
                format!("{:.5}", c.stale_fraction)
            })
            .col("missing_fraction", |(_, c)| {
                format!("{:.5}", c.missing_fraction)
            })
            .col("repair_writes", |(_, c)| c.repair_writes.to_string())
            .table();
        vec![Part::Text(out), Part::csv("fig3_consistency.csv", &csv)]
    }
}

impl Grid<ConsistencyConfig> {
    /// Peak runtime throughput for `(level, workload)` across all targets.
    pub(crate) fn peak(&self, level: &str, workload: &str) -> f64 {
        self.rows()
            .filter(|(spec, c)| spec.0.name == level && c.workload == workload)
            .map(|(_, c)| c.runtime)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_consistency_measures_every_cell() {
        let res = ConsistencyConfig::quick().run();
        for c in &res.cells {
            assert!(c.runtime > 0.0, "{c:?}");
        }
        assert!(res.peak("ONE", "read & update") > 0.0);
        // The three levels share one load: a level is read only by ops.
        assert_eq!(res.telemetry.base_loads, 1);
    }
}
