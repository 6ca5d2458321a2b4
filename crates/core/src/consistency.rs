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
pub struct ConsistencyConfig {
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
pub struct ConsistencyCell {
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
    type Base = Level;
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

    fn base(&self, &(level, _, _): &Self::Spec) -> Level {
        level
    }

    fn build(&self, &level: &Level) -> Store {
        Store::paper(&self.run.scale, &(StoreKind::CStore, self.rf, level))
    }

    fn driver(&self, &(_, w, target): &Self::Spec, seed: u64) -> DriverConfig {
        self.run
            .driver(self.workloads[w].clone(), seed, self.threads, target)
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
    /// level.
    fn render(grid: &Grid<Self>) -> String {
        let cfg = &grid.exp;
        let mut by_name: Vec<usize> = (0..cfg.workloads.len()).collect();
        by_name.sort_by_key(|&w| &cfg.workloads[w].name);
        let mut targets = cfg.targets.clone();
        targets.sort_by(|a, b| target_order(*a).total_cmp(&target_order(*b)));
        targets.dedup();
        let mut out = String::new();
        for w in by_name {
            let mut headers: Vec<String> = vec!["target".into()];
            headers.extend(cfg.levels.iter().map(|l| format!("{} runtime", l.name)));
            let mut t = Table::new(
                &format!(
                    "Fig. 3 — consistency stress: {} (Cassandra analog, RF=3)",
                    cfg.workloads[w].name
                ),
                &headers.iter().map(String::as_str).collect::<Vec<_>>(),
            );
            for &target in &targets {
                let mut row = vec![if target == 0.0 {
                    "unthrottled".to_owned()
                } else {
                    fmt_ops(target)
                }];
                row.extend(cfg.levels.iter().map(|&level| {
                    grid.cell(&(level, w, target))
                        .map_or("-".to_owned(), |c| fmt_ops(c.runtime))
                }));
                t.row(row);
            }
            out.push_str(&t.render());
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
        out
    }

    fn files(grid: &Grid<Self>) -> Vec<Part> {
        let mut t = Table::new(
            "fig3_stress_consistency",
            &[
                "level",
                "workload",
                "target",
                "runtime",
                "mean_us",
                "stale_fraction",
                "missing_fraction",
                "repair_writes",
            ],
        );
        for (&(level, _, target), c) in grid.rows() {
            t.row(vec![
                level.name.into(),
                c.workload.clone(),
                format!("{target:.0}"),
                format!("{:.1}", c.runtime),
                format!("{:.1}", c.mean_us),
                format!("{:.5}", c.stale_fraction),
                format!("{:.5}", c.missing_fraction),
                c.repair_writes.to_string(),
            ]);
        }
        vec![Part::csv("fig3_consistency.csv", &t)]
    }
}

impl Grid<ConsistencyConfig> {
    /// Peak runtime throughput for `(level, workload)` across all targets.
    pub fn peak(&self, level: &str, workload: &str) -> f64 {
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
        // One base state per level, each loaded exactly once.
        assert_eq!(res.telemetry.base_loads, 3);
    }
}
