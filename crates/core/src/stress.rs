//! Table 1 and Figure 2: the stress benchmark for replication.
//!
//! "In this benchmark, we use a constant number of test threads and a
//! variety of target throughputs to detect the peak runtime throughput and
//! the corresponding latency of databases. We conduct six rounds of testing
//! [RF 1..6], and the read latest / scan short ranges / read mostly /
//! read-modify-write / read & update test is run one after another."
//!
//! The closed-loop driver reaches the peak directly when unthrottled, so
//! each cell is one unthrottled run rather than a ladder of targets.

use ycsb::WorkloadSpec;

use crate::driver::{DriverConfig, RunOutcome};
use crate::experiment::{Experiment, Grid, Level, Part, Report, RunShape, Store};
use crate::micro::MICRO_OPS;
use crate::report::{bar_chart, fmt_ops, fmt_us, Table};
use crate::setup::{Scale, StoreKind};

/// Configuration of the Fig. 2 experiment.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// Scale, run length and seed.
    pub run: RunShape,
    /// Replication factors to sweep, ascending.
    pub rfs: Vec<u32>,
    /// The workloads (default: the paper's five, in its order).
    pub workloads: Vec<WorkloadSpec>,
    /// Client threads, constant across the sweep; every run is unthrottled.
    pub threads: usize,
}

impl Default for StressConfig {
    fn default() -> Self {
        Self {
            run: RunShape {
                scale: Scale::stress(),
                warmup_ops: 2_000,
                measure_ops: 20_000,
                seed: 42,
            },
            rfs: (1..=6).collect(),
            workloads: WorkloadSpec::paper_stress_workloads(),
            threads: 64,
        }
    }
}

/// The peak point for one (store, RF, workload).
#[derive(Debug, Clone)]
pub struct StressCell {
    /// Workload name.
    pub workload: String,
    /// Peak runtime throughput, ops/s.
    pub peak_throughput: f64,
    /// Mean latency at the peak, µs.
    pub mean_us: f64,
    /// 95th-percentile latency at the peak, µs.
    pub p95_us: u64,
    /// Stale-read fraction observed at the peak.
    pub stale_fraction: f64,
    /// Errors at the peak.
    pub errors: u64,
}

impl Experiment for StressConfig {
    /// `(store, RF, index into workloads)`.
    type Spec = (StoreKind, u32, usize);
    type Base = (StoreKind, u32);
    type Cell = StressCell;

    fn quick() -> Self {
        Self {
            run: RunShape {
                scale: Scale::tiny(),
                warmup_ops: 200,
                measure_ops: 1_500,
                seed: 42,
            },
            rfs: vec![1, 3],
            workloads: vec![WorkloadSpec::read_mostly(), WorkloadSpec::read_latest()],
            threads: 16,
        }
    }

    fn shape(&self) -> &RunShape {
        &self.run
    }

    /// Store, then RF, then workload *name* — the CSV row order.
    fn specs(&self) -> Vec<Self::Spec> {
        let mut specs = Vec::new();
        for store in [StoreKind::CStore, StoreKind::HStore] {
            for &rf in &self.rfs {
                specs.extend((0..self.workloads.len()).map(|w| (store, rf, w)));
            }
        }
        let name = |w: usize| &self.workloads[w].name;
        specs.sort_by(|a, b| (a.0, a.1, name(a.2)).cmp(&(b.0, b.1, name(b.2))));
        specs
    }

    fn base(&self, &(store, rf, _): &Self::Spec) -> Self::Base {
        (store, rf)
    }

    fn build(&self, &(store, rf): &Self::Base) -> Store {
        Store::paper(&self.run.scale, &(store, rf, Level::ONE))
    }

    fn driver(&self, &(_, _, w): &Self::Spec, seed: u64) -> DriverConfig {
        self.run
            .driver(self.workloads[w].clone(), seed, self.threads, 0.0)
    }

    fn cell(&self, &(_, _, w): &Self::Spec, out: RunOutcome, _: &Store) -> StressCell {
        StressCell {
            workload: self.workloads[w].name.clone(),
            peak_throughput: out.throughput,
            mean_us: out.mean_latency_us,
            p95_us: out.metrics.overall().p95(),
            stale_fraction: out.stale_fraction,
            errors: out.errors,
        }
    }

    /// One table per (store, workload) — RF rows with throughput and
    /// latency, the two panels of each Fig. 2 sub-plot — then one
    /// peak-throughput curve per (store, workload).
    fn render(grid: &Grid<Self>) -> String {
        let mut names: Vec<&String> = grid.exp.workloads.iter().map(|w| &w.name).collect();
        names.sort();
        let mut out = String::new();
        for store in [StoreKind::CStore, StoreKind::HStore] {
            for workload in &names {
                let mut t = Table::new(
                    &format!("Fig. 2 — stress: {workload} on {}", store.label()),
                    &[
                        "rf",
                        "peak throughput",
                        "mean latency",
                        "p95 latency",
                        "stale%",
                    ],
                );
                for (&(s, rf, _), c) in grid.rows() {
                    if s == store && c.workload == **workload {
                        t.row(vec![
                            rf.to_string(),
                            fmt_ops(c.peak_throughput),
                            fmt_us(c.mean_us),
                            fmt_us(c.p95_us as f64),
                            format!("{:.3}%", c.stale_fraction * 100.0),
                        ]);
                    }
                }
                out.push_str(&t.render());
                out.push('\n');
            }
        }
        out.push('\n');
        for store in [StoreKind::HStore, StoreKind::CStore] {
            for w in &grid.exp.workloads {
                let title = format!("{} \"{}\" peak throughput vs RF", store.short(), w.name);
                let series = grid.throughput_series(store, &w.name);
                out.push_str(&bar_chart(&title, "ops/s", &series));
                out.push('\n');
            }
        }
        out
    }

    fn files(grid: &Grid<Self>) -> Vec<Part> {
        let mut t = Table::new(
            "fig2_stress_replication",
            &[
                "store",
                "rf",
                "workload",
                "peak_throughput",
                "mean_us",
                "p95_us",
                "stale_fraction",
                "errors",
            ],
        );
        for (&(store, rf, _), c) in grid.rows() {
            t.row(vec![
                store.short().into(),
                rf.to_string(),
                c.workload.clone(),
                format!("{:.1}", c.peak_throughput),
                format!("{:.1}", c.mean_us),
                c.p95_us.to_string(),
                format!("{:.5}", c.stale_fraction),
                c.errors.to_string(),
            ]);
        }
        vec![Part::csv("fig2_stress.csv", &t)]
    }
}

impl Grid<StressConfig> {
    /// Peak-throughput series for `(store, workload)`: `("rf=N", ops/s)` in
    /// RF order.
    pub fn throughput_series(&self, store: StoreKind, workload: &str) -> Vec<(String, f64)> {
        self.rows()
            .filter(|(&(s, _, _), c)| s == store && c.workload == workload)
            .map(|(&(_, rf, _), c)| (format!("rf={rf}"), c.peak_throughput))
            .collect()
    }
}

/// The paper's Table 1 ("Workloads of the stress benchmarks for replication
/// and consistency") plus the micro rounds of §3.3, for completeness.
pub fn table1() -> Report {
    let mut t = Table::new(
        "Table 1 — workloads of the stress benchmarks for replication and consistency",
        &[
            "workload",
            "typical usage",
            "operations",
            "records distribution",
        ],
    );
    for w in WorkloadSpec::paper_stress_workloads() {
        let m = w.mix;
        let mix: Vec<String> = [
            (m.read, "read"),
            (m.update, "update"),
            (m.insert, "insert"),
            (m.scan, "scan"),
            (m.rmw, "read-modify-write"),
        ]
        .iter()
        .filter(|(frac, _)| *frac > 0.0)
        .map(|(frac, label)| format!("{label} {:.0}%", frac * 100.0))
        .collect();
        t.row(vec![
            w.name.clone(),
            w.typical_usage.clone(),
            mix.join(" / "),
            format!("{:?}", w.distribution),
        ]);
    }
    let mut rounds = Table::new(
        "Micro benchmark rounds (1-byte records, uniform requests)",
        &["round", "operation"],
    );
    for (i, op) in MICRO_OPS.iter().enumerate() {
        rounds.row(vec![(i + 1).to_string(), op.label().into()]);
    }
    Report {
        parts: vec![
            Part::Text(t.render() + "\n"),
            Part::csv("table1_workloads.csv", &t),
            Part::Text(rounds.render() + "\n"),
        ],
        telemetry: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_stress_measures_every_cell() {
        let res = StressConfig::quick().run();
        for c in &res.cells {
            assert!(c.peak_throughput > 0.0, "{c:?}");
            assert!(c.mean_us > 0.0);
        }
        let series = res.throughput_series(StoreKind::HStore, "read mostly");
        assert_eq!(series.len(), 2);
        // 2 stores × 2 RFs base states, each loaded once.
        assert_eq!(res.telemetry.base_loads, 4);
    }
}
