//! Figure 1: the micro benchmark for replication.
//!
//! "In this benchmark, we keep the load of the testbed in unsaturated state
//! by limiting the number of concurrence requests, and conduct six rounds of
//! testing. In each round, the replication factor is increased by one, and
//! the update/read/insert/scan test is run one after another."

use storage::OpKind;
use ycsb::WorkloadSpec;

use crate::driver::{DriverConfig, RunOutcome};
use crate::experiment::{Experiment, Grid, Level, Part, RunShape, Store};
use crate::report::{bar_chart, fmt_us, Table};
use crate::setup::{Scale, StoreKind};

/// The micro-test round order used by the paper.
pub const MICRO_OPS: [OpKind; 4] = [OpKind::Update, OpKind::Read, OpKind::Insert, OpKind::Scan];

/// Configuration of the Fig. 1 experiment.
#[derive(Debug, Clone)]
pub struct MicroConfig {
    /// Scale, run length and seed.
    pub run: RunShape,
    /// Replication factors to sweep, ascending.
    pub rfs: Vec<u32>,
    /// Client threads: modest (the paper limits concurrency).
    pub threads: usize,
    /// Target throughput, ops/s: keeps the testbed unsaturated.
    pub target_ops_per_sec: f64,
}

impl Default for MicroConfig {
    fn default() -> Self {
        Self {
            run: RunShape {
                scale: Scale::micro(),
                warmup_ops: 1_000,
                measure_ops: 8_000,
                seed: 42,
            },
            rfs: (1..=6).collect(),
            threads: 48,
            target_ops_per_sec: 1_500.0,
        }
    }
}

/// One measured point of Fig. 1: one (store, RF, operation) round.
#[derive(Debug, Clone)]
pub struct MicroCell {
    /// Mean latency, µs.
    pub mean_us: f64,
    /// 95th-percentile latency, µs.
    pub p95_us: u64,
    /// Runtime throughput, ops/s.
    pub throughput: f64,
}

impl Experiment for MicroConfig {
    type Spec = (StoreKind, u32, OpKind);
    type Base = (StoreKind, u32);
    type Cell = MicroCell;

    fn quick() -> Self {
        Self {
            run: RunShape {
                scale: Scale::tiny(),
                warmup_ops: 100,
                measure_ops: 500,
                seed: 42,
            },
            rfs: vec![1, 3],
            threads: 4,
            target_ops_per_sec: 400.0,
        }
    }

    fn shape(&self) -> &RunShape {
        &self.run
    }

    fn specs(&self) -> Vec<Self::Spec> {
        let mut specs = Vec::new();
        for store in [StoreKind::CStore, StoreKind::HStore] {
            for &rf in &self.rfs {
                specs.extend(MICRO_OPS.iter().map(|&op| (store, rf, op)));
            }
        }
        specs.sort();
        specs
    }

    fn base(&self, &(store, rf, _): &Self::Spec) -> Self::Base {
        (store, rf)
    }

    fn build(&self, &(store, rf): &Self::Base) -> Store {
        Store::paper(&self.run.scale, &(store, rf, Level::ONE))
    }

    fn driver(&self, &(_, _, op): &Self::Spec, seed: u64) -> DriverConfig {
        let workload = WorkloadSpec::micro(op);
        self.run
            .driver(workload, seed, self.threads, self.target_ops_per_sec)
    }

    fn cell(&self, &(_, _, op): &Self::Spec, out: RunOutcome, _: &Store) -> MicroCell {
        let hist = out.metrics.for_op(op).cloned().unwrap_or_default();
        MicroCell {
            mean_us: hist.mean(),
            p95_us: hist.p95(),
            throughput: out.throughput,
        }
    }

    /// One table per store — RF rows × operation columns (mean latency),
    /// the shape of the paper's Fig. 1 — then one latency curve per round.
    fn render(grid: &Grid<Self>) -> String {
        let stores = [StoreKind::HStore, StoreKind::CStore];
        let mut out = String::new();
        for store in stores {
            let mut t = Table::new(
                &format!(
                    "Fig. 1 — micro benchmark for replication: {}",
                    store.label()
                ),
                &["rf", "UPDATE mean", "READ mean", "INSERT mean", "SCAN mean"],
            );
            for &rf in &grid.exp.rfs {
                let mut row = vec![rf.to_string()];
                row.extend(MICRO_OPS.iter().map(|&op| {
                    grid.cell(&(store, rf, op))
                        .map_or("-".to_owned(), |c| fmt_us(c.mean_us))
                }));
                t.row(row);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        out.push('\n');
        for store in stores {
            for op in MICRO_OPS {
                let title = format!("{} {} mean latency vs RF", store.short(), op.label());
                out.push_str(&bar_chart(&title, "us", &grid.series(store, op)));
                out.push('\n');
            }
        }
        out
    }

    fn files(grid: &Grid<Self>) -> Vec<Part> {
        let mut t = Table::new(
            "fig1_micro_replication",
            &["store", "rf", "op", "mean_us", "p95_us", "throughput"],
        );
        for (&(store, rf, op), c) in grid.rows() {
            t.row(vec![
                store.short().into(),
                rf.to_string(),
                op.label().into(),
                format!("{:.1}", c.mean_us),
                c.p95_us.to_string(),
                format!("{:.1}", c.throughput),
            ]);
        }
        vec![Part::csv("fig1_micro.csv", &t)]
    }
}

impl Grid<MicroConfig> {
    /// Mean-latency series for `(store, op)`: `("rf=N", µs)` in RF order.
    pub fn series(&self, store: StoreKind, op: OpKind) -> Vec<(String, f64)> {
        self.rows()
            .filter(|(&(s, _, o), _)| s == store && o == op)
            .map(|(&(_, rf, _), c)| (format!("rf={rf}"), c.mean_us))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_micro_measures_every_round() {
        let res = MicroConfig::quick().run();
        for c in &res.cells {
            assert!(c.mean_us > 0.0, "{c:?} has zero latency");
            assert!(c.throughput > 0.0);
        }
        let series = res.series(StoreKind::CStore, OpKind::Read);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, "rf=1");
        // Each of the 4 base states (2 stores × 2 RFs) loaded exactly once.
        assert_eq!(res.telemetry.base_loads, 4);
        assert_eq!(res.telemetry.base_states, 4);
    }
}
