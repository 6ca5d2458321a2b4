//! Figure 7: the geo-replication (PACELC) experiment.
//!
//! The paper's testbed is one datacenter; its §6 future work asks what the
//! replication/consistency trade looks like when replicas sit behind WAN
//! links. This experiment sweeps region count × consistency level over the
//! geo subsystem: the Cassandra analog places `RF_PER_DC` replicas in every
//! datacenter with [`cstore::Strategy::NetworkTopology`] and runs the
//! datacenter-aware levels (`LOCAL_QUORUM` settles inside the coordinator's
//! DC, `EACH_QUORUM` waits on the slowest DC's quorum), while the HBase
//! analog runs its async cluster-replication mode (the primary region
//! serves all traffic and ships committed WAL groups to follower regions).
//!
//! The output is the PACELC trade made measurable: as regions grow, weak
//! levels keep their latency but pay in staleness (Cassandra: stale-read
//! fraction; HBase: the follower replication window), strong levels pay
//! one or two WAN round trips per operation.

use cstore::{CStoreConfig, Partitioner};
use hstore::HStoreConfig;
use ycsb::{balanced_tokens, WorkloadSpec};

use crate::driver::{DriverConfig, RunOutcome};
use crate::experiment::{Experiment, Grid, Level, Part, RunShape, Store};
use crate::report::{fmt_ops, Table};
use crate::setup::{Scale, StoreKind};

/// The level label of the HBase analog's async-replication rows (HBase has
/// no consistency knob; geo mode adds asynchrony, not a level).
pub(crate) const ASYNC_SHIP: Level = Level {
    name: "async-ship",
    ..Level::STRONG
};

/// The five strategies of the geo sweep: the paper's three plus the two
/// datacenter-aware levels the geo subsystem adds.
pub(crate) const GEO_LEVELS: [Level; 5] = [
    Level::ONE,
    Level::LOCAL_QUORUM,
    Level::QUORUM,
    Level::EACH_QUORUM,
    Level::WRITE_ALL,
];

/// Servers per datacenter.
const NODES_PER_REGION: usize = 5;
/// Replicas per datacenter, at most [`NODES_PER_REGION`] (Cassandra analog:
/// the NetworkTopology quota; HBase analog: the in-region HDFS replication
/// factor).
const RF_PER_DC: u32 = 3;
/// Region counts swept (the x-axis; 1 = the paper's single-DC testbed).
const REGION_COUNTS: [u32; 3] = [1, 2, 3];

/// Configuration of the Fig. 7 experiment: the read & update mix
/// ([`WorkloadSpec::read_update`]) over [`REGION_COUNTS`] ×
/// [`GEO_LEVELS`], with `simkit`'s default one-way inter-region delay
/// ([`simkit::DEFAULT_INTER_REGION_US`]) and `hstore`'s shipping lag
/// ([`hstore::SHIP_LAG_US`]).
#[derive(Debug, Clone)]
pub(crate) struct GeoExperimentConfig {
    /// Scale, run length and seed (`run.scale.nodes` is ignored: the
    /// cluster is [`NODES_PER_REGION`] × regions). Cells with the same
    /// region count share their driver seed, so levels that take identical
    /// code paths (single-region LOCAL_QUORUM vs QUORUM) produce
    /// bit-identical rows.
    pub run: RunShape,
    /// Client threads.
    pub threads: usize,
}

impl Default for GeoExperimentConfig {
    fn default() -> Self {
        Self {
            run: RunShape {
                scale: Scale::stress(),
                warmup_ops: 2_000,
                measure_ops: 20_000,
                seed: 42,
            },
            threads: 48,
        }
    }
}

/// One Fig. 7 cell: one (regions, store, level) run.
#[derive(Debug, Clone)]
pub(crate) struct GeoCell {
    /// Total replicas per key across all datacenters.
    pub rf_total: u32,
    /// Settled throughput (successes plus errors), ops/s.
    pub runtime: f64,
    /// Successful (error-free) throughput, ops/s.
    pub goodput: f64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: u64,
    /// Failed operations in the measured window.
    pub errors: u64,
    /// Stale-read fraction the driver measured (Cassandra analog; the
    /// HBase primary is strongly consistent, so 0 there).
    pub stale_fraction: f64,
    /// Mean replication window, µs: commit-to-follower-apply gap (HBase
    /// analog async mode; 0 for the Cassandra analog and single region).
    pub repl_window_us: f64,
}

impl GeoExperimentConfig {
    /// `regions` regions of [`NODES_PER_REGION`] nodes `prop_us` apart,
    /// over [`simkit::Topology::jittered_geo`]'s asymmetric WAN. The
    /// jitter seed is the experiment seed, so two runs of the same config
    /// see the same matrix.
    fn topology(&self, regions: u32, prop_us: u64) -> simkit::Topology {
        simkit::Topology::jittered_geo(regions, NODES_PER_REGION, prop_us, self.run.seed)
    }

    /// The Cassandra-analog geo cluster: [`NODES_PER_REGION`] nodes and
    /// [`RF_PER_DC`] replicas per datacenter via NetworkTopology.
    fn build_cstore(&self, regions: u32, level: Level) -> cstore::Cluster {
        let nodes = NODES_PER_REGION * regions as usize;
        let mut c = CStoreConfig::paper_testbed(
            RF_PER_DC * regions,
            Partitioner::order_preserving(balanced_tokens(nodes)),
        );
        c.node.topology = self.topology(regions, c.node.profile.nic.prop_us);
        c.strategy = cstore::Strategy::network_topology(regions, RF_PER_DC);
        c.lsm = self.run.scale.lsm();
        c.read_cl = level.read;
        c.write_cl = level.write;
        cstore::Cluster::new(c)
    }

    /// The HBase-analog geo cluster: the primary region serves all
    /// traffic, `regions - 1` follower regions receive shipped WAL groups.
    fn build_hstore(&self, regions: u32) -> hstore::Cluster {
        let splits: Vec<_> = balanced_tokens(NODES_PER_REGION)
            .into_iter()
            .skip(1)
            .collect();
        let mut h = HStoreConfig::paper_testbed(RF_PER_DC, splits);
        h.node.topology =
            simkit::Topology::single_rack(NODES_PER_REGION, h.node.profile.nic.prop_us);
        h.lsm = self.run.scale.lsm();
        h.follower_regions = regions - 1;
        hstore::Cluster::new(h, 0xB0A7 ^ u64::from(regions))
    }
}

impl Experiment for GeoExperimentConfig {
    /// `(regions, store, level)`; the HBase analog's level is [`ASYNC_SHIP`].
    type Spec = (u32, StoreKind, Level);
    type Cell = GeoCell;

    /// Same grid, tiny scale.
    fn quick() -> Self {
        Self {
            run: RunShape {
                scale: Scale::tiny(),
                warmup_ops: 100,
                measure_ops: 600,
                seed: 42,
            },
            threads: 8,
        }
    }

    fn shape(&self) -> &RunShape {
        &self.run
    }

    /// Region-count-major: the Cassandra analog's levels, then the HBase
    /// analog's async-replication cell.
    fn specs(&self) -> Vec<Self::Spec> {
        let mut specs = Vec::new();
        for r in REGION_COUNTS {
            specs.extend(GEO_LEVELS.map(|l| (r, StoreKind::CStore, l)));
            specs.push((r, StoreKind::HStore, ASYNC_SHIP));
        }
        specs
    }

    fn build(&self, &(regions, store, level): &Self::Spec) -> Store {
        match store {
            StoreKind::CStore => Store::C(self.build_cstore(regions, level)),
            StoreKind::HStore => Store::H(self.build_hstore(regions)),
        }
    }

    /// Cells with equal region counts share one driver seed so levels that
    /// must coincide (single-region LOCAL_QUORUM vs QUORUM) stay
    /// bit-identical; different region counts get distinct streams.
    fn driver(&self, &(regions, _, _): &Self::Spec) -> DriverConfig {
        DriverConfig {
            seed: self.run.seed ^ (u64::from(regions) << 17),
            ..self
                .run
                .driver(WorkloadSpec::read_update(), self.threads, 0.0)
        }
    }

    fn cell(&self, &(regions, _, _): &Self::Spec, run: RunOutcome, store: &Store) -> GeoCell {
        let repl_window_us = match store {
            Store::C(_) => 0.0,
            Store::H(h) => h.mean_replication_window_us(),
        };
        GeoCell {
            rf_total: RF_PER_DC * regions,
            runtime: run.metrics.rate(run.metrics.ops() + run.errors),
            goodput: run.throughput,
            mean_us: run.mean_latency_us,
            p99_us: run.metrics.overall().quantile(0.99),
            errors: run.errors,
            stale_fraction: run.stale_fraction,
            repl_window_us,
        }
    }

    /// One table per region count — the Fig. 7 panels — then the CSV.
    fn report(grid: &Grid<Self>) -> Vec<Part> {
        let mut out = String::new();
        for regions in REGION_COUNTS {
            let t = Table::of(
                format!("Fig. 7 — geo-replication PACELC: {regions} region(s)"),
                grid.rows().filter(|(s, _)| s.0 == regions),
            )
            .col("store", |(s, _)| s.1.short().into())
            .col("level", |(s, _)| s.2.name.into())
            .col("rf_total", |(_, c)| c.rf_total.to_string())
            .col("runtime", |(_, c)| fmt_ops(c.runtime))
            .col("goodput", |(_, c)| fmt_ops(c.goodput))
            .col("mean_us", |(_, c)| format!("{:.1}", c.mean_us))
            .col("p99_us", |(_, c)| c.p99_us.to_string())
            .col("stale_frac", |(_, c)| format!("{:.5}", c.stale_fraction))
            .col("repl_window_us", |(_, c)| {
                format!("{:.1}", c.repl_window_us)
            })
            .table();
            out.push_str(&t.render());
            out.push('\n');
        }
        let csv = Table::of("fig7_geo", grid.rows())
            .col("store", |(s, _)| s.1.short().into())
            .col("regions", |(s, _)| s.0.to_string())
            .col("level", |(s, _)| s.2.name.into())
            .col("rf_total", |(_, c)| c.rf_total.to_string())
            .col("runtime", |(_, c)| format!("{:.1}", c.runtime))
            .col("goodput", |(_, c)| format!("{:.1}", c.goodput))
            .col("mean_us", |(_, c)| format!("{:.1}", c.mean_us))
            .col("p99_us", |(_, c)| c.p99_us.to_string())
            .col("errors", |(_, c)| c.errors.to_string())
            .col("stale_fraction", |(_, c)| {
                format!("{:.5}", c.stale_fraction)
            })
            .col("repl_window_us", |(_, c)| {
                format!("{:.1}", c.repl_window_us)
            })
            .table();
        vec![Part::Text(out + "\n"), Part::csv("fig7_geo.csv", &csv)]
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use crate::driver;

    fn cstore_cell(res: &Grid<GeoExperimentConfig>, regions: u32, level: Level) -> &GeoCell {
        res.cell(&(regions, StoreKind::CStore, level))
            .expect("cell")
    }

    /// The quick grid, run once and shared by the tests that read its cells.
    fn quick_grid() -> &'static Grid<GeoExperimentConfig> {
        static GRID: OnceLock<Grid<GeoExperimentConfig>> = OnceLock::new();
        GRID.get_or_init(|| GeoExperimentConfig::quick().run())
    }

    #[test]
    fn each_region_count_loads_once_per_store() {
        let res = quick_grid();
        for c in &res.cells {
            assert!(c.runtime > 0.0, "{c:?}");
        }
        // 3 region counts × (one load for the 5 levels + 1 hstore row).
        assert_eq!(res.telemetry.base_loads, 6);
    }

    #[test]
    fn single_region_dc_aware_levels_match_quorum_exactly() {
        let res = quick_grid();
        let q = cstore_cell(res, 1, Level::QUORUM);
        for level in [Level::LOCAL_QUORUM, Level::EACH_QUORUM] {
            let c = cstore_cell(res, 1, level);
            assert_eq!(c.runtime, q.runtime, "{} runtime diverged", level.name);
            assert_eq!(c.mean_us, q.mean_us, "{} latency diverged", level.name);
            assert_eq!(c.p99_us, q.p99_us, "{} p99 diverged", level.name);
            assert_eq!(c.errors, q.errors);
        }
    }

    #[test]
    fn three_regions_reproduce_the_pacelc_trade() {
        let res = quick_grid();
        let wan_us = simkit::DEFAULT_INTER_REGION_US;
        let one = cstore_cell(res, 3, Level::ONE);
        let each = cstore_cell(res, 3, Level::EACH_QUORUM);
        // Latency: EACH_QUORUM pays at least one WAN round trip per op.
        assert!(
            each.mean_us > one.mean_us + 2.0 * wan_us as f64 * 0.5,
            "EACH_QUORUM {:.0}µs should dwarf ONE {:.0}µs",
            each.mean_us,
            one.mean_us
        );
        // Staleness: the strong level's R+W quotas overlap in every DC.
        assert!(each.stale_fraction <= one.stale_fraction);
        // The HBase analog keeps local latency but pays a replication
        // window of at least ship lag + WAN delay.
        let h = res.cell(&(3, StoreKind::HStore, ASYNC_SHIP)).expect("cell");
        assert!(h.mean_us < each.mean_us);
        assert!(h.repl_window_us >= (hstore::SHIP_LAG_US + wan_us) as f64);
    }

    #[test]
    fn single_region_nts_run_matches_simple_strategy_run() {
        // The whole-experiment equivalence behind the placement refactor: a
        // driver run over a 1-region NetworkTopology cluster is event-for-
        // event identical to the same run over classic SimpleStrategy
        // placement (same topology distances, same tokens, same RF).
        let cfg = GeoExperimentConfig::quick();
        let run = |strategy: cstore::Strategy| {
            let level = GEO_LEVELS[0];
            let mut c = cfg.build_cstore(1, level);
            assert_eq!(
                c.config().strategy,
                cstore::Strategy::network_topology(1, 3)
            );
            if strategy == cstore::Strategy::Simple {
                let mut base = CStoreConfig::paper_testbed(
                    3,
                    Partitioner::order_preserving(balanced_tokens(NODES_PER_REGION)),
                );
                base.node.topology = cfg.topology(1, base.node.profile.nic.prop_us);
                base.lsm = cfg.run.scale.lsm();
                base.read_cl = level.read;
                base.write_cl = level.write;
                c = cstore::Cluster::new(base);
            }
            let scale = &cfg.run.scale;
            driver::load(&mut c, scale.records, scale.value_len, cfg.run.seed);
            let dcfg = cfg
                .run
                .driver(WorkloadSpec::read_update(), cfg.threads, 0.0);
            let run = driver::run(&mut c, &dcfg);
            (
                run.throughput,
                run.mean_latency_us,
                run.events_dispatched,
                run.sim_duration_us,
            )
        };
        assert_eq!(
            run(cstore::Strategy::Simple),
            run(cstore::Strategy::network_topology(1, 3))
        );
    }

    #[test]
    fn region_crash_hurts_each_quorum_hardest() {
        // Satellite check: a whole-datacenter crash through the region-
        // scoped fault plan. EACH_QUORUM needs every DC's quorum, so it
        // errors on (nearly) every write while region 1 is down;
        // LOCAL_QUORUM only fails ops coordinated by the dead DC.
        let cfg = GeoExperimentConfig::quick();
        let errors = |level: Level| {
            let mut c = cfg.build_cstore(2, level);
            let scale = &cfg.run.scale;
            driver::load(&mut c, scale.records, scale.value_len, cfg.run.seed);
            let dcfg = DriverConfig {
                faults: faults::FaultPlan::new().crash_region_at(1, 50_000),
                ..cfg.driver(&(2, StoreKind::CStore, level))
            };
            driver::run(&mut c, &dcfg).errors
        };
        let (local, each) = (errors(Level::LOCAL_QUORUM), errors(Level::EACH_QUORUM));
        assert!(each > 0, "EACH_QUORUM must fail during a DC outage");
        assert!(
            each > local,
            "EACH_QUORUM ({each}) should fail more than LOCAL_QUORUM ({local})"
        );
    }
}
