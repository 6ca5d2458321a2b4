//! Figure 7: the geo-replication (PACELC) experiment.
//!
//! The paper's testbed is one datacenter; its §6 future work asks what the
//! replication/consistency trade looks like when replicas sit behind WAN
//! links. This experiment sweeps region count × consistency level over the
//! geo subsystem: the Cassandra analog places `rf_per_dc` replicas in every
//! datacenter with [`geo::Strategy::NetworkTopology`] and runs the
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
use faults::FaultPlan;
use hstore::HStoreConfig;
use ycsb::{balanced_tokens, WorkloadSpec};

use crate::driver::{DriverConfig, RunOutcome};
use crate::experiment::{Experiment, Grid, Level, Part, RunShape, Store};
use crate::report::{fmt_ops, Table};
use crate::setup::{Scale, StoreKind};

/// The level label of the HBase analog's async-replication rows (HBase has
/// no consistency knob; geo mode adds asynchrony, not a level).
pub const ASYNC_SHIP: Level = Level {
    name: "async-ship",
    ..Level::STRONG
};

/// The five strategies of the geo sweep: the paper's three plus the two
/// datacenter-aware levels the geo subsystem adds.
pub const GEO_LEVELS: [Level; 5] = [
    Level::ONE,
    Level::LOCAL_QUORUM,
    Level::QUORUM,
    Level::EACH_QUORUM,
    Level::WRITE_ALL,
];

/// Configuration of the Fig. 7 experiment.
#[derive(Debug, Clone)]
pub struct GeoExperimentConfig {
    /// Scale, run length and seed (`run.scale.nodes` is ignored: the
    /// cluster is `nodes_per_region × regions`). Cells with the same region
    /// count share their driver seed, so levels that take identical code
    /// paths (single-region LOCAL_QUORUM vs QUORUM) produce bit-identical
    /// rows.
    pub run: RunShape,
    /// Servers per datacenter.
    pub nodes_per_region: usize,
    /// Replicas per datacenter (Cassandra analog: the NetworkTopology
    /// quota; HBase analog: the in-region HDFS replication factor).
    pub rf_per_dc: u32,
    /// Region counts swept (the x-axis; 1 = the paper's single-DC testbed).
    pub region_counts: Vec<u32>,
    /// One-way inter-region delay, microseconds.
    pub inter_region_us: u64,
    /// Relative WAN jitter applied per region pair at matrix build time
    /// (asymmetric links; still deterministic).
    pub wan_jitter: f64,
    /// Extra HBase-analog shipping lag before a committed group leaves the
    /// primary.
    pub ship_lag_us: u64,
    /// Consistency strategies swept (Cassandra analog only).
    pub levels: Vec<Level>,
    /// The workload.
    pub workload: WorkloadSpec,
    /// Client threads.
    pub threads: usize,
    /// Cluster-wide target throughput, ops/s; `0.0` = unthrottled.
    pub target_ops_per_sec: f64,
    /// Fault plan injected into every cell (empty by default; region-scoped
    /// kinds let a whole datacenter crash or partition mid-run).
    pub faults: FaultPlan,
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
            nodes_per_region: 5,
            rf_per_dc: 3,
            region_counts: vec![1, 2, 3],
            inter_region_us: geo::DEFAULT_INTER_REGION_US,
            wan_jitter: 0.2,
            ship_lag_us: 10_000,
            levels: GEO_LEVELS.to_vec(),
            workload: WorkloadSpec::read_update(),
            threads: 48,
            target_ops_per_sec: 0.0,
            faults: FaultPlan::new(),
        }
    }
}

/// One Fig. 7 cell: one (regions, store, level) run.
#[derive(Debug, Clone)]
pub struct GeoCell {
    /// Total replicas per key across all datacenters.
    pub rf_total: u32,
    /// Runtime throughput, ops/s.
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
    /// The per-region-pair jitter seed is tied to the experiment seed so two
    /// runs of the same config see the same asymmetric WAN matrix.
    fn geo_config(&self, regions: u32) -> geo::GeoConfig {
        geo::GeoConfig {
            regions,
            racks_per_region: 1,
            inter_region_us: self.inter_region_us,
            wan_jitter: self.wan_jitter,
            jitter_seed: self.run.seed,
        }
    }

    /// The Cassandra-analog geo cluster: `nodes_per_region` nodes per
    /// datacenter, `rf_per_dc` replicas per datacenter via NetworkTopology.
    fn build_cstore(&self, regions: u32, level: Level) -> cstore::Cluster {
        let npr = self.nodes_per_region;
        let nodes = npr * regions as usize;
        let mut c = CStoreConfig::paper_testbed(
            self.rf_per_dc * regions,
            Partitioner::order_preserving(balanced_tokens(nodes)),
        );
        let prop = c.node.profile.nic.prop_us;
        c.node.topology = self.geo_config(regions).topology(npr, prop, prop);
        c.strategy = geo::Strategy::network_topology(regions, self.rf_per_dc);
        c.lsm = self.run.scale.lsm();
        c.read_cl = level.read;
        c.write_cl = level.write;
        cstore::Cluster::new(c)
    }

    /// The HBase-analog geo cluster: the primary region serves all
    /// traffic, `regions - 1` follower regions receive shipped WAL groups.
    fn build_hstore(&self, regions: u32) -> hstore::Cluster {
        let npr = self.nodes_per_region;
        let splits: Vec<_> = balanced_tokens(npr).into_iter().skip(1).collect();
        let mut h = HStoreConfig::paper_testbed(self.hstore_rf(), splits);
        h.node.topology = simkit::Topology::single_rack(npr, h.node.profile.nic.prop_us);
        h.lsm = self.run.scale.lsm();
        h.follower_regions = regions - 1;
        h.ship_wan_us = self.inter_region_us;
        h.ship_lag_us = self.ship_lag_us;
        hstore::Cluster::new(h, 0xB0A7 ^ u64::from(regions))
    }

    fn hstore_rf(&self) -> u32 {
        self.rf_per_dc.min(self.nodes_per_region as u32)
    }
}

impl Experiment for GeoExperimentConfig {
    /// `(regions, store, level)`; the HBase analog's level is [`ASYNC_SHIP`].
    type Spec = (u32, StoreKind, Level);
    type Base = Self::Spec;
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
            ..Self::default()
        }
    }

    fn shape(&self) -> &RunShape {
        &self.run
    }

    /// Region-count-major: the Cassandra analog's levels, then the HBase
    /// analog's async-replication cell.
    fn specs(&self) -> Vec<Self::Spec> {
        let mut specs = Vec::new();
        for &r in &self.region_counts {
            specs.extend(self.levels.iter().map(|&l| (r, StoreKind::CStore, l)));
            specs.push((r, StoreKind::HStore, ASYNC_SHIP));
        }
        specs
    }

    fn base(&self, spec: &Self::Spec) -> Self::Base {
        *spec
    }

    fn build(&self, &(regions, store, level): &Self::Base) -> Store {
        match store {
            StoreKind::CStore => Store::C(self.build_cstore(regions, level)),
            StoreKind::HStore => Store::H(self.build_hstore(regions)),
        }
    }

    /// Cells with equal region counts share one driver seed so levels that
    /// must coincide (single-region LOCAL_QUORUM vs QUORUM) stay
    /// bit-identical; different region counts get distinct streams.
    fn driver(&self, &(regions, _, _): &Self::Spec, _: u64) -> DriverConfig {
        DriverConfig {
            faults: self.faults.clone(),
            ..self.run.driver(
                self.workload.clone(),
                self.run.seed ^ (u64::from(regions) << 17),
                self.threads,
                self.target_ops_per_sec,
            )
        }
    }

    fn cell(&self, &(regions, _, _): &Self::Spec, run: RunOutcome, store: &Store) -> GeoCell {
        let (rf_per_dc, repl_window_us) = match store {
            Store::C(_) => (self.rf_per_dc, 0.0),
            Store::H(h) => (self.hstore_rf(), h.mean_replication_window_us()),
        };
        let measured = self.run.measure_ops;
        GeoCell {
            rf_total: rf_per_dc * regions,
            runtime: run.throughput,
            goodput: if measured == 0 {
                0.0
            } else {
                run.throughput * (1.0 - run.errors as f64 / measured as f64)
            },
            mean_us: run.mean_latency_us,
            p99_us: run.metrics.overall().quantile(0.99),
            errors: run.errors,
            stale_fraction: run.stale_fraction,
            repl_window_us,
        }
    }

    /// One table per region count — the Fig. 7 panels.
    fn render(grid: &Grid<Self>) -> String {
        let mut out = String::new();
        for &regions in &grid.exp.region_counts {
            let mut t = Table::new(
                &format!("Fig. 7 — geo-replication PACELC: {regions} region(s)"),
                &[
                    "store",
                    "level",
                    "rf_total",
                    "runtime",
                    "goodput",
                    "mean_us",
                    "p99_us",
                    "stale_frac",
                    "repl_window_us",
                ],
            );
            for (&(r, store, level), c) in grid.rows() {
                if r == regions {
                    t.row(vec![
                        store.short().to_owned(),
                        level.name.to_owned(),
                        c.rf_total.to_string(),
                        fmt_ops(c.runtime),
                        fmt_ops(c.goodput),
                        format!("{:.1}", c.mean_us),
                        c.p99_us.to_string(),
                        format!("{:.5}", c.stale_fraction),
                        format!("{:.1}", c.repl_window_us),
                    ]);
                }
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        out + "\n"
    }

    fn files(grid: &Grid<Self>) -> Vec<Part> {
        let mut t = Table::new(
            "fig7_geo",
            &[
                "store",
                "regions",
                "level",
                "rf_total",
                "runtime",
                "goodput",
                "mean_us",
                "p99_us",
                "errors",
                "stale_fraction",
                "repl_window_us",
            ],
        );
        for (&(regions, store, level), c) in grid.rows() {
            t.row(vec![
                store.short().to_owned(),
                regions.to_string(),
                level.name.to_owned(),
                c.rf_total.to_string(),
                format!("{:.1}", c.runtime),
                format!("{:.1}", c.goodput),
                format!("{:.1}", c.mean_us),
                c.p99_us.to_string(),
                c.errors.to_string(),
                format!("{:.5}", c.stale_fraction),
                format!("{:.1}", c.repl_window_us),
            ]);
        }
        vec![Part::csv("fig7_geo.csv", &t)]
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use crate::driver;

    fn cstore_cell(res: &Grid<GeoExperimentConfig>, regions: u32, level: Level) -> &GeoCell {
        res.cell(&(regions, StoreKind::CStore, level))
            .expect("cell")
    }

    #[test]
    fn every_cell_runs_on_its_own_base() {
        let res = GeoExperimentConfig::quick().run();
        for c in &res.cells {
            assert!(c.runtime > 0.0, "{c:?}");
        }
        // 3 region counts × (5 levels + 1 hstore row).
        assert_eq!(res.telemetry.base_loads, 18);
    }

    #[test]
    fn single_region_dc_aware_levels_match_quorum_exactly() {
        let mut cfg = GeoExperimentConfig::quick();
        cfg.region_counts = vec![1];
        let res = cfg.run();
        let q = cstore_cell(&res, 1, Level::QUORUM);
        for level in [Level::LOCAL_QUORUM, Level::EACH_QUORUM] {
            let c = cstore_cell(&res, 1, level);
            assert_eq!(c.runtime, q.runtime, "{} runtime diverged", level.name);
            assert_eq!(c.mean_us, q.mean_us, "{} latency diverged", level.name);
            assert_eq!(c.p99_us, q.p99_us, "{} p99 diverged", level.name);
            assert_eq!(c.errors, q.errors);
        }
    }

    #[test]
    fn three_regions_reproduce_the_pacelc_trade() {
        let mut cfg = GeoExperimentConfig::quick();
        cfg.region_counts = vec![3];
        let res = cfg.run();
        let cfg = &res.exp;
        let one = cstore_cell(&res, 3, Level::ONE);
        let each = cstore_cell(&res, 3, Level::EACH_QUORUM);
        // Latency: EACH_QUORUM pays at least one WAN round trip per op.
        assert!(
            each.mean_us > one.mean_us + 2.0 * cfg.inter_region_us as f64 * 0.5,
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
        assert!(h.repl_window_us >= (cfg.ship_lag_us + cfg.inter_region_us) as f64);
    }

    #[test]
    fn single_region_nts_run_matches_simple_strategy_run() {
        // The whole-experiment equivalence behind the placement refactor: a
        // driver run over a 1-region NetworkTopology cluster is event-for-
        // event identical to the same run over classic SimpleStrategy
        // placement (same topology distances, same tokens, same RF).
        let cfg = GeoExperimentConfig::quick();
        let run = |strategy: geo::Strategy| {
            let level = GEO_LEVELS[0];
            let mut c = cfg.build_cstore(1, level);
            assert_eq!(c.config().strategy, geo::Strategy::network_topology(1, 3));
            if strategy == geo::Strategy::Simple {
                let mut base = CStoreConfig::paper_testbed(
                    3,
                    Partitioner::order_preserving(balanced_tokens(cfg.nodes_per_region)),
                );
                let prop = base.node.profile.nic.prop_us;
                base.node.topology = cfg.geo_config(1).topology(cfg.nodes_per_region, prop, prop);
                base.lsm = cfg.run.scale.lsm();
                base.read_cl = level.read;
                base.write_cl = level.write;
                c = cstore::Cluster::new(base);
            }
            let scale = &cfg.run.scale;
            driver::load(&mut c, scale.records, scale.value_len, cfg.run.seed);
            let dcfg = cfg.run.driver(
                cfg.workload.clone(),
                cfg.run.seed,
                cfg.threads,
                cfg.target_ops_per_sec,
            );
            let run = driver::run(&mut c, &dcfg);
            (
                run.throughput,
                run.mean_latency_us,
                run.events_dispatched,
                run.sim_duration_us,
            )
        };
        assert_eq!(
            run(geo::Strategy::Simple),
            run(geo::Strategy::network_topology(1, 3))
        );
    }

    #[test]
    fn region_crash_hurts_each_quorum_hardest() {
        // Satellite check: a whole-datacenter crash through the region-
        // scoped fault plan. EACH_QUORUM needs every DC's quorum, so it
        // errors on (nearly) every write while region 1 is down;
        // LOCAL_QUORUM only fails ops coordinated by the dead DC.
        let mut cfg = GeoExperimentConfig::quick();
        cfg.region_counts = vec![2];
        cfg.faults = FaultPlan::new().crash_region_at(1, 50_000);
        cfg.levels = vec![Level::LOCAL_QUORUM, Level::EACH_QUORUM];
        let res = cfg.run();
        let local = cstore_cell(&res, 2, Level::LOCAL_QUORUM);
        let each = cstore_cell(&res, 2, Level::EACH_QUORUM);
        assert!(each.errors > 0, "EACH_QUORUM must fail during a DC outage");
        assert!(
            each.errors > local.errors,
            "EACH_QUORUM ({}) should fail more than LOCAL_QUORUM ({})",
            each.errors,
            local.errors
        );
    }
}
