//! Figure 4: the failure-timeline experiment — crash/recover under load —
//! and the [`CrashPlan`] it shares with Figs 5 and 8.
//!
//! The paper benchmarks replication and consistency strategies under
//! steady state; this experiment extends the methodology to the failure
//! case those strategies exist for. A constant-rate workload runs while a
//! declarative [`FaultPlan`] crashes one node at a virtual time and brings
//! it back later. Per-window timeline metrics expose the three phases the
//! availability literature (Pokluda et al., and the paper's §6 future
//! work) cares about: throughput before the fault, the dip and error
//! spike while the node is down, and how fully throughput recovers after
//! the node returns.
//!
//! Both stores run the identical plan: the HBase analog pays a detection
//! window (ZooKeeper-style failover delay) during which requests to the
//! victim's regions fail fast, then region movement plus WAL replay; the
//! Cassandra analog degrades per consistency level — CL=ONE mostly rides
//! through, write-ALL refuses writes on every range replicated on the
//! victim until it returns.

use audit::PhaseWindow;
use faults::FaultPlan;
use simkit::NodeId;
use ycsb::{TimelineWindow, WorkloadSpec};

use crate::driver::{DriverConfig, RunOutcome};
use crate::experiment::{
    point_cols, rf_level_grid, Experiment, Grid, Part, Point, RunShape, Store,
};
use crate::report::{fmt_ops, Table};
use crate::setup::{build_cstore_with, build_hstore_with, Scale, StoreKind};

/// One node crashing and recovering under a constant-rate workload: the
/// scenario of Figs 4, 5 and 8.
#[derive(Debug, Clone)]
pub(crate) struct CrashPlan {
    /// Scale, run length and seed.
    pub run: RunShape,
    /// Client threads.
    pub threads: usize,
    /// Constant target rate, ops/s, so a timeline dip measures the store,
    /// not the load generator.
    pub target_ops_per_sec: f64,
    /// Virtual time at which the victim crashes, µs from sim start.
    pub crash_at_us: u64,
    /// Virtual time at which the victim comes back, µs from sim start.
    pub recover_at_us: u64,
    /// Client RPC timeout applied to both stores; short enough that an
    /// in-flight request stranded on the victim resolves within a couple
    /// of timeline windows.
    pub rpc_timeout_us: u64,
    /// HBase-analog failure-detection window (ZooKeeper session expiry +
    /// master reaction) between the crash and the region failover.
    pub failover_delay_us: u64,
    /// The node that crashes.
    pub victim: NodeId,
    /// The workload under which the failure happens.
    pub workload: WorkloadSpec,
}

impl Default for CrashPlan {
    fn default() -> Self {
        Self {
            run: RunShape {
                scale: Scale::stress(),
                warmup_ops: 2_000,
                measure_ops: 40_000,
                seed: 42,
            },
            threads: 48,
            target_ops_per_sec: 3_000.0,
            crash_at_us: 4_000_000,
            recover_at_us: 9_000_000,
            rpc_timeout_us: 250_000,
            failover_delay_us: 2_000_000,
            victim: NodeId(0),
            workload: WorkloadSpec::read_update(),
        }
    }
}

/// A timeline split into the three phases of one crash window.
pub(crate) struct Phases<'a> {
    /// Full windows ending at or before the crash, skipping the first
    /// window (thread-stagger ramp) when more than one qualifies.
    pub pre: Vec<&'a TimelineWindow>,
    /// Windows starting while the victim is down.
    pub fault: Vec<&'a TimelineWindow>,
    /// Windows starting at least one full window after recovery (the
    /// recovery transient — hint replay, cache refill — belongs to neither
    /// phase), excluding the final window, which the end of the run
    /// truncates.
    pub post: Vec<&'a TimelineWindow>,
}

/// Mean of `f` over `windows` (0 when empty).
pub(crate) fn mean_of(windows: &[&TimelineWindow], f: impl Fn(&TimelineWindow) -> f64) -> f64 {
    if windows.is_empty() {
        0.0
    } else {
        windows.iter().map(|w| f(w)).sum::<f64>() / windows.len() as f64
    }
}

impl CrashPlan {
    /// A fast variant for tests and smoke runs.
    pub(crate) fn quick() -> Self {
        Self {
            run: RunShape {
                scale: Scale::tiny(),
                warmup_ops: 400,
                measure_ops: 5_600,
                seed: 42,
            },
            threads: 8,
            target_ops_per_sec: 2_000.0,
            crash_at_us: 900_000,
            recover_at_us: 1_800_000,
            rpc_timeout_us: 120_000,
            failover_delay_us: 300_000,
            ..Self::default()
        }
    }

    /// The store for one grid point, with the plan's timeouts applied.
    pub(crate) fn build(&self, &(kind, rf, level): &Point) -> Store {
        let scale = &self.run.scale;
        match kind {
            StoreKind::HStore => Store::H(build_hstore_with(scale, rf, |c| {
                c.node.rpc_timeout_us = self.rpc_timeout_us;
                c.failover_delay_us = self.failover_delay_us;
            })),
            StoreKind::CStore => {
                Store::C(build_cstore_with(scale, rf, level.read, level.write, |c| {
                    c.node.rpc_timeout_us = self.rpc_timeout_us;
                }))
            }
        }
    }

    /// The fair-weather client run through the crash window (no timeline:
    /// Figs 4 and 5 switch theirs on).
    pub(crate) fn driver(&self) -> DriverConfig {
        DriverConfig {
            faults: FaultPlan::new().crash_window(
                self.victim,
                self.crash_at_us,
                self.recover_at_us,
            ),
            ..self
                .run
                .driver(self.workload.clone(), self.threads, self.target_ops_per_sec)
        }
    }

    /// The three fault phases as audit windows, in run order.
    pub(crate) fn phases(&self) -> [PhaseWindow; 3] {
        let window = |label, start_us, end_us| PhaseWindow {
            label,
            start_us,
            end_us,
        };
        [
            window("healthy", 0, self.crash_at_us),
            window("crash", self.crash_at_us, self.recover_at_us),
            window("recovery", self.recover_at_us, u64::MAX),
        ]
    }

    /// Split a run's timeline of `window_us`-wide buckets into its
    /// pre/fault/post phases.
    pub(crate) fn split<'a>(&self, windows: &'a [TimelineWindow], window_us: u64) -> Phases<'a> {
        let (crash, recover) = (self.crash_at_us, self.recover_at_us);
        let mut pre: Vec<_> = windows.iter().filter(|w| w.end_us <= crash).collect();
        if pre.len() > 1 {
            pre.remove(0);
        }
        let last_start = windows.last().map_or(0, |w| w.start_us);
        Phases {
            pre,
            fault: windows
                .iter()
                .filter(|w| w.start_us >= crash && w.start_us < recover)
                .collect(),
            post: windows
                .iter()
                .filter(|w| w.start_us >= recover + window_us && w.start_us < last_start)
                .collect(),
        }
    }

    /// `"<figure>: crash t=…s, recover t=…s (<workload>)"` — the table title.
    pub(crate) fn title(&self, figure: &str) -> String {
        format!(
            "{figure}: crash t={:.1}s, recover t={:.1}s ({})",
            self.crash_at_us as f64 / 1e6,
            self.recover_at_us as f64 / 1e6,
            self.workload.name,
        )
    }
}

/// Configuration of the Fig. 4 experiment.
#[derive(Debug, Clone)]
pub(crate) struct FailureConfig {
    /// The crash scenario.
    pub plan: CrashPlan,
    /// Replication factors to sweep, ascending.
    pub rfs: Vec<u32>,
    /// Timeline bucket width, µs.
    pub window_us: u64,
}

impl Default for FailureConfig {
    fn default() -> Self {
        Self {
            plan: CrashPlan::default(),
            rfs: vec![1, 3, 5],
            window_us: 250_000,
        }
    }
}

/// One (store, RF, consistency) failure timeline with its phase summary.
#[derive(Debug, Clone)]
pub(crate) struct FailureCell {
    /// Mean throughput over full windows before the crash, ops/s.
    pub pre_tput: f64,
    /// Mean throughput over windows inside the crash window, ops/s.
    pub fault_tput: f64,
    /// Worst single-window throughput inside the crash window, ops/s.
    pub fault_min_tput: f64,
    /// Errors accumulated inside the crash window.
    pub fault_errors: u64,
    /// Mean throughput after recovery settles, ops/s.
    pub post_tput: f64,
    /// Fault events the injector applied (crash + recover = 2).
    #[cfg(test)]
    pub faults_injected: u64,
    /// The full per-window timeline.
    pub windows: Vec<TimelineWindow>,
}

impl Experiment for FailureConfig {
    type Spec = Point;
    type Cell = FailureCell;

    fn quick() -> Self {
        Self {
            plan: CrashPlan::quick(),
            window_us: 150_000,
            ..Self::default()
        }
    }

    fn shape(&self) -> &RunShape {
        &self.plan.run
    }

    fn specs(&self) -> Vec<Point> {
        rf_level_grid(&self.rfs)
    }

    fn build(&self, spec: &Point) -> Store {
        self.plan.build(spec)
    }

    /// Fig. 4 keeps the paper's fair-weather client; Fig. 5 reruns this
    /// plan under real retry policies.
    fn driver(&self, _: &Point) -> DriverConfig {
        DriverConfig {
            timeline_window_us: self.window_us,
            ..self.plan.driver()
        }
    }

    fn cell(&self, _: &Point, out: RunOutcome, _: &Store) -> FailureCell {
        let windows = out
            .metrics
            .timeline()
            .map(|t| t.windows())
            .unwrap_or_default();
        let ph = self.plan.split(&windows, self.window_us);
        let tput = |w: &TimelineWindow| w.ops_per_sec;
        FailureCell {
            pre_tput: mean_of(&ph.pre, tput),
            fault_tput: mean_of(&ph.fault, tput),
            fault_min_tput: if ph.fault.is_empty() {
                0.0
            } else {
                ph.fault
                    .iter()
                    .map(|w| w.ops_per_sec)
                    .fold(f64::INFINITY, f64::min)
            },
            fault_errors: ph.fault.iter().map(|w| w.errors).sum(),
            post_tput: mean_of(&ph.post, tput),
            #[cfg(test)]
            faults_injected: out.faults_injected,
            windows,
        }
    }

    /// The phase-summary table — one row per (store, RF, CL) with
    /// pre/fault/post throughput, the worst fault window, the error
    /// spike, and how fully throughput recovered — then one CSV row per
    /// timeline window per cell.
    fn report(grid: &Grid<Self>) -> Vec<Part> {
        let title = grid.exp.plan.title("Fig. 4 — failure timeline");
        let summary = point_cols(Table::of(title, grid.rows()), |&(p, _)| *p)
            .col("pre tput", |(_, c)| fmt_ops(c.pre_tput))
            .col("fault tput", |(_, c)| fmt_ops(c.fault_tput))
            .col("fault min", |(_, c)| fmt_ops(c.fault_min_tput))
            .col("fault errors", |(_, c)| c.fault_errors.to_string())
            .col("post tput", |(_, c)| fmt_ops(c.post_tput))
            .col("recovery", |(_, c)| {
                if c.pre_tput > 0.0 {
                    format!("{:.0}%", c.post_tput / c.pre_tput * 100.0)
                } else {
                    "-".to_owned()
                }
            })
            .table();
        let windows = grid
            .rows()
            .flat_map(|(p, c)| c.windows.iter().map(move |w| (*p, w)));
        let csv = point_cols(Table::of("fig4_failure", windows), |&(p, _)| p)
            .col("window_start_us", |(_, w)| w.start_us.to_string())
            .col("ops", |(_, w)| w.ops.to_string())
            .col("ops_per_sec", |(_, w)| format!("{:.1}", w.ops_per_sec))
            .col("mean_us", |(_, w)| format!("{:.1}", w.mean_us))
            .col("p95_us", |(_, w)| w.p95_us.to_string())
            .col("p99_us", |(_, w)| w.p99_us.to_string())
            .col("errors", |(_, w)| w.errors.to_string())
            .table();
        vec![
            Part::Text(summary.render() + "\n"),
            Part::csv("fig4_failure.csv", &csv),
        ]
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use crate::experiment::Level;

    #[test]
    fn every_cell_sees_both_faults_and_a_timeline() {
        let res = FailureConfig::quick().run();
        for (spec, c) in res.rows() {
            assert_eq!(c.faults_injected, 2, "{spec:?}");
            assert!(!c.windows.is_empty());
            assert!(c.pre_tput > 0.0, "{spec:?}");
        }
    }

    #[test]
    fn rf3_dips_and_recovers_for_both_stores() {
        let res = FailureConfig::quick().run();
        // The acceptance shape: at RF=3 both stores show a throughput dip
        // and an error spike inside the crash window, then recover to
        // within 10% of the pre-fault throughput.
        for spec in [
            (StoreKind::HStore, 3, Level::STRONG),
            (StoreKind::CStore, 3, Level::WRITE_ALL),
        ] {
            let c = res.cell(&spec).expect("cell exists");
            assert!(c.fault_errors > 0, "no error spike: {c:?}");
            assert!(
                c.fault_min_tput < 0.9 * c.pre_tput,
                "no dip: min {} vs pre {} ({spec:?})",
                c.fault_min_tput,
                c.pre_tput,
            );
            let dev = (c.post_tput - c.pre_tput).abs() / c.pre_tput;
            assert!(
                dev < 0.10,
                "poor recovery: post {} vs pre {} ({spec:?})",
                c.post_tput,
                c.pre_tput,
            );
        }
    }

    #[test]
    fn cl_one_rides_through_better_than_write_all() {
        let res = FailureConfig::quick().run();
        // CL=ONE skips the dead replica (1 ack suffices, hints queue for
        // the victim), so its fault-phase throughput beats write-ALL's,
        // which refuses every write replicated on the victim.
        let cell = |level| res.cell(&(StoreKind::CStore, 3, level)).expect("cell");
        let (one, all) = (cell(Level::ONE), cell(Level::WRITE_ALL));
        assert!(
            one.fault_tput > all.fault_tput,
            "ONE {} should out-serve write-ALL {} during the outage",
            one.fault_tput,
            all.fault_tput
        );
        assert!(one.fault_errors <= all.fault_errors);
    }
}
