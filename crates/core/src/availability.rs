//! Figure 5: availability under failure — the resilience-layer experiment.
//!
//! Fig. 4 traces how each store degrades around a crash when the client is
//! fair-weather: one attempt, every failure surfaced. Real clients are not:
//! they retry transient errors with backoff, bound each operation with a
//! deadline budget, and hedge tail reads. This experiment reruns the Fig. 4
//! crash/recover plan under three client policies — `none`, `retry`, and
//! `retry+hedge` — and reports what the *application* actually experiences:
//! per-window goodput split into first-try and retried successes, the
//! client-visible error rate, and the attempts-per-op cost the resilience
//! layer pays for that availability.
//!
//! The expected shape (the paper's §6 future-work question, answered): a
//! Cassandra-analog client at CL=ONE with retries sees essentially *no*
//! outage — the coordinator skips the dead replica, stragglers retry onto
//! live nodes, and errors stay at zero through the crash window. The
//! HBase analog cannot be saved by retries alone: requests to the victim's
//! regions have nowhere else to go until failover, so its visible dip is
//! bounded below by the detection window plus the backoff ladder.

use ycsb::TimelineWindow;

use crate::driver::{DriverConfig, RunOutcome};
use crate::experiment::{rf_level_grid, Experiment, Grid, Level, Part, RunShape, Store};
use crate::failure::{mean_of, CrashPlan};
use crate::report::{fmt_ops, Table};
use crate::resilience::RetryPolicy;
use crate::setup::StoreKind;

/// The three client policies every (store, CL) pair runs under.
pub(crate) const POLICY_NAMES: [&str; 3] = ["none", "retry", "retry+hedge"];

/// Configuration of the Fig. 5 experiment: the Fig. 4 crash at a single
/// replication factor; the new axis is the retry policy.
#[derive(Debug, Clone)]
pub(crate) struct AvailabilityConfig {
    /// The crash scenario.
    pub plan: CrashPlan,
    /// Replication factor (one value: the policy axis replaces the RF
    /// sweep).
    pub rf: u32,
    /// Timeline bucket width, µs.
    pub window_us: u64,
    /// The retrying policy (the `retry` cells); its backoff ladder should
    /// outlast the outage so a patient client rides through.
    pub retry: RetryPolicy,
    /// Hedge delay added for the `retry+hedge` cells, µs — a p99-ish value
    /// so hedges fire on stragglers, not the common case.
    pub hedge_after_us: u64,
}

impl Default for AvailabilityConfig {
    fn default() -> Self {
        Self {
            plan: CrashPlan::default(),
            rf: 3,
            window_us: 250_000,
            // Eight attempts from a 50 ms base: the cumulative backoff
            // (50+100+...+800, capped at 16x) outlasts the 2 s failover
            // detection window, under a 5 s per-op budget.
            retry: RetryPolicy::retrying(8, 50_000, 5_000_000),
            // Just past the healthy read p99 (~2 ms), so hedges fire on
            // the straggler tail rather than on every read.
            hedge_after_us: 2_500,
        }
    }
}

impl AvailabilityConfig {
    /// The client policy called `name` (one of [`POLICY_NAMES`]).
    pub(crate) fn policy(&self, name: &str) -> RetryPolicy {
        match name {
            "retry" => self.retry,
            "retry+hedge" => self.retry.with_hedge(self.hedge_after_us),
            _ => RetryPolicy::none(),
        }
    }
}

/// One (store, CL, policy) availability timeline with its phase summary.
#[derive(Debug, Clone)]
pub(crate) struct AvailabilityCell {
    /// Mean throughput over full windows before the crash, ops/s.
    pub pre_tput: f64,
    /// Mean goodput (successful ops/s) inside the crash window.
    pub fault_goodput: f64,
    /// Of the fault-phase goodput, the first-try share, ops/s: what the
    /// client got without the resilience layer's help.
    pub fault_first_try: f64,
    /// Client-visible errors inside the crash window.
    pub fault_errors: u64,
    /// Mean store attempts per settled op inside the crash window (1.0 =
    /// no retry/hedge traffic).
    pub fault_attempts_per_op: f64,
    /// Worst per-window p99 latency inside the crash window, µs.
    pub fault_p99_us: u64,
    /// Mean throughput after recovery settles, ops/s.
    pub post_tput: f64,
    /// Whole-run resilience accounting.
    #[cfg(test)]
    pub resilience: ycsb::ResilienceCounters,
    /// Operations still unsettled at run end (must be 0: no token leaks).
    #[cfg(test)]
    pub unsettled_ops: u64,
    /// The full per-window timeline.
    pub windows: Vec<TimelineWindow>,
}

impl Experiment for AvailabilityConfig {
    /// `(store, consistency, policy name)`.
    type Spec = (StoreKind, Level, &'static str);
    type Cell = AvailabilityCell;

    fn quick() -> Self {
        let plan = CrashPlan::quick();
        Self {
            plan: CrashPlan {
                run: RunShape {
                    warmup_ops: 800,
                    measure_ops: 14_000,
                    ..plan.run
                },
                threads: 16,
                // Higher rate than the Fig. 4 smoke so several operations
                // are in flight at the crash instant — the transient the
                // resilience layer exists to absorb.
                target_ops_per_sec: 5_000.0,
                // Tighter than the Fig. 4 smoke (120 ms): the four
                // survivors brown out under the redirected load, and a
                // client timeout inside the fault-phase queueing tail is
                // exactly the transient a resilient client should absorb.
                rpc_timeout_us: 60_000,
                ..plan
            },
            window_us: 150_000,
            // 15 ms base: cumulative backoff crosses the 300 ms failover
            // window after five retries, within a 1.5 s budget.
            retry: RetryPolicy::retrying(8, 15_000, 1_500_000),
            hedge_after_us: 5_000,
            ..Self::default()
        }
    }

    fn shape(&self) -> &RunShape {
        &self.plan.run
    }

    fn specs(&self) -> Vec<Self::Spec> {
        let mut specs = Vec::new();
        for (store, _, level) in rf_level_grid(&[self.rf]) {
            specs.extend(POLICY_NAMES.iter().map(|&policy| (store, level, policy)));
        }
        specs
    }

    fn build(&self, &(store, level, _): &Self::Spec) -> Store {
        self.plan.build(&(store, self.rf, level))
    }

    fn driver(&self, &(_, _, policy): &Self::Spec) -> DriverConfig {
        DriverConfig {
            retry: self.policy(policy),
            timeline_window_us: self.window_us,
            ..self.plan.driver()
        }
    }

    fn cell(&self, _: &Self::Spec, out: RunOutcome, _: &Store) -> AvailabilityCell {
        let windows = out
            .metrics
            .timeline()
            .map(|t| t.windows())
            .unwrap_or_default();
        let ph = self.plan.split(&windows, self.window_us);
        let tput = |w: &TimelineWindow| w.ops_per_sec;
        let secs_per_window = self.window_us as f64 / 1_000_000.0;
        let fault_settled: u64 = ph.fault.iter().map(|w| w.ops + w.errors).sum();
        let fault_attempts: u64 = ph.fault.iter().map(|w| w.attempts).sum();
        AvailabilityCell {
            pre_tput: mean_of(&ph.pre, tput),
            fault_goodput: mean_of(&ph.fault, tput),
            fault_first_try: mean_of(&ph.fault, |w| w.first_try_ops() as f64 / secs_per_window),
            fault_errors: ph.fault.iter().map(|w| w.errors).sum(),
            fault_attempts_per_op: if fault_settled == 0 {
                0.0
            } else {
                fault_attempts as f64 / fault_settled as f64
            },
            fault_p99_us: ph.fault.iter().map(|w| w.p99_us).max().unwrap_or(0),
            post_tput: mean_of(&ph.post, tput),
            #[cfg(test)]
            resilience: *out.metrics.resilience(),
            #[cfg(test)]
            unsettled_ops: out.unsettled_ops,
            windows,
        }
    }

    /// The phase-summary table — one row per (store, CL, policy) with
    /// pre-fault throughput, fault-phase goodput split into first-try
    /// and total, the error count, the attempts-per-op cost, the worst
    /// fault-window p99, and post-recovery throughput — then one CSV row
    /// per timeline window per cell.
    fn report(grid: &Grid<Self>) -> Vec<Part> {
        let title = grid.exp.plan.title("Fig. 5 — availability under failure");
        let summary = Table::of(title, grid.rows())
            .col("store", |(s, _)| s.0.short().into())
            .col("cl", |(s, _)| s.1.name.into())
            .col("policy", |(s, _)| s.2.into())
            .col("pre tput", |(_, c)| fmt_ops(c.pre_tput))
            .col("fault goodput", |(_, c)| fmt_ops(c.fault_goodput))
            .col("first-try", |(_, c)| fmt_ops(c.fault_first_try))
            .col("fault errors", |(_, c)| c.fault_errors.to_string())
            .col("att/op", |(_, c)| format!("{:.2}", c.fault_attempts_per_op))
            .col("fault p99", |(_, c)| format!("{}us", c.fault_p99_us))
            .col("post tput", |(_, c)| fmt_ops(c.post_tput))
            .table();
        let windows = grid
            .rows()
            .flat_map(|(s, c)| c.windows.iter().map(move |w| (s, w)));
        let csv = Table::of("fig5_availability", windows)
            .col("store", |(s, _)| s.0.short().into())
            .col("cl", |(s, _)| s.1.name.into())
            .col("policy", |(s, _)| s.2.into())
            .col("window_start_us", |(_, w)| w.start_us.to_string())
            .col("ops", |(_, w)| w.ops.to_string())
            .col("first_try_ops", |(_, w)| w.first_try_ops().to_string())
            .col("retried_ops", |(_, w)| w.retried_ops.to_string())
            .col("ops_per_sec", |(_, w)| format!("{:.1}", w.ops_per_sec))
            .col("errors", |(_, w)| w.errors.to_string())
            .col("attempts", |(_, w)| w.attempts.to_string())
            .col("attempts_per_op", |(_, w)| {
                format!("{:.2}", w.attempts_per_op())
            })
            .col("p99_us", |(_, w)| w.p99_us.to_string())
            .table();
        vec![
            Part::Text(summary.render() + "\n"),
            Part::csv("fig5_availability.csv", &csv),
        ]
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn no_cell_leaks_and_policies_stay_in_their_lane() {
        let res = AvailabilityConfig::quick().run();
        for (spec, c) in res.rows() {
            assert!(!c.windows.is_empty());
            assert!(c.pre_tput > 0.0, "{spec:?}");
            assert_eq!(c.unsettled_ops, 0, "token leak: {spec:?}");
            match spec.2 {
                "none" => {
                    assert_eq!(c.resilience.retries, 0);
                    assert_eq!(c.resilience.hedges, 0);
                    assert_eq!(c.resilience.retried_ok, 0);
                }
                "retry" => assert_eq!(c.resilience.hedges, 0),
                _ => {}
            }
        }
    }

    #[test]
    fn retries_mask_the_outage_at_cl_one() {
        let res = AvailabilityConfig::quick().run();
        // The headline claim: a CL=ONE client that retries sees no outage
        // — the coordinator skips the dead replica and stragglers land on
        // live nodes — while the fair-weather client eats an error spike.
        let cell = |policy| {
            res.cell(&(StoreKind::CStore, Level::ONE, policy))
                .expect("cell")
        };
        let (naive, patient) = (cell("none"), cell("retry"));
        assert!(
            naive.fault_errors > 0,
            "the no-retry client should see the crash: {naive:?}"
        );
        assert_eq!(
            patient.fault_errors, 0,
            "retries should absorb every transient error at CL=ONE"
        );
        assert!(
            patient.resilience.retries > 0,
            "the crash must actually exercise the retry path"
        );
        // The retry cells pay for availability with extra attempts.
        assert!(patient.fault_attempts_per_op >= 1.0);
    }

    #[test]
    fn hedging_adds_speculative_attempts_without_losing_ops() {
        let res = AvailabilityConfig::quick().run();
        let hedged = res
            .cell(&(StoreKind::CStore, Level::QUORUM, "retry+hedge"))
            .expect("cell");
        assert!(
            hedged.resilience.hedges > 0,
            "a crash window plus a p99-ish hedge delay must trigger hedges"
        );
        // A hedged op settles off one attempt and drains the other as a
        // cancellation — a *winning* hedge therefore produces both a win
        // and a cancelled primary. Each count is bounded by hedges issued.
        assert!(hedged.resilience.hedge_wins <= hedged.resilience.hedges);
        assert!(hedged.resilience.hedge_cancelled <= hedged.resilience.hedges);
        assert_eq!(hedged.unsettled_ops, 0);
    }
}
