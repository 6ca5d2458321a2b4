//! Figure 8: client-centric consistency auditing under the crash plan.
//!
//! The paper measures consistency server-side (stale fractions against
//! acked-write watermarks); this experiment asks the client's version of
//! the question. Every operation of every client is recorded as an
//! invocation/response interval ([`audit::History`]), the Fig. 4
//! crash/recover plan runs underneath, and the recorded histories are
//! replayed through the pure checkers in `crates/audit`:
//!
//! * session guarantees (read-your-writes, monotonic reads, monotonic
//!   writes, writes-follow-reads) per fault phase — healthy before the
//!   crash, crash while the victim is down, recovery after it returns
//!   (hinted handoff replays while CL=ONE reads already hit the stale
//!   returnee, which is where the violations concentrate);
//! * PBS-style (Δ,p)-staleness — the empirical probability that a read
//!   issued Δ after a write's ack returns it, with margin quantiles;
//! * a budget-capped Wing&Gong linearizability check on the hottest keys.
//!
//! The driver's own staleness tracker runs concurrently over the same
//! ops, and every cell cross-checks the two views: replaying the history
//! must reproduce `RunMetrics::staleness()` exactly — the recorded
//! history provably carries the information the live tracker saw.

use audit::{check_key, check_sessions, key_ops, staleness, PhaseWindow, SessionCounts, Verdict};

use crate::driver::{DriverConfig, RunOutcome};
use crate::experiment::{
    point_cols, rf_level_grid, Experiment, Grid, Part, Point, RunShape, Store, RFS,
};
use crate::failure::CrashPlan;
use crate::report::Table;

/// The version timestamp the driver's preload assigns every record —
/// the register's initial state for the linearizability checker.
const PRELOAD_TS: u64 = 1;

/// The Δ grid (µs) for the (Δ,p)-staleness columns.
const DELTAS_US: [u64; 5] = [0, 1_000, 10_000, 100_000, 1_000_000];

/// Configuration of the Fig. 8 experiment, over the [`RFS`] grid.
#[derive(Debug, Clone)]
pub(crate) struct AuditExperimentConfig {
    /// The crash scenario (the Fig. 4 plan).
    pub plan: CrashPlan,
    /// How many of the hottest keys get the linearizability check.
    pub lin_keys: usize,
    /// Search-node budget per checked key.
    pub lin_budget: u64,
}

impl Default for AuditExperimentConfig {
    fn default() -> Self {
        Self {
            plan: CrashPlan::default(),
            lin_keys: 8,
            lin_budget: 500_000,
        }
    }
}

/// One fault phase of one cell: session-guarantee counts plus the
/// (Δ,p)-staleness summary of the phase's reads.
#[derive(Debug, Clone)]
pub(crate) struct PhaseAudit {
    /// Phase label ("healthy", "crash", "recovery").
    pub phase: &'static str,
    /// Session-guarantee accounting for the phase.
    pub counts: SessionCounts,
    /// Staleness-margin quantiles (µs): p50, p95, p99, max.
    pub margin_p50_us: u64,
    /// 95th-percentile staleness margin, µs.
    pub margin_p95_us: u64,
    /// 99th-percentile staleness margin, µs.
    pub margin_p99_us: u64,
    /// Worst staleness margin, µs.
    pub margin_max_us: u64,
    /// The (Δ, p) curve on the [`DELTAS_US`] grid: fraction of the phase's
    /// reads with staleness margin ≤ Δ. Monotone non-decreasing in Δ.
    pub curve: Vec<(u64, f64)>,
}

/// One (store, RF, consistency) audit cell.
#[derive(Debug, Clone)]
pub(crate) struct AuditCell {
    /// Per-phase audits, in plan order (healthy, crash, recovery).
    pub phases: Vec<PhaseAudit>,
    /// Linearizability verdict over the checked keys: `yes` only when
    /// every key linearizes; `violation` as soon as one key cannot.
    pub linearizable: Verdict,
    /// Hot keys the linearizability checker examined.
    #[cfg(test)]
    pub lin_keys_checked: usize,
    /// The live tracker's stale-read count over the measured window.
    #[cfg(test)]
    pub tracker_stale: u64,
    /// Fault events the injector applied (crash + recover = 2).
    #[cfg(test)]
    pub faults_injected: u64,
}

/// Audit one run's recorded history into per-phase summaries plus the
/// linearizability verdict. Pure over the history.
fn audit_history(
    history: &audit::History,
    phases: &[PhaseWindow],
    lin_keys: usize,
    lin_budget: u64,
) -> (Vec<PhaseAudit>, Verdict, usize) {
    let counts = check_sessions(history, phases);
    let margins = staleness::margins(history, phases);
    let audits: Vec<PhaseAudit> = phases
        .iter()
        .zip(counts)
        .zip(&margins)
        .map(|((w, counts), m)| PhaseAudit {
            phase: w.label,
            counts,
            margin_p50_us: staleness::quantile(m, 0.50),
            margin_p95_us: staleness::quantile(m, 0.95),
            margin_p99_us: staleness::quantile(m, 0.99),
            margin_max_us: m.iter().copied().max().unwrap_or(0),
            curve: staleness::curve(m, &DELTAS_US),
        })
        .collect();
    let keys: Vec<_> = history
        .keys_by_activity()
        .into_iter()
        .take(lin_keys)
        .collect();
    let mut verdict = Verdict::Linearizable;
    for key in &keys {
        let v = match key_ops(history, key) {
            Some(ops) => check_key(&ops, Some(PRELOAD_TS), lin_budget),
            None => Verdict::Inconclusive,
        };
        match v {
            Verdict::Violation => {
                verdict = Verdict::Violation;
                break;
            }
            Verdict::Inconclusive => verdict = Verdict::Inconclusive,
            Verdict::Linearizable => {}
        }
    }
    (audits, verdict, keys.len())
}

impl Experiment for AuditExperimentConfig {
    /// Exactly the Fig. 4 grid.
    type Spec = Point;
    type Cell = AuditCell;

    /// The Fig. 4 quick plan.
    fn quick() -> Self {
        Self {
            plan: CrashPlan::quick(),
            lin_keys: 4,
            lin_budget: 200_000,
        }
    }

    fn shape(&self) -> &RunShape {
        &self.plan.run
    }

    fn specs(&self) -> Vec<Point> {
        rf_level_grid(&RFS)
    }

    fn build(&self, spec: &Point) -> Store {
        self.plan.build(spec)
    }

    /// The paper's fair-weather client, like Fig. 4 — what the client
    /// *sees* without resilience machinery in the way — with every
    /// operation recorded.
    fn driver(&self, _: &Point) -> DriverConfig {
        DriverConfig {
            audit: audit::AuditConfig::all(),
            ..self.plan.driver()
        }
    }

    fn cell(&self, spec: &Point, out: RunOutcome, _: &Store) -> AuditCell {
        let history = out.audit.unwrap_or_default();
        // Cross-check invariant: replaying the recorded history must
        // reproduce the live tracker's accounting exactly. A mismatch
        // means the history is missing operations the tracker saw.
        let replay = history.stale_counts();
        let (tracker_stale, tracker_checked) = out.metrics.staleness();
        let tracker_missing = out.metrics.missing_reads();
        assert_eq!(
            (replay.stale, replay.checked, replay.missing),
            (tracker_stale, tracker_checked, tracker_missing),
            "audit history disagrees with the staleness tracker: {spec:?}"
        );
        let (phases, linearizable, _lin_keys_checked) = audit_history(
            &history,
            &self.plan.phases(),
            self.lin_keys,
            self.lin_budget,
        );
        AuditCell {
            phases,
            linearizable,
            #[cfg(test)]
            lin_keys_checked: _lin_keys_checked,
            #[cfg(test)]
            tracker_stale,
            #[cfg(test)]
            faults_injected: out.faults_injected,
        }
    }

    /// The summary table: one row per cell with the crash- and
    /// recovery-phase session-violation rates and the linearizability
    /// verdict — then one CSV row per (cell, phase).
    fn report(grid: &Grid<Self>) -> Vec<Part> {
        let per_phase = |c: &AuditCell, f: fn(&PhaseAudit) -> u64| {
            let counts: Vec<String> = c.phases.iter().map(|p| f(p).to_string()).collect();
            counts.join("/")
        };
        let title = grid.exp.plan.title("Fig. 8 — consistency audit");
        let summary = point_cols(Table::of(title, grid.rows()), |&(p, _)| *p)
            .col("stale%", |(_, c)| {
                let reads: u64 = c.phases.iter().map(|p| p.counts.reads).sum();
                let stale: u64 = c.phases.iter().map(|p| p.counts.stale).sum();
                if reads == 0 {
                    "-".into()
                } else {
                    format!("{:.2}%", stale as f64 / reads as f64 * 100.0)
                }
            })
            .col("ryw viol (h/c/r)", |(_, c)| {
                per_phase(c, |p| p.counts.ryw_violations)
            })
            .col("mr viol (h/c/r)", |(_, c)| {
                per_phase(c, |p| p.counts.mr_violations)
            })
            .col("margin p99 (r)", |(_, c)| {
                c.phases
                    .last()
                    .map_or("-".into(), |p| format!("{}µs", p.margin_p99_us))
            })
            .col("linearizable", |(_, c)| c.linearizable.label().into())
            .table();
        let phases = grid
            .rows()
            .flat_map(|(s, c)| c.phases.iter().map(move |p| (*s, c, p)));
        let mut csv = point_cols(Table::of("fig8_audit", phases), |r| r.0)
            .col("phase", |(.., p)| p.phase.into())
            .col("reads", |(.., p)| p.counts.reads.to_string())
            .col("writes", |(.., p)| p.counts.writes.to_string())
            .col("stale", |(.., p)| p.counts.stale.to_string())
            .col("missing", |(.., p)| p.counts.missing.to_string())
            .col("stale_rate", |(.., p)| {
                format!("{:.5}", p.counts.stale_rate())
            })
            .col("ryw_checked", |(.., p)| p.counts.ryw_checked.to_string())
            .col("ryw_violations", |(.., p)| {
                p.counts.ryw_violations.to_string()
            })
            .col("ryw_rate", |(.., p)| format!("{:.5}", p.counts.ryw_rate()))
            .col("mr_checked", |(.., p)| p.counts.mr_checked.to_string())
            .col("mr_violations", |(.., p)| {
                p.counts.mr_violations.to_string()
            })
            .col("mr_rate", |(.., p)| format!("{:.5}", p.counts.mr_rate()))
            .col("mw_violations", |(.., p)| {
                p.counts.mw_violations.to_string()
            })
            .col("wfr_violations", |(.., p)| {
                p.counts.wfr_violations.to_string()
            })
            .col("margin_p50_us", |(.., p)| p.margin_p50_us.to_string())
            .col("margin_p95_us", |(.., p)| p.margin_p95_us.to_string())
            .col("margin_p99_us", |(.., p)| p.margin_p99_us.to_string())
            .col("margin_max_us", |(.., p)| p.margin_max_us.to_string());
        for (i, d) in DELTAS_US.iter().enumerate() {
            csv = csv.col(format!("p_le_{d}us"), move |(.., p)| {
                format!("{:.5}", p.curve[i].1)
            });
        }
        let csv = csv
            .col("linearizable", |(_, c, _)| c.linearizable.label().into())
            .table();
        vec![
            Part::Text(summary.render() + "\n"),
            Part::csv("fig8_audit.csv", &csv),
        ]
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use crate::experiment::Level;
    use crate::setup::StoreKind;

    #[test]
    fn quick_audit_matches_the_acceptance_shape() {
        let res = AuditExperimentConfig::quick().run();
        for (spec, c) in res.rows() {
            assert_eq!(c.faults_injected, 2, "{spec:?}");
            assert_eq!(c.phases.len(), 3);
            // The (Δ,p) curve is monotone non-decreasing in Δ, everywhere.
            for p in &c.phases {
                for w in p.curve.windows(2) {
                    assert!(w[1].1 >= w[0].1, "curve not monotone: {spec:?} {}", p.phase);
                }
            }
            // Quorum overlap and the HBase analog's single-master reads
            // never violate a session guarantee, in any phase.
            if spec.2 == Level::QUORUM || spec.2 == Level::STRONG {
                assert_eq!(c.tracker_stale, 0, "{spec:?}");
                for p in &c.phases {
                    assert_eq!(p.counts.total_violations(), 0, "{spec:?} {}", p.phase);
                }
            }
        }
        // The client-visible cost of CL=ONE: session guarantees break
        // around the crash. RF=3 rides through the outage on live
        // replicas, then reads the stale returnee before hints replay.
        let one = res
            .cell(&(StoreKind::CStore, 3, Level::ONE))
            .expect("cell exists");
        let after_crash = |f: fn(&SessionCounts) -> u64| -> u64 {
            one.phases
                .iter()
                .filter(|p| p.phase != "healthy")
                .map(|p| f(&p.counts))
                .sum()
        };
        assert!(
            after_crash(|c| c.ryw_violations) > 0,
            "ONE must break read-your-writes: {one:?}"
        );
        assert!(
            after_crash(|c| c.mr_violations) > 0,
            "ONE must break monotonic reads: {one:?}"
        );
        // Strong (HBase analog) runs linearize; some ONE-under-crash run
        // does not.
        for rf in [1, 3, 5] {
            let h = res
                .cell(&(StoreKind::HStore, rf, Level::STRONG))
                .expect("hstore");
            assert_eq!(h.linearizable, Verdict::Linearizable, "rf={rf}");
            assert!(h.lin_keys_checked > 0);
        }
        assert!(
            res.rows()
                .any(|(spec, c)| spec.2 == Level::ONE && c.linearizable == Verdict::Violation),
            "some CL=ONE cell must catch a linearizability violation"
        );
    }
}
