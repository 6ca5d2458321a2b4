//! Figure 10: graceful degradation under overload.
//!
//! The paper's stress experiments (§4.2) drive the stores with a *closed*
//! loop: clients wait for completions before reissuing, so offered load can
//! never exceed capacity and saturation shows up only as flattening
//! throughput. Production overload looks different — traffic is open-loop,
//! arrivals keep coming when the store slows down, queues grow without
//! bound, and tail latency diverges. This experiment sweeps an open-loop
//! offered load across the capacity knee, with and without server-side
//! admission control, and traces what each strategy gives up:
//!
//! * **No control** — every arrival is accepted. Below the knee this is
//!   free; past it, queueing delay grows with the length of the run and
//!   p99 diverges (the classic congestion-collapse signature).
//! * **Admission + shed** — a bounded entry queue fast-fails the excess
//!   ([`storage::OpError::Overloaded`]), tenant by tenant in strict
//!   priority order, so admitted operations see bounded queueing and the
//!   high-priority tenant keeps its latency SLA while the batch tenant is
//!   shed first.
//!
//! Per load step the output reports goodput, shed rate, overall and
//! per-tenant p99, and whether the run met its [`Sla`] (shed operations
//! consume the error budget but are not latency samples).
//!
//! This is the control plane's showcase artifact, so unwraps are banned in
//! the non-test code (crate-wide).

use cstore::Consistency;
use simkit::AdmissionConfig;
use ycsb::{OpenLoop, Tenant, WorkloadSpec};

use crate::driver::{ArrivalMode, DriverConfig, RunOutcome};
use crate::experiment::{Experiment, Grid, Part, RunShape, Store};
use crate::report::{fmt_ops, Table};
use crate::setup::{build_cstore_with, build_hstore_with, Scale, StoreKind};

/// Row label for the uncontrolled arm.
pub(crate) const CONTROL_OFF: &str = "none";
/// Row label for the admission-control arm.
pub(crate) const CONTROL_ON: &str = "shed";

/// A service-level agreement — the paper's §6 "SLA-based stress
/// specification", judged per offered-load step: quantile `percentile` of
/// request latencies must be at or below `latency_us`, with at most
/// `error_budget` of requests failing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Sla {
    /// The guaranteed quantile, e.g. `0.95`.
    pub percentile: f64,
    /// The latency bound at that quantile, microseconds.
    pub latency_us: u64,
    /// Tolerated fraction of failed requests in `[0, 1]`. `0` fails the SLA
    /// on any error; a budget lets a deliberately shed request, or a single
    /// fault-window error, through. Shed/errored ops consume budget but
    /// contribute no latency samples.
    pub error_budget: f64,
}

impl Sla {
    /// Does a run outcome satisfy the agreement? Errors (including shed
    /// ops) are compared against the budget as a fraction of all settled
    /// requests; the latency quantile is taken over successes only.
    pub(crate) fn met_by(&self, outcome: &RunOutcome) -> bool {
        let total = outcome.metrics.ops() + outcome.errors;
        let within_budget = if outcome.errors == 0 {
            true
        } else {
            total > 0 && outcome.errors as f64 <= self.error_budget * total as f64
        };
        within_budget && outcome.metrics.overall().quantile(self.percentile) <= self.latency_us
    }
}

/// Configuration of the Fig. 10 experiment.
#[derive(Debug, Clone)]
pub(crate) struct OverloadConfig {
    /// Scale, run length and seed. Cells at the same offered load share
    /// their driver seed across the control arms, so both arms face the
    /// identical arrival sequence.
    pub run: RunShape,
    /// Replication factor.
    pub rf: u32,
    /// Read consistency (Cassandra analog).
    pub read_cl: Consistency,
    /// Write consistency (Cassandra analog).
    pub write_cl: Consistency,
    /// Offered loads swept (the x-axis), arrivals/sec of virtual time.
    /// Should straddle the cluster's closed-loop capacity.
    pub offered_loads: Vec<f64>,
    /// Tenant mix: weights split the arrival stream, priorities feed the
    /// strict-priority shedder (0 = shed last).
    pub tenants: Vec<Tenant>,
    /// The admission controller used by the [`CONTROL_ON`] arm (the
    /// [`CONTROL_OFF`] arm always runs [`AdmissionConfig::off`]).
    pub admission: AdmissionConfig,
    /// The SLA each cell is judged against (shed ops consume the error
    /// budget; latency is judged over admitted successes only).
    pub sla: Sla,
    /// The workload: its op mix and request distribution for every tenant.
    pub workload: WorkloadSpec,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            run: RunShape {
                scale: Scale::stress(),
                warmup_ops: 1_000,
                measure_ops: 12_000,
                seed: 42,
            },
            rf: 3,
            read_cl: Consistency::One,
            write_cl: Consistency::One,
            // Straddles both stores' open-loop capacity knees at the
            // stress scale (hstore ≈ 50 kops/s; cstore, which batches
            // better under deep concurrency, ≈ 200 kops/s).
            offered_loads: vec![
                32_000.0,
                64_000.0,
                128_000.0,
                256_000.0,
                512_000.0,
                1_024_000.0,
            ],
            tenants: default_tenants(),
            admission: AdmissionConfig { max_in_flight: 384 },
            sla: Sla {
                percentile: 0.99,
                latency_us: 50_000,
                error_budget: 0.5,
            },
            workload: WorkloadSpec::read_mostly(),
        }
    }
}

/// The default two-tenant mix: an interactive tenant that must keep its
/// SLA and a batch tenant that is shed first under strict priority.
pub(crate) fn default_tenants() -> Vec<Tenant> {
    vec![
        Tenant {
            name: "interactive",
            weight: 0.7,
            priority: 0,
        },
        Tenant {
            name: "batch",
            weight: 0.3,
            priority: 2,
        },
    ]
}

/// One Fig. 10 cell: one (store, control arm, offered load) run.
#[derive(Debug, Clone)]
pub(crate) struct OverloadCell {
    /// Offered load, arrivals/sec.
    pub offered: f64,
    /// Settled throughput (successes plus errors) over the measured
    /// window, ops/s.
    pub runtime: f64,
    /// Successful (admitted, error-free) throughput, ops/s.
    pub goodput: f64,
    /// Operations the admission controller shed in the window.
    pub shed: u64,
    /// Shed fraction of the measured window.
    pub shed_rate: f64,
    /// All failed operations in the window (shed included).
    pub errors: u64,
    /// Mean latency of admitted successes, µs.
    pub mean_us: f64,
    /// 99th-percentile latency of admitted successes, µs.
    pub p99_us: u64,
    /// Per-tenant p99, µs, in [`OverloadConfig::tenants`] order.
    pub tenant_p99_us: Vec<u64>,
    /// Per-tenant shed fraction, same order.
    pub tenant_shed_rate: Vec<f64>,
    /// Whether the run met the configured SLA.
    pub sla_met: bool,
}

fn control_label(control: bool) -> &'static str {
    if control {
        CONTROL_ON
    } else {
        CONTROL_OFF
    }
}

impl Experiment for OverloadConfig {
    /// `(store, admission control on, index into offered_loads)`.
    type Spec = (StoreKind, bool, usize);
    type Cell = OverloadCell;

    /// Same grid shape at tiny scale, with a geometric load ladder wide
    /// enough to straddle the tiny cluster's knee.
    fn quick() -> Self {
        let mut cfg = Self {
            run: RunShape {
                scale: Scale::tiny(),
                warmup_ops: 100,
                measure_ops: 5_000,
                ..Self::default().run
            },
            offered_loads: vec![2_000.0, 8_000.0, 32_000.0, 128_000.0],
            ..Self::default()
        };
        // The tiny cluster drains far slower than the stress testbed, so
        // the bounded queue must be shallower for admitted ops to keep a
        // low tail. The run stays long enough (5 000 measured completions)
        // for the uncontrolled arm's backlog to visibly diverge.
        cfg.admission.max_in_flight = 32;
        cfg
    }

    fn shape(&self) -> &RunShape {
        &self.run
    }

    /// Store-major then control-major, so the rendered panels read as
    /// uncontrolled ladder then controlled ladder.
    fn specs(&self) -> Vec<Self::Spec> {
        let mut specs = Vec::new();
        for store in [StoreKind::CStore, StoreKind::HStore] {
            for control in [false, true] {
                specs.extend((0..self.offered_loads.len()).map(|li| (store, control, li)));
            }
        }
        specs
    }

    fn build(&self, &(store, control, _): &Self::Spec) -> Store {
        let admission = if control {
            self.admission
        } else {
            AdmissionConfig::off()
        };
        let scale = &self.run.scale;
        match store {
            StoreKind::CStore => Store::C(build_cstore_with(
                scale,
                self.rf,
                self.read_cl,
                self.write_cl,
                |c| c.node.admission = admission,
            )),
            StoreKind::HStore => Store::H(build_hstore_with(scale, self.rf, |h| {
                h.node.admission = admission
            })),
        }
    }

    /// Control arms at the same (store, load) share a seed: identical
    /// arrival sequence, so the shed/no-shed comparison is paired.
    fn driver(&self, &(store, _, li): &Self::Spec) -> DriverConfig {
        DriverConfig {
            seed: self.run.seed
                ^ ((li as u64 + 1) << 17)
                ^ (u64::from(store == StoreKind::HStore) << 33),
            arrival: ArrivalMode::OpenLoop(OpenLoop {
                ops_per_sec: self.offered_loads[li],
                tenants: self.tenants.clone(),
            }),
            // Arrivals are open-loop: the closed-loop client count and
            // pacing are not consulted.
            ..self.run.driver(self.workload.clone(), 1, 0.0)
        }
    }

    fn cell(&self, &(_, _, li): &Self::Spec, run: RunOutcome, _: &Store) -> OverloadCell {
        let settled = (run.metrics.ops() + run.errors).max(1);
        let shed: u64 = run.metrics.tenants().iter().map(|t| t.shed).sum();
        let tenant = |i: usize| run.metrics.tenants().get(i);
        let tenant_p99_us = (0..self.tenants.len())
            .map(|i| tenant(i).map_or(0, |t| t.hist.quantile(0.99)))
            .collect();
        let tenant_shed_rate = (0..self.tenants.len())
            .map(|i| {
                tenant(i).map_or(0.0, |t| {
                    let total = t.hist.count() + t.errors;
                    if total == 0 {
                        0.0
                    } else {
                        t.shed as f64 / total as f64
                    }
                })
            })
            .collect();
        OverloadCell {
            offered: self.offered_loads[li],
            runtime: run.metrics.rate(run.metrics.ops() + run.errors),
            goodput: run.throughput,
            shed,
            shed_rate: shed as f64 / settled as f64,
            errors: run.errors,
            mean_us: run.mean_latency_us,
            p99_us: run.metrics.overall().quantile(0.99),
            tenant_p99_us,
            tenant_shed_rate,
            sla_met: self.sla.met_by(&run),
        }
    }

    /// One table per store — the Fig. 10 panels — then the CSV.
    fn report(grid: &Grid<Self>) -> Vec<Part> {
        let tenants = &grid.exp.tenants;
        let mut out = String::new();
        for store in [StoreKind::CStore, StoreKind::HStore] {
            let mut t = Table::of(
                format!(
                    "Fig. 10 — graceful degradation under overload: {}",
                    store.short()
                ),
                grid.rows().filter(|(s, _)| s.0 == store),
            )
            .col("control", |(s, _)| control_label(s.1).into())
            .col("offered", |(_, c)| fmt_ops(c.offered))
            .col("goodput", |(_, c)| fmt_ops(c.goodput))
            .col("shed_rate", |(_, c)| format!("{:.3}", c.shed_rate))
            .col("p99_us", |(_, c)| c.p99_us.to_string());
            for (i, tenant) in tenants.iter().enumerate() {
                t = t.col(format!("{}_p99_us", tenant.name), move |(_, c)| {
                    c.tenant_p99_us[i].to_string()
                });
            }
            let t = t
                .col("sla_met", |(_, c)| {
                    if c.sla_met { "yes" } else { "NO" }.into()
                })
                .table();
            out.push_str(&t.render());
            out.push('\n');
        }
        let mut csv = Table::of("fig10_overload", grid.rows())
            .col("store", |(s, _)| s.0.short().into())
            .col("control", |(s, _)| control_label(s.1).into())
            .col("offered", |(_, c)| format!("{:.0}", c.offered))
            .col("runtime", |(_, c)| format!("{:.1}", c.runtime))
            .col("goodput", |(_, c)| format!("{:.1}", c.goodput))
            .col("shed", |(_, c)| c.shed.to_string())
            .col("shed_rate", |(_, c)| format!("{:.5}", c.shed_rate))
            .col("errors", |(_, c)| c.errors.to_string())
            .col("mean_us", |(_, c)| format!("{:.1}", c.mean_us))
            .col("p99_us", |(_, c)| c.p99_us.to_string());
        for (i, tenant) in tenants.iter().enumerate() {
            csv = csv.col(format!("{}_p99_us", tenant.name), move |(_, c)| {
                c.tenant_p99_us[i].to_string()
            });
        }
        for (i, tenant) in tenants.iter().enumerate() {
            csv = csv.col(format!("{}_shed_rate", tenant.name), move |(_, c)| {
                format!("{:.5}", c.tenant_shed_rate[i])
            });
        }
        let csv = csv
            .col("sla_met", |(_, c)| u8::from(c.sla_met).to_string())
            .table();
        vec![
            Part::Text(out + "\n"),
            Part::csv("fig10_overload.csv", &csv),
        ]
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use crate::driver;
    use crate::setup::build_cstore;

    #[test]
    fn error_budget_tolerates_bounded_failures() {
        // Synthesize outcomes via a real quick run, then perturb the error
        // count: the budget, not a hard zero, decides.
        let scale = Scale::tiny();
        let mut base = build_cstore(&scale, 2, Consistency::One, Consistency::One);
        driver::load(&mut base, scale.records, scale.value_len, 1);
        let cfg = DriverConfig {
            threads: 8,
            warmup_ops: 100,
            measure_ops: 500,
            value_len: scale.value_len,
            ..DriverConfig::new(WorkloadSpec::read_mostly(), scale.records)
        };
        let mut out = driver::run(&mut base, &cfg);
        let loose = Sla {
            percentile: 0.95,
            latency_us: u64::MAX,
            error_budget: 0.0,
        };
        assert!(loose.met_by(&out), "clean run meets a zero-budget SLA");
        out.errors = 3; // a fault window's worth of failures
        assert!(!loose.met_by(&out), "zero budget still fails on any error");
        assert!(
            Sla {
                error_budget: 0.01,
                ..loose
            }
            .met_by(&out),
            "3 errors in ~500 ops fit a 1% budget"
        );
        assert!(
            !Sla {
                error_budget: 0.001,
                ..loose
            }
            .met_by(&out),
            "3 errors in ~500 ops exceed a 0.1% budget"
        );
    }

    /// Both control arms of both stores at one load past the tiny knee.
    fn past_the_knee() -> Grid<OverloadConfig> {
        let mut cfg = OverloadConfig::quick();
        cfg.offered_loads = vec![32_000.0];
        cfg.run()
    }

    #[test]
    fn every_cell_runs_and_arms_share_bases() {
        let res = OverloadConfig::quick().run();
        for c in &res.cells {
            assert!(c.runtime > 0.0, "{c:?}");
            assert_eq!(c.tenant_p99_us.len(), 2);
        }
        // Admission is read only by ops on cstore, so its two arms share
        // one load; hstore's arms differ in config and load apart.
        assert_eq!(res.telemetry.base_loads, 3);
    }

    #[test]
    fn uncontrolled_arm_never_sheds() {
        let res = past_the_knee();
        for store in [StoreKind::CStore, StoreKind::HStore] {
            let c = res.cell(&(store, false, 0)).expect("cell");
            assert_eq!(c.shed, 0, "{store:?} shed without admission control");
            assert_eq!(c.errors, 0, "{store:?} errored without faults");
        }
    }

    #[test]
    fn shedding_bounds_the_tail_past_the_knee() {
        // Far past the tiny cluster's capacity the uncontrolled arm's p99
        // is dominated by unbounded queueing; the admission arm sheds
        // instead and keeps the admitted tail orders of magnitude lower.
        let res = past_the_knee();
        for store in [StoreKind::CStore, StoreKind::HStore] {
            let off = res.cell(&(store, false, 0)).expect("cell");
            let on = res.cell(&(store, true, 0)).expect("cell");
            assert!(on.shed > 0, "{store:?} must shed past the knee");
            assert!(
                on.p99_us * 4 < off.p99_us,
                "{store:?}: admitted p99 {} should be far below uncontrolled {}",
                on.p99_us,
                off.p99_us
            );
            // Graceful degradation in SLA terms: shedding keeps the
            // latency bound and stays inside the 50% error budget, the
            // uncontrolled arm blows the latency bound.
            assert!(on.sla_met, "{store:?}: admission arm should meet SLA");
            assert!(!off.sla_met, "{store:?}: uncontrolled arm should not");
        }
    }

    #[test]
    fn goodput_is_the_success_rate_and_runtime_adds_the_error_rate() {
        // The shed arm of the quick grid, run directly so the test sees the
        // `RunOutcome` beside its cell. `RunOutcome::throughput` counts
        // successes only, so it is the goodput; the errors settle over the
        // same window at `errors / window`.
        let cfg = OverloadConfig::quick();
        let scale = &cfg.run.scale;
        for store in [StoreKind::CStore, StoreKind::HStore] {
            let mut errors_seen = 0;
            for li in 0..cfg.offered_loads.len() {
                let spec = (store, true, li);
                let mut built = cfg.build(&spec);
                let run = match &mut built {
                    Store::C(c) => {
                        driver::load(c, scale.records, scale.value_len, cfg.run.seed);
                        driver::run(c, &cfg.driver(&spec))
                    }
                    Store::H(h) => {
                        driver::load(h, scale.records, scale.value_len, cfg.run.seed);
                        driver::run(h, &cfg.driver(&spec))
                    }
                };
                let window_s = run.metrics.ops() as f64 / run.throughput;
                let error_rate = run.errors as f64 / window_s;
                errors_seen += run.errors;
                let c = cfg.cell(&spec, run.clone(), &built);
                assert_eq!(c.goodput, run.throughput, "{store:?} load {li}");
                assert!(
                    (c.runtime - c.goodput - error_rate).abs() <= 1e-9 * c.runtime,
                    "{store:?} load {li}: runtime {} - goodput {} != error rate {error_rate}",
                    c.runtime,
                    c.goodput
                );
            }
            assert!(errors_seen > 0, "{store:?}: the shed arm must shed");
        }
    }

    #[test]
    fn strict_priority_sheds_the_batch_tenant_first() {
        let res = past_the_knee();
        for store in [StoreKind::CStore, StoreKind::HStore] {
            let on = res.cell(&(store, true, 0)).expect("cell");
            // tenants[0] = interactive (priority 0), tenants[1] = batch
            // (priority 2, bound max_in_flight >> 2).
            assert!(
                on.tenant_shed_rate[1] > on.tenant_shed_rate[0],
                "{store:?}: batch shed {} should exceed interactive shed {}",
                on.tenant_shed_rate[1],
                on.tenant_shed_rate[0]
            );
        }
    }
}
