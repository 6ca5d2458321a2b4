//! SLA-based stress specification — the paper's §6 future work, implemented.
//!
//! "Another way to specify the stress level is using the service level
//! agreement, SLA. An SLA is commonly specified like this: at least p
//! percentage of requests get response within l latency... Using the SLA,
//! we can keep user experiences at same level to compare throughputs of
//! different systems. However, it is hard to specify an SLA using YCSB. We
//! need to extend it." — this module is that extension: it searches for the
//! highest target throughput whose measured latency quantile still meets the
//! SLA, via bisection over throttled runs.

use ycsb::WorkloadSpec;

use faults::FaultTarget;

use crate::driver::{self, DriverConfig};
use crate::report::{fmt_ops, fmt_us, Table};
use crate::resilience::RetryPolicy;
use crate::setup::Scale;
use crate::store::SimStore;
use crate::sweep::Sweep;

/// A service-level agreement: quantile `percentile` of request latencies
/// must be at or below `latency_us`, with at most `error_budget` of
/// requests failing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sla {
    /// The guaranteed quantile, e.g. `0.95`.
    pub percentile: f64,
    /// The latency bound at that quantile, microseconds.
    pub latency_us: u64,
    /// Tolerated fraction of failed requests in `[0, 1]`. `0` (the strict
    /// default) fails the SLA on any error; production agreements budget a
    /// small fraction so a single fault-window error — or a deliberately
    /// shed request — doesn't void certification. Shed/errored ops consume
    /// budget but contribute no latency samples.
    pub error_budget: f64,
}

impl Sla {
    /// A typical interactive-service agreement: p95 ≤ 10 ms, zero errors.
    pub fn p95_10ms() -> Self {
        Self {
            percentile: 0.95,
            latency_us: 10_000,
            error_budget: 0.0,
        }
    }

    /// This agreement with an error budget: up to `budget` (a fraction of
    /// all requests) may fail without voiding it.
    pub fn with_error_budget(mut self, budget: f64) -> Self {
        self.error_budget = budget;
        self
    }

    /// Does a run outcome satisfy the agreement? Errors (including shed
    /// ops) are compared against the budget as a fraction of all settled
    /// requests; the latency quantile is taken over successes only.
    pub fn met_by(&self, outcome: &driver::RunOutcome) -> bool {
        let total = outcome.metrics.ops() + outcome.errors;
        let within_budget = if outcome.errors == 0 {
            true
        } else {
            total > 0 && outcome.errors as f64 <= self.error_budget * total as f64
        };
        within_budget && outcome.metrics.overall().quantile(self.percentile) <= self.latency_us
    }
}

impl std::fmt::Display for Sla {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{:02.0} <= {}",
            self.percentile * 100.0,
            fmt_us(self.latency_us as f64)
        )
    }
}

/// Result of an SLA capacity search.
#[derive(Debug, Clone)]
pub struct SlaCapacity {
    /// The SLA searched against.
    pub sla: Sla,
    /// Highest target throughput (ops/s) that still met the SLA; 0 when even
    /// the lowest probe violated it.
    pub capacity: f64,
    /// The measured quantile at that capacity.
    pub quantile_at_capacity: u64,
    /// Probes performed: `(target, measured quantile, met)`.
    pub probes: Vec<(f64, u64, bool)>,
}

/// Search knobs.
#[derive(Debug, Clone)]
pub struct SlaSearchConfig {
    /// Record/cache scale (the store must be loaded at this scale).
    pub scale: Scale,
    /// The workload to certify.
    pub workload: WorkloadSpec,
    /// The agreement.
    pub sla: Sla,
    /// Client threads.
    pub threads: usize,
    /// Lowest target probed.
    pub floor: f64,
    /// Highest target probed.
    pub ceiling: f64,
    /// Bisection iterations (each is one simulated run).
    pub iterations: u32,
    /// Completions per probe.
    pub measure_ops: u64,
    /// Warm-up completions per probe.
    pub warmup_ops: u64,
    /// Seed.
    pub seed: u64,
}

impl SlaSearchConfig {
    /// Defaults for a loaded store at `scale`.
    pub fn new(scale: Scale, workload: WorkloadSpec, sla: Sla) -> Self {
        Self {
            scale,
            workload,
            sla,
            threads: 64,
            floor: 500.0,
            ceiling: 120_000.0,
            iterations: 8,
            measure_ops: 10_000,
            warmup_ops: 1_000,
            seed: 42,
        }
    }
}

/// Find the highest target throughput that meets the SLA, by bisection over
/// throttled runs against snapshots of `base` (which must already be
/// loaded).
pub fn find_sla_capacity<S>(base: &S, cfg: &SlaSearchConfig) -> SlaCapacity
where
    S: SimStore + FaultTarget<Event = <S as SimStore>::Event> + Clone + Sync,
{
    find_sla_capacity_with(base, cfg, &Sweep::new())
}

/// [`find_sla_capacity`] on a caller-configured engine. The bisection is
/// inherently sequential (each midpoint depends on the previous verdict),
/// so each probe runs as a single engine cell: one snapshot clone, one
/// deterministic driver run.
pub fn find_sla_capacity_with<S>(base: &S, cfg: &SlaSearchConfig, sweep: &Sweep) -> SlaCapacity
where
    S: SimStore + FaultTarget<Event = <S as SimStore>::Event> + Clone + Sync,
{
    let mut probes = Vec::new();
    let probe = |target: f64| -> (u64, bool) {
        sweep
            .run(&[target], |&target| {
                let mut snapshot = base.snapshot();
                let dcfg = DriverConfig {
                    workload: cfg.workload.clone(),
                    threads: cfg.threads,
                    target_ops_per_sec: target,
                    records: cfg.scale.records,
                    value_len: cfg.scale.value_len,
                    warmup_ops: cfg.warmup_ops,
                    measure_ops: cfg.measure_ops,
                    seed: cfg.seed,
                    faults: Default::default(),
                    timeline_window_us: 0,
                    retry: RetryPolicy::none(),
                    trace: obs::TraceConfig::off(),
                    audit: audit::AuditConfig::off(),
                    arrival: crate::driver::ArrivalMode::ClosedLoop,
                };
                let out = driver::run(&mut snapshot, &dcfg);
                let q = out.metrics.overall().quantile(cfg.sla.percentile);
                // The probe must also have *achieved* the target (within
                // 10%): a throttled run that can't keep up fails the SLA
                // definitionally.
                let achieved = out.throughput >= target * 0.9;
                let met = cfg.sla.met_by(&out) && achieved;
                (q, met)
            })
            .results[0]
    };

    let (q_floor, floor_ok) = probe(cfg.floor);
    probes.push((cfg.floor, q_floor, floor_ok));
    if !floor_ok {
        return SlaCapacity {
            sla: cfg.sla,
            capacity: 0.0,
            quantile_at_capacity: q_floor,
            probes,
        };
    }
    let mut lo = cfg.floor;
    let mut lo_q = q_floor;
    let mut hi = cfg.ceiling;
    let (q_hi, hi_ok) = probe(hi);
    probes.push((hi, q_hi, hi_ok));
    if hi_ok {
        return SlaCapacity {
            sla: cfg.sla,
            capacity: hi,
            quantile_at_capacity: q_hi,
            probes,
        };
    }
    for _ in 0..cfg.iterations {
        let mid = (lo + hi) / 2.0;
        let (q, ok) = probe(mid);
        probes.push((mid, q, ok));
        if ok {
            lo = mid;
            lo_q = q;
        } else {
            hi = mid;
        }
    }
    SlaCapacity {
        sla: cfg.sla,
        capacity: lo,
        quantile_at_capacity: lo_q,
        probes,
    }
}

/// Render a set of named capacity results as a table.
pub fn capacity_table(title: &str, rows: &[(&str, &SlaCapacity)]) -> Table {
    Table::of(title, rows)
        .col("system", |(name, _)| (*name).to_owned())
        .col("sla", |(_, cap)| cap.sla.to_string())
        .col("certified capacity", |(_, cap)| fmt_ops(cap.capacity))
        .col("quantile at capacity", |(_, cap)| {
            fmt_us(cap.quantile_at_capacity as f64)
        })
        .table()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build_cstore, Scale};
    use cstore::Consistency;

    fn quick_search(scale: Scale, sla: Sla) -> SlaSearchConfig {
        SlaSearchConfig {
            threads: 8,
            floor: 100.0,
            ceiling: 20_000.0,
            iterations: 5,
            measure_ops: 1_200,
            warmup_ops: 150,
            ..SlaSearchConfig::new(scale, WorkloadSpec::read_mostly(), sla)
        }
    }

    #[test]
    fn sla_capacity_is_between_floor_and_ceiling() {
        let scale = Scale::tiny();
        let mut base = build_cstore(&scale, 2, Consistency::One, Consistency::One);
        driver::load(&mut base, scale.records, scale.value_len, 1);
        let cfg = quick_search(scale, Sla::p95_10ms());
        let cap = find_sla_capacity(&base, &cfg);
        assert!(cap.capacity >= cfg.floor, "capacity {}", cap.capacity);
        assert!(cap.capacity <= cfg.ceiling);
        assert!(!cap.probes.is_empty());
        // At the certified capacity the quantile respects the bound.
        assert!(cap.quantile_at_capacity <= cap.sla.latency_us);
    }

    #[test]
    fn impossible_sla_certifies_zero() {
        let scale = Scale::tiny();
        let mut base = build_cstore(&scale, 2, Consistency::One, Consistency::One);
        driver::load(&mut base, scale.records, scale.value_len, 1);
        let sla = Sla {
            percentile: 0.95,
            latency_us: 1, // nothing responds in a microsecond
            error_budget: 0.0,
        };
        let cap = find_sla_capacity(&base, &quick_search(scale, sla));
        assert_eq!(cap.capacity, 0.0);
    }

    #[test]
    fn tighter_sla_certifies_no_more_capacity() {
        let scale = Scale::tiny();
        let mut base = build_cstore(&scale, 2, Consistency::One, Consistency::One);
        driver::load(&mut base, scale.records, scale.value_len, 1);
        let loose = find_sla_capacity(
            &base,
            &quick_search(
                scale,
                Sla {
                    percentile: 0.95,
                    latency_us: 50_000,
                    error_budget: 0.0,
                },
            ),
        );
        let tight = find_sla_capacity(
            &base,
            &quick_search(
                scale,
                Sla {
                    percentile: 0.95,
                    latency_us: 3_000,
                    error_budget: 0.0,
                },
            ),
        );
        assert!(
            tight.capacity <= loose.capacity,
            "tight {} > loose {}",
            tight.capacity,
            loose.capacity
        );
    }

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
            loose.with_error_budget(0.01).met_by(&out),
            "3 errors in ~500 ops fit a 1% budget"
        );
        assert!(
            !loose.with_error_budget(0.001).met_by(&out),
            "3 errors in ~500 ops exceed a 0.1% budget"
        );
    }

    #[test]
    fn sla_display_and_table() {
        let sla = Sla::p95_10ms();
        assert_eq!(sla.to_string(), "p95 <= 10.00ms");
        let cap = SlaCapacity {
            sla,
            capacity: 12_500.0,
            quantile_at_capacity: 8_000,
            probes: vec![],
        };
        let t = capacity_table("demo", &[("cstore", &cap)]);
        assert!(t.render().contains("12.5k"));
    }
}
