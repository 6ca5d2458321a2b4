//! The five workloads: what each builds, what it runs, and what it checks.
//!
//! Every workload is the paper's closed loop with [`THREADS`] simulated
//! client threads, unthrottled, on a 15-node cluster at replication factor
//! [`RF`]. The program under test receives only the `DriverConfig` made
//! here from `--seed`. Sizes (ops per repetition, crash window) are
//! constants: they must be identical on the two commits a comparison runs.

use bench_core::driver::{DriverConfig, RunOutcome};
use bench_core::resilience::RetryPolicy;
use bench_core::setup::Scale;
use cstore::Consistency;
use faults::FaultPlan;
use simkit::NodeId;
use storage::OpKind;
use ycsb::WorkloadSpec;

/// Simulated closed-loop client threads.
pub const THREADS: usize = 32;
/// Replication factor of every workload.
pub const RF: u32 = 3;

/// Which store a workload drives, and at which consistency levels.
#[derive(Debug, Clone, Copy)]
pub enum Store {
    /// The Cassandra analog at (read, write) consistency.
    CStore(Consistency, Consistency),
    /// The HBase analog.
    HStore,
}

/// Full-size run, or the seconds-scale variant `tests/smoke.rs` drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured benchmark.
    Full,
    /// `Scale::tiny` and a few thousand ops: exercises every code path of
    /// the harness, measures nothing.
    Smoke,
}

/// A crash of node 0 between two virtual instants (µs from run start).
#[derive(Debug, Clone, Copy)]
pub struct CrashWindow {
    /// The node goes down.
    pub down_at_us: u64,
    /// The node comes back.
    pub up_at_us: u64,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The store and consistency levels.
    pub store: Store,
    scale: fn() -> Scale,
    spec: fn() -> WorkloadSpec,
    /// (warm-up, measured) simulated ops per repetition at full size.
    ops: (u64, u64),
    /// Crash node 0 mid-run with a retrying + hedging client and both
    /// recorders on: (full, smoke) windows.
    crash: Option<(CrashWindow, CrashWindow)>,
    /// W + R > N (or strong consistency): no read may be stale.
    never_stale: bool,
    /// The mix is scan-dominated: scans must run and return rows.
    scans: bool,
}

fn micro_read() -> WorkloadSpec {
    WorkloadSpec::micro(OpKind::Read)
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "cstore-quorum-a",
        store: Store::CStore(Consistency::Quorum, Consistency::Quorum),
        scale: Scale::stress,
        spec: WorkloadSpec::ycsb_a,
        ops: (4_000, 56_000),
        crash: None,
        never_stale: true,
        scans: false,
    },
    Workload {
        name: "hstore-a",
        store: Store::HStore,
        scale: Scale::stress,
        spec: WorkloadSpec::ycsb_a,
        ops: (4_000, 116_000),
        crash: None,
        never_stale: true,
        scans: false,
    },
    Workload {
        name: "cstore-scan-e",
        store: Store::CStore(Consistency::One, Consistency::One),
        scale: Scale::stress,
        spec: WorkloadSpec::ycsb_e,
        ops: (1_000, 14_000),
        crash: None,
        never_stale: false,
        scans: true,
    },
    Workload {
        name: "cstore-micro-read",
        store: Store::CStore(Consistency::One, Consistency::One),
        scale: Scale::micro,
        spec: micro_read,
        ops: (4_000, 96_000),
        crash: None,
        never_stale: false,
        scans: false,
    },
    Workload {
        name: "cstore-crash-recorded",
        store: Store::CStore(Consistency::One, Consistency::One),
        scale: Scale::stress,
        spec: WorkloadSpec::ycsb_a,
        ops: (4_000, 56_000),
        crash: Some((
            CrashWindow {
                down_at_us: 500_000,
                up_at_us: 1_000_000,
            },
            CrashWindow {
                down_at_us: 10_000,
                up_at_us: 25_000,
            },
        )),
        never_stale: false,
        scans: false,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The record/cache scale at this size.
    pub fn scale(&self, size: Size) -> Scale {
        match size {
            Size::Full => (self.scale)(),
            Size::Smoke => Scale::tiny(),
        }
    }

    /// The crash window at this size, for the workload that has one.
    pub fn crash_window(&self, size: Size) -> Option<CrashWindow> {
        self.crash.map(|(full, smoke)| match size {
            Size::Full => full,
            Size::Smoke => smoke,
        })
    }

    /// True when the workload's own configuration turns the `obs` and
    /// `audit` recorders on.
    pub fn recorded(&self) -> bool {
        self.crash.is_some()
    }

    /// The run the program under test is given.
    pub fn driver_config(&self, size: Size, seed: u64) -> DriverConfig {
        let scale = self.scale(size);
        let (warmup_ops, measure_ops) = match size {
            Size::Full => self.ops,
            Size::Smoke => (100, 1_900),
        };
        let mut cfg = DriverConfig {
            threads: THREADS,
            value_len: scale.value_len,
            warmup_ops,
            measure_ops,
            seed,
            ..DriverConfig::new((self.spec)(), scale.records)
        };
        if let Some(w) = self.crash_window(size) {
            cfg.faults = FaultPlan::new().crash_window(NodeId(0), w.down_at_us, w.up_at_us);
            cfg.retry = RetryPolicy::retrying(8, 50_000, 5_000_000).with_hedge(2_500);
            cfg.trace = obs::TraceConfig::every(16);
            cfg.audit = audit::AuditConfig::all();
        }
        cfg
    }

    /// Check one repetition's simulated results. Returns what is wrong, or
    /// nothing when the outputs are correct.
    pub fn check(&self, size: Size, cfg: &DriverConfig, out: &RunOutcome) -> Vec<String> {
        let mut wrong = Vec::new();
        let mut require = |ok: bool, what: String| {
            if !ok {
                wrong.push(what);
            }
        };
        require(
            out.unsettled_ops == 0,
            format!("{} ops never settled", out.unsettled_ops),
        );
        require(
            out.metrics.ops() + out.errors == cfg.measure_ops,
            format!(
                "ok {} + errors {} != measured {}",
                out.metrics.ops(),
                out.errors,
                cfg.measure_ops
            ),
        );
        if self.never_stale {
            require(
                out.stale_fraction == 0.0,
                format!("stale fraction {} at a strong level", out.stale_fraction),
            );
        }
        if self.scans {
            let scans = out.metrics.for_op(OpKind::Scan).map_or(0, |h| h.count());
            require(scans > 0, "no scan completed".into());
        }
        if let Some(w) = self.crash_window(size) {
            require(
                out.faults_injected == cfg.faults.len() as u64,
                format!(
                    "{} of {} faults injected",
                    out.faults_injected,
                    cfg.faults.len()
                ),
            );
            require(
                out.trace.as_ref().is_some_and(|t| !t.ops.is_empty()),
                "empty span trace".into(),
            );
            match &out.audit {
                None => require(false, "no audit history".into()),
                Some(history) => {
                    let mut phases = [0u64; 3];
                    for r in history.records() {
                        let phase = usize::from(r.settled >= w.down_at_us)
                            + usize::from(r.settled >= w.up_at_us);
                        phases[phase] += 1;
                    }
                    require(
                        phases.iter().all(|&n| n > 0),
                        format!("ops settled before/during/after the crash: {phases:?}"),
                    );
                    let replay = history.stale_counts();
                    let (stale, checked) = out.metrics.staleness();
                    require(
                        (replay.stale, replay.checked, replay.missing)
                            == (stale, checked, out.metrics.missing_reads()),
                        "audit history disagrees with the staleness tracker".into(),
                    );
                }
            }
        }
        wrong
    }
}
