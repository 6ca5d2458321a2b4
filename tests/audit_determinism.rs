//! Integration tests for the audit subsystem's two contracts:
//!
//! 1. **Zero perturbation** — with auditing disabled (the default) a run is
//!    bit-identical to one that never touched the recorder; enabling it
//!    changes *nothing* about the simulation itself (no events, no RNG
//!    draws), only what is observed.
//! 2. **Determinism** — the same seed and sampling config always produce
//!    the same recorded history, and the checkers are pure functions of
//!    the history. (`tests/figures_golden.rs` pins the Fig. 8 CSV bytes
//!    across sweep thread counts.)

use cloudserve::audit::{self, AuditConfig, PhaseWindow};
use cloudserve::bench_core::driver::{self, DriverConfig, RunOutcome};
use cloudserve::bench_core::setup::{build_cstore, build_hstore, Scale};
use cloudserve::cstore::Consistency;
use cloudserve::faults::FaultPlan;
use cloudserve::simkit::NodeId;
use cloudserve::ycsb::WorkloadSpec;

fn cfg(scale: &Scale, audit: AuditConfig) -> DriverConfig {
    DriverConfig {
        threads: 8,
        warmup_ops: 200,
        measure_ops: 2_000,
        value_len: scale.value_len,
        audit,
        faults: FaultPlan::new().crash_window(NodeId(0), 400_000, 900_000),
        target_ops_per_sec: 1_500.0,
        ..DriverConfig::new(WorkloadSpec::read_update(), scale.records)
    }
}

fn run_hstore(audit: AuditConfig) -> RunOutcome {
    let scale = Scale::tiny();
    let mut s = build_hstore(&scale, 3);
    driver::load(&mut s, scale.records, scale.value_len, 7);
    driver::run(&mut s, &cfg(&scale, audit))
}

fn run_cstore(audit: AuditConfig) -> RunOutcome {
    let scale = Scale::tiny();
    let mut s = build_cstore(&scale, 3, Consistency::One, Consistency::One);
    driver::load(&mut s, scale.records, scale.value_len, 7);
    driver::run(&mut s, &cfg(&scale, audit))
}

/// Everything the simulation itself decides, independent of observation.
fn fingerprint(out: &RunOutcome) -> (u64, u64, u64, u64, u64, Vec<(&'static str, u64)>) {
    (
        out.metrics.ops(),
        out.metrics.overall().max(),
        out.sim_duration_us,
        out.errors,
        out.unsettled_ops,
        out.counters.clone(),
    )
}

#[test]
fn auditing_enabled_perturbs_nothing() {
    for runner in [run_hstore, run_cstore] {
        let off = runner(AuditConfig::off());
        let on = runner(AuditConfig::all());
        assert!(off.audit.is_none(), "disabled run must carry no history");
        let history = on.audit.as_ref().expect("enabled run carries a history");
        assert!(!history.is_empty());
        // The observed run is bit-identical to the unobserved one: same
        // virtual timings, same histogram contents, same store counters.
        assert_eq!(fingerprint(&off), fingerprint(&on));
        assert_eq!(off.throughput, on.throughput);
        assert_eq!(off.mean_latency_us, on.mean_latency_us);
        assert_eq!(off.faults_injected, on.faults_injected);
    }
}

#[test]
fn same_seed_and_sampling_record_identical_histories() {
    for runner in [run_hstore, run_cstore] {
        for config in [AuditConfig::all(), AuditConfig::every(3)] {
            let a = runner(config).audit.expect("history");
            let b = runner(config).audit.expect("history");
            assert!(!a.is_empty());
            assert_eq!(a.records(), b.records());
        }
    }
}

#[test]
fn checkers_are_pure_functions_of_the_history() {
    let history = run_cstore(AuditConfig::all()).audit.expect("history");
    let windows = [
        PhaseWindow {
            label: "healthy",
            start_us: 0,
            end_us: 400_000,
        },
        PhaseWindow {
            label: "faulted",
            start_us: 400_000,
            end_us: u64::MAX,
        },
    ];
    assert_eq!(
        audit::check_sessions(&history, &windows),
        audit::check_sessions(&history, &windows)
    );
    let m1 = audit::staleness::margins(&history, &windows);
    let m2 = audit::staleness::margins(&history, &windows);
    assert_eq!(m1, m2);
    let deltas = [0, 1_000, 100_000];
    for (a, b) in m1.iter().zip(&m2) {
        assert_eq!(
            audit::staleness::curve(a, &deltas),
            audit::staleness::curve(b, &deltas)
        );
    }
    for key in history.keys_by_activity().into_iter().take(3) {
        let ops = audit::key_ops(&history, &key).expect("no deletes in read_update");
        assert_eq!(
            audit::check_key(&ops, Some(1), 100_000),
            audit::check_key(&ops, Some(1), 100_000)
        );
    }
}
