//! Overload-robustness integration: open-loop arrivals, admission control,
//! and load shedding driven across the full stack (driver → stores).

use cloudserve::bench_core::driver::{self, ArrivalMode, DriverConfig};
use cloudserve::bench_core::resilience::RetryPolicy;
use cloudserve::bench_core::setup::{
    build_cstore, build_cstore_with, build_hstore, build_hstore_with, Scale,
};
use cloudserve::cstore::Consistency;
use cloudserve::simkit::{AdmissionConfig, AdmissionPolicy};
use cloudserve::ycsb::{OpenLoop, Tenant, WorkloadSpec};

fn two_tenants() -> Vec<Tenant> {
    vec![
        Tenant {
            name: "interactive",
            weight: 0.7,
            priority: 0,
            mix: None,
        },
        Tenant {
            name: "batch",
            weight: 0.3,
            priority: 2,
            mix: None,
        },
    ]
}

fn open_cfg(scale: &Scale, rate: f64, threads: usize) -> DriverConfig {
    DriverConfig {
        threads,
        warmup_ops: 100,
        measure_ops: 1_200,
        value_len: scale.value_len,
        retry: RetryPolicy {
            deadline_us: 100_000,
            ..RetryPolicy::none()
        },
        arrival: ArrivalMode::OpenLoop(OpenLoop {
            ops_per_sec: rate,
            diurnal_amplitude: 0.0,
            diurnal_period_us: 0,
            flash: None,
            tenants: two_tenants(),
        }),
        ..DriverConfig::new(WorkloadSpec::read_mostly(), scale.records)
    }
}

/// Open-loop arrivals chain from a single simulated event stream, so the
/// `threads` knob (a closed-loop concept) must not affect results at all.
#[test]
fn open_loop_results_are_thread_count_invariant() {
    let scale = Scale::tiny();
    let run_with_threads = |threads: usize| {
        let mut c = build_cstore(&scale, 3, Consistency::Quorum, Consistency::Quorum);
        driver::load(&mut c, scale.records, scale.value_len, 7);
        let out = driver::run(&mut c, &open_cfg(&scale, 4_000.0, threads));
        (
            out.throughput,
            out.mean_latency_us,
            out.errors,
            out.events_dispatched,
            out.sim_duration_us,
            out.metrics.overall().quantile(0.99),
        )
    };
    let one = run_with_threads(1);
    assert_eq!(one, run_with_threads(16));
    assert_eq!(one, run_with_threads(64));
}

/// An enabled admission controller whose bound never binds must be
/// byte-identical to admission-off: the admit decision is a pure function,
/// so no RNG draws and no events may differ.
#[test]
fn unreachable_admission_bound_is_byte_identical_to_off() {
    let scale = Scale::tiny();
    let wide_open = AdmissionConfig {
        max_in_flight: 1_000_000,
        policy: AdmissionPolicy::RejectNewest,
        est_service_us: 0,
    };
    let fingerprint = |out: driver::RunOutcome| {
        (
            out.throughput,
            out.mean_latency_us,
            out.errors,
            out.events_dispatched,
            out.sim_duration_us,
        )
    };
    let cfg = DriverConfig {
        threads: 8,
        warmup_ops: 200,
        measure_ops: 1_500,
        value_len: scale.value_len,
        ..DriverConfig::new(WorkloadSpec::read_update(), scale.records)
    };

    let mut c_off = build_cstore(&scale, 3, Consistency::Quorum, Consistency::Quorum);
    driver::load(&mut c_off, scale.records, scale.value_len, 3);
    let mut c_on = build_cstore_with(&scale, 3, Consistency::Quorum, Consistency::Quorum, |c| {
        c.node.admission = wide_open;
    });
    driver::load(&mut c_on, scale.records, scale.value_len, 3);
    assert_eq!(
        fingerprint(driver::run(&mut c_off, &cfg)),
        fingerprint(driver::run(&mut c_on, &cfg)),
        "cstore: unbindable admission bound changed the run"
    );

    let mut h_off = build_hstore(&scale, 3);
    driver::load(&mut h_off, scale.records, scale.value_len, 3);
    let mut h_on = build_hstore_with(&scale, 3, |h| {
        h.node.admission = wide_open;
    });
    driver::load(&mut h_on, scale.records, scale.value_len, 3);
    assert_eq!(
        fingerprint(driver::run(&mut h_off, &cfg)),
        fingerprint(driver::run(&mut h_on, &cfg)),
        "hstore: unbindable admission bound changed the run"
    );
}

/// Past the knee with a tight bound, every client-visible error is a shed
/// (`OpError::Overloaded`), the store's `shed` counter agrees with the
/// driver's per-tenant accounting, and successes still flow.
#[test]
fn shed_accounting_is_consistent_across_layers() {
    let scale = Scale::tiny();
    let mut c = build_cstore_with(&scale, 3, Consistency::One, Consistency::One, |c| {
        c.node.admission = AdmissionConfig {
            max_in_flight: 16,
            policy: AdmissionPolicy::StrictPriority,
            est_service_us: 1_000,
        };
    });
    driver::load(&mut c, scale.records, scale.value_len, 11);
    let out = driver::run(&mut c, &open_cfg(&scale, 32_000.0, 1));
    assert!(out.errors > 0, "overload with a 16-deep bound must shed");
    assert!(out.metrics.ops() > 0, "admitted traffic must still succeed");
    let tenant_shed: u64 = out.metrics.tenants().iter().map(|t| t.shed).sum();
    let tenant_errors: u64 = out.metrics.tenants().iter().map(|t| t.errors).sum();
    assert_eq!(tenant_errors, out.errors, "tenant errors must sum to total");
    assert_eq!(
        tenant_shed, out.errors,
        "with no faults, every error is an admission shed"
    );
    let store_shed = out
        .counters
        .iter()
        .find(|(name, _)| *name == "shed")
        .map(|(_, v)| *v)
        .expect("stores export a shed counter");
    // The store counter is cumulative (warm-up included), the driver's is
    // window-only.
    assert!(
        store_shed >= tenant_shed,
        "store shed {store_shed} < window shed {tenant_shed}"
    );
}

/// Deadline-aware admission drops ops whose remaining budget cannot cover
/// the estimated service time — with an impossible estimate every op is
/// shed at the door, instantly.
#[test]
fn deadline_aware_early_drop_sheds_doomed_ops() {
    let scale = Scale::tiny();
    let mut h = build_hstore_with(&scale, 3, |h| {
        h.node.admission = AdmissionConfig {
            max_in_flight: 1_000_000,
            policy: AdmissionPolicy::DeadlineAware,
            est_service_us: 10_000_000,
        };
    });
    driver::load(&mut h, scale.records, scale.value_len, 5);
    let mut cfg = open_cfg(&scale, 2_000.0, 1);
    cfg.retry = RetryPolicy {
        deadline_us: 1_000, // 1 ms budget << 10 s estimated service
        ..RetryPolicy::none()
    };
    cfg.warmup_ops = 0;
    cfg.measure_ops = 500;
    let out = driver::run(&mut h, &cfg);
    assert_eq!(out.metrics.ops(), 0, "no op can cover the service estimate");
    assert_eq!(out.errors, 500, "every op is shed at the door");
    let shed: u64 = out.metrics.tenants().iter().map(|t| t.shed).sum();
    assert_eq!(shed, 500);
}
