//! Integration tests for the fault-injection subsystem and the client
//! resilience layer riding on it: identical (plan, seed) pairs reproduce
//! bit-identical timelines — with and without retries/hedging — inert
//! plans and no-op retry policies leave a run untouched, and deadline
//! give-ups surface exactly one client error without leaking tokens. Over
//! a grid of randomized fault plans, both stores settle every op exactly
//! once and replay bit-identically.

use cloudserve::bench_core::driver::{self, DriverConfig, RunOutcome};
use cloudserve::bench_core::resilience::RetryPolicy;
use cloudserve::bench_core::setup::{
    build_cstore, build_cstore_with, build_hstore, build_hstore_with, Scale,
};
use cloudserve::bench_core::SimStore;
use cloudserve::cstore::Consistency;
use cloudserve::faults::{FaultPlan, FaultTarget};
use cloudserve::simkit::NodeId;
use cloudserve::ycsb::WorkloadSpec;

fn faulted_cfg(scale: &Scale, plan: FaultPlan, window_us: u64) -> DriverConfig {
    DriverConfig {
        threads: 8,
        target_ops_per_sec: 1_500.0,
        warmup_ops: 200,
        measure_ops: 2_000,
        value_len: scale.value_len,
        faults: plan,
        timeline_window_us: window_us,
        ..DriverConfig::new(WorkloadSpec::read_update(), scale.records)
    }
}

fn run_hstore(plan: FaultPlan, window_us: u64) -> RunOutcome {
    let scale = Scale::tiny();
    let mut s = build_hstore(&scale, 3);
    driver::load(&mut s, scale.records, scale.value_len, 7);
    driver::run(&mut s, &faulted_cfg(&scale, plan, window_us))
}

fn run_cstore(plan: FaultPlan, window_us: u64) -> RunOutcome {
    let scale = Scale::tiny();
    let mut s = build_cstore(&scale, 3, Consistency::One, Consistency::One);
    driver::load(&mut s, scale.records, scale.value_len, 7);
    driver::run(&mut s, &faulted_cfg(&scale, plan, window_us))
}

fn run_cstore_with_policy(
    plan: FaultPlan,
    window_us: u64,
    write_cl: Consistency,
    retry: RetryPolicy,
) -> RunOutcome {
    let scale = Scale::tiny();
    let mut s = build_cstore(&scale, 3, Consistency::One, write_cl);
    driver::load(&mut s, scale.records, scale.value_len, 7);
    let cfg = DriverConfig {
        retry,
        ..faulted_cfg(&scale, plan, window_us)
    };
    driver::run(&mut s, &cfg)
}

#[test]
fn identical_plan_and_seed_give_bit_identical_timelines() {
    let plan = FaultPlan::new().crash_window(NodeId(0), 400_000, 900_000);
    for runner in [run_hstore, run_cstore] {
        let a = runner(plan.clone(), 100_000);
        let b = runner(plan.clone(), 100_000);
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.errors, b.errors);
        assert_eq!(a.faults_injected, 2);
        assert_eq!(b.faults_injected, 2);
        let wa = a.metrics.timeline().expect("timeline enabled").windows();
        let wb = b.metrics.timeline().expect("timeline enabled").windows();
        assert!(!wa.is_empty());
        assert_eq!(wa, wb);
    }
}

#[test]
fn inert_plans_leave_the_run_untouched() {
    let empty = run_cstore(FaultPlan::new(), 100_000);
    assert_eq!(empty.faults_injected, 0);
    // A crash scheduled far beyond the run's horizon never fires inside
    // the measured window; a crash aimed at a node index the cluster does
    // not have is skipped by the injector. Both must reproduce the empty
    // plan's run exactly.
    let beyond = run_cstore(
        FaultPlan::new().crash_at(NodeId(0), 60_000_000_000),
        100_000,
    );
    let out_of_range = run_cstore(
        FaultPlan::new().crash_window(NodeId(99), 100_000, 200_000),
        100_000,
    );
    assert_eq!(out_of_range.faults_injected, 0);
    for other in [&beyond, &out_of_range] {
        assert_eq!(other.throughput, empty.throughput);
        assert_eq!(other.errors, empty.errors);
        assert_eq!(other.mean_latency_us, empty.mean_latency_us);
        assert_eq!(
            other
                .metrics
                .timeline()
                .expect("timeline enabled")
                .windows(),
            empty
                .metrics
                .timeline()
                .expect("timeline enabled")
                .windows(),
        );
    }
}

#[test]
fn timeline_recording_does_not_perturb_the_run() {
    let plan = FaultPlan::new().crash_window(NodeId(0), 400_000, 900_000);
    let with_timeline = run_hstore(plan.clone(), 100_000);
    let without = run_hstore(plan, 0);
    assert!(without.metrics.timeline().is_none());
    assert_eq!(with_timeline.throughput, without.throughput);
    assert_eq!(with_timeline.errors, without.errors);
    assert_eq!(with_timeline.mean_latency_us, without.mean_latency_us);
}

#[test]
fn retrying_and_hedging_timelines_are_seed_deterministic() {
    // Write-ALL under a crash produces a steady stream of retryable
    // errors, so the retry ladder, its jitter draws, and the hedging path
    // all genuinely engage — and must still replay bit-identically.
    let plan = FaultPlan::new().crash_window(NodeId(0), 400_000, 900_000);
    let policy = RetryPolicy::retrying(6, 10_000, 0).with_hedge(3_000);
    let go = || run_cstore_with_policy(plan.clone(), 100_000, Consistency::All, policy);
    let a = go();
    let b = go();
    let ra = a.metrics.resilience();
    assert!(ra.retries > 0, "the crash must exercise the retry path");
    assert!(ra.hedges > 0, "the tail must exercise the hedge path");
    assert_eq!(ra, b.metrics.resilience());
    assert_eq!(a.throughput, b.throughput);
    assert_eq!(a.errors, b.errors);
    assert_eq!(a.mean_latency_us, b.mean_latency_us);
    assert_eq!(
        a.metrics.timeline().expect("timeline enabled").windows(),
        b.metrics.timeline().expect("timeline enabled").windows(),
    );
}

#[test]
fn untriggered_policies_leave_the_run_bit_identical() {
    // The resilience layer's no-perturbation contract: under the default
    // config (RetryPolicy::none) the driver is bit-identical to one
    // predating the layer — proven against the checked-in fig1/fig2/fig4
    // artifacts — and an armed retry policy that never fires (no faults,
    // no errors, no hedging) draws no randomness and schedules no events,
    // so it reproduces the very same run.
    let baseline = run_cstore(FaultPlan::new(), 100_000);
    let explicit_none = run_cstore_with_policy(
        FaultPlan::new(),
        100_000,
        Consistency::One,
        RetryPolicy::none(),
    );
    let armed_but_idle = run_cstore_with_policy(
        FaultPlan::new(),
        100_000,
        Consistency::One,
        RetryPolicy::retrying(5, 10_000, 0),
    );
    for out in [&explicit_none, &armed_but_idle] {
        assert_eq!(out.metrics.resilience().retries, 0);
        assert_eq!(out.metrics.resilience().hedges, 0);
        assert_eq!(out.throughput, baseline.throughput);
        assert_eq!(out.errors, baseline.errors);
        assert_eq!(out.mean_latency_us, baseline.mean_latency_us);
        assert_eq!(out.sim_duration_us, baseline.sim_duration_us);
        assert_eq!(
            out.metrics.timeline().expect("timeline enabled").windows(),
            baseline
                .metrics
                .timeline()
                .expect("timeline enabled")
                .windows(),
        );
    }
}

#[test]
fn deadline_give_ups_settle_exactly_once_without_leaking_tokens() {
    // A permanently-dead replica under write-ALL makes every write fail;
    // the backoff ladder (60 ms, 120 ms, ...) outruns the 150 ms budget
    // after a retry or two, so each failing op must surface exactly one
    // client-visible error — no late completions, no stuck client
    // threads, no tokens left in the driver's maps.
    let plan = FaultPlan::new().crash_at(NodeId(0), 0);
    let out = run_cstore_with_policy(
        plan,
        100_000,
        Consistency::All,
        RetryPolicy::retrying(10, 60_000, 150_000),
    );
    assert!(out.errors > 0, "write-ALL with a dead replica must fail");
    let res = out.metrics.resilience();
    assert!(res.retries > 0, "the budget must allow at least one retry");
    assert!(
        res.deadline_exceeded > 0,
        "the ladder must hit the deadline: {res:?}"
    );
    // Every measured completion settled exactly once: successes plus
    // errors account for the full measured window, nothing settled twice
    // (which would overshoot) and nothing hung (which would undershoot or
    // leave unsettled ops behind).
    assert_eq!(out.metrics.ops() + out.errors, 2_000);
    assert_eq!(out.unsettled_ops, 0);
}

#[test]
fn randomized_plans_are_seed_deterministic() {
    let a = FaultPlan::randomized(1234, 5, 2_000_000);
    let b = FaultPlan::randomized(1234, 5, 2_000_000);
    assert_eq!(a, b);
    assert!(!a.is_empty());
    let c = FaultPlan::randomized(1235, 5, 2_000_000);
    assert_ne!(a, c, "different seeds should draw different plans");
}

/// Run `cfg` twice on snapshots of one loaded `base` and check the
/// invariants every fault plan must keep: every issued op settles exactly
/// once, the measured window accounts for every op as a success or an
/// error, and the rerun dispatches the same events to the same counters.
/// Returns the faults applied and the client errors.
fn check_randomized_run<S>(base: &S, cfg: &DriverConfig, what: &str) -> [u64; 2]
where
    S: SimStore + FaultTarget<Event = <S as SimStore>::Event>,
{
    let a = driver::run(&mut base.snapshot(), cfg);
    let b = driver::run(&mut base.snapshot(), cfg);
    assert_eq!(a.unsettled_ops, 0, "{what}: unsettled ops");
    assert_eq!(
        a.metrics.overall().count() + a.errors,
        cfg.measure_ops,
        "{what}: ok + errors != measured ops"
    );
    assert_eq!(a.events_dispatched, b.events_dispatched, "{what}: rerun");
    assert_eq!(a.counters, b.counters, "{what}: rerun");
    [a.faults_injected, a.errors]
}

#[test]
fn randomized_fault_plans_keep_every_op_settled_and_replayable() {
    let scale = Scale::tiny();
    let cstore = |cl: Consistency| {
        let mut s = build_cstore_with(&scale, 3, cl, cl, |c| c.node.rpc_timeout_us = 5_000);
        driver::load(&mut s, scale.records, scale.value_len, 7);
        s
    };
    let quorum = cstore(Consistency::Quorum);
    let one = cstore(Consistency::One);
    let mut hstore = build_hstore_with(&scale, 3, |c| {
        c.node.rpc_timeout_us = 5_000;
        c.failover_delay_us = 20_000;
    });
    driver::load(&mut hstore, scale.records, scale.value_len, 7);
    let mut totals = [0; 2];
    for seed in 0..8 {
        let plan = FaultPlan::randomized(seed, 5, 1_500_000);
        for workload in [WorkloadSpec::read_update(), WorkloadSpec::ycsb_e()] {
            let cfg = DriverConfig {
                seed,
                workload: workload.clone(),
                ..faulted_cfg(&scale, plan.clone(), 0)
            };
            let what = format!("seed {seed}, {}", workload.name);
            for [faults, errors] in [
                check_randomized_run(&quorum, &cfg, &format!("cstore QUORUM {what}")),
                check_randomized_run(&one, &cfg, &format!("cstore ONE {what}")),
                check_randomized_run(&hstore, &cfg, &format!("hstore {what}")),
            ] {
                totals[0] += faults;
                totals[1] += errors;
            }
        }
    }
    assert!(
        totals.iter().all(|&n| n > 0),
        "faults and errors: {totals:?}"
    );
}
