//! Characterisation of the point-op path: both stores at `Scale::tiny`, one
//! plain YCSB-A run each and one run each through a crash and a slow NIC
//! with an RPC timeout short enough that timeouts really fire, pinned to the
//! values the commit before the cancellable-timer lane produced.
//!
//! The RPC timeout of an op that settles in time is armed and cancelled
//! without ever being dispatched; everything the model computes — which ops
//! succeed, when, what every store counter reads — must not notice. So
//! every output is pinned exactly, except `events_dispatched`, which could
//! only fall against that commit: it counted the dead timeouts too. Since
//! then it is pinned exactly as well, to the value the commit before the
//! shared node runtime produced, so a refactor that adds or drops a single
//! event fails here.

use cloudserve::bench_core::driver::{self, DriverConfig, RunOutcome};
use cloudserve::bench_core::setup::{build_cstore_with, build_hstore_with, Scale};
use cloudserve::cstore::Consistency;
use cloudserve::faults::FaultPlan;
use cloudserve::simkit::NodeId;
use cloudserve::ycsb::WorkloadSpec;

/// What a run is pinned to.
#[derive(Debug, PartialEq)]
struct Pin {
    ops: u64,
    errors: u64,
    sim_duration_us: u64,
    mean_latency_bits: u64,
    p99_us: u64,
    counters: Vec<(&'static str, u64)>,
}

fn pin(out: &RunOutcome) -> Pin {
    Pin {
        ops: out.metrics.ops(),
        errors: out.errors,
        sim_duration_us: out.sim_duration_us,
        mean_latency_bits: out.mean_latency_us.to_bits(),
        p99_us: out.metrics.overall().quantile(0.99),
        counters: out.counters.clone(),
    }
}

const SHORT_TIMEOUT_US: u64 = 5_000;

/// Node 0 down from 30 ms to 80 ms, then node 1's NIC 8 ms slow from 100 ms
/// to 130 ms. With the 5 ms RPC timeout above, ops caught in flight by the
/// crash and ops waiting on the slow node time out; the rest of the run
/// fails fast or recovers.
fn faults() -> FaultPlan {
    FaultPlan::new()
        .crash_window(NodeId(0), 30_000, 80_000)
        .net_delay_window(NodeId(1), 8_000, 100_000, 130_000)
}

/// The plain runs are paced so the virtual run outlasts the default 2 s RPC
/// timeout: before the timer lane, the early ops' dead timeouts were popped
/// and dispatched. The faulted runs are 32 unpaced clients, so the faults
/// catch ops in flight.
fn cfg(scale: &Scale, faulted: bool) -> DriverConfig {
    DriverConfig {
        threads: if faulted { 32 } else { 8 },
        target_ops_per_sec: if faulted { 0.0 } else { 1_500.0 },
        warmup_ops: 200,
        measure_ops: 3_800,
        value_len: scale.value_len,
        faults: if faulted { faults() } else { FaultPlan::new() },
        ..DriverConfig::new(WorkloadSpec::read_update(), scale.records)
    }
}

fn run_hstore(faulted: bool) -> RunOutcome {
    let scale = Scale::tiny();
    let mut s = build_hstore_with(&scale, 3, |c| {
        if faulted {
            c.node.rpc_timeout_us = SHORT_TIMEOUT_US;
            // Leave the dead server's regions unserved for a while, so ops
            // queued behind its WAL are abandoned to their timeouts.
            c.failover_delay_us = 20_000;
        }
    });
    driver::load(&mut s, scale.records, scale.value_len, 7);
    driver::run(&mut s, &cfg(&scale, faulted))
}

fn run_cstore(faulted: bool) -> RunOutcome {
    let scale = Scale::tiny();
    let mut s = build_cstore_with(&scale, 3, Consistency::Quorum, Consistency::Quorum, |c| {
        if faulted {
            c.node.rpc_timeout_us = SHORT_TIMEOUT_US;
        }
    });
    driver::load(&mut s, scale.records, scale.value_len, 7);
    driver::run(&mut s, &cfg(&scale, faulted))
}

fn counter(out: &RunOutcome, label: &str) -> u64 {
    out.counters
        .iter()
        .find(|(k, _)| *k == label)
        .map_or(0, |(_, v)| *v)
}

/// Every model output equals the parent commit's; the dispatch count may
/// only have lost dead timeouts, and equals the pre-runtime count exactly.
fn check(out: &RunOutcome, parent: Pin, parent_events: u64, events: u64) {
    assert_eq!(pin(out), parent);
    assert_eq!(out.unsettled_ops, 0);
    assert!(
        out.events_dispatched <= parent_events,
        "{} events dispatched, the parent needed {parent_events}",
        out.events_dispatched
    );
    assert_eq!(out.events_dispatched, events);
}

#[test]
fn hstore_plain_run_is_pinned() {
    let out = run_hstore(false);
    check(
        &out,
        Pin {
            ops: 3800,
            errors: 0,
            sim_duration_us: 2_658_437,
            mean_latency_bits: 4653223405737690778,
            p99_us: 3840,
            counters: vec![
                ("reads", 1990),
                ("writes", 2010),
                ("scans", 0),
                ("server_down", 0),
                ("wal_groups", 1902),
                ("wal_entries", 2010),
                ("wal_blocks_rolled", 0),
                ("flushes", 0),
                ("compactions", 0),
                ("regions_moved", 0),
                ("wal_ships", 0),
                ("shed", 0),
            ],
        },
        14_902,
        13_903,
    );
}

#[test]
fn cstore_plain_run_is_pinned() {
    let out = run_cstore(false);
    check(
        &out,
        Pin {
            ops: 3800,
            errors: 0,
            sim_duration_us: 2_774_952,
            mean_latency_bits: 4652931728450455022,
            p99_us: 9472,
            counters: vec![
                ("reads", 2028),
                ("writes", 1972),
                ("scans", 0),
                ("unavailable", 0),
                ("timeouts", 0),
                ("digest_mismatches", 12),
                ("repair_fanouts", 220),
                ("repair_writes", 12),
                ("hints_stored", 0),
                ("hints_replayed", 0),
                ("flushes", 0),
                ("compactions", 0),
                ("shed", 0),
            ],
        },
        39_449,
        38_329,
    );
}

#[test]
fn hstore_run_with_firing_timeouts_is_pinned() {
    let out = run_hstore(true);
    // hstore counts no timeouts: they are the errors beyond the fast-failed
    // `ServerDown`s.
    assert!(counter(&out, "server_down") > 0);
    assert!(out.errors > counter(&out, "server_down"));
    check(
        &out,
        Pin {
            ops: 3613,
            errors: 187,
            sim_duration_us: 203_748,
            mean_latency_bits: 4654921575214003737,
            p99_us: 8960,
            counters: vec![
                ("reads", 1922),
                ("writes", 1952),
                ("scans", 0),
                ("server_down", 126),
                ("wal_groups", 985),
                ("wal_entries", 1952),
                ("wal_blocks_rolled", 0),
                ("flushes", 0),
                ("compactions", 0),
                ("regions_moved", 1),
                ("wal_ships", 0),
                ("shed", 0),
            ],
        },
        16_552,
        12_919,
    );
}

#[test]
fn cstore_run_with_firing_timeouts_is_pinned() {
    let out = run_cstore(true);
    assert!(counter(&out, "timeouts") > 0);
    check(
        &out,
        Pin {
            ops: 3363,
            errors: 437,
            sim_duration_us: 167_595,
            mean_latency_bits: 4650593068140156674,
            p99_us: 2144,
            counters: vec![
                ("reads", 2057),
                ("writes", 1942),
                ("scans", 0),
                ("unavailable", 0),
                ("timeouts", 445),
                ("digest_mismatches", 136),
                ("repair_fanouts", 199),
                ("repair_writes", 150),
                ("hints_stored", 398),
                ("hints_replayed", 398),
                ("flushes", 0),
                ("compactions", 0),
                ("shed", 0),
            ],
        },
        41_514,
        38_103,
    );
}
