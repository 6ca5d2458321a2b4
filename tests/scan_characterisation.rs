//! Characterisation of the scan path: YCSB-E (95% short scans, 5% inserts)
//! at `Scale::tiny` on cstore at ONE (each round merges one replica's
//! page), on cstore at QUORUM (each round merges pages from several
//! replicas) and on hstore (region legs), pinned to the values the commit
//! before scans returned shared row segments produced.
//!
//! The inserts flush memtables and compact runs during the run, so scans
//! merge a memtable with several runs. Every model output is pinned
//! exactly, `events_dispatched` included: how a scan's rows are held must
//! change neither which rows a page carries nor what they cost.

use cloudserve::bench_core::driver::{self, DriverConfig, RunOutcome};
use cloudserve::bench_core::setup::{build_cstore_with, build_hstore_with, Scale};
use cloudserve::cstore::Consistency;
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
    events_dispatched: u64,
}

fn pin(out: &RunOutcome) -> Pin {
    assert_eq!(out.unsettled_ops, 0);
    Pin {
        ops: out.metrics.ops(),
        errors: out.errors,
        sim_duration_us: out.sim_duration_us,
        mean_latency_bits: out.mean_latency_us.to_bits(),
        p99_us: out.metrics.overall().quantile(0.99),
        counters: out.counters.clone(),
        events_dispatched: out.events_dispatched,
    }
}

/// Small enough that the run's inserts flush every node's or region's
/// memtable several times and compact the runs, so scans merge the
/// memtable with more than one run.
const SMALL_MEMTABLE: u64 = 1024;

fn cfg(scale: &Scale) -> DriverConfig {
    DriverConfig {
        threads: 8,
        warmup_ops: 200,
        measure_ops: 2_800,
        value_len: scale.value_len,
        ..DriverConfig::new(WorkloadSpec::ycsb_e(), scale.records)
    }
}

fn run_cstore(cl: Consistency) -> RunOutcome {
    let scale = Scale::tiny();
    let mut s = build_cstore_with(&scale, 3, cl, cl, |c| {
        c.lsm.memtable_flush_bytes = SMALL_MEMTABLE;
    });
    driver::load(&mut s, scale.records, scale.value_len, 7);
    driver::run(&mut s, &cfg(&scale))
}

fn run_hstore() -> RunOutcome {
    let scale = Scale::tiny();
    let mut s = build_hstore_with(&scale, 3, |c| c.lsm.memtable_flush_bytes = SMALL_MEMTABLE);
    driver::load(&mut s, scale.records, scale.value_len, 7);
    driver::run(&mut s, &cfg(&scale))
}

fn cstore_counters(
    writes: u64,
    scans: u64,
    repair_fanouts: u64,
    flushes: u64,
    compactions: u64,
) -> Vec<(&'static str, u64)> {
    vec![
        ("reads", 0),
        ("writes", writes),
        ("scans", scans),
        ("unavailable", 0),
        ("timeouts", 0),
        ("digest_mismatches", 0),
        ("repair_fanouts", repair_fanouts),
        ("repair_writes", 0),
        ("hints_stored", 0),
        ("hints_replayed", 0),
        ("flushes", flushes),
        ("compactions", compactions),
        ("shed", 0),
    ]
}

#[test]
fn cstore_one_scan_run_is_pinned() {
    assert_eq!(
        pin(&run_cstore(Consistency::One)),
        Pin {
            ops: 2800,
            errors: 0,
            sim_duration_us: 715_767,
            mean_latency_bits: 4656008565166792470,
            p99_us: 31744,
            counters: cstore_counters(153, 2847, 319, 28, 5),
            events_dispatched: 17_277,
        }
    );
}

#[test]
fn cstore_quorum_scan_run_is_pinned() {
    assert_eq!(
        pin(&run_cstore(Consistency::Quorum)),
        Pin {
            ops: 2800,
            errors: 0,
            sim_duration_us: 2_135_462,
            mean_latency_bits: 4663059350762746582,
            p99_us: 44544,
            counters: cstore_counters(169, 2831, 296, 31, 5),
            events_dispatched: 23_025,
        }
    );
}

#[test]
fn hstore_scan_run_is_pinned() {
    assert_eq!(
        pin(&run_hstore()),
        Pin {
            ops: 2800,
            errors: 0,
            sim_duration_us: 578_694,
            mean_latency_bits: 4654479169624250403,
            p99_us: 4672,
            counters: vec![
                ("reads", 0),
                ("writes", 163),
                ("scans", 2837),
                ("server_down", 0),
                ("wal_groups", 163),
                ("wal_entries", 163),
                ("wal_blocks_rolled", 0),
                ("flushes", 9),
                ("compactions", 0),
                ("regions_moved", 0),
                ("wal_ships", 0),
                ("shed", 0),
            ],
            events_dispatched: 12_262,
        }
    );
}
