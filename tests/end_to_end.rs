//! Cross-crate integration tests: the full stack (simkit → storage → dfs →
//! stores → ycsb → bench-core) driven end to end at smoke scale.

use bytes::Bytes;
use cloudserve::bench_core::driver::{self, DriverConfig};
use cloudserve::bench_core::setup::{build_cstore, build_cstore_with, build_hstore, Scale};
use cloudserve::bench_core::{DriverEvent, SimStore};
use cloudserve::cstore::Consistency;
use cloudserve::simkit::Sim;
use cloudserve::storage::{OpKind, OpResult, StoreOp};
use cloudserve::ycsb::{encode_key, WorkloadSpec};

fn quick(workload: WorkloadSpec, scale: &Scale) -> DriverConfig {
    DriverConfig {
        threads: 8,
        warmup_ops: 200,
        measure_ops: 1_500,
        value_len: scale.value_len,
        ..DriverConfig::new(workload, scale.records)
    }
}

#[test]
fn every_paper_workload_runs_on_both_stores() {
    let scale = Scale::tiny();
    for workload in ycsb::WorkloadSpec::paper_stress_workloads() {
        let mut h = build_hstore(&scale, 3);
        driver::load(&mut h, scale.records, scale.value_len, 1);
        let out = driver::run(&mut h, &quick(workload.clone(), &scale));
        assert_eq!(out.metrics.ops(), 1_500, "hstore {}", workload.name);
        assert_eq!(out.errors, 0, "hstore {}", workload.name);

        let mut c = build_cstore(&scale, 3, Consistency::One, Consistency::One);
        driver::load(&mut c, scale.records, scale.value_len, 1);
        let out = driver::run(&mut c, &quick(workload.clone(), &scale));
        assert_eq!(out.metrics.ops(), 1_500, "cstore {}", workload.name);
        assert_eq!(out.errors, 0, "cstore {}", workload.name);
    }
}

#[test]
fn scans_longer_than_the_data_return_what_there_is() {
    let scale = Scale::tiny();
    let workload = WorkloadSpec {
        max_scan_len: usize::MAX,
        ..WorkloadSpec::ycsb_e()
    };
    let mut h = build_hstore(&scale, 3);
    driver::load(&mut h, scale.records, scale.value_len, 1);
    let out = driver::run(&mut h, &quick(workload.clone(), &scale));
    assert_eq!((out.metrics.ops(), out.errors), (1_500, 0), "hstore");
    let mut c = build_cstore(&scale, 3, Consistency::One, Consistency::One);
    driver::load(&mut c, scale.records, scale.value_len, 1);
    let out = driver::run(&mut c, &quick(workload, &scale));
    assert_eq!((out.metrics.ops(), out.errors), (1_500, 0), "cstore");
}

#[test]
fn quorum_and_write_all_never_serve_stale_reads() {
    let scale = Scale::tiny();
    for (read, write) in [
        (Consistency::Quorum, Consistency::Quorum),
        (Consistency::One, Consistency::All),
    ] {
        let mut c = build_cstore(&scale, 3, read, write);
        driver::load(&mut c, scale.records, scale.value_len, 5);
        let out = driver::run(&mut c, &quick(WorkloadSpec::read_update(), &scale));
        let (stale, checked) = out.metrics.staleness();
        assert!(checked > 0);
        assert_eq!(
            stale, 0,
            "W+R>N must be strongly consistent ({read:?}/{write:?})"
        );
    }
}

#[test]
fn hstore_is_always_strongly_consistent() {
    let scale = Scale::tiny();
    let mut h = build_hstore(&scale, 6);
    driver::load(&mut h, scale.records, scale.value_len, 5);
    let out = driver::run(&mut h, &quick(WorkloadSpec::read_update(), &scale));
    let (stale, checked) = out.metrics.staleness();
    assert!(checked > 0);
    assert_eq!(stale, 0, "single-primary reads can never be stale");
}

#[test]
fn both_stores_return_identical_scan_rows() {
    // Same data, same shards: a scan must return the same keys from either
    // architecture (values are pooled; compare keys and counts).
    let scale = Scale::tiny();
    let mut h = build_hstore(&scale, 2);
    let mut c = build_cstore(&scale, 2, Consistency::One, Consistency::One);
    driver::load(&mut h, scale.records, scale.value_len, 9);
    driver::load(&mut c, scale.records, scale.value_len, 9);

    fn scan_keys<S: SimStore>(store: &mut S, start: bytes::Bytes, limit: usize) -> Vec<Vec<u8>> {
        let mut sim: Sim<DriverEvent<S::Event>> = Sim::new(3);
        store.submit(&mut sim, 1, StoreOp::Scan { start, limit });
        while let Some(ev) = sim.next() {
            if let DriverEvent::Store(ev) = ev {
                store.handle(&mut sim, ev);
            }
            if let Some(comp) = store.drain_completions().pop() {
                match comp.result {
                    OpResult::Rows(rows) => return rows.iter().map(|(k, _)| k.to_vec()).collect(),
                    other => panic!("scan failed: {other:?}"),
                }
            }
        }
        panic!("scan never completed");
    }

    for id in [0u64, 77, 1_500] {
        let start = encode_key(id);
        let hk = scan_keys(&mut h, start.clone(), 25);
        let ck = scan_keys(&mut c, start, 25);
        assert_eq!(hk.len(), 25);
        assert_eq!(hk, ck, "scan divergence starting at id {id}");
    }
}

#[test]
fn read_your_own_write_through_the_full_path() {
    let scale = Scale::tiny();
    let mut c = build_cstore(&scale, 3, Consistency::Quorum, Consistency::Quorum);
    let mut sim: Sim<DriverEvent<cloudserve::cstore::Event>> = Sim::new(1);
    let key = encode_key(123);
    c.submit(
        &mut sim,
        1,
        StoreOp::Insert {
            key: key.clone(),
            value: Bytes::from_static(b"mine"),
        },
    );
    let mut wrote = false;
    while let Some(ev) = sim.next() {
        if let DriverEvent::Store(ev) = ev {
            cloudserve::cstore::Cluster::handle(&mut c, &mut sim, ev);
        }
        for comp in c.drain_completions() {
            if comp.token == 1 {
                assert!(matches!(comp.result, OpResult::Written { .. }));
                wrote = true;
                c.submit(&mut sim, 2, StoreOp::Read { key: key.clone() });
            }
            if comp.token == 2 {
                match comp.result {
                    OpResult::Value(Some(cell)) => {
                        assert_eq!(cell.value.as_deref(), Some(&b"mine"[..]));
                        return;
                    }
                    other => panic!("read-your-write failed: {other:?}"),
                }
            }
        }
    }
    panic!("never completed (wrote={wrote})");
}

#[test]
fn end_to_end_determinism_across_full_runs() {
    let scale = Scale::tiny();
    let go = |seed: u64| {
        let mut c = build_cstore(&scale, 3, Consistency::One, Consistency::One);
        driver::load(&mut c, scale.records, scale.value_len, seed);
        let mut cfg = quick(WorkloadSpec::read_latest(), &scale);
        cfg.seed = seed;
        let out = driver::run(&mut c, &cfg);
        (
            out.metrics.ops(),
            out.sim_duration_us,
            out.metrics.overall().max(),
            out.counters,
        )
    };
    assert_eq!(go(77), go(77));
    assert_ne!(go(77).1, go(78).1, "different seeds should differ");
}

#[test]
fn rmw_latency_exceeds_component_latencies() {
    let scale = Scale::tiny();
    let mut h = build_hstore(&scale, 2);
    driver::load(&mut h, scale.records, scale.value_len, 3);
    let out = driver::run(&mut h, &quick(WorkloadSpec::read_modify_write(), &scale));
    let rmw = out.metrics.for_op(OpKind::ReadModifyWrite).unwrap();
    let read = out.metrics.for_op(OpKind::Read).unwrap();
    assert!(rmw.mean() > read.mean());
}

#[test]
fn read_repair_chance_zero_leaves_failures_unrepaired() {
    let scale = Scale::tiny();
    let mut c = build_cstore_with(&scale, 3, Consistency::One, Consistency::One, |cfg| {
        cfg.read_repair_chance = 0.0;
        cfg.hinted_handoff = false;
    });
    driver::load(&mut c, scale.records, scale.value_len, 5);
    let out = driver::run(&mut c, &quick(WorkloadSpec::read_mostly(), &scale));
    assert_eq!(out.errors, 0);
    assert_eq!(c.metrics().repair_fanouts, 0);
    assert_eq!(c.metrics().repair_writes, 0);
}

#[test]
fn audit_history_reproduces_the_staleness_tracker() {
    // The recorded history must carry enough to re-derive the live
    // tracker's accounting exactly: replaying it through
    // `History::stale_counts` gives the same (stale, checked, missing)
    // triple as `RunMetrics::staleness()` / `missing_reads()`. Run a
    // config where staleness actually occurs (CL=ONE under a crash) so
    // the invariant is exercised on nonzero counts.
    let scale = Scale::tiny();
    let mut c = build_cstore(&scale, 3, Consistency::One, Consistency::One);
    driver::load(&mut c, scale.records, scale.value_len, 5);
    let mut cfg = quick(WorkloadSpec::read_update(), &scale);
    cfg.measure_ops = 4_000;
    cfg.audit = cloudserve::audit::AuditConfig::all();
    cfg.faults = cloudserve::faults::FaultPlan::new().crash_window(
        cloudserve::simkit::NodeId(0),
        400_000,
        900_000,
    );
    let out = driver::run(&mut c, &cfg);
    let history = out.audit.expect("audit enabled");
    let replay = history.stale_counts();
    let (stale, checked) = out.metrics.staleness();
    assert!(checked > 0);
    assert_eq!(replay.checked, checked);
    assert_eq!(replay.stale, stale);
    assert_eq!(replay.missing, out.metrics.missing_reads());
}
