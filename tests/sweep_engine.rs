//! Sweep-engine integration tests: scheduling never changes results, the
//! copy-on-write snapshots the engine stamps out per cell are truly
//! independent of their base state and of each other, and a cell whose
//! store differs from its group's only in settings the load does not read
//! runs exactly as if it had loaded its own data.

use bytes::Bytes;
use cloudserve::bench_core::driver::{self, DriverConfig};
use cloudserve::bench_core::micro::MicroConfig;
use cloudserve::bench_core::setup::{build_cstore, build_cstore_with, build_hstore, Scale};
use cloudserve::bench_core::{DriverEvent, Experiment, Grid, SimStore, Sweep};
use cloudserve::cstore::{CStoreConfig, CommitlogSync, Consistency};
use cloudserve::faults::FaultPlan;
use cloudserve::simkit::{AdmissionConfig, NodeId, Sim};
use cloudserve::storage::{OpResult, StoreOp};
use cloudserve::ycsb::encode_key;
use proptest::prelude::*;

/// Read one key through the full async path, off virtual time.
fn read_value<S: SimStore>(store: &mut S, key: Bytes) -> Option<Bytes> {
    let mut sim: Sim<DriverEvent<S::Event>> = Sim::new(11);
    store.submit(&mut sim, 1, StoreOp::Read { key });
    while let Some(ev) = sim.next() {
        if let DriverEvent::Store(ev) = ev {
            store.handle(&mut sim, ev);
        }
        if let Some(comp) = store.drain_completions().pop() {
            match comp.result {
                OpResult::Value(cell) => return cell.and_then(|c| c.value),
                other => panic!("read failed: {other:?}"),
            }
        }
    }
    panic!("read never completed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_results_are_schedule_independent(
        root in any::<u64>(),
        n in 0usize..48,
        threads in 2usize..9,
    ) {
        let cells: Vec<u64> = (0..n as u64).collect();
        let f = |&c: &u64| (c, (root ^ c).wrapping_mul(c + 1));
        let serial = Sweep::new().with_threads(1).run(&cells, f);
        let parallel = Sweep::new().with_threads(threads).run(&cells, f);
        prop_assert_eq!(&serial.results, &parallel.results);
        for (i, &(c, v)) in parallel.results.iter().enumerate() {
            prop_assert_eq!(c, i as u64);
            prop_assert_eq!(v, (root ^ c).wrapping_mul(c + 1));
        }
    }
}

#[test]
fn micro_grid_is_bitwise_identical_serial_vs_parallel() {
    let serial = MicroConfig::quick().run_with(&Sweep::new().with_threads(1));
    let parallel = MicroConfig::quick().run_with(&Sweep::new().with_threads(4));
    // Full f64 bit patterns, not approximate equality: the engine promises
    // the schedule is invisible to results.
    let key = |r: &Grid<MicroConfig>| -> Vec<_> {
        r.rows()
            .map(|(&spec, c)| (spec, c.mean_us.to_bits(), c.p95_us, c.throughput.to_bits()))
            .collect()
    };
    assert_eq!(key(&serial), key(&parallel));
    // Each run loaded each of the 4 base states exactly once.
    assert_eq!(serial.telemetry.base_loads, 4);
    assert_eq!(parallel.telemetry.base_loads, 4);
}

#[test]
fn cstore_snapshots_are_copy_on_write_and_independent() {
    let scale = Scale::tiny();
    let mut base = build_cstore(&scale, 3, Consistency::One, Consistency::One);
    driver::load(&mut base, scale.records, scale.value_len, 7);

    let mut fork = base.snapshot();
    let sibling = base.snapshot();
    assert!(SimStore::shares_storage_with(&base, &fork));
    assert!(SimStore::shares_storage_with(&fork, &sibling));

    let key = encode_key(42);
    let original = read_value(&mut base, key.clone()).expect("loaded key");

    // Overwrite the key in the fork and flush it into a new sorted run.
    SimStore::load_direct(
        &mut fork,
        key.clone(),
        Bytes::from_static(b"forked"),
        u64::MAX,
    );
    SimStore::flush_all(&mut fork);
    assert!(!SimStore::shares_storage_with(&base, &fork));

    // The base and the sibling snapshot are untouched: they still share
    // every run and still serve the original value.
    assert!(SimStore::shares_storage_with(&base, &sibling));
    assert_eq!(
        read_value(&mut fork, key.clone()).as_deref(),
        Some(&b"forked"[..])
    );
    assert_eq!(
        read_value(&mut base, key).as_deref(),
        Some(original.as_ref())
    );
}

#[test]
fn hstore_snapshots_are_copy_on_write_and_independent() {
    let scale = Scale::tiny();
    let mut base = build_hstore(&scale, 3);
    driver::load(&mut base, scale.records, scale.value_len, 7);

    let mut fork = base.snapshot();
    let sibling = base.snapshot();
    assert!(SimStore::shares_storage_with(&base, &fork));

    let key = encode_key(42);
    let original = read_value(&mut base, key.clone()).expect("loaded key");

    SimStore::load_direct(
        &mut fork,
        key.clone(),
        Bytes::from_static(b"forked"),
        u64::MAX,
    );
    SimStore::flush_all(&mut fork);
    assert!(!SimStore::shares_storage_with(&base, &fork));
    assert!(SimStore::shares_storage_with(&base, &sibling));
    assert_eq!(
        read_value(&mut fork, key.clone()).as_deref(),
        Some(&b"forked"[..])
    );
    assert_eq!(
        read_value(&mut base, key).as_deref(),
        Some(original.as_ref())
    );
}

#[test]
fn driving_a_snapshot_leaves_the_base_reusable() {
    // The engine's whole premise: one load, many cells. A full measured run
    // on a snapshot must leave the base able to stamp out further snapshots
    // that behave as if they were the first.
    let scale = Scale::tiny();
    let mut base = build_cstore(&scale, 3, Consistency::One, Consistency::One);
    driver::load(&mut base, scale.records, scale.value_len, 7);

    let dcfg = cloudserve::bench_core::driver::DriverConfig {
        threads: 8,
        warmup_ops: 100,
        measure_ops: 600,
        value_len: scale.value_len,
        ..cloudserve::bench_core::driver::DriverConfig::new(
            cloudserve::ycsb::WorkloadSpec::read_update(),
            scale.records,
        )
    };
    let run = |c: &cloudserve::cstore::Cluster| {
        let mut snap = c.snapshot();
        let out = driver::run(&mut snap, &dcfg);
        (out.metrics.ops(), out.sim_duration_us, out.counters)
    };
    let first = run(&base);
    let second = run(&base);
    assert_eq!(first, second, "base state was mutated by a snapshot run");
}

/// A configuration hook applied to a cstore build.
type Tweak = fn(&mut CStoreConfig);

/// One cstore build: its read and write levels and a configuration hook.
type Setting = (Consistency, Consistency, Tweak);

#[test]
fn settings_the_load_does_not_read_leave_runs_unchanged() {
    use Consistency::{All, One, Quorum};
    let scale = Scale::tiny();
    // Every level pair, then each other setting only running ops read.
    let mut settings: Vec<Setting> = Vec::new();
    for read in [One, Quorum, All] {
        for write in [One, Quorum, All] {
            settings.push((read, write, |_| {}));
        }
    }
    let others: [(Consistency, Tweak); 6] = [
        (One, |c| c.read_repair_chance = 0.0),
        (One, |c| c.read_repair_chance = 1.0),
        (One, |c| c.commitlog_sync = CommitlogSync::PerWrite),
        (One, |c| c.hinted_handoff = false),
        (One, |c| {
            c.node.admission = AdmissionConfig { max_in_flight: 6 }
        }),
        (Quorum, |c| c.node.rpc_timeout_us = 4_000),
    ];
    settings.extend(others.map(|(level, tweak)| (level, level, tweak)));
    let build = |&(read, write, tweak): &Setting| build_cstore_with(&scale, 3, read, write, tweak);
    let loaded: Vec<_> = settings
        .iter()
        .map(|setting| {
            let mut store = build(setting);
            driver::load(&mut store, scale.records, scale.value_len, 7);
            store
        })
        .collect();
    // Node 1 is down for 40 ms, so hinted handoff has hints to store.
    let dcfg = DriverConfig {
        threads: 8,
        warmup_ops: 100,
        measure_ops: 500,
        value_len: scale.value_len,
        faults: FaultPlan::new().crash_window(NodeId(1), 20_000, 60_000),
        ..DriverConfig::new(cloudserve::ycsb::WorkloadSpec::read_update(), scale.records)
    };
    let run = |mut store: cloudserve::cstore::Cluster| {
        let out = driver::run(&mut store, &dcfg);
        (
            out.events_dispatched,
            out.throughput.to_bits(),
            out.errors,
            out.counters,
            out.stale_fraction.to_bits(),
        )
    };
    for (i, setting) in settings.iter().enumerate() {
        // Setting i holding the data loaded under the next setting.
        let other = &loaded[(i + 1) % loaded.len()];
        let shared = build(setting);
        assert!(shared.loads_like(other), "setting {i}");
        let shared = run(shared.with_data_of(other));
        assert_eq!(shared, run(loaded[i].snapshot()), "setting {i}");
    }
}
