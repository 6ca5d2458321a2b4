//! Calibration probe: decomposes the read path of both stores at one scale
//! so the hardware/cost model can be sanity-checked (table counts, cache
//! hit rates, disk traffic, latency means). Not part of the paper's
//! artifacts; useful when retuning `Scale` or `ServiceCosts`.

use bench_core::driver::{self, DriverConfig};
use bench_core::resilience::RetryPolicy;
use bench_core::setup::{build_cstore, build_hstore, Scale};
use bench_core::store::SimStore;
use cstore::Consistency;
use simkit::NodeId;
use storage::OpKind;
use ycsb::WorkloadSpec;

fn main() {
    if std::env::args().nth(1).as_deref() == Some("cl") {
        consistency_probe();
        return;
    }
    let rf: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let scale = Scale::micro();
    let dcfg = DriverConfig {
        workload: WorkloadSpec::micro(OpKind::Read),
        threads: 48,
        target_ops_per_sec: 1_500.0,
        records: scale.records,
        value_len: scale.value_len,
        warmup_ops: 1_000,
        measure_ops: 8_000,
        seed: 42,
        faults: Default::default(),
        timeline_window_us: 0,
        retry: RetryPolicy::none(),
        trace: Default::default(),
        audit: Default::default(),
        arrival: Default::default(),
    };

    {
        let mut h = build_hstore(&scale, rf);
        driver::load(&mut h, scale.records, scale.value_len, 42);
        let tables: usize = h.regions().iter().map(|r| r.lsm.table_count()).sum();
        let out = driver::run(&mut h, &dcfg);
        let node0 = h.hw(NodeId(0));
        let hits: u64 = h.regions().iter().map(|r| r.lsm.cache_stats().hits).sum();
        let misses: u64 = h.regions().iter().map(|r| r.lsm.cache_stats().misses).sum();
        println!(
            "hstore rf={rf}: mean={:.0}us tput={:.0} tables={tables} cache_hit={:.2} disk0_util={:.2} disk0_reads={}B",
            out.mean_latency_us,
            out.throughput,
            hits as f64 / (hits + misses).max(1) as f64,
            node0.disk.utilization(out.sim_duration_us),
            node0.disk.read_bytes(),
        );
    }
    {
        let mut c = build_cstore(&scale, rf, Consistency::One, Consistency::One);
        driver::load(&mut c, scale.records, scale.value_len, 42);
        let tables: usize = (0..c.len())
            .map(|i| c.node(NodeId(i as u32)).lsm.table_count())
            .sum();
        let out = driver::run(&mut c, &dcfg);
        let node0 = c.hw(NodeId(0));
        let (hits, misses) = (0..c.len()).fold((0u64, 0u64), |(h, m), i| {
            let s = c.node(NodeId(i as u32)).lsm.cache_stats();
            (h + s.hits, m + s.misses)
        });
        println!(
            "cstore rf={rf}: mean={:.0}us tput={:.0} tables={tables} cache_hit={:.2} disk0_util={:.2} disk0_reads={}B repair_fanouts={} repair_writes={} pauses={}",
            out.mean_latency_us,
            out.throughput,
            hits as f64 / (hits + misses).max(1) as f64,
            node0.disk.utilization(out.sim_duration_us),
            node0.disk.read_bytes(),
            c.metrics().repair_fanouts,
            c.metrics().repair_writes,
            gc_pauses(&c),
        );
    }
}

/// Per-op-type latency decomposition across consistency levels at the
/// stress scale (diagnostic for Fig. 3 calibration).
fn consistency_probe() {
    let scale = Scale::stress();
    for (name, rcl, wcl) in [
        ("ONE", Consistency::One, Consistency::One),
        ("QUORUM", Consistency::Quorum, Consistency::Quorum),
        ("writeALL", Consistency::One, Consistency::All),
    ] {
        let mut c = build_cstore(&scale, 3, rcl, wcl);
        driver::load(&mut c, scale.records, scale.value_len, 42);
        let dcfg = DriverConfig {
            workload: WorkloadSpec::read_update(),
            threads: 64,
            target_ops_per_sec: 0.0,
            records: scale.records,
            value_len: scale.value_len,
            warmup_ops: 2_000,
            measure_ops: 15_000,
            seed: 42,
            faults: Default::default(),
            timeline_window_us: 0,
            retry: RetryPolicy::none(),
            trace: Default::default(),
            audit: Default::default(),
            arrival: Default::default(),
        };
        let out = driver::run(&mut c, &dcfg);
        let (hits, misses) = (0..c.len()).fold((0u64, 0u64), |(h, m), i| {
            let st = c.node(simkit::NodeId(i as u32)).lsm.cache_stats();
            (h + st.hits, m + st.misses)
        });
        let read = out
            .metrics
            .for_op(OpKind::Read)
            .map(|h| h.mean())
            .unwrap_or(0.0);
        let upd = out
            .metrics
            .for_op(OpKind::Update)
            .map(|h| h.mean())
            .unwrap_or(0.0);
        println!(
            "{name}: tput={:.0} read_mean={read:.0}us update_mean={upd:.0}us hit={:.2} pauses={} mismatches={} repairs={}",
            out.throughput,
            hits as f64 / (hits + misses).max(1) as f64,
            gc_pauses(&c),
            c.metrics().digest_mismatches,
            c.metrics().repair_writes,
        );
    }
}

/// The runtime's GC-pause count, read from the store's counter report.
fn gc_pauses(c: &cstore::Cluster) -> u64 {
    c.counters()
        .into_iter()
        .find_map(|(label, v)| (label == "gc_pauses").then_some(v))
        .unwrap_or(0)
}
