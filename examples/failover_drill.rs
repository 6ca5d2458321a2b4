//! Availability drill (the Pokluda et al. related-work scenario): kill a
//! node under load in both stores, watch what clients experience, recover,
//! and verify the repair machinery (hinted handoff / region failover)
//! brought everything back.
//!
//! ```sh
//! cargo run --release --example failover_drill
//! ```

use cloudserve::bench_core::driver::{self, DriverConfig};
use cloudserve::bench_core::setup::{build_cstore, build_hstore, Scale};
use cloudserve::bench_core::{DriverEvent, SimStore};
use cloudserve::cstore::Consistency;
use cloudserve::faults::FaultTarget;
use cloudserve::simkit::{NodeId, Sim};
use cloudserve::ycsb::WorkloadSpec;

fn cfg(scale: &Scale) -> DriverConfig {
    DriverConfig {
        threads: 16,
        warmup_ops: 300,
        measure_ops: 3_000,
        value_len: scale.value_len,
        ..DriverConfig::new(WorkloadSpec::read_mostly(), scale.records)
    }
}

fn main() {
    let scale = Scale::tiny();

    println!("=== cstore (Cassandra analog), RF=3, CL=ONE ===");
    let mut c = build_cstore(&scale, 3, Consistency::One, Consistency::One);
    driver::load(&mut c, scale.records, scale.value_len, 31);
    let healthy = driver::run(&mut c, &cfg(&scale));
    println!(
        "healthy:   {:>8.0} ops/s, {:>3} errors",
        healthy.throughput, healthy.errors
    );
    // Faults go through the stores' fault surface; a cstore recovery
    // schedules hint replay on this simulation.
    let mut sim: Sim<DriverEvent<cloudserve::cstore::Event>> = Sim::new(31);
    c.apply_crash(&mut sim, NodeId(0));
    let degraded = driver::run(&mut c, &cfg(&scale));
    println!(
        "node down: {:>8.0} ops/s, {:>3} errors (CL=ONE rides through; hints queue: {})",
        degraded.throughput,
        degraded.errors,
        c.metrics().hints_stored
    );
    // Recover and replay hints.
    c.apply_recover(&mut sim, NodeId(0));
    while let Some(ev) = sim.next() {
        if let DriverEvent::Store(ev) = ev {
            c.handle(&mut sim, ev);
        }
    }
    let recovered = driver::run(&mut c, &cfg(&scale));
    println!(
        "recovered: {:>8.0} ops/s, {:>3} errors (hints replayed: {})",
        recovered.throughput,
        recovered.errors,
        c.metrics().hints_replayed
    );

    println!("\n=== hstore (HBase analog), RF=3 ===");
    let mut h = build_hstore(&scale, 3);
    driver::load(&mut h, scale.records, scale.value_len, 31);
    let healthy = driver::run(&mut h, &cfg(&scale));
    println!(
        "healthy:        {:>8.0} ops/s, {:>3} errors",
        healthy.throughput, healthy.errors
    );
    h.fail_server(NodeId(0));
    let failed_over = driver::run(&mut h, &cfg(&scale));
    println!(
        "after failover: {:>8.0} ops/s, {:>3} errors ({} regions moved; remote reads until compaction re-localizes)",
        failed_over.throughput,
        failed_over.errors,
        h.metrics().regions_moved
    );
    let mut sim: Sim<DriverEvent<cloudserve::hstore::Event>> = Sim::new(31);
    h.apply_recover(&mut sim, NodeId(0));
    let recovered = driver::run(&mut h, &cfg(&scale));
    println!(
        "server back:    {:>8.0} ops/s, {:>3} errors",
        recovered.throughput, recovered.errors
    );
    println!(
        "\nBoth systems stay available through a single node failure at RF=3 —\n\
         Cassandra by quorum-less acks plus hinted handoff, HBase by moving\n\
         regions onto survivors (briefly paying remote-read penalties)."
    );
}
