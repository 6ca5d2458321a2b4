//! SLA-based capacity certification — the paper's §6 future work in action:
//! "At least p percentage of requests get response within l latency."
//! Finds, by bisection over throttled runs, the highest throughput each
//! store sustains while meeting a p95 latency agreement, keeping "user
//! experiences at the same level to compare throughputs of different
//! systems".
//!
//! ```sh
//! cargo run --release --example sla_certify
//! ```

use cloudserve::bench_core::driver;
use cloudserve::bench_core::setup::{build_cstore, build_hstore, Scale};
use cloudserve::bench_core::sla::{capacity_table, find_sla_capacity_with, Sla, SlaSearchConfig};
use cloudserve::bench_core::sweep::Sweep;
use cloudserve::cstore::Consistency;
use cloudserve::ycsb::WorkloadSpec;

fn main() {
    // Honours SWEEP_THREADS / SWEEP_SERIAL, like the `fig` binary.
    let sweep = Sweep::from_env().unwrap_or_else(|e| {
        eprintln!("sla_certify: {e}");
        std::process::exit(2)
    });
    let scale = Scale::tiny();
    let sla = Sla {
        percentile: 0.95,
        latency_us: 5_000,
        error_budget: 0.0,
    };
    let search = |scale: Scale| SlaSearchConfig {
        threads: 16,
        floor: 200.0,
        ceiling: 50_000.0,
        iterations: 7,
        measure_ops: 4_000,
        warmup_ops: 400,
        ..SlaSearchConfig::new(scale, WorkloadSpec::read_mostly(), sla)
    };

    let mut h = build_hstore(&scale, 3);
    driver::load(&mut h, scale.records, scale.value_len, 77);
    let h_cap = find_sla_capacity_with(&h, &search(scale), &sweep);

    let mut c1 = build_cstore(&scale, 3, Consistency::One, Consistency::One);
    driver::load(&mut c1, scale.records, scale.value_len, 77);
    let c1_cap = find_sla_capacity_with(&c1, &search(scale), &sweep);

    let mut cq = build_cstore(&scale, 3, Consistency::Quorum, Consistency::Quorum);
    driver::load(&mut cq, scale.records, scale.value_len, 77);
    let cq_cap = find_sla_capacity_with(&cq, &search(scale), &sweep);

    let table = capacity_table(
        "SLA-certified capacity (read mostly, RF=3)",
        &[
            ("hstore (strong)", &h_cap),
            ("cstore @ ONE", &c1_cap),
            ("cstore @ QUORUM", &cq_cap),
        ],
    );
    println!("{}", table.render());
    println!("probes (cstore @ QUORUM):");
    for (target, q, met) in &cq_cap.probes {
        println!(
            "  target {:>8.0} ops/s -> p95 {:>6}us  {}",
            target,
            q,
            if *met { "meets SLA" } else { "violates" }
        );
    }
}
