//! Integration tests for the span-tracing subsystem's two contracts:
//!
//! 1. **Zero perturbation** — with tracing disabled (the default) a run is
//!    bit-identical to one that never touched the tracer; enabling tracing
//!    changes *nothing* about the simulation itself (no events, no RNG
//!    draws), only what is observed.
//! 2. **Determinism** — the same seed and sampling config always produce
//!    byte-identical trace exports.

use cloudserve::bench_core::driver::{self, DriverConfig, RunOutcome};
use cloudserve::bench_core::resilience::RetryPolicy;
use cloudserve::bench_core::setup::{build_cstore, build_hstore, Scale};
use cloudserve::cstore::Consistency;
use cloudserve::faults::FaultPlan;
use cloudserve::obs::TraceConfig;
use cloudserve::simkit::NodeId;
use cloudserve::ycsb::WorkloadSpec;

fn cfg(scale: &Scale, trace: TraceConfig) -> DriverConfig {
    DriverConfig {
        threads: 8,
        warmup_ops: 200,
        measure_ops: 2_000,
        value_len: scale.value_len,
        trace,
        ..DriverConfig::new(WorkloadSpec::read_update(), scale.records)
    }
}

fn run_hstore(trace: TraceConfig) -> RunOutcome {
    let scale = Scale::tiny();
    let mut s = build_hstore(&scale, 3);
    driver::load(&mut s, scale.records, scale.value_len, 7);
    driver::run(&mut s, &cfg(&scale, trace))
}

fn run_cstore(trace: TraceConfig) -> RunOutcome {
    let scale = Scale::tiny();
    let mut s = build_cstore(&scale, 3, Consistency::Quorum, Consistency::Quorum);
    driver::load(&mut s, scale.records, scale.value_len, 7);
    driver::run(&mut s, &cfg(&scale, trace))
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
fn tracing_enabled_perturbs_nothing() {
    for runner in [run_hstore, run_cstore] {
        let off = runner(TraceConfig::off());
        let on = runner(TraceConfig::all());
        assert!(off.trace.is_none(), "disabled run must carry no trace");
        let trace = on.trace.as_ref().expect("enabled run must carry a trace");
        assert!(!trace.ops.is_empty());
        // The observed run is bit-identical to the unobserved one: same
        // virtual timings, same histogram contents, same store counters.
        assert_eq!(fingerprint(&off), fingerprint(&on));
        assert_eq!(off.throughput, on.throughput);
        assert_eq!(off.mean_latency_us, on.mean_latency_us);
    }
}

#[test]
fn same_seed_and_sampling_give_byte_identical_exports() {
    for runner in [run_hstore, run_cstore] {
        let a = runner(TraceConfig::every(7));
        let b = runner(TraceConfig::every(7));
        let ta = a.trace.expect("trace");
        let tb = b.trace.expect("trace");
        assert!(!ta.ops.is_empty());
        assert_eq!(ta.to_jsonl(), tb.to_jsonl());
    }
}

#[test]
fn sampling_rate_bounds_the_trace_and_spans_nest_inside_op_lifetimes() {
    let out = run_cstore(TraceConfig::every(10));
    let trace = out.trace.expect("trace");
    let total = out.metrics.ops() + 200; // measured + warm-up
    let sampled = trace.ops.len() as u64;
    assert!(sampled > 0);
    assert!(
        sampled <= total / 10 + 1,
        "sampled {sampled} of {total} at 1-in-10"
    );
    for op in &trace.ops {
        assert!(op.settled > op.issued);
        // Some spans may legitimately outlive the op (a straggler replica
        // ack reconciled after the coordinator already responded); the
        // response leg itself always ends exactly at settle.
        for s in &op.spans {
            assert!(s.start < s.end, "empty spans are never recorded");
        }
        assert!(
            op.spans.iter().any(|s| s.end == op.settled),
            "no span ends at settle for op {}",
            op.op
        );
    }
}

#[test]
fn tracing_composes_with_faults_and_retries_without_perturbation() {
    let go = |trace: TraceConfig| {
        let scale = Scale::tiny();
        let mut s = build_cstore(&scale, 3, Consistency::One, Consistency::All);
        driver::load(&mut s, scale.records, scale.value_len, 7);
        let cfg = DriverConfig {
            // Throttled so the run is still going when the crash lands.
            target_ops_per_sec: 1_500.0,
            faults: FaultPlan::new().crash_window(NodeId(0), 400_000, 900_000),
            retry: RetryPolicy::retrying(4, 20_000, 2_000_000),
            trace,
            ..cfg(&scale, TraceConfig::off())
        };
        driver::run(&mut s, &cfg)
    };
    let off = go(TraceConfig::off());
    let on = go(TraceConfig::all());
    assert_eq!(fingerprint(&off), fingerprint(&on));
    assert_eq!(off.faults_injected, on.faults_injected);
    let trace = on.trace.expect("trace");
    // Retried ops fold every attempt's spans into one logical trace; the
    // run above forces retries, so at least one backoff span must appear.
    let has_backoff = trace.ops.iter().any(|op| {
        op.spans
            .iter()
            .any(|s| s.stage == cloudserve::obs::Stage::RetryBackoff)
    });
    assert!(has_backoff, "no retry backoff span found in a faulted run");
}
