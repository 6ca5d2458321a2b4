//! Integration tests for the span-tracing subsystem's two contracts:
//!
//! 1. **Zero perturbation** — with tracing disabled (the default) a run is
//!    bit-identical to one that never touched the tracer; enabling tracing
//!    changes *nothing* about the simulation itself (no events, no RNG
//!    draws), only what is observed.
//! 2. **Determinism** — the same seed and sampling config always produce
//!    byte-identical trace exports.

use cloudserve::audit::{AuditConfig, Fate, History};
use cloudserve::bench_core::driver::{self, DriverConfig, RunOutcome};
use cloudserve::bench_core::resilience::RetryPolicy;
use cloudserve::bench_core::setup::{build_cstore, build_cstore_with, build_hstore, Scale};
use cloudserve::cstore::Consistency;
use cloudserve::faults::FaultPlan;
use cloudserve::obs::{Stage, TraceConfig};
use cloudserve::simkit::{fnv1a, NodeId};
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
    let has_backoff = trace
        .ops
        .iter()
        .any(|op| op.spans.iter().any(|s| s.stage == Stage::RetryBackoff));
    assert!(has_backoff, "no retry backoff span found in a faulted run");
}

/// The benchmark's `cstore-crash-recorded` shape at its smoke size: cstore
/// ONE/ONE YCSB-A, node 0 down from 10 ms to 25 ms, a retrying and hedging
/// client, one op in 16 traced and every op audited.
fn run_crash_recorded() -> RunOutcome {
    let scale = Scale::tiny();
    let mut s = build_cstore(&scale, 3, Consistency::One, Consistency::One);
    driver::load(&mut s, scale.records, scale.value_len, 42);
    let cfg = DriverConfig {
        threads: 32,
        warmup_ops: 100,
        measure_ops: 1_900,
        value_len: scale.value_len,
        seed: 42,
        faults: FaultPlan::new().crash_window(NodeId(0), 10_000, 25_000),
        retry: RetryPolicy::retrying(8, 50_000, 5_000_000).with_hedge(2_500),
        trace: TraceConfig::every(16),
        audit: AuditConfig::all(),
        ..DriverConfig::new(WorkloadSpec::ycsb_a(), scale.records)
    };
    driver::run(&mut s, &cfg)
}

/// FNV-1a of every field of every audit record, in settle order.
fn history_hash(history: &History) -> u64 {
    let mut bytes = Vec::new();
    for r in history.records() {
        bytes.extend_from_slice(&r.client.to_le_bytes());
        bytes.extend_from_slice(r.kind.label().as_bytes());
        for v in [r.id, r.issued, r.settled, u64::from(r.measured)] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let fate = match r.fate {
            Fate::Read {
                expected_ts,
                observed_ts,
            } => [1, expected_ts, observed_ts.map_or(0, |ts| ts + 1)],
            Fate::Write { ts } => [2, ts, 0],
            Fate::Scanned => [3, 0, 0],
            Fate::Failed => [4, 0, 0],
        };
        for v in fate {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    fnv1a(&bytes, 0)
}

/// Pins the traced export and the audit history of a run whose traced ops
/// retry and hedge, so spans of several attempts fold onto one op: any
/// change to how spans are kept, mapped to their op, ordered or dropped, or
/// to what the history records, moves one of these hashes.
#[test]
fn crash_shape_trace_and_history_are_pinned() {
    let out = run_crash_recorded();
    let trace = out.trace.as_ref().expect("trace");
    let history = out.audit.as_ref().expect("history");
    assert!(
        out.metrics.resilience().retries > 0,
        "the crash forces retries"
    );
    assert!(
        out.metrics.resilience().hedges > 0,
        "the crash forces hedges"
    );
    assert_eq!(history.len(), 2_000, "one record per settled op");
    // A hedged op's trace holds both attempts' client sends.
    let folded = trace.ops.iter().any(|op| {
        let sends = op.spans.iter().filter(|s| s.stage == Stage::ClientSend);
        sends.count() > 1
    });
    assert!(folded, "no traced op carries a second attempt's spans");
    let jsonl = trace.to_jsonl();
    assert_eq!((trace.ops.len(), jsonl.len()), (125, 97_600));
    assert_eq!(fnv1a(jsonl.as_bytes(), 0), 0xfebe_58d7_9167_7d1a);
    assert_eq!(history_hash(history), 0x497a_254b_0679_2c54);
}

/// The crash shape with a 5 ms RPC timeout and a retrying client that backs
/// off 2 ms at first: node 0 is down from 10 ms to 40 ms, so an op it
/// coordinates times out and retries, often more than once, before the
/// node returns. Every op is traced and none hedged, so each attempt of an
/// op is one of its client sends.
fn run_crash_short_timeout() -> RunOutcome {
    let scale = Scale::tiny();
    let mut s = build_cstore_with(&scale, 3, Consistency::One, Consistency::One, |c| {
        c.node.rpc_timeout_us = 5_000;
    });
    driver::load(&mut s, scale.records, scale.value_len, 42);
    let cfg = DriverConfig {
        threads: 32,
        warmup_ops: 100,
        measure_ops: 1_900,
        value_len: scale.value_len,
        seed: 42,
        faults: FaultPlan::new().crash_window(NodeId(0), 10_000, 40_000),
        retry: RetryPolicy::retrying(8, 2_000, 5_000_000),
        trace: TraceConfig::all(),
        ..DriverConfig::new(WorkloadSpec::ycsb_a(), scale.records)
    };
    driver::run(&mut s, &cfg)
}

/// Ops that retry more than once keep one client send per attempt and one
/// retry backoff per retry: per op, sends = 1 + backoffs, and over the run
/// the sends are the driver's attempts and the backoffs its retries. The
/// export is pinned byte for byte.
#[test]
fn ops_retried_twice_keep_a_send_per_attempt_and_a_backoff_per_retry() {
    let out = run_crash_short_timeout();
    let trace = out.trace.as_ref().expect("trace");
    let count = |op: &cloudserve::obs::OpTrace, stage: Stage| {
        op.spans.iter().filter(|s| s.stage == stage).count() as u64
    };
    let mut sends = 0;
    let mut backoffs = 0;
    let mut retried_twice = 0;
    for op in &trace.ops {
        let (op_sends, op_backoffs) =
            (count(op, Stage::ClientSend), count(op, Stage::RetryBackoff));
        assert_eq!(op_sends, 1 + op_backoffs, "op {}", op.op);
        retried_twice += u64::from(op_backoffs >= 2);
        sends += op_sends;
        backoffs += op_backoffs;
    }
    assert!(
        retried_twice >= 3,
        "{retried_twice} ops retried at least twice"
    );
    let resilience = out.metrics.resilience();
    assert_eq!((sends, backoffs), (resilience.attempts, resilience.retries));
    let jsonl = trace.to_jsonl();
    assert_eq!((trace.ops.len(), jsonl.len()), (2_000, 1_489_808));
    assert_eq!(fnv1a(jsonl.as_bytes(), 0), 0xf47d_001a_e144_1179);
}
