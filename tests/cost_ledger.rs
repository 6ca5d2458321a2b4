//! The cost ledger: deterministic cost counters of six fixed run shapes,
//! compared byte for byte with the checked-in `BENCH_LEDGER.json`.
//!
//! Five shapes are small mirrors of the `benchmark/` workloads (the same
//! store, consistency levels, mix, client threads and fault plan, at a
//! fiftieth of the records and a few thousand ops); the sixth is a cstore
//! QUORUM/QUORUM YCSB-E scan, the path of replica-page reconciles that no
//! benchmark workload runs. Per shape the ledger records a fingerprint of
//! the run's simulated results, events dispatched per op, allocations and
//! allocated bytes per op of the snapshot and run, and the heap's
//! high-water mark over set-up and run. All of them are exact counts of a
//! deterministic run, so two runs agree to the byte, in either build
//! profile, and a change that moves one shows up here without a timing.
//!
//! The file also names the toolchain, whose standard library the
//! allocation counts depend on. When the ledger differs from the file, the
//! test writes the new ledger to `target/tmp/BENCH_LEDGER.json` and fails;
//! a change that moves a number copies that file over the checked-in one
//! and says why.
//!
//! This binary installs a counting global allocator and holds this one
//! test, so nothing else allocates on its thread while it counts.

use std::fmt::Write as _;
use std::path::Path;

use bytes::counting::{tally, Counting, Tally};
use cloudserve::audit::AuditConfig;
use cloudserve::bench_core::driver::{self, DriverConfig, RunOutcome};
use cloudserve::bench_core::resilience::RetryPolicy;
use cloudserve::bench_core::setup::{build_cstore, build_hstore, Scale};
use cloudserve::bench_core::store::SimStore;
use cloudserve::cstore::Consistency;
use cloudserve::faults::{FaultPlan, FaultTarget};
use cloudserve::obs::TraceConfig;
use cloudserve::simkit::NodeId;
use cloudserve::storage::OpKind;
use cloudserve::ycsb::WorkloadSpec;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Simulated closed-loop client threads, as in the benchmark.
const THREADS: usize = 32;
/// Replication factor of every shape, as in the benchmark.
const RF: u32 = 3;
/// A shape holds this fraction of its benchmark scale's records, cache
/// and memtable.
const SHRINK: u64 = 50;

/// Which store a shape drives, and at which consistency levels.
enum Store {
    /// The Cassandra analog at (read, write) consistency.
    CStore(Consistency, Consistency),
    /// The HBase analog.
    HStore,
}

/// One fixed run.
struct Shape {
    name: &'static str,
    store: Store,
    scale: fn() -> Scale,
    spec: fn() -> WorkloadSpec,
    /// (warm-up, measured) ops.
    ops: (u64, u64),
    /// Node 0 down between these virtual instants (µs), with a retrying,
    /// hedging client and both recorders on.
    crash: Option<(u64, u64)>,
}

fn micro_read() -> WorkloadSpec {
    WorkloadSpec::micro(OpKind::Read)
}

const SHAPES: [Shape; 6] = [
    Shape {
        name: "cstore-quorum-a",
        store: Store::CStore(Consistency::Quorum, Consistency::Quorum),
        scale: Scale::stress,
        spec: WorkloadSpec::ycsb_a,
        ops: (400, 3_600),
        crash: None,
    },
    Shape {
        name: "hstore-a",
        store: Store::HStore,
        scale: Scale::stress,
        spec: WorkloadSpec::ycsb_a,
        ops: (400, 3_600),
        crash: None,
    },
    Shape {
        name: "cstore-scan-e",
        store: Store::CStore(Consistency::One, Consistency::One),
        scale: Scale::stress,
        spec: WorkloadSpec::ycsb_e,
        ops: (200, 1_800),
        crash: None,
    },
    Shape {
        name: "cstore-micro-read",
        store: Store::CStore(Consistency::One, Consistency::One),
        scale: Scale::micro,
        spec: micro_read,
        ops: (400, 3_600),
        crash: None,
    },
    Shape {
        name: "cstore-crash-recorded",
        store: Store::CStore(Consistency::One, Consistency::One),
        scale: Scale::stress,
        spec: WorkloadSpec::ycsb_a,
        ops: (400, 3_600),
        crash: Some((10_000, 25_000)),
    },
    Shape {
        name: "cstore-quorum-scan-e",
        store: Store::CStore(Consistency::Quorum, Consistency::Quorum),
        scale: Scale::stress,
        spec: WorkloadSpec::ycsb_e,
        ops: (200, 1_800),
        crash: None,
    },
];

/// One shape's row of the ledger.
struct Costs {
    ops: u64,
    fingerprint: u64,
    events: u64,
    run: Tally,
    heap_peak_bytes: usize,
}

impl Shape {
    fn scale(&self) -> Scale {
        let full = (self.scale)();
        Scale {
            records: full.records / SHRINK,
            node_cache_bytes: full.node_cache_bytes / SHRINK,
            memtable_flush_bytes: full.memtable_flush_bytes / SHRINK,
            ..full
        }
    }

    fn driver_config(&self, scale: &Scale) -> DriverConfig {
        let mut cfg = DriverConfig {
            threads: THREADS,
            value_len: scale.value_len,
            warmup_ops: self.ops.0,
            measure_ops: self.ops.1,
            seed: 42,
            ..DriverConfig::new((self.spec)(), scale.records)
        };
        if let Some((down, up)) = self.crash {
            cfg.faults = FaultPlan::new().crash_window(NodeId(0), down, up);
            cfg.retry = RetryPolicy::retrying(8, 50_000, 5_000_000).with_hedge(2_500);
            cfg.trace = TraceConfig::every(16);
            cfg.audit = AuditConfig::all();
        }
        cfg
    }

    fn costs(&self) -> Costs {
        let scale = self.scale();
        let cfg = self.driver_config(&scale);
        match self.store {
            Store::CStore(read, write) => measure(&cfg, || build_cstore(&scale, RF, read, write)),
            Store::HStore => measure(&cfg, || build_hstore(&scale, RF)),
        }
    }
}

/// Build and load a base, then run the shape on a snapshot of it, as the
/// benchmark does: the run's allocations are the snapshot's and the run's,
/// and the heap's high-water mark is over both steps, the base held
/// throughout the second.
fn measure<S>(cfg: &DriverConfig, build: impl FnOnce() -> S) -> Costs
where
    S: SimStore + FaultTarget<Event = <S as SimStore>::Event>,
{
    let (base, set_up) = tally(|| {
        let mut base = build();
        driver::load(&mut base, cfg.records, cfg.value_len, cfg.seed);
        base
    });
    let (out, run) = tally(|| driver::run(&mut base.snapshot(), cfg));
    assert_eq!(out.unsettled_ops, 0);
    Costs {
        ops: cfg.warmup_ops + cfg.measure_ops,
        fingerprint: fingerprint(&out),
        events: out.events_dispatched,
        heap_peak_bytes: set_up
            .peak_bytes
            .max(set_up.live_bytes.max(0) as usize + run.peak_bytes),
        run,
    }
}

/// FNV-1a over the simulated results, as the benchmark's
/// `model_fingerprint`: ops, errors, events dispatched, virtual duration,
/// the bits of the mean latency, and every store counter.
fn fingerprint(out: &RunOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in [
        out.metrics.ops(),
        out.errors,
        out.events_dispatched,
        out.sim_duration_us,
        out.mean_latency_us.to_bits(),
    ] {
        eat(&v.to_le_bytes());
    }
    for (label, v) in &out.counters {
        eat(label.as_bytes());
        eat(&v.to_le_bytes());
    }
    h
}

fn toolchain() -> String {
    let out = std::process::Command::new("rustc").arg("-V").output();
    out.ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

/// The ledger as the checked-in file holds it.
fn ledger() -> String {
    let mut json = format!(
        "{{\n  \"toolchain\": \"{}\",\n  \"shapes\": [\n",
        toolchain()
    );
    for (i, shape) in SHAPES.iter().enumerate() {
        let c = shape.costs();
        let per_op = |n: usize| n as f64 / c.ops as f64;
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"ops\": {}, \"fingerprint\": \"{:016x}\", \
             \"events_per_op\": {:.4}, \"allocs_per_op\": {:.4}, \
             \"alloc_bytes_per_op\": {:.2}, \"heap_peak_bytes\": {}}}{}",
            shape.name,
            c.ops,
            c.fingerprint,
            c.events as f64 / c.ops as f64,
            per_op(c.run.allocs),
            per_op(c.run.alloc_bytes),
            c.heap_peak_bytes,
            if i + 1 < SHAPES.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    json
}

#[test]
fn the_cost_ledger_matches_bench_ledger_json() {
    let got = ledger();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_LEDGER.json");
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    if got != want {
        let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_LEDGER.json");
        std::fs::write(&fresh, &got).expect("write the new ledger");
        let diff: Vec<String> = (want.lines().map(|l| format!("- {l}")))
            .filter(|l| !got.contains(&l[2..]))
            .chain((got.lines().map(|l| format!("+ {l}"))).filter(|l| !want.contains(&l[2..])))
            .collect();
        panic!(
            "the cost ledger differs from {}; the new one is at {}:\n{}",
            path.display(),
            fresh.display(),
            diff.join("\n")
        );
    }
}
