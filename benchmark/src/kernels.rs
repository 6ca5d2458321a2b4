//! Isolated kernels: host time of calls into each lower layer's public
//! functions, away from the driver loop.
//!
//! Each kernel runs at the workload's own `LsmConfig`, value length and
//! operation mix, so its number is the cost of that layer *as this workload
//! uses it*. Every timing is the fastest of [`TRIES`] identical passes, for
//! the reason `measure` gives. The numbers explain movements of the
//! end-to-end metrics; they are not bounded themselves.

use std::hint::black_box;
use std::time::Instant;

use bench_core::driver::DriverConfig;
use simkit::{EventQueue, SimRng};
use storage::merge::merge_runs;
use storage::{Cell, Key, LsmConfig, LsmTree, OpKind};
use ycsb::{encode_key, KeyInterner, KeySpace, RunMetrics, ValuePool};

use crate::measure::Metric;
use crate::reference::mix;
use crate::workloads::Size;

/// Identical passes per kernel; the fastest is reported.
const TRIES: usize = 3;

/// Fastest of [`TRIES`] passes of `pass`, which returns (host ns, units of
/// work): ns per unit.
fn fastest(mut pass: impl FnMut() -> (f64, u64)) -> f64 {
    (0..TRIES)
        .map(|_| {
            let (ns, units) = pass();
            ns / units.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Hold model on the event queue: 1k pending events as fat as the cluster
/// event enums, pop one / push one a near-future increment later.
fn queue_ns_per_event(events: u64) -> f64 {
    fastest(|| {
        let mut q: EventQueue<[u64; 12]> = EventQueue::new();
        let mut rng = 0x51;
        for i in 0..1_000 {
            q.push(mix(&mut rng) % 1_000_000, [i; 12]);
        }
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..events {
            if let Some((t, ev)) = q.pop() {
                sum = sum.wrapping_add(t).wrapping_add(ev[0]);
                q.push(t + 1 + mix(&mut rng) % 512, [7; 12]);
            }
        }
        black_box(sum);
        (ns_since(start), events)
    })
}

/// The write path: one put per key, a flush whenever one is due, a
/// compaction whenever a flush makes one ripe. Returns the tree (several
/// runs plus a part-filled memtable) and the host ns it took.
fn build_tree(lsm: LsmConfig, keys: &[Key], value: &Key) -> (LsmTree, f64) {
    let mut tree = LsmTree::new(lsm);
    let start = Instant::now();
    for (key, ts) in keys.iter().zip(1..) {
        let receipt = tree.put(key.clone(), Cell::live(value.clone(), ts));
        if receipt.flush_due && tree.flush().is_some_and(|f| f.compaction_due) {
            tree.maybe_compact();
        }
    }
    (tree, ns_since(start))
}

fn get_ns(tree: &mut LsmTree, keys: &[Key], gets: u64, stride: u64) -> f64 {
    fastest(|| {
        let start = Instant::now();
        let mut found = 0u64;
        for i in 0..gets {
            let key = &keys[(i.wrapping_mul(stride) % keys.len() as u64) as usize];
            found += u64::from(tree.get(key).cell.is_some());
        }
        assert_eq!(found, gets, "every loaded key must be found");
        (ns_since(start), gets)
    })
}

/// The storage kernels at one workload's LSM configuration.
fn storage(lsm: LsmConfig, value_len: usize, max_scan_len: usize, n: u64, out: &mut Vec<Metric>) {
    let value = Key::from(vec![7u8; value_len]);
    let records = n / 10;
    // Encoded once: the kernels time the storage engine, not key formatting.
    let keys: Vec<Key> = (0..records).map(encode_key).collect();

    let mut tree = None;
    let put_flush_ns = fastest(|| {
        let (t, ns) = build_tree(lsm, &keys, &value);
        tree = Some(t);
        (ns, records)
    });
    let mut tree = tree.expect("TRIES is at least one");

    // Hot: a working set of 512 keys, resident after one pass.
    let hot = &keys[..keys.len().min(512)];
    for key in hot {
        black_box(tree.get(key));
    }
    let get_hot_ns = get_ns(&mut tree, hot, n, 7);

    let mut rows = 0u64;
    let scans = n / 50;
    let scan_ns_per_row = fastest(|| {
        rows = 0;
        let start = Instant::now();
        for i in 0..scans {
            let from = &keys[(i.wrapping_mul(2_654_435_761) % records) as usize];
            let limit = 1 + (i as usize * 7) % max_scan_len.max(1);
            rows += tree.scan(from, limit).rows.len() as u64;
        }
        (ns_since(start), rows)
    });

    // Cold: the same data behind a cache of four blocks, keys spread over
    // the whole key space, so every get fetches, inserts and evicts.
    let (mut cold, _) = build_tree(
        LsmConfig {
            cache_bytes: lsm.block_size * 4,
            ..lsm
        },
        &keys,
        &value,
    );
    let get_cold_ns = get_ns(&mut cold, &keys, n / 2, 2_654_435_761);

    // The compaction merge alone: eight runs, even and odd runs duplicating
    // each other's keys, so it interleaves and reconciles.
    let per_run = records / 8;
    let runs: Vec<Vec<(Key, Cell)>> = (0..8u64)
        .map(|r| {
            let mut run: Vec<(Key, Cell)> = (0..per_run)
                .map(|i| {
                    (
                        keys[(i * 2 + (r & 1)) as usize].clone(),
                        Cell::live(value.clone(), r + 1),
                    )
                })
                .collect();
            run.sort_by(|a, b| a.0.cmp(&b.0));
            run
        })
        .collect();
    let views: Vec<&[(Key, Cell)]> = runs.iter().map(Vec::as_slice).collect();
    let merge_ns_per_entry = fastest(|| {
        let start = Instant::now();
        black_box(merge_runs(&views, true).len());
        (ns_since(start), 8 * per_run)
    });

    out.extend([
        Metric::new("storage.get_hot_ns", get_hot_ns, "ns"),
        Metric::new("storage.get_cold_ns", get_cold_ns, "ns"),
        Metric::new("storage.put_flush_ns", put_flush_ns, "ns"),
        Metric::new("storage.merge_ns_per_entry", merge_ns_per_entry, "ns"),
        Metric::new("storage.scan_ns_per_row", scan_ns_per_row, "ns"),
        Metric::new(
            "storage.rows_per_scan",
            rows as f64 / scans.max(1) as f64,
            "1",
        ),
    ]);
}

/// Client-side op generation as `driver::run` does it: draw the kind from
/// the mix, the record from the request distribution, intern its key, and
/// draw a value for writes.
fn next_op_ns(cfg: &DriverConfig, n: u64) -> f64 {
    fastest(|| {
        let mut rng = SimRng::new(cfg.seed);
        let mut dist = cfg.workload.request_distribution(cfg.records);
        let mut keyspace = KeySpace::new(cfg.records);
        let mut interner = KeyInterner::new((cfg.records as usize).min(1 << 16));
        let pool = ValuePool::new(cfg.value_len, 4);
        let start = Instant::now();
        for _ in 0..n {
            let kind = cfg.workload.mix.choose(&mut rng);
            let key = if kind == OpKind::Insert {
                let (_, key) = keyspace.next_insert();
                dist.set_items(keyspace.count());
                key
            } else {
                interner.key(dist.next(&mut rng))
            };
            black_box(key);
            match kind {
                OpKind::Update | OpKind::Insert => {
                    black_box(pool.next(&mut rng));
                }
                OpKind::Scan => {
                    black_box(cfg.workload.scan_len(&mut rng));
                }
                _ => {}
            }
        }
        (ns_since(start), n)
    })
}

/// Client-side latency recording.
fn record_ns(n: u64) -> f64 {
    fastest(|| {
        let mut metrics = RunMetrics::new();
        let mut rng = 0x5EED;
        let start = Instant::now();
        for i in 0..n {
            let kind = if i % 2 == 0 {
                OpKind::Read
            } else {
                OpKind::Update
            };
            metrics.record(kind, 100 + mix(&mut rng) % 20_000);
        }
        black_box(metrics.ops());
        (ns_since(start), n)
    })
}

/// Run every kernel for one workload.
pub fn run(cfg: &DriverConfig, lsm: LsmConfig, size: Size) -> Vec<Metric> {
    // Units of work per pass; each kernel scales it to a pass of tens of
    // milliseconds at full size.
    let n: u64 = match size {
        Size::Full => 200_000,
        Size::Smoke => 4_000,
    };
    let mut out = vec![Metric::new(
        "simkit.queue_ns_per_event",
        queue_ns_per_event(n * 2),
        "ns",
    )];
    storage(lsm, cfg.value_len, cfg.workload.max_scan_len, n, &mut out);
    out.extend([
        Metric::new("ycsb.next_op_ns", next_op_ns(cfg, n * 2), "ns"),
        Metric::new("ycsb.record_ns", record_ns(n * 2), "ns"),
    ]);
    out
}
