//! Criterion microbenches for the hot components of the simulation stack:
//! the costs here bound how fast the figure harnesses can run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::RngCore;

use simkit::{EventQueue, SimRng};
use storage::bloom::BloomFilter;
use storage::cache::{BlockCache, BlockKey};
use storage::{Cell, LsmConfig, LsmTree, Memtable, SsTable, TableId};
use ycsb::generator::Zipfian;
use ycsb::Histogram;

fn key(i: u64) -> bytes::Bytes {
    bytes::Bytes::from(format!("user{i:012}").into_bytes())
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("simrng/next_u64", |b| {
        let mut rng = SimRng::new(1);
        b.iter(|| black_box(rng.next_u64()));
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1_000u64 {
                q.push((i * 7) % 997, i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum += v;
            }
            black_box(sum)
        });
    });
}

fn bench_zipfian(c: &mut Criterion) {
    c.bench_function("zipfian/next", |b| {
        let z = Zipfian::new(1_000_000);
        let mut rng = SimRng::new(2);
        b.iter(|| black_box(z.next(&mut rng)));
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("histogram/record", |b| {
        let mut h = Histogram::new();
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(black_box(v % 10_000_000));
        });
    });
}

fn bench_memtable(c: &mut Criterion) {
    c.bench_function("memtable/insert", |b| {
        let mut m = Memtable::new();
        let mut i = 0u64;
        let value = bytes::Bytes::from(vec![7u8; 100]);
        b.iter(|| {
            i += 1;
            m.insert(key(i % 100_000), Cell::live(value.clone(), i));
        });
    });
}

fn bench_sstable_get(c: &mut Criterion) {
    let entries: Vec<_> = (0..100_000u64)
        .map(|i| (key(i), Cell::live(bytes::Bytes::from_static(b"v"), i)))
        .collect();
    let table = SsTable::build(TableId(1), entries, 8 * 1024);
    c.bench_function("sstable/get_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 100_000;
            black_box(table.get(&key(i)))
        });
    });
    c.bench_function("sstable/get_bloom_miss", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(table.get(format!("ghost{i}").as_bytes()))
        });
    });
}

fn bench_bloom(c: &mut Criterion) {
    let mut f = BloomFilter::with_capacity(100_000, 10);
    for i in 0..100_000u64 {
        f.insert(&key(i));
    }
    c.bench_function("bloom/may_contain", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(f.may_contain(&key(i % 200_000)))
        });
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("block_cache/get_insert", |b| {
        let mut cache = BlockCache::new(1 << 20);
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let k = BlockKey {
                table: TableId(u64::from(i % 7)),
                block: i % 300,
            };
            if cache.get(k).is_none() {
                cache.insert(k, 4_096);
            }
        });
    });
}

fn bench_lsm_read_path(c: &mut Criterion) {
    let mut tree = LsmTree::new(LsmConfig::default());
    for i in 0..50_000u64 {
        tree.put(key(i), Cell::live(bytes::Bytes::from(vec![1u8; 100]), i));
        if i % 10_000 == 9_999 {
            tree.flush();
        }
    }
    c.bench_function("lsm/get", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 50_000;
            black_box(tree.get(&key(i)).cell.is_some())
        });
    });
    c.bench_function("lsm/scan_50", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 104_729) % 40_000;
            black_box(tree.scan(&key(i), 50).rows.len())
        });
    });
}

fn bench_lsm_scan_short_range(c: &mut Criterion) {
    // The shape YCSB-E produces on a loaded node: one compacted run, a
    // part-filled memtable of fresh inserts interleaved with it, and scan
    // lengths uniform in 1..=100.
    let mut tree = LsmTree::new(LsmConfig {
        cache_bytes: 16 << 20,
        ..LsmConfig::default()
    });
    let value = bytes::Bytes::from(vec![1u8; 100]);
    for i in 0..40_000u64 {
        tree.put(key(i * 2), Cell::live(value.clone(), i));
    }
    tree.flush();
    tree.warm_cache();
    for i in 0..2_000u64 {
        tree.put(key(i * 40 + 1), Cell::live(value.clone(), 50_000 + i));
    }
    c.bench_function("lsm/scan_short_range", |b| {
        let mut rng = SimRng::new(3);
        b.iter(|| {
            let start = rng.next_u64() % 80_000;
            let limit = 1 + (rng.next_u64() % 100) as usize;
            black_box(tree.scan(&key(start), limit).rows.len())
        });
    });
}

fn bench_merge_entries_owned(c: &mut Criterion) {
    // Range-read reconciliation at the coordinator: one replica's page at
    // CL ONE (handed back as is), three agreeing replicas at ALL / repair.
    // The merge consumes its sources, so every iteration also pays for
    // cloning the pages (refcount bumps) it is about to hand over.
    use storage::merge::merge_entries;

    let value = bytes::Bytes::from(vec![7u8; 100]);
    let page: Vec<_> = (0..50u64)
        .map(|i| (key(i), Cell::live(value.clone(), i)))
        .collect();
    for replicas in [1usize, 3] {
        c.bench_function(&format!("merge/entries_owned_{replicas}"), |b| {
            b.iter(|| {
                let sources = vec![page.clone(); replicas];
                black_box(merge_entries(sources, false).len())
            });
        });
    }
}

fn bench_lsm_get_hot(c: &mut Criterion) {
    // Steady-state point read with the block cache warm: memtable miss →
    // bloom pass → cache hit, the zero-copy get path end to end.
    let mut tree = LsmTree::new(LsmConfig {
        cache_bytes: 16 << 20,
        ..LsmConfig::default()
    });
    for i in 0..50_000u64 {
        tree.put(key(i), Cell::live(bytes::Bytes::from(vec![1u8; 100]), i));
        if i % 10_000 == 9_999 {
            tree.flush();
        }
    }
    tree.flush();
    // Warm the hot set.
    for i in 0..512u64 {
        tree.get(&key(i));
    }
    c.bench_function("lsm/get_hot", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(7);
            black_box(tree.get(&key(i % 512)).cell.is_some())
        });
    });
}

fn bench_lsm_get_cold(c: &mut Criterion) {
    // Cache-starved point read: nearly every get fetches a block from
    // "disk" and churns the LRU.
    let mut tree = LsmTree::new(LsmConfig {
        cache_bytes: 8 << 10,
        ..LsmConfig::default()
    });
    for i in 0..50_000u64 {
        tree.put(key(i), Cell::live(bytes::Bytes::from(vec![1u8; 100]), i));
    }
    tree.flush();
    c.bench_function("lsm/get_cold", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(2_654_435_761);
            black_box(tree.get(&key(i % 50_000)).cell.is_some())
        });
    });
}

fn bench_compact_merge(c: &mut Criterion) {
    // The streaming k-way merge at compaction fan-ins from routine
    // (size-tiered minor) to worst-case (major over a wide tier).
    use storage::merge::merge_runs;
    use storage::Key;

    let value = bytes::Bytes::from(vec![7u8; 100]);
    for runs_n in [4usize, 16, 64] {
        let per_run = 32_768 / runs_n;
        let runs: Vec<Vec<(Key, Cell)>> = (0..runs_n)
            .map(|r| {
                (0..per_run)
                    .map(|i| {
                        let id = (i * 2 + (r & 1)) as u64;
                        (key(id), Cell::live(value.clone(), r as u64))
                    })
                    .collect()
            })
            .collect();
        let views: Vec<&[(Key, Cell)]> = runs.iter().map(Vec::as_slice).collect();
        c.bench_function(&format!("lsm/compact_merge_{runs_n}"), |b| {
            b.iter(|| black_box(merge_runs(&views, true).len()));
        });
    }
}

fn bench_snapshot_vs_reload(c: &mut Criterion) {
    // The sweep engine's economics: stamping a copy-on-write snapshot out
    // of a loaded base state vs rebuilding and bulk-loading from scratch,
    // as every experiment cell did before base states were shared.
    use bench_core::driver;
    use bench_core::setup::{build_cstore, Scale};
    use bench_core::store::SimStore;
    use cstore::Consistency;

    let scale = Scale::tiny();
    let mut base = build_cstore(&scale, 3, Consistency::One, Consistency::One);
    driver::load(&mut base, scale.records, scale.value_len, 42);

    c.bench_function("sweep/snapshot_clone", |b| {
        b.iter(|| black_box(base.snapshot()));
    });
    c.bench_function("sweep/full_build_and_load", |b| {
        b.iter(|| {
            let mut fresh = build_cstore(&scale, 3, Consistency::One, Consistency::One);
            driver::load(&mut fresh, scale.records, scale.value_len, 42);
            black_box(fresh)
        });
    });
}

criterion_group!(
    benches,
    bench_rng,
    bench_event_queue,
    bench_zipfian,
    bench_histogram,
    bench_memtable,
    bench_sstable_get,
    bench_bloom,
    bench_cache,
    bench_lsm_read_path,
    bench_lsm_scan_short_range,
    bench_merge_entries_owned,
    bench_lsm_get_hot,
    bench_lsm_get_cold,
    bench_compact_merge,
    bench_snapshot_vs_reload,
);
criterion_main!(benches);
