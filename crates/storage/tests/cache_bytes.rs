//! What the block cache holds, counted by a global allocator (alone in
//! this test binary). A cache with N resident blocks over runs of M blocks
//! in all is 24 bytes a resident block (its LRU node) and 4 a block of
//! every run (the run's slot), plus 32 bytes a run (its table id and slot
//! vector). Measured on a clone, which allocates exactly what it holds and
//! is what every snapshot of a store copies: one allocation per run, and
//! two more for the run list and the nodes, whatever N and M are.

use bytes::counting::{tally, Counting};
use storage::cache::BlockKey;
use storage::{BlockCache, TableId};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap bytes a cache may hold per resident block.
const PER_BLOCK: usize = 24;

/// Heap bytes a cache may hold per block of a run it indexes.
const PER_SLOT: usize = 4;

/// Heap bytes a cache may hold per run it indexes.
const PER_RUN: usize = 32;

/// Every block's size.
const BLOCK: u64 = 4096;

/// A cache of room for `resident` blocks after every block of `runs` runs
/// of `blocks` blocks each was inserted in order, every third of the last
/// `resident` read back as it went.
fn filled(runs: u64, blocks: u32, resident: usize) -> BlockCache {
    let mut cache = BlockCache::new(resident as u64 * BLOCK);
    for table in 1..=runs {
        for block in 0..blocks {
            let key = BlockKey {
                table: TableId(table),
                block,
            };
            cache.insert(key, BLOCK);
            if block % 3 == 0 {
                cache.get(key);
            }
        }
    }
    cache
}

/// The heap a cache of `resident` blocks over `slots` blocks of `runs`
/// runs may hold.
fn bound(resident: usize, slots: usize, runs: usize) -> usize {
    PER_BLOCK * resident + PER_SLOT * slots + PER_RUN * runs
}

#[test]
fn a_cache_holds_24_bytes_a_resident_block_and_4_a_block_of_its_runs() {
    let mut clones = Vec::new();
    let shapes = [
        (1, 2_000, 1_000),
        (3, 50_000, 75_000),
        (3, 500, 900),
        (4, 40_000, 900),
    ];
    for (runs, blocks, resident) in shapes {
        let cache = filled(runs, blocks, resident);
        let slots = runs as usize * blocks as usize;
        let (copy, made) = tally(|| cache.clone());
        let heap = made.alloc_bytes;
        assert!(
            heap <= bound(resident, slots, runs as usize),
            "{resident} resident of {slots} blocks in {runs} runs: {heap} bytes, {:.1} a resident block",
            heap as f64 / resident as f64
        );
        assert_eq!(copy.stats(), cache.stats());
        assert!(made.allocs <= runs as usize + 2, "{runs} runs: {made:?}");
        clones.push(made.allocs);
    }
    // Three runs of 150 000 blocks or of 1 500: the same allocations.
    assert_eq!(clones[1], clones[2], "{clones:?}");
}

#[test]
fn invalidating_a_run_frees_its_slots_and_clearing_frees_its_blocks() {
    let (runs, blocks, resident) = (3, 20_000, 6_000);
    let mut cache = filled(runs, blocks, resident);
    // The last 6 000 blocks inserted are all of run 3's: dropping run 2
    // evicts nothing and frees its slots.
    cache.invalidate_table(TableId(2));
    let (_, made) = tally(|| cache.clone());
    let slots = 2 * blocks as usize;
    assert!(made.alloc_bytes <= bound(resident, slots, 2), "{made:?}");
    // A cleared cache keeps its runs' slots and holds no node.
    cache.clear();
    let (_, made) = tally(|| cache.clone());
    assert!(made.alloc_bytes <= bound(0, slots, 2), "{made:?}");
}
