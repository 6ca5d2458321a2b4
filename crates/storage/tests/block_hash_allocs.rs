//! What a segment's hash tables allocate, counted by a global allocator
//! (alone in this test binary). The same 100k rows of 24-byte keys and
//! one-byte values (42 encoded bytes a row) are sorted into one segment
//! fed to its runs: one run or three in 8 KB blocks of 196 rows, which get
//! tables, or one run in blocks of 13 rows, which gets none. Each run's
//! block index and filter are allocated before the sort, so what the sort
//! allocates beyond the unhashed load is the tables alone.

use bytes::counting::{tally, Counting, Tally};
use bytes::Bytes;
use storage::{Cell, LoadQueue, LsmConfig, LsmTree, Segment};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: usize = 100_000;

/// Sort [`ROWS`] rows into one segment held by `holders` runs in blocks of
/// `block_size` bytes: what the sort allocated, with every run's block
/// count.
fn load(holders: usize, block_size: u64) -> (Tally, Vec<usize>) {
    let value = Bytes::from_static(b"v");
    let mut queue = LoadQueue::default();
    for i in 0..ROWS {
        let key = format!("user{:020}", (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        queue.push(key.as_bytes(), Cell::live(value.clone(), 1));
    }
    let bytes = queue.bytes();
    assert_eq!(bytes, 42 * ROWS as u64);
    let mut trees: Vec<LsmTree> = (0..holders)
        .map(|_| {
            LsmTree::new(LsmConfig {
                block_size,
                ..LsmConfig::default()
            })
        })
        .collect();
    let mut runs: Vec<_> = trees.iter().map(|t| t.load_builder(ROWS, bytes)).collect();
    let mut holders: Vec<_> = runs.iter_mut().collect();
    let (segment, made) = tally(|| Segment::from_queue(queue, &mut holders));
    let blocks = trees
        .iter_mut()
        .zip(runs)
        .map(|(tree, run)| {
            let id = tree.reserve_table_id();
            tree.load(id, run);
            assert!(tree.runs()[0].segments()[0].shares_storage_with(&segment));
            tree.runs()[0].block_count()
        })
        .collect();
    (made, blocks)
}

#[test]
fn a_segment_fills_its_tables_once_for_all_its_runs_at_under_2_7_bytes_a_row() {
    let (one, blocks) = load(1, 8 * 1024);
    let (three, three_blocks) = load(3, 8 * 1024);
    let (plain, plain_blocks) = load(1, 512);
    assert_eq!(blocks, [ROWS.div_ceil(196)]);
    assert_eq!(three_blocks, [ROWS.div_ceil(196); 3]);
    assert_eq!(plain_blocks, [ROWS.div_ceil(13)]);
    // One buffer of slots, however many runs hold the segment.
    assert_eq!(one.allocs, plain.allocs + 1);
    assert_eq!(
        (three.allocs, three.alloc_bytes),
        (one.allocs, one.alloc_bytes)
    );
    let tables = one.live_bytes - plain.live_bytes;
    assert_eq!(tables, three.live_bytes - plain.live_bytes);
    assert!(
        tables as usize > 2 * ROWS && 10 * tables as usize <= 27 * ROWS,
        "{tables} bytes of tables for {ROWS} rows"
    );
}

#[test]
fn a_segment_in_blocks_under_16_rows_allocates_nothing_for_tables() {
    let (small, blocks) = load(1, 512);
    let (three, _) = load(3, 512);
    let (tiny, tiny_blocks) = load(1, 128);
    assert_eq!(blocks, [ROWS.div_ceil(13)]);
    assert_eq!(tiny_blocks, [ROWS.div_ceil(4)]);
    for other in [three, tiny] {
        assert_eq!(
            (other.allocs, other.alloc_bytes, other.live_bytes),
            (small.allocs, small.alloc_bytes, small.live_bytes)
        );
    }
}
