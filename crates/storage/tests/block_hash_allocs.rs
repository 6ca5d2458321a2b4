//! What a run's block hash tables allocate, counted by a global allocator
//! (alone in this test binary). The same 100k rows of 24-byte keys and
//! one-byte values (42 encoded bytes a row) are loaded as one run in 8 KB
//! blocks of 196 rows, which get tables, and in blocks of 13 and of 391
//! rows, which get none. The loads differ only in their block count and
//! their tables, so what the tables hold is the difference of the live
//! bytes less the difference of the per-block buffers.

use bytes::counting::{tally, Counting, Tally};
use bytes::Bytes;
use storage::{Cell, LoadQueue, LsmConfig, LsmTree, Segment};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: usize = 100_000;

/// Load [`ROWS`] rows as one run in blocks of `block_size` bytes: what the
/// load allocated, and the run's block count.
fn load(block_size: u64) -> (Tally, usize) {
    let value = Bytes::from_static(b"v");
    let mut queue = LoadQueue::default();
    for i in 0..ROWS {
        let key = format!("user{:020}", (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        queue.push(key.as_bytes(), Cell::live(value.clone(), 1));
    }
    let mut tree = LsmTree::new(LsmConfig {
        block_size,
        ..LsmConfig::default()
    });
    let bytes = queue.bytes();
    assert_eq!(bytes, 42 * ROWS as u64);
    let ((), made) = tally(|| {
        let mut run = tree.load_builder(ROWS, bytes);
        Segment::from_queue(queue, &mut [&mut run]);
        let id = tree.reserve_table_id();
        tree.load(id, run);
    });
    (made, tree.runs()[0].block_count())
}

/// Heap bytes of a run's per-block buffers in blocks of `block_size`
/// bytes, `blocks` of them: the block index, reserved for every block the
/// run's bytes could fill (a start, a 16-byte prefix and a byte count per
/// block, and a prefix per 64 blocks), and the block cache's slot per
/// block.
fn per_block_bytes(block_size: u64, blocks: usize) -> isize {
    let reserved = (42 * ROWS as u64 / block_size) as usize + 1;
    (reserved * (4 + 16 + 8) + (reserved / 64 + 1) * 16 + blocks * 4) as isize
}

#[test]
fn tables_take_at_most_one_and_a_half_bytes_a_row_in_196_row_blocks() {
    let (hashed, blocks) = load(8 * 1024);
    let (plain, plain_blocks) = load(16 * 1024);
    assert_eq!(blocks, ROWS.div_ceil(196));
    assert_eq!(plain_blocks, ROWS.div_ceil(391));
    // A box, the table starts and the slots.
    assert_eq!(hashed.allocs, plain.allocs + 3);
    let tables = hashed.live_bytes
        - plain.live_bytes
        - (per_block_bytes(8 * 1024, blocks) - per_block_bytes(16 * 1024, plain_blocks));
    assert!(
        tables as usize > ROWS && 2 * tables as usize <= 3 * ROWS,
        "{tables} bytes of tables for {ROWS} rows"
    );
}

#[test]
fn a_run_of_blocks_under_16_rows_allocates_nothing_for_tables() {
    let (small, blocks) = load(512);
    let (plain, plain_blocks) = load(16 * 1024);
    assert_eq!(blocks, ROWS.div_ceil(13));
    assert_eq!(small.allocs, plain.allocs);
    assert_eq!(
        small.live_bytes - plain.live_bytes,
        per_block_bytes(512, blocks) - per_block_bytes(16 * 1024, plain_blocks)
    );
}
