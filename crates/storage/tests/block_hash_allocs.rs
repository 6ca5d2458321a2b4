//! What a segment's hash tables allocate, counted by a global allocator
//! (alone in this test binary). The same 100k rows of 24-byte keys and
//! one-byte values (42 encoded bytes a row) are sorted into one segment
//! fed to its runs: one run or three, in blocks of 8 KB (196 rows), 512
//! bytes (13 rows), 128 bytes (4 rows) or 1 byte (one row). Each run's
//! block index and filter are allocated before the sort, so what the sort
//! allocates is the segment and its tables, whatever the block size.

use bytes::counting::{tally, Counting, Tally};
use bytes::Bytes;
use storage::{Cell, LoadQueue, LsmConfig, LsmTree, Segment};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: usize = 100_000;

/// Sort [`ROWS`] rows into one segment held by `holders` runs in blocks of
/// `block_size` bytes: what the sort allocated, every run's block count,
/// and what dropping the segment freed once the runs are gone.
fn load(holders: usize, block_size: u64) -> (Tally, Vec<usize>, Tally) {
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
    drop(trees);
    let ((), freed) = tally(|| drop(segment));
    (made, blocks, freed)
}

#[test]
fn a_segment_in_any_block_size_takes_one_allocation_for_its_tables_at_under_2_7_bytes_a_row() {
    let (one, blocks, freed) = load(1, 8 * 1024);
    assert_eq!(blocks, [ROWS.div_ceil(196)]);
    for (holders, block_size, rows_per_block) in [
        (3, 8 * 1024, 196),
        (1, 512, 13),
        (3, 512, 13),
        (1, 128, 4),
        (1, 1, 1),
    ] {
        let (made, blocks, other) = load(holders, block_size);
        assert_eq!(blocks, vec![ROWS.div_ceil(rows_per_block); holders]);
        // The sort allocates alike whatever its runs' blocks, and the
        // segment holds as much.
        assert_eq!(
            (made.allocs, made.alloc_bytes, made.live_bytes),
            (one.allocs, one.alloc_bytes, one.live_bytes),
            "{holders} runs of {block_size}-byte blocks"
        );
        assert_eq!(other, freed, "{holders} runs of {block_size}-byte blocks");
    }
    // The segment holds four buffers: its key bytes, its cells, its tables
    // (every chunk's first-key prefix and slots) and, freed last, the
    // shared header. The header holds two counts, the arena and a 16-byte
    // handle on the tables.
    assert_eq!(freed.deallocs, 4);
    let header = freed.dealloc_layout.expect("a free").size();
    assert!(header <= 16 + 80 + 16, "a {header}-byte header");
    let tables = freed.dealloc_bytes - (24 + 16) * ROWS - header;
    assert!(
        tables > 2 * ROWS && 10 * tables <= 27 * ROWS,
        "{tables} bytes of tables for {ROWS} rows"
    );
}
