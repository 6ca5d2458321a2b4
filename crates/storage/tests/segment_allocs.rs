//! What building a segment allocates, counted by a global allocator (alone
//! in this test binary). A bulk load's queue and a flushed memtable each
//! become a segment in the same few allocations whatever their row count.
//! A segment whose keys are all 24 bytes wide holds at most 42.7 bytes of
//! heap a row — the key bytes, a 16-byte cell and at most 2.7 bytes of hash
//! tables — plus a constant; with keys of two widths, each row also holds a
//! `u32` offset: 46.7 bytes.

use bytes::counting::{tally, Counting};
use bytes::Bytes;
use storage::{Cell, LoadQueue, LsmConfig, LsmTree, Memtable, Segment};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: [usize; 2] = [10_000, 100_000];

/// Heap bytes a segment of 24-byte keys may hold per row.
const PER_ROW: usize = 24 + 16;

/// Heap bytes a segment of keys of two widths, at most 24 bytes, may hold
/// per row.
const PER_ROW_MIXED: usize = 24 + 4 + 16;

/// Heap bytes a segment may hold beyond its rows: its shared header.
const HEADER: usize = 128;

/// Heap bytes a segment of `n` rows may hold at `per_row` bytes a row, its
/// hash tables' 2.7 bytes a row and its header.
fn bound(per_row: usize, n: usize) -> usize {
    per_row * n + 27 * n / 10 + HEADER
}

/// Key `i` and its width: "user" and 20 digits of a scrambled `i`, built
/// on the stack so that making it allocates nothing. With `mixed`, every
/// seventh key drops its last digit.
fn key(i: usize, mixed: bool) -> ([u8; 24], usize) {
    let mut key = *b"user00000000000000000000";
    let mut v = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for digit in key[4..].iter_mut().rev() {
        *digit = b'0' + (v % 10) as u8;
        v /= 10;
    }
    (key, if mixed && i % 7 == 3 { 23 } else { 24 })
}

/// Queue `n` rows of one-byte values at every count in [`ROWS`] and build
/// their segments: the queue allocates no more than three buffers that
/// grow by doubling would, the segment holds at most `per_row` bytes a row
/// besides its tables, and the build takes as many allocations at every
/// count.
fn load_queue_builds(mixed: bool, per_row: usize) {
    let value = Bytes::from_static(b"v");
    let mut builds = Vec::new();
    for n in ROWS {
        let (queue, queued) = tally(|| {
            let mut queue = LoadQueue::default();
            for i in 0..n {
                let (key, width) = key(i, mixed);
                queue.push(&key[..width], Cell::live(value.clone(), 1));
            }
            queue
        });
        // Each buffer grown by doubling: no allocation per row.
        let doublings = (usize::BITS - (n * 24).leading_zeros()) as usize;
        assert!(queued.allocs <= 3 * doublings, "{n} rows: {queued:?}");
        let (segment, built) = tally(|| Segment::from_queue(queue, &mut []));
        assert_eq!(segment.len(), n);
        // The queue, and everything the build made but the segment, is
        // freed by now.
        let heap = queued.live_bytes + built.live_bytes;
        assert!(
            heap <= bound(per_row, n) as isize,
            "{n} rows hold {heap} bytes"
        );
        builds.push(built.allocs);
    }
    assert_eq!(builds[0], builds[1], "allocations to build {ROWS:?} rows");
}

/// Fill a memtable and a tree with `n` rows at every count in [`ROWS`]:
/// the drained segment holds at most `per_row` bytes a row besides its
/// tables, and the drain and the tree's whole flush take as many
/// allocations at every count.
fn flush_builds(mixed: bool, per_row: usize) {
    let value = Bytes::from_static(b"v");
    let (mut drains, mut flushes) = (Vec::new(), Vec::new());
    for n in ROWS {
        let mut memtable = Memtable::new();
        let mut tree = LsmTree::new(LsmConfig {
            memtable_flush_bytes: u64::MAX,
            ..LsmConfig::default()
        });
        for i in 0..n {
            let (key, width) = key(i, mixed);
            let key = Bytes::copy_from_slice(&key[..width]);
            memtable.insert(key.clone(), Cell::live(value.clone(), 1));
            tree.put(key, Cell::live(value.clone(), 1));
        }
        let (segment, drained) = tally(|| memtable.drain());
        assert_eq!(segment.len(), n);
        let heap = drained.alloc_bytes;
        assert!(heap <= bound(per_row, n), "{n} rows hold {heap} bytes");
        drains.push(drained.allocs);
        // The whole flush: the segment, the run's filter and block index.
        let (flushed, made) = tally(|| tree.flush());
        assert!(flushed.is_some());
        flushes.push(made.allocs);
    }
    assert_eq!(drains[0], drains[1], "allocations to drain {ROWS:?} rows");
    assert_eq!(flushes[0], flushes[1], "allocations to flush {ROWS:?} rows");
}

#[test]
fn a_load_queue_becomes_a_segment_in_a_fixed_number_of_allocations() {
    load_queue_builds(false, PER_ROW);
}

#[test]
fn a_flush_builds_its_segment_in_a_fixed_number_of_allocations() {
    flush_builds(false, PER_ROW);
}

#[test]
fn a_load_queue_of_two_key_widths_keeps_offsets_within_46_7_bytes_a_row() {
    load_queue_builds(true, PER_ROW_MIXED);
}

#[test]
fn a_flush_of_two_key_widths_keeps_offsets_within_46_7_bytes_a_row() {
    flush_builds(true, PER_ROW_MIXED);
}
