//! What building a segment allocates, counted by a global allocator (alone
//! in this test binary). A bulk load's queue and a flushed memtable each
//! become a segment in the same few allocations whatever their row count,
//! and a segment of 24-byte keys holds at most 44 bytes of heap a row —
//! the key bytes, a `u32` offset and a 16-byte cell — plus a constant.

use bytes::counting::{tally, Counting, Tally};
use bytes::Bytes;
use storage::{Cell, LoadQueue, LsmConfig, LsmTree, Memtable, Segment};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: [usize; 2] = [10_000, 100_000];

/// Heap bytes a segment of 24-byte keys may hold per row.
const PER_ROW: usize = 24 + 4 + 16;

/// Heap bytes a segment may hold beyond its rows: its shared header.
const HEADER: usize = 128;

/// Key `i`: 24 bytes, "user" and 20 digits of a scrambled `i`, built on
/// the stack so that making it allocates nothing.
fn key(i: usize) -> [u8; 24] {
    let mut key = *b"user00000000000000000000";
    let mut v = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for digit in key[4..].iter_mut().rev() {
        *digit = b'0' + (v % 10) as u8;
        v /= 10;
    }
    key
}

/// Bytes allocated less bytes freed while `t` was counted: negative when
/// more was freed.
fn held(t: &Tally) -> isize {
    t.alloc_bytes as isize - t.dealloc_bytes as isize
}

#[test]
fn a_load_queue_becomes_a_segment_in_a_fixed_number_of_allocations() {
    let value = Bytes::from_static(b"v");
    let mut builds = Vec::new();
    for n in ROWS {
        let (queue, queued) = tally(|| {
            let mut queue = LoadQueue::default();
            for i in 0..n {
                queue.push(&key(i), Cell::live(value.clone(), 1));
            }
            queue
        });
        // Three buffers, each grown by doubling: no allocation per row.
        let doublings = (usize::BITS - (n * 24).leading_zeros()) as usize;
        assert!(queued.allocs <= 3 * doublings, "{n} rows: {queued:?}");
        let (segment, built) = tally(|| Segment::from_queue(queue, &mut []));
        assert_eq!(segment.len(), n);
        // The queue, and everything the build made but the segment, is
        // freed by now.
        let heap = held(&queued) + held(&built);
        assert!(
            heap <= (PER_ROW * n + HEADER) as isize,
            "{n} rows hold {heap} bytes"
        );
        builds.push(built.allocs);
    }
    assert_eq!(builds[0], builds[1], "allocations to build {ROWS:?} rows");
}

#[test]
fn a_flush_builds_its_segment_in_a_fixed_number_of_allocations() {
    let value = Bytes::from_static(b"v");
    let (mut drains, mut flushes) = (Vec::new(), Vec::new());
    for n in ROWS {
        let mut memtable = Memtable::new();
        let mut tree = LsmTree::new(LsmConfig {
            memtable_flush_bytes: u64::MAX,
            ..LsmConfig::default()
        });
        for i in 0..n {
            let key = Bytes::copy_from_slice(&key(i));
            memtable.insert(key.clone(), Cell::live(value.clone(), 1));
            tree.put(key, Cell::live(value.clone(), 1));
        }
        let (segment, drained) = tally(|| memtable.drain());
        assert_eq!(segment.len(), n);
        let heap = drained.alloc_bytes;
        assert!(heap <= PER_ROW * n + HEADER, "{n} rows hold {heap} bytes");
        drains.push(drained.allocs);
        // The whole flush: the segment, the run's filter and block index.
        let (flushed, made) = tally(|| tree.flush());
        assert!(flushed.is_some());
        flushes.push(made.allocs);
    }
    assert_eq!(drains[0], drains[1], "allocations to drain {ROWS:?} rows");
    assert_eq!(flushes[0], flushes[1], "allocations to flush {ROWS:?} rows");
}
