//! What the write path allocates, counted by a global allocator (alone in
//! this test binary). The commit log keeps no record of a write, and a sync
//! copies nothing: overwriting held keys allocates nothing, a sync
//! allocates nothing, and the first overwrite of each key after a sync
//! saves its synced version into one list grown by doubling.

use bytes::counting::{tally, Counting};
use bytes::Bytes;
use storage::{Cell, LsmConfig, LsmTree};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const KEYS: [usize; 2] = [1_000, 100_000];

/// Key `i`: 24 bytes, "user" and 20 digits of a scrambled `i`.
fn key(i: usize) -> Bytes {
    let mut key = *b"user00000000000000000000";
    let mut v = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for digit in key[4..].iter_mut().rev() {
        *digit = b'0' + (v % 10) as u8;
        v /= 10;
    }
    Bytes::copy_from_slice(&key)
}

/// A tree that never flushes on its own, holding `keys` at timestamp 1.
fn tree_holding(keys: &[Bytes], value: &Bytes) -> LsmTree {
    let mut tree = LsmTree::new(LsmConfig {
        memtable_flush_bytes: u64::MAX,
        ..LsmConfig::default()
    });
    for k in keys {
        tree.put(k.clone(), Cell::live(value.clone(), 1));
    }
    tree
}

/// Overwrite every key in `keys` at timestamp `ts`.
fn overwrite(tree: &mut LsmTree, keys: &[Bytes], value: &Bytes, ts: u64) {
    for k in keys {
        tree.put(k.clone(), Cell::live(value.clone(), ts));
    }
}

#[test]
fn overwrites_and_syncs_allocate_nothing() {
    let value = Bytes::from_static(b"v");
    for n in KEYS {
        let keys: Vec<Bytes> = (0..n).map(key).collect();
        let mut tree = tree_holding(&keys, &value);
        let ((), overwrote) = tally(|| overwrite(&mut tree, &keys, &value, 2));
        assert_eq!(overwrote.alloc_bytes, 0, "{n} overwrites: {overwrote:?}");
        let (synced, sync) = tally(|| tree.sync_wal());
        assert!(synced > 0);
        assert_eq!(sync.alloc_bytes, 0, "a sync of {n} keys: {sync:?}");
    }
}

#[test]
fn the_first_overwrites_after_a_sync_allocate_logarithmically() {
    let value = Bytes::from_static(b"v");
    for n in KEYS {
        let keys: Vec<Bytes> = (0..n).map(key).collect();
        let mut tree = tree_holding(&keys, &value);
        tree.sync_wal();
        let ((), overwrote) = tally(|| overwrite(&mut tree, &keys, &value, 2));
        let doublings = (usize::BITS - n.leading_zeros()) as usize;
        assert!(
            overwrote.allocs <= doublings,
            "{n} overwrites: {overwrote:?}"
        );
        // A second round changes the same slots again: nothing more to save.
        let ((), again) = tally(|| overwrite(&mut tree, &keys, &value, 3));
        assert_eq!(again.alloc_bytes, 0, "{n} overwrites: {again:?}");
    }
}
