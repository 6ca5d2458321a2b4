//! What a `KeyInterner` miss allocates, counted by a global allocator
//! (alone in this test binary): nothing when the evicted key is held by
//! nothing else, so its buffer is rewritten in place, and exactly one
//! buffer when the evicted key is still held elsewhere.

use bytes::counting::{tally, Counting};
use ycsb::{encode_key, KeyInterner};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_miss_allocates_only_when_the_victim_is_shared() {
    // Four slots: ids 0, 4, 8 and 12 all map to slot 0.
    let mut it = KeyInterner::new(4);
    // Warm-up: the first key of an empty slot allocates its buffer.
    let (first, made) = tally(|| it.key(0));
    assert_eq!(made.allocs, 1, "filling an empty slot");
    drop(first);

    // A hit allocates nothing.
    let (hit, made) = tally(|| it.key(0));
    assert_eq!((hit, made.allocs), (encode_key(0), 0));

    // The victim (id 0) is held by nothing else: rewritten in place.
    let (unique, made) = tally(|| it.key(4));
    assert_eq!(made.allocs, 0, "a miss with a unique victim");
    assert_eq!(made.deallocs, 0);
    assert_eq!(unique, encode_key(4));

    // `unique` still holds id 4's key, so evicting it must allocate a new
    // buffer for id 8 and leave the held one as it was.
    let (shared, made) = tally(|| it.key(8));
    assert_eq!(made.allocs, 1, "a miss with a shared victim");
    assert_eq!(made.deallocs, 0);
    assert_eq!(shared, encode_key(8));
    assert_eq!(unique, encode_key(4));

    // Once the last outside handle goes, the slot's buffer is reused again.
    drop(shared);
    let (reused, made) = tally(|| it.key(12));
    assert_eq!(made.allocs, 0, "a miss after the holder dropped its key");
    assert_eq!(reused, encode_key(12));
}
