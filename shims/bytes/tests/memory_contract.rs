//! The shim's memory contract, checked against a counting allocator: a
//! `Bytes` is one word, requests exactly what an `Arc<[u8]>` of the same
//! length requests, shares one allocation across clones on any thread, and
//! frees it exactly once, after its last handle.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::sync::{Arc, Barrier};

use bytes::counting::{tally, Counting, Tally};
use bytes::Bytes;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const LENGTHS: [usize; 8] = [0, 1, 7, 8, 9, 24, 100, 4096];

#[test]
fn a_handle_is_one_word_and_option_is_free() {
    assert_eq!(std::mem::size_of::<Bytes>(), std::mem::size_of::<usize>());
    assert_eq!(
        std::mem::size_of::<Option<Bytes>>(),
        std::mem::size_of::<usize>()
    );
}

#[test]
fn each_buffer_requests_what_an_arc_slice_of_its_length_requests() {
    for len in LENGTHS {
        let data: Vec<u8> = (0..len).map(|i| i as u8).collect();

        let (b, made) = tally(|| Bytes::copy_from_slice(&data));
        let (a, arc_made) = tally(|| Arc::<[u8]>::from(&data[..]));
        assert_eq!(made.allocs, 1, "len {len}");
        assert_eq!(made, arc_made, "copy_from_slice, len {len}");
        assert_eq!(&b[..], &a[..]);

        let ((), freed) = tally(|| drop(b));
        let ((), arc_freed) = tally(|| drop(a));
        assert_eq!(freed.deallocs, 1, "len {len}");
        assert_eq!(freed.dealloc_layout, made.alloc_layout, "len {len}");
        assert_eq!(freed, arc_freed, "drop, len {len}");

        // `From<Vec<u8>>` copies into a new allocation and frees the
        // vector's buffer, just as `Arc<[u8]>`'s does.
        let (v, w) = (data.clone(), data.clone());
        let (b, from_vec) = tally(|| Bytes::from(v));
        let (a, arc_from_vec) = tally(|| Arc::<[u8]>::from(w));
        assert_eq!(from_vec, arc_from_vec, "from(Vec), len {len}");
        assert_eq!(&b[..], &a[..]);
    }
}

#[test]
fn clones_on_four_threads_share_one_allocation_freed_once_after_the_last() {
    const THREADS: usize = 4;
    let (original, made) = tally(|| Bytes::copy_from_slice(b"one allocation, many handles"));
    assert_eq!(made.allocs, 1);

    let start = Barrier::new(THREADS);
    let workers: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let ((), t) = tally(|| {
                        for _ in 0..100_000 {
                            drop(black_box(original.clone()));
                        }
                    });
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a worker panicked"))
            .collect()
    });
    for t in &workers {
        assert_eq!((t.allocs, t.deallocs), (0, 0), "clone and drop on a worker");
    }
    assert_eq!(original, &b"one allocation, many handles"[..]);

    let ((), freed) = tally(|| drop(original));
    assert_eq!((freed.allocs, freed.deallocs), (0, 1));
    assert_eq!(freed.dealloc_layout, made.alloc_layout);
}

#[test]
fn hash_is_the_slice_hash() {
    fn hash_of(v: &(impl Hash + ?Sized)) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }
    for len in LENGTHS {
        let data = vec![0xa5u8; len];
        assert_eq!(hash_of(&Bytes::from(data.clone())), hash_of(&data[..]));
    }
}

#[test]
fn maps_keyed_by_bytes_look_up_by_slice() {
    let mut hashed: HashMap<Bytes, u32> = HashMap::new();
    let mut ordered: BTreeMap<Bytes, u32> = BTreeMap::new();
    for (i, k) in [&b"k1"[..], b"k2", b""].into_iter().enumerate() {
        hashed.insert(Bytes::copy_from_slice(k), i as u32);
        ordered.insert(Bytes::copy_from_slice(k), i as u32);
    }
    for (i, k) in [&b"k1"[..], b"k2", b""].into_iter().enumerate() {
        assert_eq!(hashed.get(k), Some(&(i as u32)));
        assert_eq!(ordered.get(k), Some(&(i as u32)));
    }
    assert_eq!(hashed.get(&b"k3"[..]), None);
    assert_eq!(ordered.get(&b"k3"[..]), None);
}

#[test]
fn every_constructor_of_equal_bytes_compares_equal() {
    let all = [
        Bytes::from(b"row-17".to_vec()),
        Bytes::from(String::from("row-17")),
        Bytes::from_static(b"row-17"),
        Bytes::copy_from_slice(b"row-17"),
        Bytes::from("row-17"),
        Bytes::from(&b"row-17"[..]),
    ];
    for b in &all {
        assert_eq!(b, &all[0]);
        assert_eq!(b.as_slice(), b"row-17");
    }
    assert_eq!(Bytes::new(), Bytes::from(Vec::new()));
    assert!(Bytes::default().is_empty());
}
