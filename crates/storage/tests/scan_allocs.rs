//! What a range scan and a reconcile allocate, counted by a global
//! allocator (alone in this test binary). A tree keeps its scan merge's
//! slot vector and a reconciler its own, so once warm, a scan of one piece
//! and the reconcile of pages that share one piece allocate nothing, and a
//! page of two to four pieces allocates one vector: its pieces'.

use bytes::counting::{tally, Counting, Tally};
use bytes::Bytes;
use storage::{Cell, LsmConfig, LsmTree, Reconciler, Rows};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Room for four 24-byte pieces: what a page's second piece allocates.
const PIECE_VECTOR: usize = 4 * 24;

fn key(i: usize) -> Bytes {
    Bytes::from(format!("user{i:04}").into_bytes())
}

/// A tree with rows `0..100` in one run, and a cache that holds them all.
fn tree() -> LsmTree {
    let mut tree = LsmTree::new(LsmConfig {
        block_size: 256,
        cache_bytes: 1 << 20,
        ..LsmConfig::default()
    });
    for i in 0..100 {
        tree.put(key(i), Cell::live(Bytes::from_static(b"value"), 1));
    }
    tree.flush();
    tree
}

/// What each of `scan`, `scan_page` and `scan_count` allocates for
/// `limit` rows from `start`, each after one warm-up walk, and the pieces
/// of the page.
fn walks(tree: &mut LsmTree, start: &[u8], limit: usize) -> ([Tally; 3], Rows) {
    tree.scan(start, limit);
    let (_, scan) = tally(|| tree.scan(start, limit));
    let (page, scan_page) = tally(|| tree.scan_page(start, limit));
    let (_, scan_count) = tally(|| tree.scan_count(start, limit, None));
    ([scan, scan_page, scan_count], page.rows)
}

#[test]
fn a_warm_scan_of_one_piece_allocates_nothing() {
    let mut tree = tree();
    let (tallies, page) = walks(&mut tree, &key(10), 10);
    assert_eq!(page.len(), 10);
    for t in tallies {
        assert_eq!((t.allocs, t.alloc_bytes), (0, 0), "{t:?}");
    }
    // With rows past the range in a second run and in the memtable, the
    // walk merges three sources and still takes one stretch of the first.
    for (i, flush) in [(300, true), (200, false)] {
        tree.put(key(i), Cell::live(Bytes::from_static(b"later"), 2));
        if flush {
            tree.flush();
        }
    }
    let (tallies, page) = walks(&mut tree, &key(10), 10);
    assert_eq!(page.len(), 10);
    for t in tallies {
        assert_eq!((t.allocs, t.alloc_bytes), (0, 0), "{t:?}");
    }
}

#[test]
fn a_warm_scan_of_two_to_four_pieces_allocates_its_piece_vector() {
    // Memtable rows interleave the run's: each is a piece of its own,
    // between stretches of the run.
    let mut tree = tree();
    for (newer, pieces) in [(&[15][..], 3), (&[12, 13], 4), (&[10], 2)] {
        for &i in newer {
            tree.put(key(i), Cell::live(Bytes::from_static(b"newer"), 2));
        }
        let (tallies, page) = walks(&mut tree, &key(10), 10);
        assert_eq!(page.len(), 10);
        let [scan, scan_page, scan_count] = tallies;
        for t in [scan, scan_page] {
            assert_eq!(
                (t.allocs, t.alloc_bytes),
                (1, PIECE_VECTOR),
                "{pieces} pieces: {t:?}"
            );
        }
        assert_eq!(scan_count.allocs, 0, "{scan_count:?}");
        tree.flush();
        tree.compact_all();
    }
}

#[test]
fn reconciling_pages_that_share_one_piece_allocates_nothing() {
    let mut tree = tree();
    let mut reconciler = Reconciler::default();
    for limit in [5, 10] {
        let mut pages = vec![
            tree.scan_page(&key(10), limit).rows,
            tree.scan_page(&key(10), limit).rows,
        ];
        let (warm, _) = reconciler.reconcile(&mut pages.clone(), limit);
        let ((merged, resume), t) = tally(|| reconciler.reconcile(&mut pages, limit));
        assert_eq!((t.allocs, t.alloc_bytes), (0, 0), "{t:?}");
        assert_eq!((merged.len(), resume), (limit, None));
        assert_eq!(merged, warm);
    }
}

#[test]
fn a_warm_tree_clones_as_a_cold_one_does() {
    // Point reads cache the blocks the scan reads, so the two clones copy
    // the same cache.
    let mut tree = tree();
    for i in 0..50 {
        tree.get(&key(i));
    }
    let (_, cold) = tally(|| tree.clone());
    tree.scan(&key(0), 50);
    let (_, warm) = tally(|| tree.clone());
    assert_eq!(warm, cold);
}
