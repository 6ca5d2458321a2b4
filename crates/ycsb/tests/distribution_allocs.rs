//! What building a request distribution allocates, counted by a global
//! allocator (alone in this test binary): nothing, whether the zipfian
//! memo is cold for the item count, already holds it, or has no free slot. A benchmark run
//! that builds the first generator of the process must allocate as much as
//! every later run.

use bytes::counting::{tally, Counting};
use ycsb::generator::{RequestDistribution, Zipfian};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn zipfian_distributions_allocate_nothing_cold_or_warm() {
    // Each item count's first build finds the memo cold, its second warm.
    for memo in ["cold", "warm"] {
        let (_, made) = tally(|| RequestDistribution::ScrambledZipfian(Zipfian::new(10_000)));
        assert_eq!(made.allocs, 0, "scrambled zipfian, {memo} memo");
    }
    for memo in ["cold", "warm"] {
        let (_, made) = tally(|| RequestDistribution::Latest(Zipfian::new(777)));
        assert_eq!(made.allocs, 0, "latest, {memo} memo");
    }
    // Fill the last slot, then build over a count that finds none free.
    for items in [3, 4] {
        let (_, made) = tally(|| RequestDistribution::Latest(Zipfian::new(items)));
        assert_eq!(made.allocs, 0, "latest over {items} items");
    }
}
