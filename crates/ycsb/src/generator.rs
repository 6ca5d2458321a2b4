//! Request-key distributions, mirroring YCSB's generator package.
//!
//! Every generator draws an item index in `[0, items)`. The zipfian
//! implementation follows Gray et al., *"Quickly generating billion-record
//! synthetic databases"* (the algorithm YCSB uses), with `theta = 0.99` and
//! incremental zeta extension so the item count can grow during a run.

use std::sync::{Mutex, MutexGuard, PoisonError};

use simkit::{fnv1a, SimRng};

/// YCSB's zipfian skew constant.
pub(crate) const ZIPFIAN_CONSTANT: f64 = 0.99;

/// ζ(n) for the first item counts a [`Zipfian`] was built over, so a
/// process that runs many cells over one record count sums `n` powers
/// once, as YCSB's generator does. One slot per record count of a `Scale`
/// (stress 200k, micro 400k, tiny 2k), though a `fig` run builds zipfian
/// generators over stress's alone; a count that finds every slot taken is
/// summed every time. `(0, _)` is an empty slot (a generator has at least
/// one item). Fixed slots, so looking up and filling it never allocates: a
/// run that builds the first generator allocates as much as every later
/// one.
struct ZetaMemo {
    slots: [(u64, f64); 3],
}

static ZETA_MEMO: Mutex<ZetaMemo> = Mutex::new(ZetaMemo::EMPTY);

impl ZetaMemo {
    const EMPTY: Self = Self {
        slots: [(0, 0.0); 3],
    };

    fn get(&self, items: u64) -> Option<f64> {
        self.slots
            .iter()
            .find(|(n, _)| *n == items)
            .map(|&(_, z)| z)
    }

    /// Remember `zeta` for `items` in a free slot, unless another thread
    /// already has.
    fn insert(&mut self, items: u64, zeta: f64) {
        if self.get(items).is_none() {
            if let Some(slot) = self.slots.iter_mut().find(|(n, _)| *n == 0) {
                *slot = (items, zeta);
            }
        }
    }
}

/// `memo`, also after a panic elsewhere while it was held: every update is
/// one slot write, so it is never torn.
fn lock(memo: &Mutex<ZetaMemo>) -> MutexGuard<'_, ZetaMemo> {
    memo.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A zipfian generator over `items` elements: item 0 is the most popular.
#[derive(Debug, Clone)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    zeta2: f64,
    eta: f64,
    /// `1 + 0.5^theta`: a draw whose `u * zetan` falls in `[1, this)` is
    /// item 1. Fixed with theta, so computed once.
    item_one_bound: f64,
}

impl Zipfian {
    /// Create a generator over `items` elements with the YCSB constant.
    /// ζ(`items`) comes from a process-wide memo when a generator over as
    /// many items was built before; it is the same value either way.
    pub fn new(items: u64) -> Self {
        Self::new_in(&ZETA_MEMO, items)
    }

    /// [`Zipfian::new`] with ζ(`items`) memoized in `memo`.
    fn new_in(memo: &Mutex<ZetaMemo>, items: u64) -> Self {
        assert!(items > 0, "zipfian needs at least one item");
        // Its own statement, so the guard drops before the sum: the sum runs
        // unlocked and the insert takes the lock afresh.
        let memoized = lock(memo).get(items);
        let zetan = memoized.unwrap_or_else(|| {
            let zetan = Self::zeta_range(0, items, ZIPFIAN_CONSTANT, 0.0);
            lock(memo).insert(items, zetan);
            zetan
        });
        Self::with_zetan(items, zetan)
    }

    /// A generator over `items` elements whose ζ(`items`) is `zetan`.
    fn with_zetan(items: u64, zetan: f64) -> Self {
        let theta = ZIPFIAN_CONSTANT;
        let zeta2 = Self::zeta_range(0, 2.min(items), theta, 0.0);
        let mut z = Self {
            items,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            zeta2,
            eta: 0.0,
            item_one_bound: 1.0 + 0.5f64.powf(theta),
        };
        z.recompute_eta();
        z
    }

    fn zeta_range(from: u64, to: u64, theta: f64, base: f64) -> f64 {
        let mut sum = base;
        for i in from..to {
            sum += 1.0 / ((i + 1) as f64).powf(theta);
        }
        sum
    }

    fn recompute_eta(&mut self) {
        let n = self.items as f64;
        self.eta = (1.0 - (2.0 / n).powf(1.0 - self.theta)) / (1.0 - self.zeta2 / self.zetan);
    }

    /// Current item count.
    pub(crate) fn items(&self) -> u64 {
        self.items
    }

    /// Grow the item count (zeta is extended incrementally, O(delta)).
    pub fn set_items(&mut self, items: u64) {
        if items <= self.items {
            return;
        }
        self.zetan = Self::zeta_range(self.items, items, self.theta, self.zetan);
        if self.items < 2 && items >= 2 {
            // zeta(2) was truncated while only one item existed.
            self.zeta2 = Self::zeta_range(0, 2, self.theta, 0.0);
        }
        self.items = items;
        self.recompute_eta();
    }

    /// Draw an item index in `[0, items)`.
    pub fn next(&self, rng: &mut SimRng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if self.items >= 2 && uz < self.item_one_bound {
            return 1;
        }
        let v = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.items - 1)
    }
}

/// The request distributions available to workloads.
#[derive(Debug, Clone)]
pub enum RequestDistribution {
    /// Uniform over all items.
    Uniform {
        /// Item count.
        items: u64,
    },
    /// Zipfian popularity scattered over the key space (YCSB's default for
    /// workloads A/B/C/E/F: the popular items are spread out).
    ScrambledZipfian(Zipfian),
    /// Skewed toward the most recently inserted items (YCSB workload D and
    /// the paper's *read latest*).
    Latest(Zipfian),
}

impl RequestDistribution {
    /// Draw an item index in `[0, items)`.
    pub fn next(&self, rng: &mut SimRng) -> u64 {
        match self {
            Self::Uniform { items } => rng.below(*items),
            // FNV-1a over the 8 little-endian bytes, YCSB's scrambling
            // hash.
            Self::ScrambledZipfian(z) => fnv1a(&z.next(rng).to_le_bytes(), 0) % z.items(),
            Self::Latest(z) => {
                let n = z.items();
                n - 1 - z.next(rng)
            }
        }
    }

    /// Grow the item count (inserts during a run).
    pub fn set_items(&mut self, n: u64) {
        match self {
            Self::Uniform { items } => *items = (*items).max(n),
            Self::ScrambledZipfian(z) | Self::Latest(z) => z.set_items(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(dist: &RequestDistribution, n: usize) -> Vec<u64> {
        let mut rng = SimRng::new(42);
        (0..n).map(|_| dist.next(&mut rng)).collect()
    }

    #[test]
    fn all_distributions_respect_bounds() {
        let n = 1000;
        for dist in [
            RequestDistribution::Uniform { items: n },
            RequestDistribution::ScrambledZipfian(Zipfian::new(n)),
            RequestDistribution::Latest(Zipfian::new(n)),
        ] {
            for v in draws(&dist, 20_000) {
                assert!(v < n, "{dist:?} produced out-of-range {v}");
            }
        }
    }

    #[test]
    fn zipfian_is_skewed_toward_zero() {
        let z = Zipfian::new(10_000);
        let mut rng = SimRng::new(42);
        let values: Vec<u64> = (0..100_000).map(|_| z.next(&mut rng)).collect();
        let zero = values.iter().filter(|&&v| v == 0).count() as f64 / 100_000.0;
        // Item 0 should take several percent of draws under theta=0.99.
        assert!(zero > 0.03, "item-0 share too small: {zero}");
        let top10 = values.iter().filter(|&&v| v < 10).count() as f64 / 100_000.0;
        assert!(top10 > 0.2, "top-10 share too small: {top10}");
    }

    #[test]
    fn uniform_is_flat() {
        let dist = RequestDistribution::Uniform { items: 10 };
        let values = draws(&dist, 100_000);
        for bucket in 0..10u64 {
            let share = values.iter().filter(|&&v| v == bucket).count() as f64 / 100_000.0;
            assert!((share - 0.1).abs() < 0.01, "bucket {bucket} share {share}");
        }
    }

    #[test]
    fn latest_favors_newest_items() {
        let dist = RequestDistribution::Latest(Zipfian::new(1000));
        let values = draws(&dist, 50_000);
        let newest = values.iter().filter(|&&v| v >= 990).count() as f64 / 50_000.0;
        assert!(newest > 0.3, "newest-10 share too small: {newest}");
    }

    #[test]
    fn scrambled_zipfian_spreads_popularity() {
        let dist = RequestDistribution::ScrambledZipfian(Zipfian::new(1000));
        let values = draws(&dist, 50_000);
        // Still skewed (some item is hot)...
        let mut counts = vec![0u32; 1000];
        for v in &values {
            counts[*v as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64 / 50_000.0;
        assert!(max > 0.02, "no hot item after scrambling: {max}");
        // ...but the hottest item is no longer item 0 specifically (with
        // overwhelming probability under this seed).
        let hottest = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .unwrap()
            .0;
        assert_ne!(hottest, 0);
    }

    #[test]
    fn growing_items_extends_range() {
        let mut dist = RequestDistribution::Latest(Zipfian::new(100));
        dist.set_items(200);
        assert!(matches!(&dist, RequestDistribution::Latest(z) if z.items() == 200));
        let mut rng = SimRng::new(1);
        let saw_new = (0..10_000).any(|_| dist.next(&mut rng) >= 100);
        assert!(saw_new, "latest never reached the newly inserted items");
    }

    #[test]
    fn incremental_zeta_matches_fresh_computation() {
        let mut grown = Zipfian::new(100);
        grown.set_items(1000);
        let fresh = Zipfian::new(1000);
        assert!((grown.zetan - fresh.zetan).abs() < 1e-9);
        assert!((grown.eta - fresh.eta).abs() < 1e-9);
    }

    #[test]
    fn shrinking_items_is_a_no_op() {
        let mut z = Zipfian::new(100);
        let zetan = z.zetan;
        z.set_items(50);
        assert_eq!(z.items(), 100);
        assert_eq!(z.zetan, zetan);
    }

    /// `z`'s fields and first 10k draws equal those of a generator over as
    /// many items whose ζ was summed here, bit for bit.
    fn assert_same_as_summed(z: &Zipfian) {
        let items = z.items;
        let summed =
            Zipfian::with_zetan(items, Zipfian::zeta_range(0, items, ZIPFIAN_CONSTANT, 0.0));
        assert_eq!(
            z.zetan.to_bits(),
            summed.zetan.to_bits(),
            "zetan over {items}"
        );
        assert_eq!(z.eta.to_bits(), summed.eta.to_bits(), "eta over {items}");
        let (mut a, mut b) = (SimRng::new(7), SimRng::new(7));
        for i in 0..10_000 {
            assert_eq!(z.next(&mut a), summed.next(&mut b), "draw {i} over {items}");
        }
    }

    #[test]
    fn memoized_zeta_is_bit_identical_cold_warm_and_across_threads() {
        // A memo of this test's own, so no other test's generators fill or
        // read it.
        let memo = Mutex::new(ZetaMemo::EMPTY);
        let (here, there) = (54_321, 65_432);
        assert_eq!(lock(&memo).get(here), None);
        let cold = Zipfian::new_in(&memo, here);
        assert_eq!(lock(&memo).get(here), Some(cold.zetan));
        assert_same_as_summed(&cold);
        assert_same_as_summed(&Zipfian::new_in(&memo, here)); // warm

        std::thread::scope(|s| {
            s.spawn(|| Zipfian::new_in(&memo, there))
                .join()
                .expect("the other thread builds its generator");
        });
        assert!(lock(&memo).get(there).is_some());
        assert_same_as_summed(&Zipfian::new_in(&memo, there));

        // The process-wide memo, whatever other tests left in it.
        assert_same_as_summed(&Zipfian::new(here));
        assert_same_as_summed(&Zipfian::new(here));
    }

    #[test]
    fn the_memo_keeps_the_first_three_item_counts() {
        let mut memo = ZetaMemo::EMPTY;
        for n in 1..=5 {
            memo.insert(n, n as f64);
            memo.insert(n, -1.0); // already held: kept as it was
        }
        assert!((1..=3).all(|n| memo.get(n) == Some(n as f64)));
        assert_eq!(memo.get(4), None);
        assert_eq!(memo.get(5), None);
    }

    #[test]
    fn single_item_zipfian_works() {
        let z = Zipfian::new(1);
        let mut rng = SimRng::new(42);
        assert!((0..100).all(|_| z.next(&mut rng) == 0));
    }
}
