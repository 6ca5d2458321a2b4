//! Request-key distributions, mirroring YCSB's generator package.
//!
//! Every generator draws an item index in `[0, items)`. The zipfian
//! implementation follows Gray et al., *"Quickly generating billion-record
//! synthetic databases"* (the algorithm YCSB uses), with `theta = 0.99` and
//! incremental zeta extension so the item count can grow during a run.

use rand::Rng;

/// YCSB's zipfian skew constant.
pub(crate) const ZIPFIAN_CONSTANT: f64 = 0.99;

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
    pub fn new(items: u64) -> Self {
        assert!(items > 0, "zipfian needs at least one item");
        let theta = ZIPFIAN_CONSTANT;
        let zetan = Self::zeta_range(0, items, theta, 0.0);
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
    pub fn next<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
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

#[inline]
fn fnv_hash(v: u64) -> u64 {
    // FNV-1a over the 8 little-endian bytes, YCSB's scrambling hash.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
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
    pub fn next<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match self {
            Self::Uniform { items } => rng.gen_range(0..*items),
            Self::ScrambledZipfian(z) => fnv_hash(z.next(rng)) % z.items(),
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
    use simkit::SimRng;

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

    #[test]
    fn single_item_zipfian_works() {
        let z = Zipfian::new(1);
        let mut rng = SimRng::new(42);
        assert!((0..100).all(|_| z.next(&mut rng) == 0));
    }
}
