//! Property-based tests for generators, histograms, and pacing.

use std::collections::BTreeMap;

use bytes::Bytes;
use proptest::prelude::*;
use simkit::SimRng;
use ycsb::generator::{RequestDistribution, Zipfian};
use ycsb::{encode_key, Histogram, KeyInterner, OpMix, ReadCheck, StalenessTracker, Throttle};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Through a small interner, every returned key is its id's key, and a
    /// key someone still holds never changes: a miss rewrites the evicted
    /// buffer in place only when nothing else holds it. Each step keeps
    /// its key (`1`), keeps it and drops the oldest kept one (`2`), or
    /// drops it at once (`0`).
    #[test]
    fn interned_keys_are_right_and_held_keys_never_change(
        steps in prop::collection::vec((0u64..40, 0u8..3), 1..400),
    ) {
        let mut it = KeyInterner::new(8);
        let mut held: Vec<(u64, Bytes)> = Vec::new();
        for (id, action) in steps {
            let key = it.key(id);
            prop_assert_eq!(&key, &encode_key(id));
            if action > 0 {
                held.push((id, key));
            }
            if action == 2 {
                held.remove(0);
            }
            for (id, key) in &held {
                prop_assert_eq!(key, &encode_key(*id));
            }
        }
    }

    /// The tracker agrees with a map of per-id maxima: a watermark never
    /// falls, an id never written expects 0, and every read gets the
    /// model's verdict. A step is a write (`true`) of `id` at `ts`, or a
    /// read of `id` observing `ts` (or nothing, when `found` is false).
    #[test]
    fn staleness_tracker_matches_a_max_map(
        steps in prop::collection::vec((any::<bool>(), 0u64..16, 0u64..1_000, any::<bool>()), 1..300),
    ) {
        let mut tracker = StalenessTracker::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (write, id, ts, found) in steps {
            let before = tracker.expected(id);
            if write {
                tracker.write_acked(id, ts);
                let max = model.entry(id).or_insert(ts);
                *max = (*max).max(ts);
                prop_assert!(tracker.expected(id) >= before, "watermark fell");
            } else {
                let expected = model.get(&id).copied().unwrap_or(0);
                prop_assert_eq!(before, expected);
                let observed = found.then_some(ts);
                prop_assert_eq!(
                    tracker.check_read(before, observed),
                    ReadCheck {
                        stale: observed.unwrap_or(0) < expected,
                        missing: observed.is_none() && expected > 0,
                    }
                );
            }
            for unwritten in 16..20 {
                prop_assert_eq!(tracker.expected(unwritten), 0);
            }
        }
    }

    /// Every distribution stays within [0, items) for any seed and size.
    #[test]
    fn distributions_respect_bounds(items in 1u64..100_000, seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        for dist in [
            RequestDistribution::Uniform { items },
            RequestDistribution::ScrambledZipfian(Zipfian::new(items)),
            RequestDistribution::Latest(Zipfian::new(items)),
        ] {
            for _ in 0..200 {
                prop_assert!(dist.next(&mut rng) < items);
            }
        }
    }

    /// Incremental zeta extension equals a fresh computation.
    #[test]
    fn zipfian_incremental_zeta(start in 1u64..5_000, grow in 1u64..5_000) {
        let mut grown = Zipfian::new(start);
        grown.set_items(start + grow);
        let fresh = Zipfian::new(start + grow);
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        for _ in 0..100 {
            prop_assert_eq!(grown.next(&mut a), fresh.next(&mut b));
        }
    }

    /// Histogram quantiles are monotone, bounded by min/max, and count
    /// exactly what was recorded.
    #[test]
    fn histogram_quantile_invariants(values in prop::collection::vec(0u64..10_000_000, 1..500)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        prop_assert_eq!(h.min(), min);
        prop_assert_eq!(h.max(), max);
        let mut prev = 0;
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = h.quantile(q);
            prop_assert!(v >= prev, "quantiles must be monotone");
            prop_assert!(v <= max);
            prev = v;
        }
        // Bucketed quantile is within the histogram's relative error of the
        // exact value (exact below 128, ~1.6% above).
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let exact_p50 = sorted[(values.len() - 1) / 2];
        let approx = h.quantile(0.5) as f64;
        let tolerance = (exact_p50 as f64 * 0.02).max(1.0);
        prop_assert!(
            (approx - exact_p50 as f64).abs() <= tolerance + 1.0,
            "p50 {} vs exact {}", approx, exact_p50
        );
    }

    /// Histogram merge equals recording the union.
    #[test]
    fn histogram_merge_is_union(
        a in prop::collection::vec(0u64..1_000_000, 0..200),
        b in prop::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hu = Histogram::new();
        for &v in &a { ha.record(v); hu.record(v); }
        for &v in &b { hb.record(v); hu.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hu.count());
        prop_assert_eq!(ha.min(), hu.min());
        prop_assert_eq!(ha.max(), hu.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            prop_assert_eq!(ha.quantile(q), hu.quantile(q));
        }
    }

    /// Op-mix draws converge to the configured fractions.
    #[test]
    fn op_mix_frequencies(read in 0u32..100) {
        let read_frac = f64::from(read) / 100.0;
        let mix = OpMix {
            read: read_frac,
            update: 1.0 - read_frac,
            insert: 0.0,
            scan: 0.0,
            rmw: 0.0,
        };
        prop_assume!(mix.is_valid());
        let mut rng = SimRng::new(3);
        let n = 20_000;
        let reads = (0..n)
            .filter(|_| mix.choose(&mut rng) == storage::OpKind::Read)
            .count();
        let observed = reads as f64 / f64::from(n);
        prop_assert!((observed - read_frac).abs() < 0.02);
    }

    /// Throttled issue times never precede completion and keep the long-run
    /// rate at or below target.
    #[test]
    fn throttle_rate_bound(rate in 10.0f64..10_000.0, latency in 1u64..5_000) {
        let mut t = Throttle::per_thread(rate);
        let mut now = 0u64;
        let mut issues = 0u64;
        let horizon = 3_000_000; // 3 virtual seconds
        loop {
            let due = t.next_issue(now);
            prop_assert!(due >= now);
            if due > horizon {
                break;
            }
            now = due + latency;
            issues += 1;
        }
        let achieved = issues as f64 / 3.0;
        prop_assert!(achieved <= rate * 1.05 + 1.0, "rate {} > target {}", achieved, rate);
    }

    /// Key encoding is injective over the id space.
    #[test]
    fn key_encoding_injective(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        prop_assert_ne!(encode_key(a), encode_key(b));
    }
}
