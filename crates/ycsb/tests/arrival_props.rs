//! Property tests for the open-loop arrival process: seed reproducibility
//! (the foundation of the driver's determinism contract) and basic rate
//! physics over the whole parameter space.

use proptest::prelude::*;
use simkit::SimRng;
use ycsb::{OpenLoop, Tenant};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Same seed → same interarrival sequence, for any rate. This is what
    /// makes open-loop runs replayable.
    #[test]
    fn poisson_draws_are_seed_reproducible(
        seed in any::<u64>(),
        rate in 1.0f64..1_000_000.0,
    ) {
        let ol = OpenLoop::poisson(rate);
        let draw = |seed: u64| {
            let mut rng = SimRng::new(seed);
            (0..256)
                .map(|_| ol.next_interarrival_us(&mut rng))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(draw(seed), draw(seed));
    }

    /// Gaps never stall the event queue (≥ 1 µs) and their empirical mean
    /// tracks 1/rate.
    #[test]
    fn gaps_are_positive_and_mean_tracks_rate(
        seed in any::<u64>(),
        rate in 100.0f64..100_000.0,
    ) {
        let ol = OpenLoop::poisson(rate);
        let mut rng = SimRng::new(seed);
        let n = 4_096u64;
        let mut total = 0u64;
        for _ in 0..n {
            let gap = ol.next_interarrival_us(&mut rng);
            prop_assert!(gap >= 1);
            total += gap;
        }
        let mean = total as f64 / n as f64;
        let expect = 1e6 / rate;
        // Wide bounds: ±25% absorbs sampling noise and the 1 µs floor's
        // truncation bias at high rates.
        prop_assert!(
            mean > expect * 0.75 && mean < expect * 1.25 + 1.0,
            "mean gap {} µs, expected ~{}", mean, expect
        );
    }

    /// Tenant selection is reproducible per seed and always in range.
    #[test]
    fn tenant_picks_are_seed_reproducible(
        seed in any::<u64>(),
        w0 in 0.1f64..10.0,
        w1 in 0.1f64..10.0,
    ) {
        let ol = OpenLoop {
            tenants: vec![
                Tenant { name: "a", weight: w0, priority: 0 },
                Tenant { name: "b", weight: w1, priority: 2 },
            ],
            ..OpenLoop::poisson(1_000.0)
        };
        let picks = |seed: u64| {
            let mut rng = SimRng::new(seed);
            (0..256).map(|_| ol.pick_tenant(&mut rng)).collect::<Vec<_>>()
        };
        let a = picks(seed);
        prop_assert!(a.iter().all(|&i| i < 2));
        prop_assert_eq!(a, picks(seed));
    }
}
