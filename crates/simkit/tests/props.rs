//! Property-based tests for the simulation kernel's invariants.

use proptest::prelude::*;
use simkit::{EventQueue, FifoResource, MultiServer, SimRng, Topology};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Events always pop in non-decreasing time order, with FIFO tie-break.
    #[test]
    fn event_queue_is_time_ordered(times in prop::collection::vec(0u64..10_000, 0..500)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut last_time = 0;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut last_t = None;
        while let Some((t, idx)) = q.pop() {
            prop_assert!(t >= last_time);
            if last_t == Some(t) {
                // Ties preserve insertion order.
                prop_assert!(seen_at_time.last().is_none_or(|&p| p < idx));
            } else {
                seen_at_time.clear();
            }
            seen_at_time.push(idx);
            last_t = Some(t);
            last_time = t;
        }
    }

    /// A FIFO resource never overlaps service periods and never serves
    /// before arrival.
    #[test]
    fn fifo_resource_is_work_conserving(
        jobs in prop::collection::vec((0u64..1_000, 1u64..50), 1..200)
    ) {
        let mut sorted = jobs.clone();
        sorted.sort();
        let mut r = FifoResource::new();
        let mut prev_done = 0;
        let mut total_service = 0;
        for (arrive, service) in sorted {
            let done = r.acquire(arrive, service);
            prop_assert!(done >= arrive + service, "served before arrival");
            prop_assert!(done >= prev_done + service, "overlapping service");
            prev_done = done;
            total_service += service;
        }
        prop_assert_eq!(r.busy_us(), total_service);
    }

    /// A k-server resource is never worse than a single server and never
    /// better than k ideal servers.
    #[test]
    fn multiserver_bounded_by_ideal(
        jobs in prop::collection::vec((0u64..500, 1u64..40), 1..120),
        servers in 1u32..8,
    ) {
        let mut sorted = jobs.clone();
        sorted.sort();
        let mut multi = MultiServer::new(servers);
        let mut single = FifoResource::new();
        let mut makespan_multi = 0;
        let mut makespan_single = 0;
        for &(arrive, service) in &sorted {
            makespan_multi = makespan_multi.max(multi.acquire(arrive, service));
            makespan_single = makespan_single.max(single.acquire(arrive, service));
        }
        prop_assert!(makespan_multi <= makespan_single);
        // Lower bound: total work / k.
        let total: u64 = sorted.iter().map(|&(_, s)| s).sum();
        prop_assert!(makespan_multi >= total / u64::from(servers));
    }

    /// The RNG is reproducible and its unit draws stay in [0, 1).
    #[test]
    fn rng_reproducible_and_bounded(seed in any::<u64>()) {
        use rand::RngCore;
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = SimRng::new(seed ^ 0xABCD);
        for _ in 0..256 {
            let u = r.unit();
            prop_assert!((0.0..1.0).contains(&u));
            let v = r.below(17);
            prop_assert!(v < 17);
        }
    }

    /// Topology distances are symmetric (under a uniform WAN) and
    /// loopback-free.
    #[test]
    fn topology_symmetric(regions in 1u32..5, per_region in 1usize..10) {
        let r = regions as usize;
        let wan = (0..r * r).map(|i| if i % (r + 1) == 0 { 0 } else { 25_000 }).collect();
        let t = Topology::geo(regions, per_region, 50, wan);
        for a in t.nodes() {
            for b in t.nodes() {
                prop_assert_eq!(t.prop_us(a, b), t.prop_us(b, a));
                if a == b {
                    prop_assert_eq!(t.prop_us(a, b), 0);
                }
            }
        }
    }
}
