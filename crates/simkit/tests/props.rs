//! Property-based tests for the simulation kernel's invariants.

use proptest::prelude::*;
use simkit::time::{transfer_time, MICROS_PER_SEC};
use simkit::{EventQueue, FifoResource, MultiServer, SimRng, Topology};

/// The largest byte count whose `bytes * 10^6` fits in a u64 (18 TB).
const EDGE: u64 = u64::MAX / MICROS_PER_SEC;

/// What `transfer_time` must give: the rounded-up quotient of
/// `bytes * 10^6` by the bandwidth, at least 1 µs, computed exactly in u128
/// up to [`EDGE`]; past it the product saturates at `u64::MAX`, so the
/// time stays at `u64::MAX / bandwidth` rounded up.
fn transfer_time_reference(bytes: u64, bytes_per_sec: u64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    if bytes > EDGE {
        return u64::MAX.div_ceil(bytes_per_sec).max(1);
    }
    let us = (bytes as u128 * MICROS_PER_SEC as u128).div_ceil(bytes_per_sec as u128);
    u64::try_from(us).expect("fits below the edge").max(1)
}

/// The byte counts at which `bytes * 10^6` stops fitting in a u64, and the
/// extreme bandwidths: the reference's integer, and a time that never falls
/// as the byte count grows.
#[test]
fn transfer_time_equals_the_reference_at_the_boundaries() {
    let byte_counts = [0, 1, EDGE - 1, EDGE, EDGE + 1, u64::MAX / 2, u64::MAX];
    let bandwidths = [
        1,
        2,
        999_999,
        MICROS_PER_SEC,
        125_000_000,
        u64::MAX - 1,
        u64::MAX,
    ];
    for bw in bandwidths {
        let mut previous = 0;
        for bytes in byte_counts {
            let t = transfer_time(bytes, bw);
            assert_eq!(
                t,
                transfer_time_reference(bytes, bw),
                "{bytes} bytes at {bw} B/s"
            );
            assert!(t >= previous, "{bytes} bytes at {bw} B/s fell to {t}");
            previous = t;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Over byte counts and bandwidths of every magnitude (a random value
    /// shifted right by a random amount), `transfer_time` is the
    /// reference's integer on both sides of [`EDGE`], and of two byte
    /// counts the larger never takes less time.
    #[test]
    fn transfer_time_equals_the_reference(
        (a, a_shift) in (any::<u64>(), 0u32..64),
        (b, b_shift) in (any::<u64>(), 0u32..64),
        (bw, bw_shift) in (any::<u64>(), 0u32..64),
    ) {
        let (a, b, bw) = (a >> a_shift, b >> b_shift, (bw >> bw_shift).max(1));
        prop_assert_eq!(transfer_time(a, bw), transfer_time_reference(a, bw));
        prop_assert_eq!(transfer_time(b, bw), transfer_time_reference(b, bw));
        prop_assert!(transfer_time(a.min(b), bw) <= transfer_time(a.max(b), bw));
    }

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
