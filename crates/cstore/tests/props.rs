//! Property-based tests for ring placement and consistency invariants.

use bytes::Bytes;
use proptest::prelude::*;

use cstore::{Consistency, Partitioner, Ring, Strategy};
use simkit::{NodeId, Topology};

fn key(id: u64) -> Bytes {
    Bytes::from(format!("user{id:08}").into_bytes())
}

/// The replica set of `key` on a single rack of the ring's nodes.
fn replicas(ring: &Ring, key: &[u8], rf: u32) -> Vec<NodeId> {
    let mut out = Vec::new();
    let rack = Topology::single_rack(ring.len(), 50);
    ring.range_replicas_into(ring.primary(key), rf, &rack, &mut out);
    out
}

/// The replica set of the range whose primary is ring position `primary`.
fn range_replicas(ring: &Ring, primary: usize, rf: u32, topology: &Topology) -> Vec<NodeId> {
    let mut out = Vec::new();
    ring.range_replicas_into(primary, rf, topology, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Replica sets are distinct, stable, sized min(rf, n), and start at
    /// the primary.
    #[test]
    fn replica_sets_are_distinct_and_stable(
        nodes in 1usize..20,
        rf in 1u32..8,
        id in 0u64..100_000,
    ) {
        let ring = Ring::new(nodes, Partitioner::murmur(), Strategy::Simple);
        let k = key(id);
        let reps = replicas(&ring, &k, rf);
        prop_assert_eq!(reps.len(), (rf as usize).min(nodes));
        let mut uniq = reps.clone();
        uniq.sort();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), reps.len(), "duplicate replicas");
        prop_assert_eq!(reps[0].index(), ring.primary(&k));
        prop_assert_eq!(replicas(&ring, &k, rf), reps, "unstable placement");
    }

    /// Growing the replication factor only appends replicas (monotone
    /// placement — the property that lets RF be raised without moving data).
    #[test]
    fn placement_is_monotone_in_rf(nodes in 2usize..20, id in 0u64..100_000) {
        let ring = Ring::new(nodes, Partitioner::murmur(), Strategy::Simple);
        let k = key(id);
        let mut prev = replicas(&ring, &k, 1);
        for rf in 2..=nodes as u32 {
            let cur = replicas(&ring, &k, rf);
            prop_assert_eq!(&cur[..prev.len()], &prev[..], "prefix changed at rf={}", rf);
            prev = cur;
        }
    }

    /// The ordered partitioner routes every key into the range that
    /// contains it.
    #[test]
    fn ordered_partitioner_routes_into_ranges(
        mut token_ids in prop::collection::btree_set(0u64..10_000, 2..12),
        id in 0u64..20_000,
    ) {
        let tokens: Vec<Bytes> = token_ids.iter().map(|&t| key(t)).collect();
        let n = tokens.len();
        let ring = Ring::new(
            n,
            Partitioner::order_preserving(tokens.clone()),
            Strategy::Simple,
        );
        let k = key(id);
        let p = ring.primary(&k);
        if k < tokens[0] {
            prop_assert_eq!(p, n - 1, "below first token wraps to last range");
        } else {
            prop_assert!(tokens[p] <= k);
            if p + 1 < n {
                prop_assert!(k < tokens[p + 1]);
            }
        }
        let _ = token_ids.pop_first();
    }

    /// `NetworkTopologyStrategy` over regions of `Topology::geo`: for every
    /// primary, the replicas are distinct, in ring-successor order from the
    /// primary, and in each region they are that region's first
    /// min(quota, region size) nodes in that order. With one region and
    /// quota `rf` it places exactly what `SimpleStrategy` does.
    #[test]
    fn network_topology_placement_fills_quotas_in_successor_order(
        regions in 1u32..4,
        per_region in 1usize..6,
        quotas in prop::collection::vec(0u32..7, 3..4),
        rf in 1u32..7,
    ) {
        let wan = vec![25_000; (regions * regions) as usize];
        let topology = Topology::geo(regions, per_region, 50, wan);
        let nodes = topology.len();
        let per_dc = quotas[..regions as usize].to_vec();
        let nts = Ring::new(
            nodes,
            Partitioner::murmur(),
            Strategy::NetworkTopology { per_dc: per_dc.clone() },
        );
        for primary in 0..nodes {
            let got = range_replicas(&nts, primary, 0, &topology);
            let walk: Vec<NodeId> = (0..nodes)
                .map(|i| NodeId(((primary + i) % nodes) as u32))
                .collect();
            let offsets: Vec<usize> = got
                .iter()
                .map(|n| (n.index() + nodes - primary) % nodes)
                .collect();
            prop_assert!(
                offsets.windows(2).all(|w| w[0] < w[1]),
                "not distinct successors of {}: {:?}", primary, got
            );
            for (region, &quota) in per_dc.iter().enumerate() {
                let in_region = |n: &&NodeId| topology.region(**n) == region as u32;
                let placed: Vec<NodeId> = got.iter().filter(in_region).copied().collect();
                let first: Vec<NodeId> = walk
                    .iter()
                    .filter(in_region)
                    .take(quota as usize)
                    .copied()
                    .collect();
                prop_assert_eq!(placed.len(), (quota as usize).min(per_region));
                prop_assert_eq!(placed, first, "region {} from primary {}", region, primary);
            }
        }

        let rack = Topology::geo(1, per_region, 50, vec![0]);
        let simple = Ring::new(per_region, Partitioner::murmur(), Strategy::Simple);
        let nts = Ring::new(
            per_region,
            Partitioner::murmur(),
            Strategy::network_topology(1, rf),
        );
        for primary in 0..per_region {
            prop_assert_eq!(
                range_replicas(&nts, primary, rf, &rack),
                range_replicas(&simple, primary, rf, &rack)
            );
        }
    }

    /// Quorum arithmetic: required responses never exceed RF, QUORUM
    /// overlaps itself, and write-ALL overlaps read-ONE.
    #[test]
    fn consistency_arithmetic(rf in 1u32..12) {
        for cl in [
            Consistency::One,
            Consistency::Quorum,
            Consistency::All,
        ] {
            let need = cl.required(rf);
            prop_assert!(need >= 1);
            prop_assert!(need <= rf);
        }
        let q = Consistency::Quorum.required(rf);
        prop_assert!(q + q > rf);
        prop_assert!(Consistency::All.required(rf) + Consistency::One.required(rf) > rf);
    }
}
