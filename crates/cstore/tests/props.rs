//! Property-based tests for ring placement and consistency invariants.

use bytes::Bytes;
use proptest::prelude::*;

use cstore::{Consistency, Partitioner, Ring};

fn key(id: u64) -> Bytes {
    Bytes::from(format!("user{id:08}").into_bytes())
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
        let ring = Ring::new(nodes, Partitioner::murmur());
        let k = key(id);
        let reps = ring.replicas(&k, rf);
        prop_assert_eq!(reps.len(), (rf as usize).min(nodes));
        let mut uniq = reps.clone();
        uniq.sort();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), reps.len(), "duplicate replicas");
        prop_assert_eq!(reps[0].index(), ring.primary(&k));
        prop_assert_eq!(ring.replicas(&k, rf), reps, "unstable placement");
    }

    /// Growing the replication factor only appends replicas (monotone
    /// placement — the property that lets RF be raised without moving data).
    #[test]
    fn placement_is_monotone_in_rf(nodes in 2usize..20, id in 0u64..100_000) {
        let ring = Ring::new(nodes, Partitioner::murmur());
        let k = key(id);
        let mut prev = ring.replicas(&k, 1);
        for rf in 2..=nodes as u32 {
            let cur = ring.replicas(&k, rf);
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
        let ring = Ring::new(n, Partitioner::order_preserving(tokens.clone()));
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
