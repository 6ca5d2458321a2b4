//! Property-based tests for region routing and failover invariants.

use bytes::Bytes;
use proptest::prelude::*;
use simkit::NodeId;
use storage::LsmConfig;

use hstore::RegionMap;

fn k(id: u64) -> Bytes {
    Bytes::from(format!("user{id:08}").into_bytes())
}

/// Keys that stress the 16-byte prefix route: drawn from a four-byte
/// alphabet that includes the pad byte, empty or shorter than a prefix, and
/// — when `shared` is set — behind one common 16-byte head, so that whole
/// split sets tie on their prefixes.
fn prefix_key((shared, tail): (bool, Vec<u8>)) -> Bytes {
    let mut key = if shared {
        b"0123456789abcdef".to_vec()
    } else {
        Vec::new()
    };
    key.extend(tail.iter().map(|&b| [0x00, b'0', b'a', 0xff][b as usize]));
    Bytes::from(key)
}

/// The routing `RegionMap::region_of` replaced: a binary search over the
/// regions' full start keys.
fn region_of_by_full_keys(map: &RegionMap, key: &[u8]) -> usize {
    let starts: Vec<&[u8]> = map.iter().map(|r| r.start.as_ref()).collect();
    match starts.binary_search_by(|start| start.cmp(&key)) {
        Ok(i) => i,
        // Region 0 starts at the empty key, so some start is always <= key.
        Err(i) => i - 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Routing through the flat prefix array picks the region the search
    /// over full start keys picked: for every split itself, for probes
    /// below the first and above the last split, for the empty key, keys
    /// shorter than a prefix, and splits that share their whole prefix.
    #[test]
    fn prefix_routing_matches_full_key_search(
        splits in prop::collection::btree_set(
            (prop::bool::ANY, prop::collection::vec(0u8..4, 0..20)).prop_map(prefix_key),
            0..24,
        ),
        probes in prop::collection::vec(
            (prop::bool::ANY, prop::collection::vec(0u8..4, 0..20)).prop_map(prefix_key),
            1..40,
        ),
    ) {
        let splits: Vec<Bytes> = splits.into_iter().collect();
        let map = RegionMap::new(splits.clone(), 3, LsmConfig::default());
        let edges = [Bytes::new(), Bytes::from(vec![0x00]), Bytes::from(vec![0xff; 24])];
        for key in probes.iter().chain(&splits).chain(&edges) {
            let idx = map.region_of(key);
            prop_assert_eq!(idx, region_of_by_full_keys(&map, key), "key {:?}", key);
            prop_assert!(map.get(idx).contains(key));
        }
    }

    /// Every key routes to exactly the region whose range contains it, and
    /// the regions partition the key space.
    #[test]
    fn regions_partition_the_key_space(
        split_ids in prop::collection::btree_set(1u64..10_000, 0..12),
        servers in 1usize..8,
        probe in 0u64..20_000,
    ) {
        let splits: Vec<Bytes> = split_ids.iter().map(|&s| k(s)).collect();
        let map = RegionMap::new(splits, servers, LsmConfig::default());
        let key = k(probe);
        let idx = map.region_of(&key);
        prop_assert!(map.get(idx).contains(&key));
        // No other region claims it.
        for other in 0..map.len() {
            if other != idx {
                prop_assert!(!map.get(other).contains(&key));
            }
        }
        // The empty key routes to region 0.
        prop_assert_eq!(map.region_of(b""), 0);
    }

    /// Region assignment is balanced to within one region per server.
    #[test]
    fn assignment_is_balanced(regions in 0usize..30, servers in 1usize..10) {
        let splits: Vec<Bytes> = (1..=regions as u64).map(k).collect();
        let map = RegionMap::new(splits, servers, LsmConfig::default());
        let counts: Vec<usize> = (0..servers as u32)
            .map(|s| map.on_server(NodeId(s)).len())
            .collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        prop_assert!(max - min <= 1, "unbalanced: {counts:?}");
        prop_assert_eq!(counts.iter().sum::<usize>(), map.len());
    }

    /// Failover always empties the dead server and keeps every region
    /// assigned to a live server, balanced to within one.
    #[test]
    fn failover_preserves_coverage(
        regions in 1usize..25,
        servers in 2usize..8,
        dead in 0u32..8,
    ) {
        let splits: Vec<Bytes> = (1..=regions as u64).map(k).collect();
        let mut map = RegionMap::new(splits, servers, LsmConfig::default());
        let dead = NodeId(dead % servers as u32);
        let live: Vec<NodeId> = (0..servers as u32)
            .map(NodeId)
            .filter(|&n| n != dead)
            .collect();
        let total = map.len();
        let owned = map.on_server(dead).len();
        let moves = map.fail_over(dead, &live);
        prop_assert!(map.on_server(dead).is_empty());
        let live_counts: Vec<usize> = live.iter().map(|&s| map.on_server(s).len()).collect();
        prop_assert_eq!(live_counts.iter().sum::<usize>(), total, "regions lost");
        let (min, max) = (live_counts.iter().min().unwrap(), live_counts.iter().max().unwrap());
        prop_assert!(max - min <= 1, "unbalanced: {live_counts:?}");
        prop_assert_eq!(moves.len(), owned);
        for &(idx, to) in &moves {
            prop_assert!(live.contains(&to));
            prop_assert_eq!(map.get(idx).server, to);
        }
    }
}
