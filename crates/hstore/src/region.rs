//! Regions: contiguous key ranges with their storage engines.

use simkit::FastHashMap;

use crate::dfs::BlockId;
use simkit::NodeId;
use storage::types::{cmp_via_prefix, key_prefix, KeyPrefix};
use storage::{Key, LsmConfig, LsmTree, TableId};

/// One region: a key range `[start, end)` served by a single region server.
#[derive(Debug, Clone)]
pub struct Region {
    /// Inclusive start key (empty = from the beginning of the key space).
    pub start: Key,
    /// Exclusive end key; `None` = to the end of the key space.
    pub end: Option<Key>,
    /// The serving region server.
    pub server: NodeId,
    /// The region's storage engine (memstore + HFiles + cache slice).
    pub lsm: LsmTree,
    /// HFile SSTables mapped to their backing `dfs` blocks, one each.
    pub(crate) hfiles: FastHashMap<TableId, BlockId>,
}

impl Region {
    /// True when `key` falls inside this region.
    pub fn contains(&self, key: &[u8]) -> bool {
        key >= self.start.as_ref() && self.end.as_ref().is_none_or(|e| key < e.as_ref())
    }
}

/// The sorted set of regions covering the whole key space.
#[derive(Debug, Clone)]
pub struct RegionMap {
    regions: Vec<Region>,
    /// Padded prefix of every region's start key, parallel to `regions`:
    /// routing searches this flat array and reads a full start key only on
    /// a prefix tie, instead of loading a whole `Region` per probe. Start
    /// keys are fixed when the map is built.
    start_prefixes: Vec<KeyPrefix>,
}

impl RegionMap {
    /// Build regions from sorted split keys, assigned round-robin over
    /// `servers` region servers. A leading empty-key region is added when
    /// the first split is not the empty key, so every key routes somewhere.
    pub fn new(mut splits: Vec<Key>, servers: usize, lsm: LsmConfig) -> Self {
        assert!(servers > 0);
        assert!(
            splits.windows(2).all(|w| w[0] < w[1]),
            "region splits must be strictly sorted"
        );
        if splits.first().is_none_or(|k| !k.is_empty()) {
            splits.insert(0, Key::new());
        }
        let ends: Vec<Option<Key>> = splits
            .iter()
            .skip(1)
            .cloned()
            .map(Some)
            .chain(std::iter::once(None))
            .collect();
        let start_prefixes = splits.iter().map(|k| key_prefix(k)).collect();
        let regions = splits
            .into_iter()
            .zip(ends)
            .enumerate()
            .map(|(i, (start, end))| Region {
                start,
                end,
                server: NodeId((i % servers) as u32),
                lsm: LsmTree::new(lsm),
                hfiles: FastHashMap::default(),
            })
            .collect();
        Self {
            regions,
            start_prefixes,
        }
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// There is always at least one region.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Index of the region containing `key`: the last one whose start key
    /// is `<= key`.
    pub fn region_of(&self, key: &[u8]) -> usize {
        let target = key_prefix(key);
        // Region 0 starts at the empty key, which is `<=` every key.
        let mut lo = 1;
        let mut hi = self.regions.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let start = self.regions[mid].start.as_ref();
            if cmp_via_prefix(self.start_prefixes[mid], start, target, key)
                == std::cmp::Ordering::Greater
            {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo - 1
    }

    /// Access a region.
    pub fn get(&self, idx: usize) -> &Region {
        &self.regions[idx]
    }

    /// Mutable region access.
    pub(crate) fn get_mut(&mut self, idx: usize) -> &mut Region {
        &mut self.regions[idx]
    }

    /// All regions.
    pub fn iter(&self) -> impl Iterator<Item = &Region> {
        self.regions.iter()
    }

    /// All regions, mutably.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Region> {
        self.regions.iter_mut()
    }

    /// Regions currently assigned to `server`.
    pub fn on_server(&self, server: NodeId) -> Vec<usize> {
        self.regions
            .iter()
            .enumerate()
            .filter(|(_, r)| r.server == server)
            .map(|(i, _)| i)
            .collect()
    }

    /// Move every region off `dead`, each to the `live` server then holding
    /// the fewest regions (the lowest id on a tie). Returns each move as
    /// `(region, new server)`.
    pub fn fail_over(&mut self, dead: NodeId, live: &[NodeId]) -> Vec<(usize, NodeId)> {
        assert!(!live.is_empty(), "no live servers to fail over to");
        let mut load: Vec<(usize, NodeId)> =
            live.iter().map(|&s| (self.on_server(s).len(), s)).collect();
        let mut moves = Vec::new();
        for idx in self.on_server(dead) {
            load.sort_unstable();
            load[0].0 += 1;
            let target = load[0].1;
            self.regions[idx].server = target;
            moves.push((idx, target));
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn k(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn map() -> RegionMap {
        RegionMap::new(vec![k("g"), k("n"), k("t")], 2, LsmConfig::default())
    }

    #[test]
    fn leading_region_is_added() {
        let m = map();
        assert_eq!(m.len(), 4, "implicit first region plus three splits");
        assert_eq!(m.get(0).start, Key::new());
        assert_eq!(m.get(0).end, Some(k("g")));
        assert_eq!(m.get(3).end, None);
    }

    #[test]
    fn every_key_routes_to_its_range() {
        let m = map();
        assert_eq!(m.region_of(b""), 0);
        assert_eq!(m.region_of(b"a"), 0);
        assert_eq!(m.region_of(b"g"), 1);
        assert_eq!(m.region_of(b"m"), 1);
        assert_eq!(m.region_of(b"n"), 2);
        assert_eq!(m.region_of(b"zzz"), 3);
        for key in [b"a".as_ref(), b"g", b"n", b"q", b"z"] {
            assert!(m.get(m.region_of(key)).contains(key));
        }
    }

    #[test]
    fn round_robin_assignment() {
        let m = map();
        assert_eq!(m.get(0).server, NodeId(0));
        assert_eq!(m.get(1).server, NodeId(1));
        assert_eq!(m.get(2).server, NodeId(0));
        assert_eq!(m.get(3).server, NodeId(1));
        assert_eq!(m.on_server(NodeId(0)), vec![0, 2]);
    }

    #[test]
    fn contains_respects_bounds() {
        let m = map();
        let r = m.get(1); // [g, n)
        assert!(r.contains(b"g"));
        assert!(r.contains(b"m"));
        assert!(!r.contains(b"n"));
        assert!(!r.contains(b"f"));
        assert!(m.get(3).contains(b"~~~"), "last region is unbounded");
    }

    #[test]
    fn failover_moves_all_regions_off_dead_server() {
        let mut regions = RegionMap::new(
            vec![k("d"), k("h"), k("m"), k("r"), k("w")],
            3,
            LsmConfig::default(),
        );
        let dead = NodeId(0);
        let live = [NodeId(1), NodeId(2)];
        let owned_before = regions.on_server(dead);
        assert!(!owned_before.is_empty());
        let moves = regions.fail_over(dead, &live);
        assert!(regions.on_server(dead).is_empty());
        let moved: Vec<usize> = moves.iter().map(|&(idx, _)| idx).collect();
        assert_eq!(moved, owned_before);
        for (idx, to) in moves {
            assert!(live.contains(&to));
            assert_eq!(regions.get(idx).server, to);
        }
    }

    #[test]
    fn failover_balances_targets() {
        // Nine regions over three servers; kill one, its three regions
        // should split as evenly as possible over the two survivors.
        let splits: Vec<Bytes> = (1..9)
            .map(|i| Bytes::from(format!("{i}").into_bytes()))
            .collect();
        let mut regions = RegionMap::new(splits, 3, LsmConfig::default());
        regions.fail_over(NodeId(0), &[NodeId(1), NodeId(2)]);
        let a = regions.on_server(NodeId(1)).len();
        let b = regions.on_server(NodeId(2)).len();
        assert_eq!(a + b, 9);
        assert!(a.abs_diff(b) <= 1, "unbalanced: {a} vs {b}");
    }

    #[test]
    #[should_panic(expected = "no live servers")]
    fn failover_needs_survivors() {
        let mut regions = RegionMap::new(vec![k("m")], 1, LsmConfig::default());
        regions.fail_over(NodeId(0), &[]);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn unsorted_splits_rejected() {
        let _ = RegionMap::new(vec![k("n"), k("g")], 2, LsmConfig::default());
    }
}
