//! The token ring: key → primary ("main") replica → successor replica set.
//!
//! One token per node (classic pre-vnode Cassandra, matching the paper's
//! 2.0-era deployment). Two partitioners:
//!
//! * [`Partitioner::OrderPreserving`] — explicit sorted key tokens; keys are
//!   stored in key order around the ring, which makes range scans natural.
//!   The scan workloads run this way.
//! * [`Partitioner::Murmur`] — keys are hashed onto a uniform `u64` token
//!   space (load balance without token tuning; scans degrade to
//!   token-order semantics, as with Cassandra's RandomPartitioner).
//!
//! Replica placement is delegated to a [`Strategy`]: the default
//! [`Strategy::Simple`] takes the primary plus the next `rf - 1` distinct
//! ring successors, while [`Strategy::NetworkTopology`] walks the same
//! successor order but fills per-datacenter quotas, reading each node's
//! datacenter off the cluster's [`Topology`]. The primary is the paper's
//! "main replica ... always performed, no matter which consistency level is
//! used".

use simkit::{fnv1a, fnv_avalanche, NodeId, Topology};
use storage::types::{cmp_via_prefix, key_prefix, KeyPrefix};
use storage::Key;

/// How keys map to ring positions.
#[derive(Debug, Clone, PartialEq)]
pub enum Partitioner {
    /// Node `i` owns keys in `[tokens[i], tokens[i+1])`; keys before
    /// `tokens[0]` wrap to the last node. Tokens must be sorted and as many
    /// as there are nodes.
    OrderPreserving {
        /// Sorted range-start tokens, one per node.
        tokens: Vec<Key>,
    },
    /// FNV/Murmur-style hash onto `u64`; node `i` owns an equal slice of the
    /// hash space.
    Murmur,
}

impl Partitioner {
    /// The hashing partitioner.
    pub fn murmur() -> Self {
        Partitioner::Murmur
    }

    /// An order-preserving partitioner with explicit tokens.
    ///
    /// # Panics
    /// If tokens are not strictly sorted.
    pub fn order_preserving(tokens: Vec<Key>) -> Self {
        assert!(
            tokens.windows(2).all(|w| w[0] < w[1]),
            "tokens must be strictly sorted"
        );
        Partitioner::OrderPreserving { tokens }
    }
}

/// Replica placement strategy the ring consults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy {
    /// Cassandra's `SimpleStrategy`: the `rf` distinct ring successors of
    /// the primary, datacenter-blind.
    Simple,
    /// Cassandra's `NetworkTopologyStrategy`: walk ring successors and fill
    /// a per-datacenter replica quota (`per_dc[region]` replicas in each
    /// region). The `rf` argument to placement is ignored; the quota vector
    /// is authoritative.
    NetworkTopology {
        /// Replicas to place in each datacenter, indexed by region.
        per_dc: Vec<u32>,
    },
}

impl Strategy {
    /// `NetworkTopologyStrategy` with the same replica count in every of
    /// `regions` datacenters.
    pub fn network_topology(regions: u32, rf_per_dc: u32) -> Self {
        Strategy::NetworkTopology {
            per_dc: vec![rf_per_dc; regions as usize],
        }
    }

    /// Total replicas this strategy places for a given requested `rf`:
    /// `rf` itself for [`Strategy::Simple`], the quota sum for
    /// [`Strategy::NetworkTopology`].
    pub(crate) fn total_rf(&self, rf: u32) -> u32 {
        match self {
            Strategy::Simple => rf,
            Strategy::NetworkTopology { per_dc } => per_dc.iter().sum(),
        }
    }

    /// The replica set of the range whose primary is ring position
    /// `primary`, on a ring of every node of `topology`, into `out`
    /// (cleared first). Walks ring successors: `Simple` takes the first
    /// `rf`, `NetworkTopology` takes nodes whose datacenter quota is still
    /// unfilled.
    fn place_into(&self, primary: usize, rf: u32, topology: &Topology, out: &mut Vec<NodeId>) {
        let nodes = topology.len();
        out.clear();
        match self {
            Strategy::Simple => {
                out.extend(
                    (0..rf.min(nodes as u32) as usize)
                        .map(|i| NodeId(((primary + i) % nodes) as u32)),
                );
            }
            Strategy::NetworkTopology { per_dc } => {
                let mut remaining: Vec<u32> = per_dc.clone();
                let total: u32 = remaining.iter().sum();
                out.reserve(total as usize);
                for i in 0..nodes {
                    let node = NodeId(((primary + i) % nodes) as u32);
                    let dc = topology.region(node) as usize;
                    if dc < remaining.len() && remaining[dc] > 0 {
                        remaining[dc] -= 1;
                        out.push(node);
                        if out.len() == total as usize {
                            break;
                        }
                    }
                }
            }
        }
    }
}

/// The assembled ring.
#[derive(Debug, Clone)]
pub struct Ring {
    partitioner: Partitioner,
    /// Padded prefix of every order-preserving token, parallel to them: the
    /// primary lookup compares these and reads a full token only on a
    /// prefix tie. Empty for a hashing ring.
    token_prefixes: Vec<KeyPrefix>,
    nodes: usize,
    strategy: Strategy,
}

impl Ring {
    /// A ring over `nodes` nodes, placing replicas by `strategy`. Placement
    /// takes the cluster's [`Topology`], which must hold exactly `nodes`
    /// nodes.
    ///
    /// # Panics
    /// If an order-preserving partitioner has a token count ≠ `nodes`.
    pub fn new(nodes: usize, partitioner: Partitioner, strategy: Strategy) -> Self {
        assert!(nodes > 0);
        if let Partitioner::OrderPreserving { tokens } = &partitioner {
            assert_eq!(tokens.len(), nodes, "need exactly one token per node");
        }
        let token_prefixes = match &partitioner {
            Partitioner::OrderPreserving { tokens } => {
                tokens.iter().map(|t| key_prefix(t)).collect()
            }
            Partitioner::Murmur => Vec::new(),
        };
        Self {
            partitioner,
            token_prefixes,
            nodes,
            strategy,
        }
    }

    /// Number of nodes on the ring.
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// Rings are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Ring position (node index) of the primary replica of `key`.
    pub fn primary(&self, key: &[u8]) -> usize {
        self.segment_primary(self.segment(key))
    }

    /// The load segment of `key`, in `0..=len()`. On an ordered ring it is
    /// how many tokens sort at or below the key: segment 0 holds the keys
    /// before the first token (which wrap to the last range), segment `i`
    /// node `i - 1`'s range from its token on. On a hashing ring it is one
    /// past the key's primary. All keys of a segment have one replica set,
    /// and on an ordered ring they form one key interval.
    pub(crate) fn segment(&self, key: &[u8]) -> usize {
        match &self.partitioner {
            Partitioner::OrderPreserving { tokens } => {
                let target = key_prefix(key);
                let (mut lo, mut hi) = (0, tokens.len());
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    let token = tokens[mid].as_ref();
                    match cmp_via_prefix(self.token_prefixes[mid], token, target, key) {
                        std::cmp::Ordering::Greater => hi = mid,
                        _ => lo = mid + 1,
                    }
                }
                lo
            }
            Partitioner::Murmur => {
                // FNV-1a + avalanche; stand-in for Murmur3 with the same
                // role.
                let h = fnv_avalanche(fnv1a(key, 0));
                // Equal slices of the hash space.
                ((h as u128 * self.nodes as u128) >> 64) as usize + 1
            }
        }
    }

    /// Ring position of the primary replica of segment `segment`'s keys.
    pub(crate) fn segment_primary(&self, segment: usize) -> usize {
        segment.checked_sub(1).unwrap_or(self.nodes - 1)
    }

    /// The replica set of the whole range whose primary is ring position
    /// `primary` (every key with that [`Ring::primary`]) at replication
    /// factor `rf` over the cluster's `topology`, as placed by the ring's
    /// strategy, into a caller-provided buffer (cleared first):
    /// `SimpleStrategy` takes the primary plus ring successors clamped to
    /// the node count; `NetworkTopologyStrategy` walks the same order
    /// filling per-datacenter quotas (its quota vector is authoritative and
    /// `rf` is ignored). The per-op coordinator paths reuse one scratch
    /// buffer instead of allocating a fresh replica set each operation.
    pub fn range_replicas_into(
        &self,
        primary: usize,
        rf: u32,
        topology: &Topology,
        out: &mut Vec<NodeId>,
    ) {
        debug_assert_eq!(topology.len(), self.nodes, "one ring position per node");
        self.strategy.place_into(primary, rf, topology, out);
    }

    /// Ring successor of a node index.
    pub(crate) fn successor(&self, idx: usize) -> usize {
        (idx + 1) % self.nodes
    }

    /// For an ordered ring: the exclusive end key of the primary range that
    /// starts at node `idx` (i.e. the next node's token). `None` for the
    /// last range (unbounded) or a hashing ring.
    pub(crate) fn range_end(&self, idx: usize) -> Option<&Key> {
        match &self.partitioner {
            Partitioner::OrderPreserving { tokens } => tokens.get(idx + 1),
            Partitioner::Murmur => None,
        }
    }

    /// For an ordered ring: the token (start key) of node `idx`'s range.
    pub(crate) fn range_start(&self, idx: usize) -> Option<&Key> {
        match &self.partitioner {
            Partitioner::OrderPreserving { tokens } => tokens.get(idx),
            Partitioner::Murmur => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn k(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn ordered_ring() -> Ring {
        // Four nodes owning [a,g), [g,n), [n,t), [t,..)+wrap.
        Ring::new(
            4,
            Partitioner::order_preserving(vec![k("a"), k("g"), k("n"), k("t")]),
            Strategy::Simple,
        )
    }

    /// The replica set of `key` on a single rack of the ring's nodes.
    fn replicas(r: &Ring, key: &[u8], rf: u32) -> Vec<NodeId> {
        placed(r, key, rf, &Topology::single_rack(r.len(), 50))
    }

    fn placed(r: &Ring, key: &[u8], rf: u32, topology: &Topology) -> Vec<NodeId> {
        let mut out = Vec::new();
        r.range_replicas_into(r.primary(key), rf, topology, &mut out);
        out
    }

    /// The replica set of the range whose primary is `primary`.
    fn place(strategy: &Strategy, primary: usize, rf: u32, topology: &Topology) -> Vec<NodeId> {
        let mut out = Vec::new();
        strategy.place_into(primary, rf, topology, &mut out);
        out
    }

    #[test]
    fn murmur_primaries_are_pinned() {
        // Where a hashing ring places every key: a change here moves rows
        // between nodes.
        let primaries = |nodes| {
            let r = Ring::new(nodes, Partitioner::murmur(), Strategy::Simple);
            (0..20)
                .map(|i| r.primary(format!("user{i}").as_bytes()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            primaries(5),
            [2, 3, 2, 1, 1, 0, 3, 4, 4, 2, 4, 3, 0, 2, 2, 3, 4, 2, 4, 2]
        );
        assert_eq!(
            primaries(7),
            [3, 4, 2, 1, 1, 0, 5, 6, 5, 3, 5, 5, 0, 3, 2, 5, 5, 3, 6, 4]
        );
    }

    #[test]
    fn ordered_primary_by_range() {
        let r = ordered_ring();
        assert_eq!(r.primary(b"a"), 0);
        assert_eq!(r.primary(b"f"), 0);
        assert_eq!(r.primary(b"g"), 1);
        assert_eq!(r.primary(b"m"), 1);
        assert_eq!(r.primary(b"n"), 2);
        assert_eq!(r.primary(b"z"), 3);
        // Before the first token wraps to the last node.
        assert_eq!(r.primary(b"0"), 3);
    }

    #[test]
    fn segments_split_the_wrapped_range_and_share_its_primary() {
        let r = ordered_ring();
        for (key, segment) in [(&b"0"[..], 0), (b"a", 1), (b"f", 1), (b"g", 2), (b"z", 4)] {
            assert_eq!(r.segment(key), segment, "{key:?}");
        }
        // Before the first token and from the last one: two segments, one
        // range.
        assert_eq!(r.segment_primary(0), 3);
        assert_eq!(r.segment_primary(4), 3);
        let m = Ring::new(4, Partitioner::murmur(), Strategy::Simple);
        assert!((1..=4).contains(&m.segment(b"hello")));
    }

    #[test]
    fn replicas_are_distinct_successors() {
        let r = ordered_ring();
        assert_eq!(replicas(&r, b"g", 3), vec![NodeId(1), NodeId(2), NodeId(3)]);
        // Wrap around the ring.
        assert_eq!(replicas(&r, b"z", 3), vec![NodeId(3), NodeId(0), NodeId(1)]);
    }

    #[test]
    fn rf_clamps_to_node_count() {
        let r = ordered_ring();
        let reps = replicas(&r, b"a", 10);
        assert_eq!(reps.len(), 4);
        let mut sorted = reps.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn replica_set_is_stable() {
        let r = ordered_ring();
        assert_eq!(replicas(&r, b"hello", 3), replicas(&r, b"hello", 3));
    }

    #[test]
    fn murmur_balances_load() {
        let r = Ring::new(10, Partitioner::murmur(), Strategy::Simple);
        let mut counts = vec![0u32; 10];
        for i in 0..100_000 {
            counts[r.primary(format!("user{i:012}").as_bytes())] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / min < 1.1, "murmur skew too high: {counts:?}");
    }

    #[test]
    fn ordered_tokens_balance_when_evenly_spaced() {
        // Tokens at every 25000 ids over 100k ids.
        let tokens: Vec<Key> = (0..4)
            .map(|i| Bytes::from(format!("user{:012}", i * 25_000).into_bytes()))
            .collect();
        let r = Ring::new(4, Partitioner::order_preserving(tokens), Strategy::Simple);
        let mut counts = vec![0u32; 4];
        for i in 0..100_000 {
            counts[r.primary(format!("user{i:012}").as_bytes())] += 1;
        }
        assert_eq!(counts, vec![25_000; 4]);
    }

    #[test]
    fn range_boundaries() {
        let r = ordered_ring();
        assert_eq!(r.range_start(1), Some(&k("g")));
        assert_eq!(r.range_end(1), Some(&k("n")));
        assert_eq!(r.range_end(3), None, "last range is unbounded");
        let m = Ring::new(4, Partitioner::murmur(), Strategy::Simple);
        assert_eq!(m.range_end(0), None);
    }

    #[test]
    fn successor_wraps() {
        let r = ordered_ring();
        assert_eq!(r.successor(2), 3);
        assert_eq!(r.successor(3), 0);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn unsorted_tokens_rejected() {
        let _ = Partitioner::order_preserving(vec![k("b"), k("a")]);
    }

    #[test]
    #[should_panic(expected = "one token per node")]
    fn token_count_must_match() {
        let _ = Ring::new(
            3,
            Partitioner::order_preserving(vec![k("a")]),
            Strategy::Simple,
        );
    }

    #[test]
    fn network_topology_strategy_fills_per_dc_quotas() {
        // 6 nodes, 2 regions of 3 (contiguous blocks as Topology::geo lays
        // them out); one replica per DC.
        let t = Topology::geo(2, 3, 50, vec![0, 1000, 1000, 0]);
        let r = Ring::new(6, Partitioner::murmur(), Strategy::network_topology(2, 1));
        let reps = placed(&r, b"somekey", 0, &t);
        assert_eq!(reps.len(), 2);
        assert_ne!(
            t.region(reps[0]),
            t.region(reps[1]),
            "one replica in each DC: {reps:?}"
        );
    }

    #[test]
    fn single_dc_nts_matches_simple_placement() {
        let simple = ordered_ring();
        let nts = Ring::new(
            4,
            Partitioner::order_preserving(vec![k("a"), k("g"), k("n"), k("t")]),
            Strategy::network_topology(1, 3),
        );
        for key in [&b"a"[..], b"g", b"m", b"z", b"0", b"hello"] {
            assert_eq!(replicas(&simple, key, 3), replicas(&nts, key, 3));
        }
    }

    #[test]
    fn simple_strategy_walks_successors() {
        let t = Topology::single_rack(5, 50);
        let got = place(&Strategy::Simple, 3, 3, &t);
        assert_eq!(got, vec![NodeId(3), NodeId(4), NodeId(0)]);
        // rf clamps to node count.
        let pair = Topology::single_rack(2, 50);
        assert_eq!(place(&Strategy::Simple, 0, 9, &pair).len(), 2);
    }

    #[test]
    fn nts_fills_per_dc_quotas_in_successor_order() {
        // 2 regions x 3 nodes, contiguous blocks (0..3 in DC0, 3..6 in DC1).
        let t = Topology::geo(2, 3, 50, vec![0, 25_000, 25_000, 0]);
        let nts = Strategy::network_topology(2, 2);
        let got = place(&nts, 1, 0, &t);
        // Walk from n1: n1 (DC0), n2 (DC0), n3 (DC1), n4 (DC1); quota filled.
        assert_eq!(got, vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        assert_eq!(nts.total_rf(0), 4);
    }

    #[test]
    fn nts_quota_exceeding_dc_size_takes_what_exists() {
        let t = Topology::geo(2, 2, 50, vec![0, 25_000, 25_000, 0]);
        let nts = Strategy::network_topology(2, 3); // only 2 nodes per DC
        assert_eq!(
            place(&nts, 0, 0, &t).len(),
            4,
            "cannot place more replicas than nodes"
        );
    }
}
