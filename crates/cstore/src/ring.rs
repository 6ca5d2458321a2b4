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
//! Replica placement is delegated to a [`geo::Strategy`]: the default
//! [`geo::Strategy::Simple`] takes the primary plus the next `rf - 1`
//! distinct ring successors, while `NetworkTopologyStrategy` walks the same
//! successor order but fills per-datacenter quotas via the [`geo::Snitch`].
//! The primary is the paper's "main replica ... always performed, no matter
//! which consistency level is used".

use geo::{Snitch, Strategy};
use simkit::NodeId;
use storage::sstable::{cmp_via_prefix, key_prefix, KeyPrefix};
use storage::Key;

/// How keys map to ring positions.
#[derive(Debug, Clone)]
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

#[inline]
fn hash_key(key: &[u8]) -> u64 {
    // FNV-1a + avalanche; stand-in for Murmur3 with the same role.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
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
    snitch: Snitch,
}

impl Ring {
    /// A ring over `nodes` nodes with `SimpleStrategy` placement.
    ///
    /// # Panics
    /// If an order-preserving partitioner has a token count ≠ `nodes`.
    pub fn new(nodes: usize, partitioner: Partitioner) -> Self {
        Self::with_strategy(
            nodes,
            partitioner,
            Strategy::Simple,
            Snitch::single_dc(nodes),
        )
    }

    /// A ring whose placement consults an explicit replication strategy and
    /// snitch (datacenter lookup).
    ///
    /// # Panics
    /// If an order-preserving partitioner has a token count ≠ `nodes`, or
    /// the snitch covers a different node count.
    pub fn with_strategy(
        nodes: usize,
        partitioner: Partitioner,
        strategy: Strategy,
        snitch: Snitch,
    ) -> Self {
        assert!(nodes > 0);
        if let Partitioner::OrderPreserving { tokens } = &partitioner {
            assert_eq!(tokens.len(), nodes, "need exactly one token per node");
        }
        assert_eq!(snitch.len(), nodes, "snitch must cover every node");
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
            snitch,
        }
    }

    /// The datacenter snitch.
    pub fn snitch(&self) -> &Snitch {
        &self.snitch
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
        match &self.partitioner {
            Partitioner::OrderPreserving { tokens } => {
                let target = key_prefix(key);
                // How many tokens sort at or below `key`.
                let (mut lo, mut hi) = (0, tokens.len());
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    let token = tokens[mid].as_ref();
                    match cmp_via_prefix(self.token_prefixes[mid], token, target, key) {
                        std::cmp::Ordering::Greater => hi = mid,
                        _ => lo = mid + 1,
                    }
                }
                // None: the key wraps to the last range.
                lo.checked_sub(1).unwrap_or(self.nodes - 1)
            }
            Partitioner::Murmur => {
                let h = hash_key(key);
                // Equal slices of the hash space.
                ((h as u128 * self.nodes as u128) >> 64) as usize
            }
        }
    }

    /// The replica set of `key` at replication factor `rf`, as placed by
    /// the ring's strategy: `SimpleStrategy` takes the primary plus ring
    /// successors clamped to the node count; `NetworkTopologyStrategy`
    /// walks the same order filling per-datacenter quotas (its quota vector
    /// is authoritative and `rf` is ignored).
    pub fn replicas(&self, key: &[u8], rf: u32) -> Vec<NodeId> {
        let p = self.primary(key);
        self.strategy.place(p, self.nodes, rf, &self.snitch)
    }

    /// [`Ring::replicas`] into a caller-provided buffer (cleared first); the
    /// per-op coordinator paths reuse one scratch buffer instead of
    /// allocating a fresh replica set each operation.
    pub fn replicas_into(&self, key: &[u8], rf: u32, out: &mut Vec<NodeId>) {
        self.range_replicas_into(self.primary(key), rf, out);
    }

    /// The replica set of the whole range whose primary is ring position
    /// `primary` — the nodes [`Ring::replicas_into`] places every key of
    /// that range on — into a caller-provided buffer (cleared first).
    pub fn range_replicas_into(&self, primary: usize, rf: u32, out: &mut Vec<NodeId>) {
        self.strategy
            .place_into(primary, self.nodes, rf, &self.snitch, out);
    }

    /// Ring successor of a node index.
    pub fn successor(&self, idx: usize) -> usize {
        (idx + 1) % self.nodes
    }

    /// For an ordered ring: the exclusive end key of the primary range that
    /// starts at node `idx` (i.e. the next node's token). `None` for the
    /// last range (unbounded) or a hashing ring.
    pub fn range_end(&self, idx: usize) -> Option<&Key> {
        match &self.partitioner {
            Partitioner::OrderPreserving { tokens } => tokens.get(idx + 1),
            Partitioner::Murmur => None,
        }
    }

    /// For an ordered ring: the token (start key) of node `idx`'s range.
    pub fn range_start(&self, idx: usize) -> Option<&Key> {
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
        )
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
    fn replicas_are_distinct_successors() {
        let r = ordered_ring();
        assert_eq!(r.replicas(b"g", 3), vec![NodeId(1), NodeId(2), NodeId(3)]);
        // Wrap around the ring.
        assert_eq!(r.replicas(b"z", 3), vec![NodeId(3), NodeId(0), NodeId(1)]);
    }

    #[test]
    fn rf_clamps_to_node_count() {
        let r = ordered_ring();
        let reps = r.replicas(b"a", 10);
        assert_eq!(reps.len(), 4);
        let mut sorted = reps.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn replica_set_is_stable() {
        let r = ordered_ring();
        assert_eq!(r.replicas(b"hello", 3), r.replicas(b"hello", 3));
    }

    #[test]
    fn murmur_balances_load() {
        let r = Ring::new(10, Partitioner::murmur());
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
        let r = Ring::new(4, Partitioner::order_preserving(tokens));
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
        let m = Ring::new(4, Partitioner::murmur());
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
        let _ = Ring::new(3, Partitioner::order_preserving(vec![k("a")]));
    }

    #[test]
    fn network_topology_strategy_fills_per_dc_quotas() {
        // 6 nodes, 2 regions of 3 (contiguous blocks as Topology::geo lays
        // them out); one replica per DC.
        let t = simkit::Topology::geo(2, 3, 50, vec![0, 1000, 1000, 0]);
        let r = Ring::with_strategy(
            6,
            Partitioner::murmur(),
            Strategy::network_topology(2, 1),
            Snitch::from_topology(&t),
        );
        let reps = r.replicas(b"somekey", 0);
        assert_eq!(reps.len(), 2);
        assert_ne!(
            r.snitch().region(reps[0]),
            r.snitch().region(reps[1]),
            "one replica in each DC: {reps:?}"
        );
    }

    #[test]
    fn single_dc_nts_matches_simple_placement() {
        let simple = ordered_ring();
        let nts = Ring::with_strategy(
            4,
            Partitioner::order_preserving(vec![k("a"), k("g"), k("n"), k("t")]),
            Strategy::network_topology(1, 3),
            Snitch::single_dc(4),
        );
        for key in [&b"a"[..], b"g", b"m", b"z", b"0", b"hello"] {
            assert_eq!(simple.replicas(key, 3), nts.replicas(key, 3));
        }
    }
}
