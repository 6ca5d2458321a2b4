//! Cluster topology: node identities, region placement, propagation delays.
//!
//! The paper deliberately uses a single rack "to reduce interferences from
//! the partition problem"; the default topology mirrors that. The
//! geo-replication subsystem generalises it to regions × nodes: nodes
//! within a region are one `prop_us` hop apart, and regions are separated
//! by an asymmetric per-region-pair WAN matrix of one-way delays.

use crate::rng::splitmix64;
use crate::time::SimTime;

/// Default one-way inter-region delay (25 ms): the WAN hop of the geo
/// experiment and of hstore's cross-region log shipping.
pub const DEFAULT_INTER_REGION_US: u64 = 25_000;

/// Identity of a server node within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index, for indexing into node vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Region placement and network distances for a cluster.
///
/// Loopback is free, same-region pairs pay `prop_us`, and cross-region
/// pairs pay the (possibly asymmetric) per-region-pair one-way WAN delay.
/// Single-region topologies never consult the WAN matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    region_of: Vec<u32>,
    regions: u32,
    prop_us: u64,
    /// Flattened `regions × regions` matrix of one-way delays; entry
    /// `[from * regions + to]`. Empty for single-region topologies.
    wan_us: Vec<u64>,
}

impl Topology {
    /// A single rack of `n` nodes with `prop_us` one-way propagation between
    /// any pair — the paper's testbed shape.
    pub fn single_rack(n: usize, prop_us: u64) -> Self {
        Self {
            region_of: vec![0; n],
            regions: 1,
            prop_us,
            wan_us: Vec::new(),
        }
    }

    /// `regions` regions of `nodes_per_region` consecutive node ids each,
    /// `prop_us` apart within a region; `wan_us` is the flattened
    /// `regions × regions` matrix of one-way inter-region delays
    /// (row-major, `[from * regions + to]`; the diagonal is ignored).
    pub fn geo(regions: u32, nodes_per_region: usize, prop_us: u64, wan_us: Vec<u64>) -> Self {
        assert!(regions > 0);
        assert_eq!(
            wan_us.len(),
            (regions as usize).pow(2),
            "WAN matrix must be regions x regions"
        );
        let n = regions as usize * nodes_per_region;
        Self {
            region_of: (0..n).map(|i| (i / nodes_per_region) as u32).collect(),
            regions,
            prop_us,
            wan_us,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.region_of.len()
    }

    /// True when the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.region_of.is_empty()
    }

    /// Region (datacenter) index of a node.
    pub fn region(&self, node: NodeId) -> u32 {
        self.region_of[node.index()]
    }

    /// Number of regions (datacenters). Always at least 1 for non-empty
    /// topologies.
    pub fn num_regions(&self) -> u32 {
        self.regions
    }

    /// One-way propagation delay between two nodes. Loopback is free.
    pub fn prop_us(&self, from: NodeId, to: NodeId) -> SimTime {
        if from == to {
            return 0;
        }
        let (rf, rt) = (self.region(from), self.region(to));
        if rf != rt {
            self.wan_us[(rf * self.regions + rt) as usize]
        } else {
            self.prop_us
        }
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.region_of.len() as u32).map(NodeId)
    }

    /// Iterate over the node ids in one region.
    pub fn region_nodes(&self, region: u32) -> impl Iterator<Item = NodeId> + '_ {
        self.region_of
            .iter()
            .enumerate()
            .filter(move |&(_, &r)| r == region)
            .map(|(i, _)| NodeId(i as u32))
    }
}

/// A multi-region layout: the region count plus the WAN delay model that
/// [`GeoConfig::topology`] turns into a [`Topology::geo`].
#[derive(Debug, Clone)]
pub struct GeoConfig {
    /// Number of regions (datacenters).
    pub regions: u32,
    /// Base one-way inter-region delay in µs (applied to every region pair
    /// before jitter).
    pub inter_region_us: u64,
    /// Per-direction WAN jitter as a fraction of `inter_region_us`:
    /// each ordered region pair's delay is drawn uniformly from
    /// `base * [1 - jitter, 1 + jitter]`, making the matrix asymmetric.
    /// Zero keeps the matrix uniform.
    pub wan_jitter: f64,
    /// Seed for the jitter draw; the matrix is a pure function of
    /// `(seed, regions, inter_region_us, wan_jitter)`.
    pub jitter_seed: u64,
}

impl GeoConfig {
    /// The flattened `regions × regions` one-way WAN delay matrix
    /// (row-major, diagonal zero). Deterministic in the config: jitter is
    /// drawn once per ordered pair from a seeded [`splitmix64`].
    fn wan_matrix(&self) -> Vec<SimTime> {
        let r = self.regions as usize;
        let mut m = vec![0u64; r * r];
        for i in 0..r {
            for j in 0..r {
                if i == j {
                    continue;
                }
                let base = self.inter_region_us as f64;
                let us = if self.wan_jitter > 0.0 {
                    // Uniform in base * [1 - jitter, 1 + jitter], one draw
                    // per ordered pair so from->to and to->from differ.
                    let h = splitmix64(
                        self.jitter_seed ^ ((i as u64) << 32 | j as u64).wrapping_mul(0x9E37),
                    );
                    let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
                    base * (1.0 - self.wan_jitter + 2.0 * self.wan_jitter * unit)
                } else {
                    base
                };
                m[i * r + j] = us.round() as u64;
            }
        }
        m
    }

    /// The full [`Topology`]: `regions` regions of `nodes_per_region`
    /// nodes each, `prop_us` apart within a region, WAN from the config's
    /// delay matrix. A single-region config degenerates to the classic
    /// layout and never consults the WAN matrix.
    pub fn topology(&self, nodes_per_region: usize, prop_us: u64) -> Topology {
        Topology::geo(self.regions, nodes_per_region, prop_us, self.wan_matrix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rack_uniform_latency() {
        let t = Topology::single_rack(15, 50);
        assert_eq!(t.len(), 15);
        assert_eq!(t.prop_us(NodeId(0), NodeId(14)), 50);
        assert_eq!(t.prop_us(NodeId(3), NodeId(3)), 0);
    }

    #[test]
    fn node_iteration_covers_all() {
        let t = Topology::single_rack(4, 10);
        let ids: Vec<_> = t.nodes().collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(NodeId(7).index(), 7);
    }

    #[test]
    fn empty_topology() {
        let t = Topology::single_rack(0, 50);
        assert!(t.is_empty());
        assert_eq!(t.nodes().count(), 0);
    }

    #[test]
    fn single_region_defaults() {
        let t = Topology::single_rack(6, 50);
        assert_eq!(t.num_regions(), 1);
        assert_eq!(t.region(NodeId(5)), 0);
        assert_eq!(t.region(NodeId(0)), t.region(NodeId(1)));
        assert_eq!(t.region_nodes(0).count(), 6);
    }

    #[test]
    fn geo_distances() {
        // 2 regions x 4 nodes; asymmetric WAN.
        let wan = vec![0, 25_000, 30_000, 0];
        let t = Topology::geo(2, 4, 50, wan);
        assert_eq!(t.len(), 8);
        assert_eq!(t.num_regions(), 2);
        // Region blocks are contiguous.
        assert_eq!(t.region(NodeId(3)), 0);
        assert_eq!(t.region(NodeId(4)), 1);
        let ids: Vec<_> = t.region_nodes(1).collect();
        assert_eq!(ids, vec![NodeId(4), NodeId(5), NodeId(6), NodeId(7)]);
        // Same region.
        assert_eq!(t.prop_us(NodeId(0), NodeId(3)), 50);
        assert_eq!(t.prop_us(NodeId(2), NodeId(2)), 0);
        // Cross-region is asymmetric.
        assert_eq!(t.prop_us(NodeId(0), NodeId(4)), 25_000);
        assert_eq!(t.prop_us(NodeId(4), NodeId(0)), 30_000);
        assert_eq!(t.prop_us(NodeId(5), NodeId(3)), 30_000);
    }

    fn with_regions(regions: u32) -> GeoConfig {
        GeoConfig {
            regions,
            inter_region_us: DEFAULT_INTER_REGION_US,
            wan_jitter: 0.0,
            jitter_seed: 0x6E0,
        }
    }

    #[test]
    fn an_unjittered_matrix_is_uniform() {
        let m = with_regions(3).wan_matrix();
        assert_eq!(m.len(), 9);
        assert_eq!(m[0], 0);
        assert_eq!(m[1], 25_000);
        assert_eq!(m[5], 25_000);
    }

    #[test]
    fn jittered_matrix_is_asymmetric_and_deterministic() {
        let cfg = GeoConfig {
            wan_jitter: 0.2,
            ..with_regions(3)
        };
        let (a, b) = (cfg.wan_matrix(), cfg.wan_matrix());
        assert_eq!(a, b, "same config must build the same matrix");
        let r = 3usize;
        assert_ne!(a[1], a[r], "0->1 and 1->0 should differ under jitter");
        for i in 0..r {
            for j in 0..r {
                let us = a[i * r + j];
                if i == j {
                    assert_eq!(us, 0);
                } else {
                    assert!((20_000..=30_000).contains(&us), "delay {us} out of band");
                }
            }
        }
    }

    #[test]
    fn topology_from_config() {
        let t = with_regions(2).topology(3, 50);
        assert_eq!(t.len(), 6);
        assert_eq!(t.num_regions(), 2);
        assert_eq!(t.region(NodeId(2)), 0);
        assert_eq!(t.region(NodeId(3)), 1);
        assert_eq!(t.prop_us(NodeId(0), NodeId(3)), 25_000);
        assert_eq!(t.prop_us(NodeId(0), NodeId(1)), 50);
    }
}
