//! Cluster topology: node identities, region/rack placement, propagation
//! delays.
//!
//! The paper deliberately uses a single rack "to reduce interferences from
//! the partition problem"; the default topology mirrors that. The hierarchy
//! generalises to regions × racks × nodes for the geo-replication subsystem:
//! nodes within a rack are one `intra_rack_us` hop apart, racks within a
//! region one `inter_rack_us` hop, and regions are separated by an
//! asymmetric per-region-pair WAN matrix of one-way delays.

use crate::time::SimTime;

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

/// Region, rack placement and network distances for a cluster.
///
/// Distance lookup is a strict hierarchy: loopback is free, same-rack pairs
/// pay `intra_rack_us`, same-region/different-rack pairs pay
/// `inter_rack_us`, and cross-region pairs pay the (possibly asymmetric)
/// per-region-pair one-way WAN delay. Single-region topologies never consult
/// the WAN matrix, so pre-geo configurations behave bit-identically.
#[derive(Debug, Clone)]
pub struct Topology {
    rack_of: Vec<u32>,
    region_of: Vec<u32>,
    regions: u32,
    intra_rack_us: u64,
    inter_rack_us: u64,
    /// Flattened `regions × regions` matrix of one-way delays; entry
    /// `[from * regions + to]`. Empty for single-region topologies.
    wan_us: Vec<u64>,
}

impl Topology {
    /// A single rack of `n` nodes with `prop_us` one-way propagation between
    /// any pair — the paper's testbed shape.
    pub fn single_rack(n: usize, prop_us: u64) -> Self {
        Self {
            rack_of: vec![0; n],
            region_of: vec![0; n],
            regions: 1,
            intra_rack_us: prop_us,
            inter_rack_us: prop_us,
            wan_us: Vec::new(),
        }
    }

    /// Multiple racks of equal size within one region. Nodes are assigned
    /// round-robin so consecutive node ids land in different racks.
    pub fn racks(n: usize, racks: u32, intra_rack_us: u64, inter_rack_us: u64) -> Self {
        assert!(racks > 0);
        Self {
            rack_of: (0..n as u32).map(|i| i % racks).collect(),
            region_of: vec![0; n],
            regions: 1,
            intra_rack_us,
            inter_rack_us,
            wan_us: Vec::new(),
        }
    }

    /// A regions × racks × nodes hierarchy. Each region holds
    /// `nodes_per_region` consecutive node ids spread round-robin over
    /// `racks_per_region` racks; `wan_us` is the flattened
    /// `regions × regions` matrix of one-way inter-region delays
    /// (row-major, `[from * regions + to]`; the diagonal is ignored).
    pub fn geo(
        regions: u32,
        nodes_per_region: usize,
        racks_per_region: u32,
        intra_rack_us: u64,
        inter_rack_us: u64,
        wan_us: Vec<u64>,
    ) -> Self {
        assert!(regions > 0);
        assert!(racks_per_region > 0);
        assert_eq!(
            wan_us.len(),
            (regions as usize).pow(2),
            "WAN matrix must be regions x regions"
        );
        let n = regions as usize * nodes_per_region;
        let region_of: Vec<u32> = (0..n).map(|i| (i / nodes_per_region) as u32).collect();
        // Racks are globally numbered so two racks in different regions never
        // alias: region r owns racks [r*racks_per_region, (r+1)*racks_per_region).
        let rack_of: Vec<u32> = (0..n)
            .map(|i| {
                let r = (i / nodes_per_region) as u32;
                r * racks_per_region + (i % nodes_per_region) as u32 % racks_per_region
            })
            .collect();
        Self {
            rack_of,
            region_of,
            regions,
            intra_rack_us,
            inter_rack_us,
            wan_us,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.rack_of.len()
    }

    /// True when the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.rack_of.is_empty()
    }

    /// Rack index of a node.
    pub fn rack(&self, node: NodeId) -> u32 {
        self.rack_of[node.index()]
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
        } else if self.rack(from) == self.rack(to) {
            self.intra_rack_us
        } else {
            self.inter_rack_us
        }
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.rack_of.len() as u32).map(NodeId)
    }

    /// Iterate over the node ids in one region.
    pub fn region_nodes(&self, region: u32) -> impl Iterator<Item = NodeId> + '_ {
        self.region_of
            .iter()
            .enumerate()
            .filter(move |&(_, &r)| r == region)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Snapshot of the per-node region assignment, for ring placement.
    pub fn region_map(&self) -> Vec<u32> {
        self.region_of.clone()
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
    fn multi_rack_distances() {
        let t = Topology::racks(6, 2, 50, 500);
        // Round-robin: nodes 0,2,4 in rack 0; 1,3,5 in rack 1.
        assert_eq!(t.rack(NodeId(0)), 0);
        assert_eq!(t.rack(NodeId(1)), 1);
        assert_eq!(t.prop_us(NodeId(0), NodeId(2)), 50);
        assert_eq!(t.prop_us(NodeId(0), NodeId(1)), 500);
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
        let t = Topology::racks(6, 2, 50, 500);
        assert_eq!(t.num_regions(), 1);
        assert_eq!(t.region(NodeId(5)), 0);
        assert_eq!(t.region(NodeId(0)), t.region(NodeId(1)));
        assert_eq!(t.region_nodes(0).count(), 6);
    }

    #[test]
    fn geo_hierarchy_distances() {
        // 2 regions x 2 racks x 2 nodes; asymmetric WAN.
        let wan = vec![0, 25_000, 30_000, 0];
        let t = Topology::geo(2, 4, 2, 50, 500, wan);
        assert_eq!(t.len(), 8);
        assert_eq!(t.num_regions(), 2);
        // Region blocks are contiguous.
        assert_eq!(t.region(NodeId(3)), 0);
        assert_eq!(t.region(NodeId(4)), 1);
        // Same rack (0 and 2 both in region 0, rack 0).
        assert_eq!(t.prop_us(NodeId(0), NodeId(2)), 50);
        // Same region, different rack.
        assert_eq!(t.prop_us(NodeId(0), NodeId(1)), 500);
        // Cross-region is asymmetric.
        assert_eq!(t.prop_us(NodeId(0), NodeId(4)), 25_000);
        assert_eq!(t.prop_us(NodeId(4), NodeId(0)), 30_000);
        assert_eq!(t.prop_us(NodeId(5), NodeId(3)), 30_000);
    }

    #[test]
    fn geo_racks_never_alias_across_regions() {
        let t = Topology::geo(3, 3, 2, 50, 500, vec![0; 9]);
        let (r0, r5) = (t.rack(NodeId(0)), t.rack(NodeId(5)));
        assert_ne!(
            t.region(NodeId(0)),
            t.region(NodeId(5)),
            "test premise: different regions"
        );
        assert_ne!(r0, r5, "rack ids must be globally unique");
        // Cross-region beats rack distance even though rack math could collide.
        assert_eq!(t.prop_us(NodeId(0), NodeId(5)), 0); // WAN matrix all-zero here
        let ids: Vec<_> = t.region_nodes(1).collect();
        assert_eq!(ids, vec![NodeId(3), NodeId(4), NodeId(5)]);
    }
}
