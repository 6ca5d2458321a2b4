//! # geo — geo-replication subsystem
//!
//! The paper's §6 lists a geo-distributed testbed as future work; this crate
//! supplies the pieces the simulation needs to model one:
//!
//! * [`GeoConfig`] — a serde-free config (like `CStoreConfig`) holding the
//!   region count, per-region rack layout and the WAN delay model. The
//!   25 ms one-way inter-region default is the constant the old hand-run
//!   `extension_geo.csv` experiment hard-coded; it is promoted here so every
//!   consumer shares one knob.
//! * [`Snitch`] — the node → datacenter lookup replica placement and the
//!   datacenter-aware consistency levels consult, mirroring Cassandra's
//!   endpoint snitch.
//! * [`Strategy`] — replica placement: [`Strategy::Simple`] walks ring
//!   successors (Cassandra's `SimpleStrategy`), while
//!   [`Strategy::NetworkTopology`] fills per-datacenter replica quotas
//!   (`NetworkTopologyStrategy`).
//!
//! Everything is deterministic: WAN jitter is applied once, at matrix build
//! time, from a seeded splitmix64 — two builds of the same `GeoConfig`
//! produce byte-identical matrices.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use simkit::{NodeId, SimTime, Topology};

/// One-way inter-region delay the old extension scaffolding hard-coded
/// (25 ms), kept as the default for [`GeoConfig`].
pub const DEFAULT_INTER_REGION_US: u64 = 25_000;

/// Geo-topology parameters: regions × racks layout plus the WAN delay model.
///
/// Plain public fields with a [`Default`], in the style of `CStoreConfig`;
/// tweak fields directly or with struct-update syntax.
#[derive(Debug, Clone)]
pub struct GeoConfig {
    /// Number of regions (datacenters).
    pub regions: u32,
    /// Racks per region; nodes within a region spread round-robin.
    pub racks_per_region: u32,
    /// Base one-way inter-region delay in µs (applied to every region pair
    /// before jitter).
    pub inter_region_us: u64,
    /// Per-direction WAN jitter as a fraction of `inter_region_us`:
    /// each ordered region pair's delay is drawn uniformly from
    /// `base * [1 - jitter, 1 + jitter]`, making the matrix asymmetric.
    /// Zero (the default) keeps the matrix uniform.
    pub wan_jitter: f64,
    /// Seed for the jitter draw; the matrix is a pure function of
    /// `(seed, regions, inter_region_us, wan_jitter)`.
    pub jitter_seed: u64,
}

impl Default for GeoConfig {
    fn default() -> Self {
        Self {
            regions: 3,
            racks_per_region: 1,
            inter_region_us: DEFAULT_INTER_REGION_US,
            wan_jitter: 0.0,
            jitter_seed: 0x6E0,
        }
    }
}

impl GeoConfig {
    /// The flattened `regions × regions` one-way WAN delay matrix
    /// (row-major, diagonal zero). Deterministic in the config.
    pub fn wan_matrix(&self) -> Vec<SimTime> {
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

    /// Build the full [`Topology`]: `regions × racks_per_region` with
    /// `nodes_per_region` nodes each, local latencies as given, WAN from
    /// [`GeoConfig::wan_matrix`]. A single-region config degenerates to the
    /// classic layout and never consults the WAN matrix.
    pub fn topology(
        &self,
        nodes_per_region: usize,
        intra_rack_us: u64,
        inter_rack_us: u64,
    ) -> Topology {
        Topology::geo(
            self.regions,
            nodes_per_region,
            self.racks_per_region,
            intra_rack_us,
            inter_rack_us,
            self.wan_matrix(),
        )
    }
}

/// Node → datacenter lookup, mirroring Cassandra's endpoint snitch. A
/// snapshot of the topology's region assignment, cheap to clone and consult
/// on placement and ack-counting paths.
#[derive(Debug, Clone, Default)]
pub struct Snitch {
    region_of: Vec<u32>,
    regions: u32,
}

impl Snitch {
    /// Snitch for a flat single-datacenter cluster of `n` nodes.
    pub fn single_dc(n: usize) -> Self {
        Self {
            region_of: vec![0; n],
            regions: 1,
        }
    }

    /// Snitch reading the region assignment off a topology.
    pub fn from_topology(topology: &Topology) -> Self {
        Self {
            region_of: topology.region_map(),
            regions: topology.num_regions().max(1),
        }
    }

    /// Datacenter (region) index of a node.
    pub fn region(&self, node: NodeId) -> u32 {
        self.region_of[node.index()]
    }

    /// Number of datacenters.
    pub fn num_regions(&self) -> u32 {
        self.regions
    }

    /// Number of nodes the snitch knows about.
    pub fn len(&self) -> usize {
        self.region_of.len()
    }

    /// True when the snitch covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.region_of.is_empty()
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
    pub fn total_rf(&self, rf: u32) -> u32 {
        match self {
            Strategy::Simple => rf,
            Strategy::NetworkTopology { per_dc } => per_dc.iter().sum(),
        }
    }

    /// Replica set for a key whose primary lives at ring position
    /// `primary` in a cluster of `nodes` nodes. Walks ring successors;
    /// `Simple` takes the first `rf`, `NetworkTopology` takes nodes whose
    /// datacenter quota (per `snitch`) is still unfilled.
    pub fn place(&self, primary: usize, nodes: usize, rf: u32, snitch: &Snitch) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.place_into(primary, nodes, rf, snitch, &mut out);
        out
    }

    /// [`Strategy::place`] writing into a caller-provided buffer (cleared
    /// first). Placement runs once per client operation, so the hot store
    /// models keep one scratch buffer per cluster instead of allocating a
    /// replica `Vec` per op.
    pub fn place_into(
        &self,
        primary: usize,
        nodes: usize,
        rf: u32,
        snitch: &Snitch,
        out: &mut Vec<NodeId>,
    ) {
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
                    let dc = snitch.region(node) as usize;
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

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_regions(regions: u32) -> GeoConfig {
        GeoConfig {
            regions,
            ..GeoConfig::default()
        }
    }

    #[test]
    fn default_promotes_the_old_constant() {
        let cfg = GeoConfig::default();
        assert_eq!(cfg.inter_region_us, 25_000);
        let m = cfg.wan_matrix();
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
        let cfg = with_regions(2);
        let t = cfg.topology(3, 50, 500);
        assert_eq!(t.len(), 6);
        assert_eq!(t.num_regions(), 2);
        assert_eq!(t.prop_us(NodeId(0), NodeId(3)), 25_000);
        assert_eq!(t.prop_us(NodeId(0), NodeId(1)), 50);
    }

    #[test]
    fn snitch_reads_topology() {
        let t = with_regions(2).topology(3, 50, 500);
        let s = Snitch::from_topology(&t);
        assert_eq!(s.num_regions(), 2);
        assert_eq!(s.region(NodeId(2)), 0);
        assert_eq!(s.region(NodeId(3)), 1);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn simple_strategy_walks_successors() {
        let s = Snitch::single_dc(5);
        let got = Strategy::Simple.place(3, 5, 3, &s);
        assert_eq!(got, vec![NodeId(3), NodeId(4), NodeId(0)]);
        // rf clamps to node count.
        assert_eq!(Strategy::Simple.place(0, 2, 9, &s).len(), 2);
    }

    #[test]
    fn single_region_nts_matches_simple_bit_for_bit() {
        // Satellite acceptance: NTS with RF=N in the lone DC must place the
        // exact same replica list as SimpleStrategy, at every ring position.
        let snitch = Snitch::single_dc(7);
        let nts = Strategy::network_topology(1, 3);
        for primary in 0..7 {
            assert_eq!(
                nts.place(primary, 7, 3, &snitch),
                Strategy::Simple.place(primary, 7, 3, &snitch),
                "primary={primary}"
            );
        }
    }

    #[test]
    fn nts_fills_per_dc_quotas() {
        // 2 regions x 3 nodes, contiguous blocks (0..3 in DC0, 3..6 in DC1).
        let t = with_regions(2).topology(3, 50, 500);
        let snitch = Snitch::from_topology(&t);
        let nts = Strategy::network_topology(2, 2);
        let got = nts.place(1, 6, 0, &snitch);
        // Walk from n1: n1 (DC0), n2 (DC0), n3 (DC1), n4 (DC1); quota filled.
        assert_eq!(got, vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        let per_dc0 = got.iter().filter(|n| snitch.region(**n) == 0).count();
        assert_eq!(per_dc0, 2);
        assert_eq!(nts.total_rf(0), 4);
    }

    #[test]
    fn nts_quota_exceeding_dc_size_takes_what_exists() {
        let t = with_regions(2).topology(2, 50, 500);
        let snitch = Snitch::from_topology(&t);
        let nts = Strategy::network_topology(2, 3); // only 2 nodes per DC
        let got = nts.place(0, 4, 0, &snitch);
        assert_eq!(got.len(), 4, "cannot place more replicas than nodes");
    }
}
