//! Cluster configuration: consistency levels, service costs, tuning knobs.

use ::node::NodeConfig;
use storage::LsmConfig;

use crate::ring::Partitioner;

/// A tunable consistency level (the paper benchmarks ONE, QUORUM, and
/// write-ALL; TWO and THREE exist in Cassandra and are included for
/// completeness; LOCAL_QUORUM and EACH_QUORUM are the datacenter-aware
/// levels the geo-replication subsystem adds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Consistency {
    /// One replica must respond.
    One,
    /// Two replicas must respond.
    Two,
    /// Three replicas must respond.
    Three,
    /// A majority of replicas must respond.
    Quorum,
    /// A majority of the replicas in the coordinator's datacenter must
    /// respond; remote-DC responses do not count and no WAN hop sits on the
    /// settle path. In a single-datacenter cluster this is exactly
    /// [`Consistency::Quorum`].
    LocalQuorum,
    /// A majority of the replicas in *every* datacenter must respond; the
    /// settle path waits on the slowest datacenter's quorum. In a
    /// single-datacenter cluster this is exactly [`Consistency::Quorum`].
    EachQuorum,
    /// Every replica must respond.
    All,
}

impl Consistency {
    /// How many replica responses this level requires at replication factor
    /// `rf` (clamped to `rf`).
    ///
    /// For the datacenter-aware levels this is the datacenter-blind
    /// fallback (a plain majority of `rf`) — correct for single-DC
    /// clusters; multi-DC coordinators compute per-DC quotas from the
    /// snitch instead.
    pub fn required(self, rf: u32) -> u32 {
        let n = match self {
            Consistency::One => 1,
            Consistency::Two => 2,
            Consistency::Three => 3,
            Consistency::Quorum | Consistency::LocalQuorum | Consistency::EachQuorum => rf / 2 + 1,
            Consistency::All => rf,
        };
        n.clamp(1, rf.max(1))
    }

    /// True for the levels whose quota is computed per datacenter.
    pub fn dc_aware(self) -> bool {
        matches!(self, Consistency::LocalQuorum | Consistency::EachQuorum)
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Consistency::One => "ONE",
            Consistency::Two => "TWO",
            Consistency::Three => "THREE",
            Consistency::Quorum => "QUORUM",
            Consistency::LocalQuorum => "LOCAL_QUORUM",
            Consistency::EachQuorum => "EACH_QUORUM",
            Consistency::All => "ALL",
        }
    }
}

impl std::fmt::Display for Consistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How the commit log reaches the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitlogSync {
    /// Appends acknowledge from memory; disk bandwidth is consumed in the
    /// background (Cassandra's `periodic` mode, the default the paper ran).
    Periodic,
    /// Every write waits for its log bytes to reach the platter (`batch`
    /// mode); used by the durability ablation.
    PerWrite,
}

/// CPU service times (microseconds) for the request-path stages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceCosts {
    /// Coordinator request parse/route cost.
    pub coord_us: u64,
    /// Replica-side point-read handling.
    pub replica_read_us: u64,
    /// Replica-side mutation handling (log append + memtable insert).
    pub replica_write_us: u64,
    /// Coordinator work per replica response (digest compare, reconcile).
    pub reconcile_us: u64,
    /// Replica-side cost per row returned by a scan.
    pub scan_row_us: u64,
}

impl Default for ServiceCosts {
    fn default() -> Self {
        // Calibrated to 2014-era request-path costs (JVM RPC stacks):
        // a full coordinator+replica path lands near a millisecond before
        // any disk access, matching the era's measured floor latencies.
        Self {
            coord_us: 200,
            replica_read_us: 300,
            replica_write_us: 300,
            reconcile_us: 20,
            scan_row_us: 5,
        }
    }
}

/// Full configuration of a simulated Cassandra-analog cluster.
#[derive(Debug, Clone)]
pub struct CStoreConfig {
    /// Replication factor (the paper sweeps 1..=6).
    pub replication_factor: u32,
    /// Read consistency level.
    pub read_cl: Consistency,
    /// Write consistency level.
    pub write_cl: Consistency,
    /// Probability that a read triggers a background all-replica read
    /// repair (Cassandra's `read_repair_chance`; 0.1 was the era default).
    pub read_repair_chance: f64,
    /// Commit-log durability mode.
    pub commitlog_sync: CommitlogSync,
    /// Store hints for dead replicas and replay them on recovery.
    pub hinted_handoff: bool,
    /// Node hardware, topology (whose length is the node count; the paper:
    /// 15), RPC timeout, admission control, GC pauses, the background-I/O
    /// throttle, message overhead and service-time jitter.
    pub node: NodeConfig,
    /// Delay before a recovered node's stored hints start replaying, µs
    /// (Cassandra staggers replay so a rejoining node isn't flattened).
    pub hint_replay_delay_us: u64,
    /// Per-node storage-engine tuning.
    pub lsm: LsmConfig,
    /// Key partitioning scheme.
    pub partitioner: Partitioner,
    /// Replica placement strategy. [`geo::Strategy::Simple`] (the default)
    /// is datacenter-blind ring-successor placement;
    /// [`geo::Strategy::NetworkTopology`] fills per-datacenter quotas using
    /// the topology's region assignment as the snitch. With
    /// `NetworkTopology`, `replication_factor` must equal the quota sum.
    pub strategy: geo::Strategy,
    /// CPU service times.
    pub costs: ServiceCosts,
}

impl CStoreConfig {
    /// The paper's testbed shape: 15 identical nodes in one rack, RF and
    /// consistency per the experiment, defaults everywhere else.
    pub fn paper_testbed(replication_factor: u32, partitioner: Partitioner) -> Self {
        Self {
            replication_factor,
            read_cl: Consistency::One,
            write_cl: Consistency::One,
            read_repair_chance: 0.1,
            commitlog_sync: CommitlogSync::Periodic,
            hinted_handoff: true,
            node: NodeConfig::paper_testbed(15),
            hint_replay_delay_us: 1_000,
            lsm: LsmConfig::default(),
            partitioner,
            strategy: geo::Strategy::Simple,
            costs: ServiceCosts::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_math() {
        assert_eq!(Consistency::Quorum.required(1), 1);
        assert_eq!(Consistency::Quorum.required(2), 2);
        assert_eq!(Consistency::Quorum.required(3), 2);
        assert_eq!(Consistency::Quorum.required(4), 3);
        assert_eq!(Consistency::Quorum.required(5), 3);
        assert_eq!(Consistency::Quorum.required(6), 4);
    }

    #[test]
    fn levels_clamp_to_rf() {
        assert_eq!(Consistency::All.required(3), 3);
        assert_eq!(Consistency::Three.required(2), 2);
        assert_eq!(Consistency::Two.required(1), 1);
        assert_eq!(Consistency::One.required(6), 1);
    }

    #[test]
    fn quorum_plus_quorum_overlaps() {
        // W + R > N for QUORUM at every RF: the strong-consistency identity.
        for rf in 1..=10u32 {
            let q = Consistency::Quorum.required(rf);
            assert!(q + q > rf, "no overlap at rf={rf}");
        }
    }

    #[test]
    fn write_all_read_one_overlaps() {
        for rf in 1..=10u32 {
            let w = Consistency::All.required(rf);
            let r = Consistency::One.required(rf);
            assert!(w + r > rf);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Consistency::Quorum.to_string(), "QUORUM");
        assert_eq!(Consistency::One.label(), "ONE");
        assert_eq!(Consistency::LocalQuorum.to_string(), "LOCAL_QUORUM");
        assert_eq!(Consistency::EachQuorum.label(), "EACH_QUORUM");
    }

    #[test]
    fn dc_aware_levels_fall_back_to_plain_quorum() {
        for rf in 1..=6u32 {
            assert_eq!(
                Consistency::LocalQuorum.required(rf),
                Consistency::Quorum.required(rf)
            );
            assert_eq!(
                Consistency::EachQuorum.required(rf),
                Consistency::Quorum.required(rf)
            );
        }
        assert!(Consistency::LocalQuorum.dc_aware());
        assert!(Consistency::EachQuorum.dc_aware());
        assert!(!Consistency::Quorum.dc_aware());
    }

    #[test]
    fn paper_testbed_shape() {
        let c = CStoreConfig::paper_testbed(3, Partitioner::murmur());
        assert_eq!(c.replication_factor, 3);
        assert_eq!(c.read_cl, Consistency::One);
        assert_eq!(c.node.topology.len(), 15);
        assert!((c.read_repair_chance - 0.1).abs() < 1e-12);
        assert_eq!(
            c.node.rpc_timeout_us, 2_000_000,
            "era default rpc timeout: 2 s"
        );
    }
}
