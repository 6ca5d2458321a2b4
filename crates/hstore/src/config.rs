//! Cluster configuration.

use node::NodeConfig;
use storage::{Key, LsmConfig};

/// Full configuration of a simulated HBase-analog cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct HStoreConfig {
    /// HDFS replication factor (the paper sweeps 1..=6).
    pub replication_factor: u32,
    /// Region start keys (sorted; the first region implicitly starts at the
    /// empty key if the list doesn't). One region per entry, assigned
    /// round-robin by the master.
    pub region_splits: Vec<Key>,
    /// Per-region storage tuning. `cache_bytes` is interpreted per *server*
    /// and divided among its regions.
    pub lsm: LsmConfig,
    /// Node hardware, topology (whose length is the region-server count;
    /// the paper: 15, the master sharing the client machine off the serving
    /// path), RPC timeout and admission control.
    pub node: NodeConfig,
    /// Crash-detection delay, microseconds: how long after a server crash
    /// the master notices (ZooKeeper session expiry) and starts region
    /// failover, as an `Event::FailOver`. During this window requests to
    /// the dead server's regions fail immediately. `0` (the default) runs
    /// the failover at the crash instant, through the same event.
    pub failover_delay_us: u64,
    /// Async cluster-replication (geo) mode: the number of follower
    /// regions (remote datacenters) this primary ships committed WAL
    /// groups to, HBase-replication style. The primary serves all client
    /// traffic; followers are replication sinks a shipped group reaches
    /// one WAN delay ([`simkit::DEFAULT_INTER_REGION_US`]) after it leaves.
    /// `0` (the default) disables shipping entirely — no events, no cost,
    /// bit-identical to the pre-geo behaviour.
    pub follower_regions: u32,
}

/// Shipping lag, microseconds, before a committed WAL group leaves the
/// primary for its follower regions (the replication source tails the WAL
/// asynchronously and batches).
pub const SHIP_LAG_US: u64 = 10_000;

impl HStoreConfig {
    /// The paper's testbed shape: 15 region servers, one rack, defaults
    /// everywhere else. `region_splits` carves the key space.
    pub fn paper_testbed(replication_factor: u32, region_splits: Vec<Key>) -> Self {
        Self {
            replication_factor,
            region_splits,
            lsm: LsmConfig::default(),
            node: NodeConfig::paper_testbed(15),
            failover_delay_us: 0,
            follower_regions: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn paper_testbed_shape() {
        let c = HStoreConfig::paper_testbed(3, vec![Bytes::from_static(b"m")]);
        assert_eq!(c.replication_factor, 3);
        assert_eq!(c.region_splits.len(), 1);
        assert_eq!(c.node.topology.len(), 15);
        assert_eq!(c.node.rpc_timeout_us, 2_000_000);
        assert_eq!(
            c.failover_delay_us, 0,
            "failover at the crash instant by default"
        );
        assert_eq!(c.follower_regions, 0, "async replication is off by default");
        // A shipped group's replication window starts at the shipping lag
        // plus the one-way WAN delay, `simkit`'s inter-region constant:
        // Fig. 7's 35 ms floor.
        assert_eq!(SHIP_LAG_US + simkit::DEFAULT_INTER_REGION_US, 35_000);
    }
}
