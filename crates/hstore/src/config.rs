//! Cluster configuration.

use node::NodeConfig;
use storage::{Key, LsmConfig};

/// CPU service times (microseconds) for the HBase-analog request path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceCosts {
    /// Region-server request handling (parse, route to region).
    pub server_us: u64,
    /// Per-node cost of relaying one WAL pipeline packet.
    pub wal_hop_us: u64,
    /// Memstore apply cost per mutation.
    pub apply_us: u64,
    /// Replica-side read handling.
    pub read_us: u64,
    /// Per-row scan cost.
    pub scan_row_us: u64,
}

impl Default for ServiceCosts {
    fn default() -> Self {
        // Calibrated to 2014-era request-path costs (JVM RPC stacks): a
        // full single-op handling path lands around a millisecond, which
        // keeps the WAL pipeline's per-hop delta proportionally small — the
        // paper's "no significant change" in HBase write latency vs RF.
        Self {
            server_us: 700,
            wal_hop_us: 20,
            apply_us: 200,
            read_us: 400,
            scan_row_us: 5,
        }
    }
}

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
    /// path), RPC timeout, admission control, GC pauses, the background-I/O
    /// throttle, message overhead and service-time jitter.
    pub node: NodeConfig,
    /// CPU service times.
    pub costs: ServiceCosts,
    /// Roll the WAL block after this many bytes (HDFS block size).
    pub wal_block_bytes: u64,
    /// Crash-detection delay, microseconds: how long after a server crash
    /// the master notices (ZooKeeper session expiry) and starts region
    /// failover. During this window requests to the dead server's regions
    /// fail immediately. `0` makes failover synchronous with the crash —
    /// the pre-existing `fail_server` behaviour.
    pub failover_delay_us: u64,
    /// Async cluster-replication (geo) mode: the number of follower
    /// regions (remote datacenters) this primary ships committed WAL
    /// groups to, HBase-replication style. The primary serves all client
    /// traffic; followers are modeled as replication sinks whose applied
    /// watermark trails the primary by the shipping delay. `0` (the
    /// default) disables shipping entirely — no events, no cost,
    /// bit-identical to the pre-geo behaviour.
    pub follower_regions: u32,
    /// One-way WAN delay from the primary to each follower region,
    /// microseconds.
    pub ship_wan_us: u64,
    /// Extra shipping lag before a committed group leaves the primary (the
    /// replication source tails the WAL asynchronously and batches).
    pub ship_lag_us: u64,
}

impl HStoreConfig {
    /// The paper's testbed shape: 15 region servers, one rack, defaults
    /// everywhere else. `region_splits` carves the key space.
    pub fn paper_testbed(replication_factor: u32, region_splits: Vec<Key>) -> Self {
        Self {
            replication_factor,
            region_splits,
            lsm: LsmConfig::default(),
            node: NodeConfig::paper_testbed(15),
            costs: ServiceCosts::default(),
            wal_block_bytes: 4 * 1024 * 1024,
            failover_delay_us: 0,
            follower_regions: 0,
            ship_wan_us: simkit::DEFAULT_INTER_REGION_US,
            ship_lag_us: 10_000,
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
        assert_eq!(c.node.topology.len(), 15);
        assert_eq!(c.costs.server_us, 700);
        assert_eq!(c.node.rpc_timeout_us, 2_000_000);
        assert_eq!(c.failover_delay_us, 0, "failover is synchronous by default");
        assert_eq!(c.follower_regions, 0, "async replication is off by default");
        assert_eq!(c.ship_wan_us, 25_000);
    }
}
