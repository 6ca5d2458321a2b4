//! Calibrated cluster builders: the paper's testbed, scaled.
//!
//! The paper loads 100 M × 1 KB records (stress) and 1 B × 1 B records
//! (micro) onto 15 machines with 32 GB RAM each. We scale record counts
//! down by a factor recorded in [`Scale`] and shrink per-node cache capacity
//! by the same factor, so the *cache-hit regime* — the property that decides
//! whether a read costs 8 ms of disk or microseconds of RAM, i.e. the
//! paper's "fit-in-memory problem" — is preserved. Values are 100 B instead
//! of 1 KB: on the simulated HDD the per-record transfer time is seek-
//! dominated either way, and the smaller footprint keeps host memory sane.

use cstore::{CStoreConfig, Consistency, Partitioner};
use hstore::HStoreConfig;
use storage::compaction::SizeTieredPolicy;
use storage::{Key, LsmConfig};
use ycsb::balanced_tokens;

/// Which store an experiment targets. Variants are declared in
/// `StoreKind::short` name order, so the derived `Ord` sorts grids the way
/// the CSVs list them (cstore rows first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StoreKind {
    /// The Cassandra analog.
    CStore,
    /// The HBase analog.
    HStore,
}

impl StoreKind {
    /// Display label ("HBase"-side vs "Cassandra"-side analog).
    pub(crate) fn label(self) -> &'static str {
        match self {
            StoreKind::HStore => "hstore (HBase analog)",
            StoreKind::CStore => "cstore (Cassandra analog)",
        }
    }

    /// Short name for file paths and table cells.
    pub(crate) fn short(self) -> &'static str {
        match self {
            StoreKind::HStore => "hstore",
            StoreKind::CStore => "cstore",
        }
    }
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short())
    }
}

/// One experiment scale: record count, record size, and the per-node
/// storage budgets that keep cache-hit regimes in the paper's range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Records preloaded before the measured run.
    pub records: u64,
    /// Value bytes per record.
    pub value_len: usize,
    /// Per-node block-cache bytes.
    pub node_cache_bytes: u64,
    /// Memtable/memstore flush threshold.
    pub memtable_flush_bytes: u64,
    /// SSTable/HFile block size (the disk-I/O unit).
    pub block_size: u64,
    /// Cluster size (the paper: 15 servers).
    pub nodes: usize,
}

impl Scale {
    /// The stress-benchmark scale: the paper's 100 M × 1 KB records scaled
    /// by 500× to 200 k records; per-node cache scaled like the paper's
    /// *block cache plus OS page cache* (≈20 of 32 GB), which held all of a
    /// node's data at RF ≤ 2 and a shrinking fraction as RF grows — the
    /// regime in which HBase stays flat and Cassandra's replica traffic
    /// starts paying for disk.
    pub fn stress() -> Self {
        Self {
            records: 200_000,
            value_len: 100,
            node_cache_bytes: 6 * 1024 * 1024,
            memtable_flush_bytes: 256 * 1024,
            // ~9 rows per block: the same rows-per-cache-unit ratio as the
            // paper's 1 KB rows in 4 KB OS pages.
            block_size: 1024,
            nodes: 15,
        }
    }

    /// The micro-benchmark scale: the paper's 1 B × 1 B records scaled to
    /// 400 k tiny records with a deliberately small cache, so reads are
    /// disk-bound (the paper sizes micro data to force "disk access on the
    /// whole cluster evenly").
    pub fn micro() -> Self {
        Self {
            records: 400_000,
            value_len: 1,
            node_cache_bytes: 448 * 1024,
            memtable_flush_bytes: 256 * 1024,
            block_size: 8 * 1024,
            nodes: 15,
        }
    }

    /// A miniature scale for tests and the quickstart example.
    pub fn tiny() -> Self {
        Self {
            records: 2_000,
            value_len: 32,
            node_cache_bytes: 64 * 1024,
            memtable_flush_bytes: 32 * 1024,
            block_size: 2 * 1024,
            nodes: 5,
        }
    }

    pub(crate) fn lsm(&self) -> LsmConfig {
        LsmConfig {
            block_size: self.block_size,
            memtable_flush_bytes: self.memtable_flush_bytes,
            cache_bytes: self.node_cache_bytes,
            compaction: SizeTieredPolicy::default(),
        }
    }

    /// Evenly spaced ordered-partitioner tokens over the (hashed) key
    /// space (one per node).
    pub(crate) fn tokens(&self) -> Vec<Key> {
        balanced_tokens(self.nodes)
    }

    /// Region split keys (one region per node, aligned with the tokens so
    /// the two stores shard identically).
    pub(crate) fn region_splits(&self) -> Vec<Key> {
        self.tokens().into_iter().skip(1).collect()
    }
}

/// Build a Cassandra-analog cluster at this scale with the given RF and
/// consistency levels.
pub fn build_cstore(
    scale: &Scale,
    rf: u32,
    read_cl: Consistency,
    write_cl: Consistency,
) -> cstore::Cluster {
    build_cstore_with(scale, rf, read_cl, write_cl, |_| {})
}

/// Build a Cassandra-analog cluster with a configuration hook applied
/// before construction (ablations: read-repair chance, commit-log mode…).
pub fn build_cstore_with(
    scale: &Scale,
    rf: u32,
    read_cl: Consistency,
    write_cl: Consistency,
    tweak: impl FnOnce(&mut CStoreConfig),
) -> cstore::Cluster {
    let mut cfg = CStoreConfig::paper_testbed(rf, Partitioner::order_preserving(scale.tokens()));
    cfg.node.topology = simkit::Topology::single_rack(scale.nodes, cfg.node.profile.nic.prop_us);
    cfg.lsm = scale.lsm();
    cfg.read_cl = read_cl;
    cfg.write_cl = write_cl;
    tweak(&mut cfg);
    cstore::Cluster::new(cfg)
}

/// Build an HBase-analog cluster at this scale with the given HDFS
/// replication factor.
pub fn build_hstore(scale: &Scale, rf: u32) -> hstore::Cluster {
    build_hstore_with(scale, rf, |_| {})
}

/// Build an HBase-analog cluster with a configuration hook applied before
/// construction (failure experiments: RPC timeout, failover delay…).
pub fn build_hstore_with(
    scale: &Scale,
    rf: u32,
    tweak: impl FnOnce(&mut HStoreConfig),
) -> hstore::Cluster {
    let mut cfg = HStoreConfig::paper_testbed(rf, scale.region_splits());
    cfg.node.topology = simkit::Topology::single_rack(scale.nodes, cfg.node.profile.nic.prop_us);
    cfg.lsm = scale.lsm();
    tweak(&mut cfg);
    hstore::Cluster::new(cfg, 0xB0A7 ^ u64::from(rf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_sorted_and_one_per_node() {
        let s = Scale::stress();
        let t = s.tokens();
        assert_eq!(t.len(), 15);
        assert!(t.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s.region_splits().len(), 14);
    }

    #[test]
    fn builders_produce_matching_shards() {
        let s = Scale::tiny();
        let c = build_cstore(&s, 3, Consistency::One, Consistency::One);
        let h = build_hstore(&s, 3);
        assert_eq!(c.len(), s.nodes);
        assert_eq!(h.regions().len(), s.nodes);
        // Any key routes to the same shard index in both stores.
        for id in [0u64, 7, 99] {
            let key = ycsb::encode_key(id);
            assert_eq!(c.ring().primary(&key), h.regions().region_of(&key));
        }
    }

    #[test]
    fn scales_are_ordered_sanely() {
        assert!(Scale::tiny().records < Scale::stress().records);
        assert!(Scale::micro().value_len < Scale::stress().value_len);
    }
}
