//! Size-tiered compaction policy (Cassandra's STCS; HBase's default is the
//! same idea under a different name).
//!
//! Tables of similar size are grouped into buckets; when a bucket collects
//! `min_threshold` tables they are merged into one. This bounds the number
//! of runs a point read must consult.

use crate::sstable::TableId;

/// Size-tiered compaction configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeTieredPolicy {
    /// Minimum tables in a bucket before compacting it (Cassandra: 4).
    pub min_threshold: usize,
    /// Maximum tables merged at once (Cassandra: 32).
    pub max_threshold: usize,
    /// A table joins a bucket when its size is within
    /// `[bucket_low, bucket_high] ×` the bucket's average size.
    pub bucket_low: f64,
    /// See `bucket_low`.
    pub bucket_high: f64,
}

impl Default for SizeTieredPolicy {
    fn default() -> Self {
        Self {
            min_threshold: 4,
            max_threshold: 32,
            bucket_low: 0.5,
            bucket_high: 1.5,
        }
    }
}

impl SizeTieredPolicy {
    /// Choose tables to merge, or `None` if no bucket is ripe. Input is
    /// `(table, bytes)` for every live table; output lists the chosen ids.
    pub(crate) fn pick(&self, tables: &[(TableId, u64)]) -> Option<Vec<TableId>> {
        if tables.len() < self.min_threshold {
            return None;
        }
        // Sort by size, then greedily bucket neighbours of similar size.
        let mut sorted: Vec<_> = tables.to_vec();
        sorted.sort_by_key(|&(_, bytes)| bytes);
        let mut buckets: Vec<(f64, Vec<TableId>)> = Vec::new(); // (avg, members)
        for (id, bytes) in sorted {
            // Floor at one byte so empty tables bucket together instead of
            // each forming a singleton (0 is outside any multiplicative band).
            let b = (bytes as f64).max(1.0);
            match buckets.last_mut() {
                Some((avg, members))
                    if b >= *avg * self.bucket_low && b <= *avg * self.bucket_high =>
                {
                    let n = members.len() as f64;
                    *avg = (*avg * n + b) / (n + 1.0);
                    members.push(id);
                }
                _ => buckets.push((b, vec![id])),
            }
        }
        buckets
            .into_iter()
            .map(|(_, members)| members)
            .filter(|m| m.len() >= self.min_threshold)
            .max_by_key(|m| m.len())
            .map(|mut m| {
                m.truncate(self.max_threshold);
                m
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64, bytes: u64) -> (TableId, u64) {
        (TableId(id), bytes)
    }

    #[test]
    fn too_few_tables_is_none() {
        let p = SizeTieredPolicy::default();
        assert_eq!(p.pick(&[t(1, 100), t(2, 100), t(3, 100)]), None);
    }

    #[test]
    fn similar_sizes_form_a_bucket() {
        let p = SizeTieredPolicy::default();
        let picked = p
            .pick(&[t(1, 100), t(2, 110), t(3, 95), t(4, 105)])
            .expect("ripe bucket");
        assert_eq!(picked.len(), 4);
    }

    #[test]
    fn dissimilar_sizes_do_not_mix() {
        let p = SizeTieredPolicy::default();
        // Three small and three huge: no bucket reaches four members.
        let tables = [
            t(1, 100),
            t(2, 100),
            t(3, 100),
            t(4, 1_000_000),
            t(5, 1_000_000),
            t(6, 1_000_000),
        ];
        assert_eq!(p.pick(&tables), None);
    }

    #[test]
    fn picks_fullest_bucket() {
        let p = SizeTieredPolicy {
            min_threshold: 2,
            ..Default::default()
        };
        let tables = [
            t(1, 100),
            t(2, 100),
            t(3, 1_000_000),
            t(4, 1_000_000),
            t(5, 1_000_000),
        ];
        let picked = p.pick(&tables).expect("bucket");
        assert_eq!(picked.len(), 3);
        assert!(picked.contains(&TableId(3)));
    }

    #[test]
    fn respects_max_threshold() {
        let p = SizeTieredPolicy {
            min_threshold: 2,
            max_threshold: 3,
            ..Default::default()
        };
        let tables: Vec<_> = (0..10).map(|i| t(i, 100)).collect();
        assert_eq!(p.pick(&tables).expect("bucket").len(), 3);
    }

    #[test]
    fn zero_byte_tables_do_not_divide_by_zero() {
        let p = SizeTieredPolicy {
            min_threshold: 2,
            ..Default::default()
        };
        let picked = p.pick(&[t(1, 0), t(2, 0), t(3, 0), t(4, 0)]);
        assert!(picked.is_some());
    }
}
