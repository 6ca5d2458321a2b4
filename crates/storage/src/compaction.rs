//! Size-tiered compaction policy (Cassandra's STCS; HBase's default is the
//! same idea under a different name), at Cassandra's default thresholds.
//!
//! Tables of similar size are grouped into buckets; when a bucket collects
//! [`MIN_THRESHOLD`] tables they are merged into one. This bounds the number
//! of runs a point read must consult.

use crate::sstable::{SsTable, TableId};

/// Minimum tables in a bucket before compacting it (Cassandra: 4).
const MIN_THRESHOLD: usize = 4;
/// Maximum tables merged at once (Cassandra: 32).
const MAX_THRESHOLD: usize = 32;
/// A table joins a bucket when its size is within
/// `[BUCKET_LOW, BUCKET_HIGH] ×` the bucket's average size.
const BUCKET_LOW: f64 = 0.5;
/// See [`BUCKET_LOW`].
const BUCKET_HIGH: f64 = 1.5;

/// Choose runs to merge among `runs`, every live one, oldest first, by
/// their `(id, total_bytes)`, or `None` if no bucket is ripe; lists the
/// chosen ids.
pub(crate) fn pick(runs: &[SsTable]) -> Option<Vec<TableId>> {
    if runs.len() < MIN_THRESHOLD {
        return None;
    }
    // Sort by size, then greedily bucket neighbours of similar size.
    let mut sorted: Vec<_> = runs.iter().map(|r| (r.id(), r.total_bytes())).collect();
    sorted.sort_by_key(|&(_, bytes)| bytes);
    let mut buckets: Vec<(f64, Vec<TableId>)> = Vec::new(); // (avg, members)
    for (id, bytes) in sorted {
        // Floor at one byte so empty tables bucket together instead of
        // each forming a singleton (0 is outside any multiplicative band).
        let b = (bytes as f64).max(1.0);
        match buckets.last_mut() {
            Some((avg, members)) if b >= *avg * BUCKET_LOW && b <= *avg * BUCKET_HIGH => {
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
        .filter(|m| m.len() >= MIN_THRESHOLD)
        .max_by_key(|m| m.len())
        .map(|mut m| {
            m.truncate(MAX_THRESHOLD);
            m
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Cell;
    use bytes::Bytes;

    /// A run of `bytes` encoded bytes: no row, or one row of a one-byte
    /// key (18 bytes besides its value).
    fn t(id: u64, bytes: u64) -> SsTable {
        let row = (bytes > 0).then(|| {
            let value = Bytes::from(vec![b'v'; bytes as usize - 18]);
            (Bytes::from_static(b"k"), Cell::live(value, 1))
        });
        let run = SsTable::build(TableId(id), row.into_iter().collect(), 4096);
        assert_eq!(run.total_bytes(), bytes);
        run
    }

    #[test]
    fn too_few_tables_is_none() {
        assert_eq!(pick(&[t(1, 100), t(2, 100), t(3, 100)]), None);
    }

    #[test]
    fn similar_sizes_form_a_bucket() {
        let picked = pick(&[t(1, 100), t(2, 110), t(3, 95), t(4, 105)]).expect("ripe bucket");
        assert_eq!(picked.len(), 4);
    }

    #[test]
    fn dissimilar_sizes_do_not_mix() {
        // Three small and three huge: no bucket reaches four members.
        let tables = [
            t(1, 100),
            t(2, 100),
            t(3, 100),
            t(4, 1_000_000),
            t(5, 1_000_000),
            t(6, 1_000_000),
        ];
        assert_eq!(pick(&tables), None);
    }

    #[test]
    fn picks_fullest_bucket() {
        let mut tables: Vec<_> = (0..4).map(|i| t(i, 100)).collect();
        tables.extend((4..9).map(|i| t(i, 1_000_000)));
        let picked = pick(&tables).expect("bucket");
        assert_eq!(picked.len(), 5);
        assert!(picked.iter().all(|id| id.0 >= 4));
    }

    #[test]
    fn respects_max_threshold() {
        let tables: Vec<_> = (0..40).map(|i| t(i, 100)).collect();
        assert_eq!(pick(&tables).expect("bucket").len(), MAX_THRESHOLD);
    }

    #[test]
    fn zero_byte_tables_do_not_divide_by_zero() {
        let picked = pick(&[t(1, 0), t(2, 0), t(3, 0), t(4, 0)]);
        assert!(picked.is_some());
    }
}
