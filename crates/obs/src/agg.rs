//! Stage-attribution aggregation: time-in-stage totals per op kind,
//! accumulated from critical paths.

use crate::critical::Segment;
use crate::stage::Stage;
use std::collections::BTreeMap;
use storage::OpKind;

/// Accumulated statistics for one `(OpKind, Stage)` cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCell {
    /// Total virtual µs spent in this stage across all recorded paths.
    pub total_us: u64,
    /// Number of path segments that contributed.
    pub segments: u64,
    /// Longest single segment, µs.
    pub max_us: u64,
}

/// Per-`OpKind` critical-path time-in-stage aggregation.
///
/// Because each recorded path tiles its op's latency exactly, for every
/// kind `sum over stages of total_us == sum of op latencies`; stage
/// *shares* therefore partition measured latency with nothing missing and
/// nothing double-counted.
#[derive(Debug, Clone, Default)]
pub struct StageAgg {
    cells: BTreeMap<(OpKind, Stage), StageCell>,
    ops: BTreeMap<OpKind, u64>,
}

impl StageAgg {
    /// An empty aggregation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one op's critical path into the aggregation.
    pub fn record_path(&mut self, kind: OpKind, path: &[Segment]) {
        *self.ops.entry(kind).or_insert(0) += 1;
        for seg in path {
            let len = seg.len();
            if len == 0 {
                continue;
            }
            let cell = self.cells.entry((kind, seg.stage)).or_default();
            cell.total_us += len;
            cell.segments += 1;
            cell.max_us = cell.max_us.max(len);
        }
    }

    /// Number of ops recorded for `kind`.
    pub fn ops(&self, kind: OpKind) -> u64 {
        self.ops.get(&kind).copied().unwrap_or(0)
    }

    /// Op kinds present, in `OpKind` order.
    pub fn kinds(&self) -> Vec<OpKind> {
        self.ops.keys().copied().collect()
    }

    /// The cell for `(kind, stage)`, if any segment landed there.
    pub fn cell(&self, kind: OpKind, stage: Stage) -> Option<StageCell> {
        self.cells.get(&(kind, stage)).copied()
    }

    /// Total critical-path µs for `kind` (== the sum of its op latencies).
    pub fn total_us(&self, kind: OpKind) -> u64 {
        self.cells
            .iter()
            .filter(|((k, _), _)| *k == kind)
            .map(|(_, c)| c.total_us)
            .sum()
    }

    /// Mean µs per op spent in `stage` for `kind` (0 when no ops).
    pub fn mean_us(&self, kind: OpKind, stage: Stage) -> f64 {
        let ops = self.ops(kind);
        if ops == 0 {
            return 0.0;
        }
        self.cell(kind, stage).map_or(0.0, |c| c.total_us as f64) / ops as f64
    }

    /// Fraction of `kind`'s total latency attributed to `stage` (0..=1).
    pub fn share(&self, kind: OpKind, stage: Stage) -> f64 {
        let total = self.total_us(kind);
        if total == 0 {
            return 0.0;
        }
        self.cell(kind, stage).map_or(0.0, |c| c.total_us as f64) / total as f64
    }

    /// Iterate all non-empty cells in deterministic `(OpKind, Stage)` order.
    pub fn iter(&self) -> impl Iterator<Item = (OpKind, Stage, StageCell)> + '_ {
        self.cells.iter().map(|(&(k, s), &c)| (k, s, c))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::span::CLIENT_NODE;

    fn seg(stage: Stage, start: u64, end: u64) -> Segment {
        Segment {
            stage,
            node: CLIENT_NODE,
            start,
            end,
        }
    }

    #[test]
    fn shares_partition_total_latency() {
        let mut agg = StageAgg::new();
        agg.record_path(
            OpKind::Update,
            &[seg(Stage::ClientSend, 0, 10), seg(Stage::WalCommit, 10, 90)],
        );
        agg.record_path(
            OpKind::Update,
            &[
                seg(Stage::ClientSend, 100, 105),
                seg(Stage::WalCommit, 105, 200),
            ],
        );
        assert_eq!(agg.ops(OpKind::Update), 2);
        assert_eq!(agg.kinds(), vec![OpKind::Update]);
        assert_eq!(agg.total_us(OpKind::Update), 90 + 100);
        let share_sum: f64 = Stage::ALL
            .iter()
            .map(|&s| agg.share(OpKind::Update, s))
            .sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
        assert_eq!(agg.mean_us(OpKind::Update, Stage::ClientSend), 7.5);
        let cell = agg.cell(OpKind::Update, Stage::WalCommit).unwrap();
        assert_eq!(cell.segments, 2);
        assert_eq!(cell.max_us, 95);
    }

    #[test]
    fn empty_agg_is_all_zero() {
        let agg = StageAgg::new();
        assert_eq!(agg.ops(OpKind::Scan), 0);
        assert_eq!(agg.mean_us(OpKind::Scan, Stage::DiskIo), 0.0);
        assert_eq!(agg.share(OpKind::Scan, Stage::DiskIo), 0.0);
        assert_eq!(agg.iter().count(), 0);
    }
}
