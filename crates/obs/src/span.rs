//! Raw spans: one virtual-time interval per recorded stage.

use crate::stage::Stage;
use simkit::SimTime;

/// Node id used for client-side spans (the driver is not a cluster node).
pub const CLIENT_NODE: u32 = u32::MAX;

/// Op id used for background spans (WAL shipments, repair writes) that belong
/// to no client operation. Store-internal ops already use token `0` for
/// fire-and-forget work, so the tracer routes it to the background lane.
pub const BG_OP: u64 = 0;

/// One recorded virtual-time interval: operation `op` spent
/// `[start, end)` in `stage` on `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpan {
    /// The attempt token the span was recorded under (the driver maps
    /// attempt tokens back to logical ops at export time).
    pub op: u64,
    /// The lifecycle stage.
    pub stage: Stage,
    /// Cluster node id, or [`CLIENT_NODE`] for driver-side spans.
    pub node: u32,
    /// Interval start, virtual µs.
    pub start: SimTime,
    /// Interval end, virtual µs (exclusive; always `> start`).
    pub end: SimTime,
}

impl StageSpan {
    /// Deterministic sort key: start ascending, then wider-first, then
    /// stage, then node. Parents sort before the children they contain.
    pub fn sort_key(&self) -> (SimTime, std::cmp::Reverse<SimTime>, Stage, u32) {
        (
            self.start,
            std::cmp::Reverse(self.end),
            self.stage,
            self.node,
        )
    }
}
