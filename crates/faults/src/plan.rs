//! Declarative, seed-deterministic fault schedules.
//!
//! A [`FaultPlan`] is a time-ordered list of [`FaultEvent`]s expressed in
//! absolute virtual time. Plans are plain data: building one performs no
//! side effects and draws no randomness from the simulation RNG, so an
//! empty plan leaves a run bit-identical to one with no fault machinery at
//! all. Randomized plans ([`FaultPlan::randomized`]) derive every choice
//! from their own splitmix64 stream seeded by the cell seed, keeping them
//! reproducible and independent of the workload's random stream.

use simkit::{splitmix64, NodeId, SimTime};

/// What a single fault does to the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Crash a node: it stops serving requests until recovered.
    Crash {
        /// The victim node.
        node: NodeId,
    },
    /// Bring a crashed node back online (triggering any repair work the
    /// store schedules on recovery, e.g. hinted-handoff replay).
    Recover {
        /// The recovering node.
        node: NodeId,
    },
    /// Begin a slow-disk window: every disk service time on the node is
    /// multiplied by `factor` until restored.
    SlowDisk {
        /// The degraded node.
        node: NodeId,
        /// Service-time multiplier (≥ 2 to have any effect).
        factor: u32,
    },
    /// End a slow-disk window.
    RestoreDisk {
        /// The node whose disk returns to nominal speed.
        node: NodeId,
    },
    /// Begin a network-delay window: every message leaving the node pays an
    /// extra fixed delay until restored.
    NetDelay {
        /// The delayed node.
        node: NodeId,
        /// Extra egress delay per message, microseconds.
        extra_us: u64,
    },
    /// End a network-delay window.
    RestoreNet {
        /// The node whose NIC returns to nominal latency.
        node: NodeId,
    },
    /// Crash every node of one datacenter (geo region): a whole-DC outage.
    /// The injector expands this to a per-node crash using the target's
    /// region assignment; targets without that region skip the fault.
    CrashRegion {
        /// The victim region (datacenter index).
        region: u32,
    },
    /// Bring every node of a crashed datacenter back online.
    RecoverRegion {
        /// The recovering region.
        region: u32,
    },
    /// Partition a datacenter from the rest of the cluster: every node in
    /// the region pays `extra_us` of egress delay per message (a congested
    /// or flapping WAN link rather than a clean cut, so quorum waits grow
    /// instead of requests vanishing).
    PartitionRegion {
        /// The partitioned region.
        region: u32,
        /// Extra egress delay per message, microseconds.
        extra_us: u64,
    },
    /// End a datacenter partition.
    HealRegion {
        /// The region whose WAN link returns to nominal latency.
        region: u32,
    },
}

impl FaultKind {
    /// The node this fault applies to; `None` for region-scoped kinds.
    pub(crate) fn node(&self) -> Option<NodeId> {
        match *self {
            FaultKind::Crash { node }
            | FaultKind::Recover { node }
            | FaultKind::SlowDisk { node, .. }
            | FaultKind::RestoreDisk { node }
            | FaultKind::NetDelay { node, .. }
            | FaultKind::RestoreNet { node } => Some(node),
            FaultKind::CrashRegion { .. }
            | FaultKind::RecoverRegion { .. }
            | FaultKind::PartitionRegion { .. }
            | FaultKind::HealRegion { .. } => None,
        }
    }

    /// The datacenter this fault applies to; `None` for node-scoped kinds.
    pub(crate) fn region(&self) -> Option<u32> {
        match *self {
            FaultKind::CrashRegion { region }
            | FaultKind::RecoverRegion { region }
            | FaultKind::PartitionRegion { region, .. }
            | FaultKind::HealRegion { region } => Some(region),
            _ => None,
        }
    }
}

/// One fault at one virtual instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Absolute virtual time (µs from run start) at which the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A declarative, time-ordered schedule of faults for one run.
///
/// Events are kept sorted by fire time; events at equal times preserve
/// insertion order, so a plan's effect is fully determined by how it was
/// built — never by container internals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; runs are unchanged).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The events in fire order.
    pub(crate) fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The event at `index` in fire order, if any.
    pub(crate) fn get(&self, index: usize) -> Option<&FaultEvent> {
        self.events.get(index)
    }

    /// Insert one event, keeping the plan sorted by time (stable for ties).
    pub(crate) fn push(&mut self, event: FaultEvent) {
        let pos = self.events.partition_point(|e| e.at <= event.at);
        self.events.insert(pos, event);
    }

    fn with(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.push(FaultEvent { at, kind });
        self
    }

    /// Crash `node` at virtual time `at`.
    pub fn crash_at(self, node: NodeId, at: SimTime) -> Self {
        self.with(at, FaultKind::Crash { node })
    }

    /// Recover `node` at virtual time `at`.
    pub(crate) fn recover_at(self, node: NodeId, at: SimTime) -> Self {
        self.with(at, FaultKind::Recover { node })
    }

    /// Crash `node` at `down_at` and recover it at `up_at`.
    pub fn crash_window(self, node: NodeId, down_at: SimTime, up_at: SimTime) -> Self {
        assert!(down_at < up_at, "crash window must have positive duration");
        self.crash_at(node, down_at).recover_at(node, up_at)
    }

    /// Multiply `node`'s disk service times by `factor` during `[from, to)`.
    pub(crate) fn slow_disk_window(
        self,
        node: NodeId,
        factor: u32,
        from: SimTime,
        to: SimTime,
    ) -> Self {
        assert!(from < to, "slow-disk window must have positive duration");
        self.with(from, FaultKind::SlowDisk { node, factor })
            .with(to, FaultKind::RestoreDisk { node })
    }

    /// Add `extra_us` of egress delay to `node` during `[from, to)`.
    pub fn net_delay_window(self, node: NodeId, extra_us: u64, from: SimTime, to: SimTime) -> Self {
        assert!(from < to, "net-delay window must have positive duration");
        self.with(from, FaultKind::NetDelay { node, extra_us })
            .with(to, FaultKind::RestoreNet { node })
    }

    /// Crash every node of datacenter `region` at virtual time `at`.
    pub fn crash_region_at(self, region: u32, at: SimTime) -> Self {
        self.with(at, FaultKind::CrashRegion { region })
    }

    /// A randomized plan of 1–3 fault windows over `[0, horizon_us)`,
    /// derived entirely from `seed` via splitmix64: the same `(seed, nodes,
    /// horizon_us)` triple always yields the same plan.
    ///
    /// Windows start in the middle portion of the horizon so warm-up and
    /// the tail of the run stay fault-free, and each window picks a node, a
    /// fault kind (crash / slow disk / net delay), and a duration of up to a
    /// quarter horizon.
    pub fn randomized(seed: u64, nodes: u32, horizon_us: u64) -> Self {
        if nodes == 0 || horizon_us < 16 {
            return Self::new();
        }
        let mut state = seed;
        let mut next = || {
            let z = splitmix64(state);
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z
        };
        let mut plan = Self::new();
        let count = 1 + next() % 3;
        for _ in 0..count {
            let node = NodeId((next() % u64::from(nodes)) as u32);
            let from = horizon_us / 8 + next() % (horizon_us / 2);
            let len = 1 + horizon_us / 16 + next() % (horizon_us / 4);
            let to = (from + len).min(horizon_us);
            plan = match next() % 3 {
                0 => plan.crash_window(node, from, to),
                1 => {
                    let factor = 2 + (next() % 7) as u32;
                    plan.slow_disk_window(node, factor, from, to)
                }
                _ => {
                    let extra_us = 200 + next() % 2_000;
                    plan.net_delay_window(node, extra_us, from, to)
                }
            };
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stay_sorted_by_time() {
        let plan = FaultPlan::new()
            .recover_at(NodeId(0), 500)
            .crash_at(NodeId(0), 100)
            .crash_at(NodeId(1), 300);
        let times: Vec<u64> = plan.events().iter().map(|e| e.at).collect();
        assert_eq!(times, vec![100, 300, 500]);
    }

    #[test]
    fn equal_times_preserve_insertion_order() {
        let plan = FaultPlan::new()
            .crash_at(NodeId(0), 100)
            .recover_at(NodeId(1), 100);
        assert!(matches!(plan.events()[0].kind, FaultKind::Crash { .. }));
        assert!(matches!(plan.events()[1].kind, FaultKind::Recover { .. }));
    }

    #[test]
    fn crash_window_expands_to_pair() {
        let plan = FaultPlan::new().crash_window(NodeId(2), 1_000, 5_000);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[0].kind, FaultKind::Crash { node: NodeId(2) });
        assert_eq!(
            plan.events()[1].kind,
            FaultKind::Recover { node: NodeId(2) }
        );
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn empty_crash_window_is_rejected() {
        let _ = FaultPlan::new().crash_window(NodeId(0), 5_000, 5_000);
    }

    #[test]
    fn randomized_is_seed_deterministic() {
        let a = FaultPlan::randomized(7, 5, 1_000_000);
        let b = FaultPlan::randomized(7, 5, 1_000_000);
        assert_eq!(a, b);
        let c = FaultPlan::randomized(8, 5, 1_000_000);
        assert_ne!(a, c, "different seeds should (here) give different plans");
    }

    #[test]
    fn randomized_stays_within_bounds() {
        for seed in 0..50u64 {
            let plan = FaultPlan::randomized(seed, 5, 1_000_000);
            assert!(!plan.is_empty());
            for ev in plan.events() {
                assert!(ev.at <= 1_000_000);
                assert!(ev.kind.node().is_some_and(|n| n.index() < 5));
            }
        }
    }

    #[test]
    fn randomized_degenerate_inputs_give_empty_plan() {
        assert!(FaultPlan::randomized(1, 0, 1_000_000).is_empty());
        assert!(FaultPlan::randomized(1, 5, 0).is_empty());
    }

    #[test]
    fn kind_reports_its_node() {
        assert_eq!(FaultKind::Crash { node: NodeId(3) }.node(), Some(NodeId(3)));
        assert_eq!(
            FaultKind::NetDelay {
                node: NodeId(4),
                extra_us: 100
            }
            .node(),
            Some(NodeId(4))
        );
        assert_eq!(FaultKind::Crash { node: NodeId(3) }.region(), None);
    }

    #[test]
    fn region_kinds_report_region_not_node() {
        let k = FaultKind::CrashRegion { region: 2 };
        assert_eq!(k.node(), None);
        assert_eq!(k.region(), Some(2));
        assert_eq!(FaultKind::RecoverRegion { region: 1 }.region(), Some(1));
        assert_eq!(FaultKind::HealRegion { region: 0 }.node(), None);
    }
}
