//! Applying a fault plan to a running cluster through its event queue.
//!
//! The driver owns the event queue, so the injector splits fault delivery
//! in two: [`FaultInjector::schedule`] enqueues one wrapper event per plan
//! entry at run start (absolute virtual times), and [`FaultInjector::fire`]
//! applies entry `index` when its wrapper event pops — at the exact virtual
//! instant, interleaved with client operations. Stores opt in by
//! implementing [`FaultTarget`], a uniform surface over crash, recover, and
//! hardware-degradation faults.

use simkit::{NodeId, Sim};

use crate::plan::{FaultEvent, FaultKind, FaultPlan};

/// The uniform fault surface a simulated store exposes to the injector.
///
/// Methods that can trigger follow-up work inside the store (crash-detection
/// timers, hinted-handoff replay) receive the simulation so they can
/// schedule their own events; the wrapper event type only needs to be
/// convertible from the store's internal event type, as the driver's
/// `DriverEvent` is.
pub trait FaultTarget {
    /// The store's internal event type.
    type Event;

    /// Number of fault-addressable nodes; faults naming a node at or past
    /// this count are skipped (relevant for randomized plans reused across
    /// cluster sizes).
    fn fault_nodes(&self) -> usize;

    /// Nodes comprising datacenter `region`, for region-scoped faults. The
    /// default — no regions — makes targets without a geo topology skip
    /// region faults rather than mis-apply them.
    fn region_nodes(&self, region: u32) -> Vec<NodeId> {
        let _ = region;
        Vec::new()
    }

    /// Crash `node` so it stops serving requests.
    fn apply_crash<W: From<Self::Event>>(&mut self, sim: &mut Sim<W>, node: NodeId);

    /// Bring `node` back online, scheduling any repair work the store
    /// performs on recovery.
    fn apply_recover<W: From<Self::Event>>(&mut self, sim: &mut Sim<W>, node: NodeId);

    /// Multiply `node`'s disk service times by `factor`.
    fn apply_slow_disk(&mut self, node: NodeId, factor: u32);

    /// Return `node`'s disk to nominal speed.
    fn apply_restore_disk(&mut self, node: NodeId);

    /// Add `extra_us` of egress delay to every message `node` sends.
    fn apply_net_delay(&mut self, node: NodeId, extra_us: u64);

    /// Return `node`'s NIC to nominal latency.
    fn apply_restore_net(&mut self, node: NodeId);
}

/// Dispatches one [`FaultPlan`] into a [`FaultTarget`] at exact virtual
/// instants.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    applied: u64,
    skipped: u64,
}

impl FaultInjector {
    /// An injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            applied: 0,
            skipped: 0,
        }
    }

    /// Enqueue one wrapper event per plan entry at its absolute fire time.
    /// `wrap` maps the entry's plan index to the caller's event type; an
    /// empty plan schedules nothing.
    pub fn schedule<E>(&self, sim: &mut Sim<E>, mut wrap: impl FnMut(usize) -> E) {
        for index in 0..self.plan.len() {
            sim.schedule_at(self.plan.events()[index].at, wrap(index));
        }
    }

    /// Apply plan entry `index` to `target` now. Returns the applied event,
    /// or `None` when the index is unknown or names a node the target does
    /// not have (counted in `FaultInjector::skipped`).
    pub fn fire<T, W>(
        &mut self,
        sim: &mut Sim<W>,
        target: &mut T,
        index: usize,
    ) -> Option<FaultEvent>
    where
        T: FaultTarget,
        W: From<T::Event>,
    {
        let ev = *self.plan.get(index)?;
        // Region-scoped kinds expand to one node-scoped fault per member of
        // the target's datacenter; a target that does not place any node in
        // the region (no geo topology, or fewer regions) skips the fault.
        if let Some(region) = ev.kind.region() {
            let members = target.region_nodes(region);
            if members.is_empty() {
                self.skipped += 1;
                return None;
            }
            for &node in &members {
                match ev.kind {
                    FaultKind::CrashRegion { .. } => target.apply_crash(sim, node),
                    FaultKind::RecoverRegion { .. } => target.apply_recover(sim, node),
                    FaultKind::PartitionRegion { extra_us, .. } => {
                        target.apply_net_delay(node, extra_us)
                    }
                    _ => target.apply_restore_net(node), // HealRegion
                }
            }
            self.applied += 1;
            return Some(ev);
        }
        if !matches!(ev.kind.node(), Some(node) if node.index() < target.fault_nodes()) {
            self.skipped += 1;
            return None;
        }
        match ev.kind {
            FaultKind::Crash { node } => target.apply_crash(sim, node),
            FaultKind::Recover { node } => target.apply_recover(sim, node),
            FaultKind::SlowDisk { node, factor } => target.apply_slow_disk(node, factor),
            FaultKind::RestoreDisk { node } => target.apply_restore_disk(node),
            FaultKind::NetDelay { node, extra_us } => target.apply_net_delay(node, extra_us),
            FaultKind::RestoreNet { node } => target.apply_restore_net(node),
            // Region kinds were handled (and returned) above.
            FaultKind::CrashRegion { .. }
            | FaultKind::RecoverRegion { .. }
            | FaultKind::PartitionRegion { .. }
            | FaultKind::HealRegion { .. } => {}
        }
        self.applied += 1;
        Some(ev)
    }

    /// Fault events applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Fault events skipped because their node was out of range.
    #[cfg(test)]
    pub(crate) fn skipped(&self) -> u64 {
        self.skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe target that records every call it receives.
    struct Probe {
        nodes: usize,
        log: Vec<(u64, String)>,
    }

    impl FaultTarget for Probe {
        type Event = usize;

        fn fault_nodes(&self) -> usize {
            self.nodes
        }

        fn apply_crash<W: From<usize>>(&mut self, sim: &mut Sim<W>, node: NodeId) {
            self.log.push((sim.now(), format!("crash {}", node.0)));
        }

        fn apply_recover<W: From<usize>>(&mut self, sim: &mut Sim<W>, node: NodeId) {
            self.log.push((sim.now(), format!("recover {}", node.0)));
        }

        fn apply_slow_disk(&mut self, node: NodeId, factor: u32) {
            self.log.push((0, format!("slow {} x{}", node.0, factor)));
        }

        fn apply_restore_disk(&mut self, node: NodeId) {
            self.log.push((0, format!("restore-disk {}", node.0)));
        }

        fn apply_net_delay(&mut self, node: NodeId, extra_us: u64) {
            self.log
                .push((0, format!("delay {} +{}", node.0, extra_us)));
        }

        fn apply_restore_net(&mut self, node: NodeId) {
            self.log.push((0, format!("restore-net {}", node.0)));
        }
    }

    #[test]
    fn fires_events_at_their_virtual_instants() {
        let plan = FaultPlan::new()
            .crash_window(NodeId(1), 1_000, 3_000)
            .slow_disk_window(NodeId(0), 4, 2_000, 2_500);
        let mut injector = FaultInjector::new(plan);
        let mut probe = Probe {
            nodes: 3,
            log: Vec::new(),
        };
        let mut sim: Sim<usize> = Sim::new(1);
        injector.schedule(&mut sim, |i| i);
        assert_eq!(sim.pending(), 4);
        while let Some(index) = sim.next() {
            injector.fire(&mut sim, &mut probe, index);
        }
        assert_eq!(injector.applied(), 4);
        assert_eq!(
            probe.log,
            vec![
                (1_000, "crash 1".to_string()),
                (0, "slow 0 x4".to_string()),
                (0, "restore-disk 0".to_string()),
                (3_000, "recover 1".to_string()),
            ]
        );
    }

    #[test]
    fn out_of_range_nodes_are_skipped() {
        let plan = FaultPlan::new().crash_at(NodeId(9), 100);
        let mut injector = FaultInjector::new(plan);
        let mut probe = Probe {
            nodes: 3,
            log: Vec::new(),
        };
        let mut sim: Sim<usize> = Sim::new(1);
        assert!(injector.fire(&mut sim, &mut probe, 0).is_none());
        assert!(injector.fire(&mut sim, &mut probe, 7).is_none());
        assert_eq!(injector.applied(), 0);
        assert_eq!(injector.skipped(), 1, "unknown index is not a skip");
        assert!(probe.log.is_empty());
    }

    /// A probe with two 2-node regions.
    struct GeoProbe(Probe);

    impl FaultTarget for GeoProbe {
        type Event = usize;

        fn fault_nodes(&self) -> usize {
            self.0.nodes
        }

        fn region_nodes(&self, region: u32) -> Vec<NodeId> {
            let base = region * 2;
            if base as usize >= self.0.nodes {
                return Vec::new();
            }
            vec![NodeId(base), NodeId(base + 1)]
        }

        fn apply_crash<W: From<usize>>(&mut self, sim: &mut Sim<W>, node: NodeId) {
            self.0.apply_crash(sim, node)
        }
        fn apply_recover<W: From<usize>>(&mut self, sim: &mut Sim<W>, node: NodeId) {
            self.0.apply_recover(sim, node)
        }
        fn apply_slow_disk(&mut self, node: NodeId, factor: u32) {
            self.0.apply_slow_disk(node, factor)
        }
        fn apply_restore_disk(&mut self, node: NodeId) {
            self.0.apply_restore_disk(node)
        }
        fn apply_net_delay(&mut self, node: NodeId, extra_us: u64) {
            self.0.apply_net_delay(node, extra_us)
        }
        fn apply_restore_net(&mut self, node: NodeId) {
            self.0.apply_restore_net(node)
        }
    }

    #[test]
    fn region_faults_expand_to_every_member_node() {
        let mut plan = FaultPlan::new();
        for (at, kind) in [
            (1_000, FaultKind::CrashRegion { region: 1 }),
            (3_000, FaultKind::RecoverRegion { region: 1 }),
            (
                1_500,
                FaultKind::PartitionRegion {
                    region: 0,
                    extra_us: 500,
                },
            ),
            (2_000, FaultKind::HealRegion { region: 0 }),
        ] {
            plan.push(FaultEvent { at, kind });
        }
        let mut injector = FaultInjector::new(plan);
        let mut probe = GeoProbe(Probe {
            nodes: 4,
            log: Vec::new(),
        });
        let mut sim: Sim<usize> = Sim::new(1);
        injector.schedule(&mut sim, |i| i);
        while let Some(index) = sim.next() {
            injector.fire(&mut sim, &mut probe, index);
        }
        assert_eq!(injector.applied(), 4);
        assert_eq!(
            probe.0.log,
            vec![
                (1_000, "crash 2".to_string()),
                (1_000, "crash 3".to_string()),
                (0, "delay 0 +500".to_string()),
                (0, "delay 1 +500".to_string()),
                (0, "restore-net 0".to_string()),
                (0, "restore-net 1".to_string()),
                (3_000, "recover 2".to_string()),
                (3_000, "recover 3".to_string()),
            ]
        );
    }

    #[test]
    fn region_faults_skip_targets_without_the_region() {
        let plan = FaultPlan::new().crash_region_at(7, 100);
        let mut injector = FaultInjector::new(plan.clone());
        // The plain probe has no region_nodes override: every region fault
        // is skipped, not mis-applied.
        let mut probe = Probe {
            nodes: 3,
            log: Vec::new(),
        };
        let mut sim: Sim<usize> = Sim::new(1);
        assert!(injector.fire(&mut sim, &mut probe, 0).is_none());
        assert_eq!(injector.skipped(), 1);
        assert!(probe.log.is_empty());
        // A geo probe with fewer regions skips the out-of-range region too.
        let mut injector = FaultInjector::new(plan);
        let mut geo = GeoProbe(Probe {
            nodes: 4,
            log: Vec::new(),
        });
        assert!(injector.fire(&mut sim, &mut geo, 0).is_none());
        assert_eq!(injector.skipped(), 1);
    }

    #[test]
    fn empty_plan_schedules_nothing() {
        let injector = FaultInjector::new(FaultPlan::new());
        let mut sim: Sim<usize> = Sim::new(1);
        injector.schedule(&mut sim, |i| i);
        assert_eq!(sim.pending(), 0);
    }
}
