//! The assembled cluster: coordinators, replicas, consistency, repair.
//!
//! Request lifecycles are event chains. A write: `Arrive` at the coordinator
//! → `ReplicaWrite` at every live replica → `WriteApplied` (CPU/log done,
//! the functional mutation lands *here*, so concurrent reads see it at the
//! correct virtual instant) → `WriteAck` back at the coordinator → `Deliver`
//! to the client once the consistency level's quota is met. Reads and scans
//! are analogous with quota-gated responses, timestamp reconciliation, and
//! (for reads) optional all-replica repair fan-out. The front door, the
//! in-flight table and the node hardware are the [`::node::Runtime`]; an
//! in-flight op's `node` is its coordinator.

use ::node::{DriverEvent, Runtime, SimStore};
use obs::Stage;
use simkit::{NodeHw, NodeId, OpKey, OpTag, Sim, SimTime};
use storage::types::entry_encoded_len;
use storage::{
    Cell, Completion, Key, LoadQueue, OpError, OpResult, Rows, RunBuilder, Segment, StoreOp, Value,
};

use crate::config::{CStoreConfig, CommitlogSync, Consistency};
use crate::event::Event;
use crate::metrics::Metrics;
use crate::node::{CNode, Hint};
use crate::protocol::{FanOut, Page, Quota, ReadState, ScanState, WriteState};
use crate::ring::Ring;

#[derive(Debug, Clone)]
enum PendingState {
    /// Created at submit, holding the op; replaced at `Arrive`.
    Init(StoreOp),
    Write(WriteState),
    Read(ReadState),
    Scan(ScanState),
}

/// Emptied per-op buffers kept for the next op: an op takes one when it
/// fans out and gives it back when it retires, so in steady state reads and
/// scans allocate none. Holds at most as many buffers as ops were ever in
/// flight at once.
#[derive(Debug, Clone)]
struct BufferPool<T>(Vec<Vec<T>>);

impl<T> BufferPool<T> {
    fn new() -> Self {
        Self(Vec::new())
    }

    fn take(&mut self, capacity: usize) -> Vec<T> {
        self.0.pop().unwrap_or_else(|| Vec::with_capacity(capacity))
    }

    fn give(&mut self, mut buf: Vec<T>) {
        buf.clear();
        self.0.push(buf);
    }
}

/// The rows bulk-loaded into one ring segment ([`Ring::segment`]) since
/// the last `flush_all`, in arrival order.
#[derive(Debug, Clone, Default)]
struct SegmentLoad {
    rows: LoadQueue,
    /// Their least and greatest keys (empty keys while there are no rows).
    range: (Key, Key),
}

/// A simulated Cassandra-analog cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: CStoreConfig,
    ring: Ring,
    nodes: Vec<CNode>,
    rt: Runtime<PendingState, Event>,
    metrics: Metrics,
    next_coord: usize,
    scratch: FanOut,
    /// Recycled `ReadState::results` buffers.
    read_answers: BufferPool<(NodeId, Option<Cell>)>,
    /// Recycled `ScanState::partials` buffers.
    scan_partials: BufferPool<Rows>,
    /// Rows bulk-loaded since the last `flush_all`, once each, by ring
    /// segment.
    loaded: Vec<SegmentLoad>,
}

impl Cluster {
    /// Build a cluster from a configuration.
    pub fn new(config: CStoreConfig) -> Self {
        let n = config.node.topology.len();
        assert!(n > 0);
        assert!(config.replication_factor >= 1);
        assert_eq!(
            config.strategy.total_rf(config.replication_factor),
            config.replication_factor,
            "replication_factor must equal the NetworkTopologyStrategy quota sum"
        );
        let ring = Ring::new(n, config.partitioner.clone(), config.strategy.clone());
        let nodes = (0..n).map(|_| CNode::new(config.lsm)).collect();
        let rt = Runtime::new(config.node.clone());
        Self {
            config,
            ring,
            nodes,
            rt,
            metrics: Metrics::new(),
            next_coord: 0,
            scratch: FanOut::default(),
            read_answers: BufferPool::new(),
            scan_partials: BufferPool::new(),
            loaded: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CStoreConfig {
        &self.config
    }

    /// The ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The replica set of `key`: the nodes the ring's strategy places it
    /// on over the cluster's topology, in ring order from the primary.
    pub fn replicas(&self, key: &[u8]) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.place(self.ring.primary(key), &mut out);
        out
    }

    /// The replica set of the range whose primary is ring position
    /// `primary`, as the ring's strategy places it over the cluster's
    /// topology, into `out` (cleared first).
    fn place(&self, primary: usize, out: &mut Vec<NodeId>) {
        let rf = self.config.replication_factor;
        self.ring
            .range_replicas_into(primary, rf, &self.config.node.topology, out);
    }

    /// Behaviour counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Clusters are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Direct access to a node's storage and hints (assertions, reports).
    pub fn node(&self, node: NodeId) -> &CNode {
        &self.nodes[node.index()]
    }

    /// Mutable access to a node's hardware (tests).
    pub fn hw_mut(&mut self, node: NodeId) -> &mut NodeHw {
        self.rt.hw_mut(node)
    }

    /// Read a key directly from one node's storage (test/diagnostic; does
    /// touch the node's cache but charges no time).
    pub fn read_local(&mut self, node: NodeId, key: &[u8]) -> Option<Cell> {
        self.nodes[node.index()].lsm.get(key).cell
    }

    // ----- plumbing -----

    fn req_bytes(&self, op: &StoreOp) -> u64 {
        let body = match op {
            StoreOp::Insert { key, value } | StoreOp::Update { key, value } => {
                key.len() + value.len()
            }
            StoreOp::Read { key } | StoreOp::Delete { key } => key.len(),
            StoreOp::Scan { start, .. } => start.len(),
        };
        self.config.node.msg_overhead_bytes + body as u64
    }

    /// Datacenter of a node.
    fn region_of(&self, node: NodeId) -> u32 {
        self.config.node.topology.region(node)
    }

    /// True when the cluster spans more than one datacenter.
    fn multi_dc(&self) -> bool {
        self.config.node.topology.num_regions() > 1
    }

    /// The stage label for a coordinator↔replica hop: [`Stage::WanHop`]
    /// when the endpoints sit in different datacenters.
    fn hop_stage(&self, from: NodeId, to: NodeId) -> Stage {
        if self.multi_dc() && self.region_of(from) != self.region_of(to) {
            Stage::WanHop
        } else {
            Stage::ReplicaRpc
        }
    }

    /// Charge the reconcile CPU for an answer reaching `op`'s coordinator:
    /// the coordinator, the token and the CPU's end; `None` once `op` retired.
    fn answer_arrives<W>(&mut self, sim: &Sim<W>, op: OpKey) -> Option<(NodeId, u64, SimTime)> {
        let p = self.rt.get(op)?;
        let (coord, token, now) = (p.node, p.token, sim.now());
        let cost = self.config.costs.reconcile_us;
        let t1 = self.rt.hw_mut(coord).cpu.acquire(now, cost);
        self.rt
            .tracer
            .record(token, Stage::Reconcile, coord.0, now, t1);
        Some((coord, token, t1))
    }

    // ----- coordinator: arrival -----

    fn on_arrive<W: From<Event>>(&mut self, sim: &mut Sim<W>, op: OpKey) {
        let Some(p) = self.rt.get(op) else {
            return;
        };
        let PendingState::Init(kind) = &p.state else {
            return;
        };
        // Key and value are refcounted: cloning the op is cheap.
        let (coord, token, kind) = (p.node, p.token, kind.clone());
        if !self.rt.is_up(coord) {
            // Coordinator died since submit.
            self.rt.retire(sim, op);
            self.rt
                .complete(token, OpResult::Error(OpError::Unavailable));
            return;
        }
        let (now, cost) = (sim.now(), self.config.costs.coord_us);
        let t1 = self.rt.hw_mut(coord).cpu.acquire(now, cost);
        self.rt
            .tracer
            .record(token, Stage::ServerCpu, coord.0, now, t1);
        match kind {
            StoreOp::Insert { key, value } | StoreOp::Update { key, value } => {
                self.start_write(sim, op, token, coord, key, Cell::live(value, t1), t1);
            }
            StoreOp::Delete { key } => {
                self.start_write(sim, op, token, coord, key, Cell::tombstone(t1), t1);
            }
            StoreOp::Read { key } => self.start_read(sim, op, token, coord, key, t1),
            StoreOp::Scan { start, limit } => {
                self.metrics.scans += 1;
                let primary = self.ring.primary(&start);
                let partials = self
                    .scan_partials
                    .take(self.config.replication_factor as usize);
                if let Some(p) = self.rt.get_mut(op) {
                    p.state = PendingState::Scan(ScanState::new(limit, primary, partials));
                }
                self.send_scan_round(sim, op, token, coord, primary, start, limit, t1);
            }
        }
    }

    /// Every fan-out's start: place the range whose primary is ring
    /// position `primary`, size `cl`'s quota and pick its live targets; with
    /// too few live, answer [`OpError::Unavailable`] instead.
    #[allow(clippy::too_many_arguments)]
    fn plan<W: From<Event>>(
        &mut self,
        sim: &mut Sim<W>,
        op: OpKey,
        token: u64,
        coord: NodeId,
        primary: usize,
        cl: Consistency,
        t1: SimTime,
    ) -> Option<(FanOut, Quota)> {
        let mut f = std::mem::take(&mut self.scratch);
        self.place(primary, &mut f.replicas);
        let home = self.multi_dc().then(|| self.region_of(coord));
        let (rf, region) = (self.config.replication_factor, |r| self.region_of(r));
        let quota = Quota::new(cl, rf, home, &f.replicas, region);
        if f.pick(&quota, region, |r| self.rt.is_up(r)) {
            return Some((f, quota));
        }
        self.scratch = f;
        self.metrics.unavailable += 1;
        self.rt.retire(sim, op);
        let unavailable = OpResult::Error(OpError::Unavailable);
        self.rt.respond(sim, op, token, coord, t1, unavailable);
        None
    }

    /// Send `request(i, r)` to the `i`th replica `r` of `to`, in order, from
    /// coordinator `coord` at `t1`, each hop traced with its
    /// [`Cluster::hop_stage`].
    #[allow(clippy::too_many_arguments)]
    fn fan_out<W: From<Event>>(
        &mut self,
        sim: &mut Sim<W>,
        token: u64,
        coord: NodeId,
        to: &[NodeId],
        bytes: u64,
        t1: SimTime,
        mut request: impl FnMut(usize, NodeId) -> Event,
    ) {
        for (i, &r) in to.iter().enumerate() {
            let arr = self.rt.net_to(coord, r, bytes, t1);
            let stage = self.hop_stage(coord, r);
            self.rt.tracer.record(token, stage, r.0, t1, arr);
            sim.schedule_at(arr, W::from(request(i, r)));
        }
    }

    /// Send a mutation nobody waits for, a read repair or a replayed hint,
    /// from `from` to `to` at `at`.
    fn send_unacked<W: From<Event>>(
        &mut self,
        sim: &mut Sim<W>,
        from: NodeId,
        to: NodeId,
        key: Key,
        cell: Cell,
        at: SimTime,
    ) {
        let bytes = self.config.node.msg_overhead_bytes + entry_encoded_len(&key, &cell);
        let arr = self.rt.net_to(from, to, bytes, at);
        let (op, token, ack) = (OpKey::NONE, 0, false);
        sim.schedule_at(
            arr,
            W::from(Event::ReplicaWrite {
                op,
                token,
                node: to,
                key,
                cell,
                ack,
            }),
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn start_write<W: From<Event>>(
        &mut self,
        sim: &mut Sim<W>,
        op: OpKey,
        token: u64,
        coord: NodeId,
        key: Key,
        cell: Cell,
        t1: SimTime,
    ) {
        self.metrics.writes += 1;
        let (primary, cl) = (self.ring.primary(&key), self.config.write_cl);
        let Some((mut f, quota)) = self.plan(sim, op, token, coord, primary, cl, t1) else {
            return;
        };
        if self.config.hinted_handoff {
            for &target in f.replicas.iter().filter(|&&r| !self.rt.is_up(r)) {
                self.metrics.hints_stored += 1;
                self.nodes[coord.index()].hints.push(Hint {
                    target,
                    key: key.clone(),
                    cell: cell.clone(),
                });
            }
        }
        // Every live replica gets the write; the quota only gates the ack.
        f.replicas.retain(|&r| self.rt.is_up(r));
        let bytes = self.config.node.msg_overhead_bytes + entry_encoded_len(&key, &cell);
        debug_assert_eq!(cell.ts, t1, "a write's timestamp is when it fans out");
        let write = WriteState::new(quota, f.replicas.len() as u32, t1);
        self.fan_out(sim, token, coord, &f.replicas, bytes, t1, |_, node| {
            Event::ReplicaWrite {
                op,
                token,
                node,
                key: key.clone(),
                cell: cell.clone(),
                ack: true,
            }
        });
        self.scratch = f;
        if let Some(p) = self.rt.get_mut(op) {
            p.state = PendingState::Write(write);
        }
    }

    fn start_read<W: From<Event>>(
        &mut self,
        sim: &mut Sim<W>,
        op: OpKey,
        token: u64,
        coord: NodeId,
        key: Key,
        t1: SimTime,
    ) {
        self.metrics.reads += 1;
        let (primary, cl) = (self.ring.primary(&key), self.config.read_cl);
        let Some((mut f, quota)) = self.plan(sim, op, token, coord, primary, cl, t1) else {
            return;
        };
        let (needed, chance) = (quota.needed(), self.config.read_repair_chance);
        let up = |r| self.rt.is_up(r);
        let (fanout, to) = f.repair(needed, false, up, || sim.rng().chance(chance));
        self.metrics.repair_fanouts += u64::from(fanout);
        let bytes = self.config.node.msg_overhead_bytes + key.len() as u64;
        self.fan_out(sim, token, coord, to, bytes, t1, |_, node| {
            Event::ReplicaRead {
                op,
                token,
                node,
                key: key.clone(),
            }
        });
        let expected = to.len() as u32;
        self.scratch = f;
        let results = self.read_answers.take(expected as usize);
        let read = ReadState::new(key, needed, expected, fanout, results, t1);
        if let Some(p) = self.rt.get_mut(op) {
            p.state = PendingState::Read(read);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send_scan_round<W: From<Event>>(
        &mut self,
        sim: &mut Sim<W>,
        op: OpKey,
        token: u64,
        coord: NodeId,
        primary: usize,
        start: Key,
        limit: usize,
        t1: SimTime,
    ) {
        let cl = self.config.read_cl;
        let Some((mut f, quota)) = self.plan(sim, op, token, coord, primary, cl, t1) else {
            return;
        };
        let (needed, chance) = (quota.needed(), self.config.read_repair_chance);
        let up = |r| self.rt.is_up(r);
        let (fanout, to) = f.repair(needed, true, up, || sim.rng().chance(chance));
        self.metrics.repair_fanouts += u64::from(fanout);
        let clamp = self.ring.range_end(primary).cloned();
        let bytes = self.config.node.msg_overhead_bytes + start.len() as u64;
        self.fan_out(sim, token, coord, to, bytes, t1, |i, node| {
            Event::ReplicaScan {
                op,
                token,
                node,
                start: start.clone(),
                limit,
                clamp: clamp.clone(),
                // Repair probes beyond the quota add load (that is their
                // cost) but never gate the response.
                count: i < needed as usize,
            }
        });
        self.scratch = f;
        if let Some(PendingState::Scan(s)) = self.rt.get_mut(op).map(|p| &mut p.state) {
            s.round(needed, t1);
        }
    }

    // ----- replica side -----

    #[allow(clippy::too_many_arguments)]
    fn on_replica_write<W: From<Event>>(
        &mut self,
        sim: &mut Sim<W>,
        op: OpKey,
        token: u64,
        node: NodeId,
        key: Key,
        cell: Cell,
        ack: bool,
    ) {
        if !self.rt.is_up(node) {
            return;
        }
        let service = self.rt.service(sim, self.config.costs.replica_write_us);
        let now = sim.now();
        let cpu_end = self.rt.hw_mut(node).cpu.acquire(now, service);
        self.rt
            .tracer
            .record(token, Stage::ReplicaWork, node.0, now, cpu_end);
        let mut t1 = cpu_end;
        let wal_bytes = entry_encoded_len(&key, &cell) + 8;
        match self.config.commitlog_sync {
            CommitlogSync::Periodic => {
                // Background bandwidth; the ack does not wait.
                self.rt.hw_mut(node).disk.seq_write(t1, wal_bytes);
            }
            CommitlogSync::PerWrite => {
                t1 = self.rt.hw_mut(node).disk.random_write(t1, wal_bytes);
                self.rt
                    .tracer
                    .record(token, Stage::WalCommit, node.0, cpu_end, t1);
            }
        }
        sim.schedule_at(
            t1,
            W::from(Event::WriteApplied {
                op,
                node,
                key,
                cell,
                ack,
            }),
        );
    }

    fn on_write_applied<W: From<Event>>(
        &mut self,
        sim: &mut Sim<W>,
        op: OpKey,
        node: NodeId,
        key: Key,
        cell: Cell,
        ack: bool,
    ) {
        if !self.rt.is_up(node) {
            return;
        }
        let n = &mut self.nodes[node.index()];
        n.lsm.put(key, cell);
        let bg_bytes = n.maintain(&mut self.metrics);
        self.rt.add_backlog(node, bg_bytes);
        self.rt.kick_bg_io(sim, node);
        if !ack {
            return;
        }
        let Some(p) = self.rt.get(op) else {
            return; // op already answered/timed out; the write still counts
        };
        let coord = p.node;
        let token = p.token;
        let now = sim.now();
        let arr = self
            .rt
            .net_to(node, coord, self.config.node.msg_overhead_bytes, now);
        let stage = self.hop_stage(node, coord);
        self.rt.tracer.record(token, stage, node.0, now, arr);
        sim.schedule_at(arr, W::from(Event::WriteAck { op, node }));
    }

    fn on_write_ack<W: From<Event>>(&mut self, sim: &mut Sim<W>, op: OpKey, node: NodeId) {
        let node_region = self.region_of(node);
        let Some((coord, token, t1)) = self.answer_arrives(sim, op) else {
            return;
        };
        let Some(PendingState::Write(w)) = self.rt.get_mut(op).map(|p| &mut p.state) else {
            return;
        };
        let (respond, done) = w.ack(node_region);
        let ts = w.fanout_at;
        if respond {
            self.rt
                .tracer
                .record(token, Stage::QuorumWait, coord.0, ts, sim.now());
            self.rt
                .respond(sim, op, token, coord, t1, OpResult::Written { ts });
        }
        if done {
            self.rt.retire(sim, op);
        }
    }

    fn on_replica_read<W: From<Event>>(
        &mut self,
        sim: &mut Sim<W>,
        op: OpKey,
        token: u64,
        node: NodeId,
        key: Key,
    ) {
        if !self.rt.is_up(node) {
            return;
        }
        let service = self.rt.service(sim, self.config.costs.replica_read_us);
        let now = sim.now();
        let t1 = self.rt.hw_mut(node).cpu.acquire(now, service);
        let res = self.nodes[node.index()].lsm.get(&key);
        let t2 = self.rt.charge_io_plan(node, t1, &res.io);
        let cell = res.cell;
        self.rt
            .tracer
            .record(token, Stage::ReplicaWork, node.0, now, t1);
        self.rt.tracer.record(token, Stage::DiskIo, node.0, t1, t2);
        let Some(p) = self.rt.get(op) else {
            return;
        };
        let coord = p.node;
        let bytes = self.rt.cell_bytes(&cell);
        let arr = self.rt.net_to(node, coord, bytes, t2);
        let stage = self.hop_stage(node, coord);
        self.rt.tracer.record(token, stage, node.0, t2, arr);
        sim.schedule_at(arr, W::from(Event::ReadReturn { op, node, cell }));
    }

    fn on_read_return<W: From<Event>>(
        &mut self,
        sim: &mut Sim<W>,
        op: OpKey,
        node: NodeId,
        cell: Option<Cell>,
    ) {
        let Some((coord, token, t1)) = self.answer_arrives(sim, op) else {
            return;
        };
        let Some(PendingState::Read(r)) = self.rt.get_mut(op).map(|p| &mut p.state) else {
            return;
        };
        let step = r.answer(node, cell);
        let fanout_at = r.fanout_at;
        self.metrics.digest_mismatches += u64::from(step.digest_mismatch);
        // Count exactly once per read that repaired something.
        self.metrics.repair_writes += step.stale.len() as u64;
        if let Some(cell) = step.respond {
            self.rt
                .tracer
                .record(token, Stage::QuorumWait, coord.0, fanout_at, sim.now());
            // Blocked repair: if this response closes a fan-out that found
            // stale replicas, the client also waits for the repair
            // mutations to be acknowledged (one extra write round trip).
            let respond_at = if step.stale.is_empty() {
                t1
            } else {
                t1 + 2 * self.config.node.profile.nic.prop_us + self.config.costs.replica_write_us
            };
            self.rt
                .tracer
                .record(token, Stage::RepairBlock, coord.0, t1, respond_at);
            let result = OpResult::Value(cell);
            self.rt.respond(sim, op, token, coord, respond_at, result);
        }
        if !step.finished {
            return;
        }
        let Some(PendingState::Read(r)) = self.rt.retire(sim, op).map(|p| p.state) else {
            return;
        };
        self.read_answers.give(r.results);
        let Some(cell) = step.repair else {
            return;
        };
        for target in step.stale {
            self.send_unacked(sim, coord, target, r.key.clone(), cell.clone(), t1);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_replica_scan<W: From<Event>>(
        &mut self,
        sim: &mut Sim<W>,
        op: OpKey,
        token: u64,
        node: NodeId,
        start: Key,
        limit: usize,
        clamp: Option<Key>,
        count: bool,
    ) {
        if !self.rt.is_up(node) {
            return;
        }
        let costs = self.config.costs;
        let service = self.rt.service(sim, costs.replica_read_us);
        let now = sim.now();
        let t1 = self.rt.hw_mut(node).cpu.acquire(now, service);
        let lsm = &mut self.nodes[node.index()].lsm;
        if !count {
            // A repair probe: the load is the point and the rows are never
            // read, so the ones in this range are counted, not cloned.
            let (rows, io) = lsm.scan_count(&start, limit, clamp.as_deref());
            let t2 = self.rt.charge_io_plan(node, t1, &io);
            self.rt
                .hw_mut(node)
                .cpu
                .acquire(t2, costs.scan_row_us * rows as u64);
            return;
        }
        // The page carries the tombstones walked as well, so that a delete
        // this replica holds wins over an older row another one returns.
        let res = lsm.scan_page(&start, limit);
        let t2 = self.rt.charge_io_plan(node, t1, &res.io);
        let mut rows = res.rows;
        if let Some(end) = &clamp {
            // Everything from the first key at or past the range end
            // belongs to the next range's replicas.
            rows.clamp(end);
        }
        let t3 = self
            .rt
            .hw_mut(node)
            .cpu
            .acquire(t2, costs.scan_row_us * rows.len() as u64);
        let tracer = &mut self.rt.tracer;
        tracer.record(token, Stage::ReplicaWork, node.0, now, t1);
        tracer.record(token, Stage::DiskIo, node.0, t1, t2);
        tracer.record(token, Stage::ScanRows, node.0, t2, t3);
        let Some(p) = self.rt.get(op) else {
            return;
        };
        let coord = p.node;
        let bytes = self.rt.rows_bytes(&rows);
        let arr = self.rt.net_to(node, coord, bytes, t3);
        let stage = self.hop_stage(node, coord);
        self.rt.tracer.record(token, stage, node.0, t3, arr);
        sim.schedule_at(arr, W::from(Event::ScanReturn { op, rows }));
    }

    fn on_scan_return<W: From<Event>>(&mut self, sim: &mut Sim<W>, op: OpKey, rows: Rows) {
        let Some((coord, token, t1)) = self.answer_arrives(sim, op) else {
            return;
        };
        let Some(PendingState::Scan(s)) = self.rt.get_mut(op).map(|p| &mut p.state) else {
            return;
        };
        let (next, round_started) = (s.page(rows, &self.ring), s.round_started);
        if let Page::Wait = next {
            return;
        }
        self.rt
            .tracer
            .record(token, Stage::QuorumWait, coord.0, round_started, sim.now());
        match next {
            Page::Wait => {}
            Page::Done(rows) => {
                if let Some(PendingState::Scan(s)) = self.rt.retire(sim, op).map(|p| p.state) {
                    self.scan_partials.give(s.partials);
                }
                self.rt
                    .respond(sim, op, token, coord, t1, OpResult::Rows(rows));
            }
            Page::Round(primary, start, remaining) => {
                self.send_scan_round(sim, op, token, coord, primary, start, remaining, t1);
            }
        }
    }

    fn on_timeout<W: From<Event>>(&mut self, sim: &mut Sim<W>, op: OpKey) {
        let Some(p) = self.rt.retire(sim, op) else {
            return;
        };
        if !p.responded {
            // Distinct from `Unavailable`: the coordinator *accepted* the
            // request but replicas stopped answering mid-flight
            // (Cassandra's TimedOutException vs UnavailableException).
            self.metrics.timeouts += 1;
            self.rt.time_out(sim, op, p.token, p.node.0);
        }
    }

    fn on_hint_replay<W: From<Event>>(&mut self, sim: &mut Sim<W>, node: NodeId) {
        if !self.rt.is_up(node) {
            return;
        }
        let mut kept = Vec::new();
        let hints = std::mem::take(&mut self.nodes[node.index()].hints);
        let mut t = self
            .rt
            .hw_mut(node)
            .cpu
            .acquire(sim.now(), self.config.costs.coord_us);
        for hint in hints {
            if self.rt.is_up(hint.target) {
                self.metrics.hints_replayed += 1;
                self.send_unacked(sim, node, hint.target, hint.key, hint.cell, t);
                t += 10; // pace hint delivery slightly
            } else {
                kept.push(hint);
            }
        }
        self.nodes[node.index()].hints = kept;
    }
}

impl SimStore for Cluster {
    type Event = Event;

    fn name(&self) -> &'static str {
        "cstore"
    }

    /// The coordinator is the next live node round-robin; with none live
    /// the op fails fast as [`OpError::Unavailable`].
    fn submit_tagged(
        &mut self,
        sim: &mut Sim<DriverEvent<Event>>,
        token: u64,
        op: StoreOp,
        tag: OpTag,
    ) {
        let bytes = self.req_bytes(&op);
        let next_coord = &mut self.next_coord;
        self.rt.submit(sim, token, tag, bytes, |rt| {
            for _ in 0..rt.nodes() {
                let coord = NodeId((*next_coord % rt.nodes()) as u32);
                *next_coord = next_coord.wrapping_add(1);
                if rt.is_up(coord) {
                    return Ok((coord, PendingState::Init(op)));
                }
            }
            Err(OpError::Unavailable)
        });
    }

    fn handle(&mut self, sim: &mut Sim<DriverEvent<Event>>, ev: Event) {
        match ev {
            Event::Arrive { op } => self.on_arrive(sim, op),
            Event::ReplicaWrite {
                op,
                token,
                node,
                key,
                cell,
                ack,
            } => self.on_replica_write(sim, op, token, node, key, cell, ack),
            Event::WriteApplied {
                op,
                node,
                key,
                cell,
                ack,
            } => self.on_write_applied(sim, op, node, key, cell, ack),
            Event::WriteAck { op, node } => self.on_write_ack(sim, op, node),
            Event::ReplicaRead {
                op,
                token,
                node,
                key,
            } => self.on_replica_read(sim, op, token, node, key),
            Event::ReadReturn { op, node, cell } => self.on_read_return(sim, op, node, cell),
            Event::ReplicaScan {
                op,
                token,
                node,
                start,
                limit,
                clamp,
                count,
            } => self.on_replica_scan(sim, op, token, node, start, limit, clamp, count),
            Event::ScanReturn { op, rows } => self.on_scan_return(sim, op, rows),
            Event::Deliver { token, result } => self.rt.complete(token, result),
            Event::Timeout { op } => self.on_timeout(sim, op),
            Event::HintReplay { node } => self.on_hint_replay(sim, node),
            Event::BgIo { node } => self.rt.on_bg_io(sim, node),
            Event::GcPause { node } => self.rt.on_gc_pause(sim, node),
        }
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        self.rt.drain_completions()
    }

    fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        self.rt.drain_completions_into(out);
    }

    /// Queues the row once, under its ring segment, while its key is in
    /// cache: the segment's bytes and key range grow with it.
    fn load_direct(&mut self, key: Key, value: Value, ts: u64) {
        let segment = self.ring.segment(&key);
        if self.loaded.len() <= segment {
            self.loaded.resize_with(segment + 1, SegmentLoad::default);
        }
        let load = &mut self.loaded[segment];
        load.rows.push(&key, Cell::live(value, ts));
        if load.rows.len() == 1 {
            load.range = (key.clone(), key);
        } else if key < load.range.0 {
            load.range.0 = key;
        } else if key > load.range.1 {
            load.range.1 = key;
        }
    }

    /// Builds each node's loaded run, reading and hashing each loaded key
    /// once whatever the replication factor, then loads it sstableloader-
    /// style and compacts it with whatever the node held before.
    ///
    /// A node whose ring segments sit side by side in key order (an
    /// ordered ring's ranges) holds each as a [`Segment`] that every such
    /// replica of it shares, so the base stores each loaded row once, not
    /// once per replica: each segment is sorted once, in key order of the
    /// segments, and its rows feed the run of every such holder as it is.
    /// A node whose segments interleave (a hashing ring's) gets one merged
    /// segment of its own, built through the same call with one holder.
    fn flush_all(&mut self) {
        let mut loads = std::mem::take(&mut self.loaded);
        // The ring segments that hold rows, in key order of their ranges,
        // and each node's in that order.
        let mut order: Vec<usize> = (0..loads.len())
            .filter(|&s| !loads[s].rows.is_empty())
            .collect();
        order.sort_unstable_by(|&a, &b| loads[a].range.cmp(&loads[b].range));
        let mut held = vec![Vec::new(); self.nodes.len()];
        let mut replicas = Vec::new();
        for &s in &order {
            self.place(self.ring.segment_primary(s), &mut replicas);
            for r in &replicas {
                held[r.index()].push(s);
            }
        }
        let interleaved: Vec<bool> = held
            .iter()
            .map(|segments| {
                segments
                    .windows(2)
                    .any(|w| loads[w[0]].range.1 >= loads[w[1]].range.0)
            })
            .collect();
        let mut runs: Vec<RunBuilder> = self
            .nodes
            .iter()
            .zip(&held)
            .map(|(node, segments)| {
                let rows = segments.iter().map(|&s| loads[s].rows.len()).sum();
                let bytes = segments.iter().map(|&s| loads[s].rows.bytes()).sum();
                node.lsm.load_builder(rows, bytes)
            })
            .collect();
        for (node, run) in runs.iter_mut().enumerate() {
            if interleaved[node] {
                let mut rows = LoadQueue::default();
                for &s in &held[node] {
                    for (key, cell) in loads[s].rows.iter() {
                        rows.push(key, cell.clone());
                    }
                }
                Segment::from_queue(rows, &mut [run]);
            }
        }
        for s in order {
            self.place(self.ring.segment_primary(s), &mut replicas);
            let mut holders: Vec<&mut RunBuilder> = runs
                .iter_mut()
                .enumerate()
                .filter(|&(node, _)| !interleaved[node] && replicas.contains(&NodeId(node as u32)))
                .map(|(_, run)| run)
                .collect();
            if !holders.is_empty() {
                Segment::from_queue(std::mem::take(&mut loads[s].rows), &mut holders);
            }
        }
        for ((node, run), segments) in self.nodes.iter_mut().zip(runs).zip(&held) {
            node.lsm.flush();
            if !segments.is_empty() {
                let id = node.lsm.reserve_table_id();
                node.lsm.load(id, run);
            }
            node.lsm.compact_all();
            node.lsm.sync_wal();
        }
    }

    fn warm_caches(&mut self) {
        for node in &mut self.nodes {
            node.lsm.warm_cache();
        }
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.metrics.counters(self.rt.gc_pauses(), self.rt.shed())
    }

    fn tracer_mut(&mut self) -> &mut obs::Tracer {
        &mut self.rt.tracer
    }

    /// Every immutable SSTable run is shared behind an `Arc` (see
    /// [`storage::SsTable`]), so the snapshot costs O(metadata).
    fn snapshot(&self) -> Self {
        self.clone()
    }

    fn shares_storage_with(&self, other: &Self) -> bool {
        self.nodes.len() == other.nodes.len()
            && self
                .nodes
                .iter()
                .zip(&other.nodes)
                .all(|(a, b)| a.lsm.shares_tables_with(&b.lsm))
    }
}

impl Cluster {
    /// True when a bulk load leaves `self` and `other` holding the same
    /// data. The load reads the replication factor, the partitioner, the
    /// placement strategy, the topology and the storage tuning; consistency
    /// levels, read repair, the commit-log mode, hinted handoff, admission
    /// and timeouts are read only by running ops.
    pub fn loads_like(&self, other: &Self) -> bool {
        let (a, b) = (&self.config, &other.config);
        a.replication_factor == b.replication_factor
            && a.partitioner == b.partitioner
            && a.strategy == b.strategy
            && a.node.topology == b.node.topology
            && a.lsm == b.lsm
    }

    /// This unloaded cluster holding a copy-on-write snapshot of the data
    /// `loaded` was bulk-loaded with: its nodes' storage.
    ///
    /// # Panics
    /// If `loaded` does not [load like](Cluster::loads_like) `self`.
    pub fn with_data_of(mut self, loaded: &Self) -> Self {
        assert!(self.loads_like(loaded), "the clusters load different data");
        self.nodes = loaded.nodes.clone();
        self
    }
}

/// The uniform fault surface: a crash stops the node, a recovery restarts
/// it and schedules hint replay on every node holding hints; degradation
/// faults act directly on the node's hardware.
impl faults::FaultTarget for Cluster {
    type Event = Event;

    fn fault_nodes(&self) -> usize {
        self.rt.nodes()
    }

    fn region_nodes(&self, region: u32) -> Vec<NodeId> {
        self.rt.region_nodes(region)
    }

    fn apply_crash<W: From<Event>>(&mut self, _sim: &mut Sim<W>, node: NodeId) {
        self.rt.hw_mut(node).fail();
    }

    fn apply_recover<W: From<Event>>(&mut self, sim: &mut Sim<W>, node: NodeId) {
        self.rt.hw_mut(node).recover();
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.hints.is_empty() {
                sim.schedule_in(
                    self.config.hint_replay_delay_us,
                    W::from(Event::HintReplay {
                        node: NodeId(i as u32),
                    }),
                );
            }
        }
    }

    fn apply_slow_disk(&mut self, node: NodeId, factor: u32) {
        self.rt.hw_mut(node).degrade_disk(factor);
    }

    fn apply_restore_disk(&mut self, node: NodeId) {
        self.rt.hw_mut(node).restore_disk();
    }

    fn apply_net_delay(&mut self, node: NodeId, extra_us: u64) {
        self.rt.hw_mut(node).delay_net(extra_us);
    }

    fn apply_restore_net(&mut self, node: NodeId) {
        self.rt.hw_mut(node).restore_net();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Consistency;
    use crate::ring::Partitioner;
    use bytes::Bytes;
    use faults::FaultTarget;
    use proptest::prelude::*;

    type Ev = DriverEvent<Event>;

    fn k(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn key(i: u64) -> Bytes {
        Bytes::from(format!("user{i:012}").into_bytes())
    }

    fn ordered_config(rf: u32, nodes: usize, records: u64) -> CStoreConfig {
        let tokens: Vec<Bytes> = (0..nodes as u64)
            .map(|i| key(i * records / nodes as u64))
            .collect();
        let mut c = CStoreConfig::paper_testbed(rf, Partitioner::order_preserving(tokens));
        c.node.topology = simkit::Topology::single_rack(nodes, c.node.profile.nic.prop_us);
        c
    }

    struct Harness {
        cluster: Cluster,
        sim: Sim<Ev>,
        next_token: u64,
    }

    impl Harness {
        fn new(config: CStoreConfig) -> Self {
            Self {
                cluster: Cluster::new(config),
                sim: Sim::new(42),
                next_token: 1,
            }
        }

        fn submit(&mut self, op: StoreOp) -> u64 {
            let t = self.next_token;
            self.next_token += 1;
            self.cluster.submit(&mut self.sim, t, op);
            t
        }

        /// Run to quiescence, returning all completions.
        fn run(&mut self) -> Vec<Completion> {
            let mut out = Vec::new();
            while let Some(Ev::Store(ev)) = self.sim.next() {
                self.cluster.handle(&mut self.sim, ev);
                out.extend(self.cluster.drain_completions());
            }
            out
        }

        fn run_one(&mut self, op: StoreOp) -> Completion {
            let t = self.submit(op);
            let out = self.run();
            out.into_iter().find(|c| c.token == t).expect("completed")
        }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut h = Harness::new(ordered_config(3, 5, 1000));
        let w = h.run_one(StoreOp::Insert {
            key: key(10),
            value: k("hello"),
        });
        assert!(matches!(w.result, OpResult::Written { .. }));
        let r = h.run_one(StoreOp::Read { key: key(10) });
        match r.result {
            OpResult::Value(Some(cell)) => {
                assert_eq!(cell.value.as_deref(), Some(&b"hello"[..]));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn read_of_absent_key_is_none() {
        let mut h = Harness::new(ordered_config(3, 5, 1000));
        let r = h.run_one(StoreOp::Read { key: key(123) });
        assert_eq!(r.result, OpResult::Value(None));
    }

    #[test]
    fn delete_hides_value() {
        let mut h = Harness::new(ordered_config(3, 5, 1000));
        h.run_one(StoreOp::Insert {
            key: key(5),
            value: k("v"),
        });
        h.run_one(StoreOp::Delete { key: key(5) });
        let r = h.run_one(StoreOp::Read { key: key(5) });
        assert_eq!(r.result, OpResult::Value(None));
    }

    #[test]
    fn writes_reach_every_replica_regardless_of_level() {
        // "Writes are sent to all replicas; the level only gates the ack."
        let mut cfg = ordered_config(3, 5, 1000);
        cfg.write_cl = Consistency::One;
        let mut h = Harness::new(cfg);
        h.run_one(StoreOp::Insert {
            key: key(100),
            value: k("x"),
        });
        let replicas = h.cluster.replicas(&key(100));
        for r in replicas {
            let cell = h.cluster.read_local(r, &key(100)).expect("replica has it");
            assert_eq!(cell.value.as_deref(), Some(&b"x"[..]));
        }
    }

    #[test]
    fn quorum_read_sees_quorum_write() {
        let mut cfg = ordered_config(3, 5, 1000);
        cfg.write_cl = Consistency::Quorum;
        cfg.read_cl = Consistency::Quorum;
        let mut h = Harness::new(cfg);
        for i in 0..50u64 {
            h.run_one(StoreOp::Update {
                key: key(i % 7),
                value: Bytes::from(format!("v{i}").into_bytes()),
            });
            let r = h.run_one(StoreOp::Read { key: key(i % 7) });
            match r.result {
                OpResult::Value(Some(cell)) => {
                    assert_eq!(
                        cell.value.as_deref(),
                        Some(format!("v{i}").as_bytes()),
                        "read-your-writes violated at i={i}"
                    );
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn scan_returns_ordered_rows_across_ranges() {
        let mut h = Harness::new(ordered_config(2, 4, 100));
        for i in 0..100u64 {
            h.run_one(StoreOp::Insert {
                key: key(i),
                value: k("v"),
            });
        }
        let r = h.run_one(StoreOp::Scan {
            start: key(20),
            limit: 40,
        });
        match r.result {
            OpResult::Rows(rows) => {
                assert_eq!(rows.len(), 40, "spans range boundaries");
                let keys: Vec<_> = rows.iter().map(|(k, _)| Key::copy_from_slice(k)).collect();
                assert_eq!(keys[0], key(20));
                assert_eq!(keys[39], key(59));
                let mut sorted = keys.clone();
                sorted.sort();
                assert_eq!(keys, sorted);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn scan_across_a_mass_deleted_stretch_matches_a_model() {
        // 60 deleted rows straddle a ring-range boundary. A replica that
        // returned a short page there made the coordinator take the range
        // for exhausted and hop over the live rows behind the tombstones.
        let mut h = Harness::new(ordered_config(2, 4, 200));
        let mut model = std::collections::BTreeMap::new();
        for i in 0..200u64 {
            h.run_one(StoreOp::Insert {
                key: key(i),
                value: k("v"),
            });
            model.insert(key(i), k("v"));
        }
        for i in 30..90u64 {
            h.run_one(StoreOp::Delete { key: key(i) });
            model.remove(&key(i));
        }
        for (start, limit) in [(20u64, 30usize), (0, 200), (45, 1), (89, 5)] {
            let r = h.run_one(StoreOp::Scan {
                start: key(start),
                limit,
            });
            let OpResult::Rows(rows) = r.result else {
                panic!("unexpected: {:?}", r.result);
            };
            let got: Vec<_> = rows
                .iter()
                .map(|(key, cell)| (Key::copy_from_slice(key), cell.value.clone()))
                .collect();
            let want: Vec<_> = model
                .range(key(start)..)
                .take(limit)
                .map(|(key, value)| (key.clone(), Some(value.clone())))
                .collect();
            assert_eq!(got, want, "scan from {start} limit {limit}");
        }
    }

    #[test]
    fn scan_reads_the_replicas_the_strategy_placed() {
        // One replica per DC over 2 × 3 nodes puts range 0 on nodes 0 and
        // 3, not on the next node index. With node 0 down, a scan that
        // assumed successor placement asked node 1, which holds no copy of
        // range 0, and skipped to range 1's rows.
        let mut cfg = geo_cluster_config(2, 3, 1);
        cfg.partitioner = Partitioner::order_preserving((0..6).map(|i| key(i * 20)).collect());
        cfg.write_cl = Consistency::All;
        cfg.read_cl = Consistency::One;
        let mut h = Harness::new(cfg);
        for i in 0..120u64 {
            h.run_one(StoreOp::Insert {
                key: key(i),
                value: k("v"),
            });
        }
        h.cluster.apply_crash(&mut h.sim, NodeId(0));
        let r = h.run_one(StoreOp::Scan {
            start: key(0),
            limit: 5,
        });
        let OpResult::Rows(rows) = r.result else {
            panic!("unexpected: {:?}", r.result);
        };
        let got: Vec<_> = rows
            .iter()
            .map(|(key, _)| Key::copy_from_slice(key))
            .collect();
        assert_eq!(got, (0..5).map(key).collect::<Vec<_>>());
    }

    /// RF 3 on 5 nodes at QUORUM/QUORUM with neither read repair nor
    /// hints, so a replica down during a delete stays stale: keys 0..10
    /// inserted, then each of `deletes` — `(key, replica index)` — deleted
    /// while that replica of range 0 is down, and the replica recovered.
    fn harness_with_missed_deletes(deletes: &[(u64, usize)]) -> Harness {
        let mut cfg = ordered_config(3, 5, 1000);
        cfg.read_cl = Consistency::Quorum;
        cfg.write_cl = Consistency::Quorum;
        cfg.read_repair_chance = 0.0;
        cfg.hinted_handoff = false;
        let mut h = Harness::new(cfg);
        for i in 0..10u64 {
            h.run_one(StoreOp::Insert {
                key: key(i),
                value: k("v"),
            });
        }
        let reps = h.cluster.replicas(&key(0));
        for &(id, victim) in deletes {
            h.cluster.apply_crash(&mut h.sim, reps[victim]);
            let w = h.run_one(StoreOp::Delete { key: key(id) });
            assert!(matches!(w.result, OpResult::Written { .. }));
            h.cluster.apply_recover(&mut h.sim, reps[victim]);
        }
        h
    }

    fn scan_keys(h: &mut Harness, limit: usize) -> Vec<Key> {
        let r = h.run_one(StoreOp::Scan {
            start: key(0),
            limit,
        });
        let OpResult::Rows(rows) = r.result else {
            panic!("unexpected: {:?}", r.result);
        };
        rows.iter()
            .map(|(key, _)| Key::copy_from_slice(key))
            .collect()
    }

    #[test]
    fn quorum_scans_omit_a_row_a_quorum_delete_removed() {
        // The replica that missed the delete still holds key 3 live; the
        // other one in the quorum returns its tombstone, which wins.
        for victim in [0, 1] {
            let mut h = harness_with_missed_deletes(&[(3, victim)]);
            let got = scan_keys(&mut h, 10);
            let r = h.run_one(StoreOp::Read { key: key(3) });
            assert_eq!(r.result, OpResult::Value(None), "victim {victim}");
            let want: Vec<_> = [0, 1, 2, 4, 5, 6, 7, 8, 9].map(key).into();
            assert_eq!(got, want, "victim {victim}");
        }
    }

    #[test]
    fn quorum_scans_read_past_a_full_page_for_deletes_it_cut_off() {
        // Two replicas each missed one delete. At limit 6 the first one's
        // page stops at key 5, before its tombstone of key 6, while the
        // second's reaches key 6 live: only rows up to key 5 are settled,
        // and the range is read again past it — twice, as key 6 turns out
        // deleted — until six live rows are found.
        let mut h = harness_with_missed_deletes(&[(2, 0), (6, 1)]);
        let got = scan_keys(&mut h, 6);
        for id in [2, 6] {
            let r = h.run_one(StoreOp::Read { key: key(id) });
            assert_eq!(r.result, OpResult::Value(None), "key {id}");
        }
        let want: Vec<_> = [0, 1, 3, 4, 5, 7].map(key).into();
        assert_eq!(got, want);
    }

    #[test]
    fn scan_stops_at_data_end() {
        let mut h = Harness::new(ordered_config(2, 4, 100));
        for i in 0..30u64 {
            h.run_one(StoreOp::Insert {
                key: key(i),
                value: k("v"),
            });
        }
        let r = h.run_one(StoreOp::Scan {
            start: key(25),
            limit: 50,
        });
        match r.result {
            OpResult::Rows(rows) => assert_eq!(rows.len(), 5),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn unavailable_when_too_few_replicas_up() {
        let mut cfg = ordered_config(3, 5, 1000);
        cfg.write_cl = Consistency::All;
        let mut h = Harness::new(cfg);
        let reps = h.cluster.replicas(&key(0));
        h.cluster.apply_crash(&mut h.sim, reps[2]);
        let w = h.run_one(StoreOp::Insert {
            key: key(0),
            value: k("x"),
        });
        assert_eq!(w.result, OpResult::Error(OpError::Unavailable));
        assert_eq!(h.cluster.metrics().unavailable, 1);
    }

    #[test]
    fn cl_one_survives_replica_failures() {
        let mut h = Harness::new(ordered_config(3, 5, 1000));
        let reps = h.cluster.replicas(&key(0));
        h.cluster.apply_crash(&mut h.sim, reps[1]);
        h.cluster.apply_crash(&mut h.sim, reps[2]);
        let w = h.run_one(StoreOp::Insert {
            key: key(0),
            value: k("x"),
        });
        assert!(matches!(w.result, OpResult::Written { .. }));
        let r = h.run_one(StoreOp::Read { key: key(0) });
        assert!(matches!(r.result, OpResult::Value(Some(_))));
    }

    #[test]
    fn hinted_handoff_catches_up_failed_replica() {
        let mut h = Harness::new(ordered_config(3, 5, 1000));
        let reps = h.cluster.replicas(&key(0));
        let victim = reps[2];
        h.cluster.apply_crash(&mut h.sim, victim);
        h.run_one(StoreOp::Insert {
            key: key(0),
            value: k("fresh"),
        });
        assert!(h.cluster.metrics().hints_stored >= 1);
        assert!(h.cluster.read_local(victim, &key(0)).is_none());
        // Recover: hints replay.
        h.cluster.apply_recover(&mut h.sim, victim);
        h.run();
        assert!(h.cluster.metrics().hints_replayed >= 1);
        let cell = h.cluster.read_local(victim, &key(0)).expect("hint applied");
        assert_eq!(cell.value.as_deref(), Some(&b"fresh"[..]));
    }

    /// Make one replica of `key(0)` stale for real: fail it, overwrite at
    /// CL=ONE with hinted handoff off, recover it. Returns the stale node.
    fn make_stale_replica(h: &mut Harness, stale_idx: usize, val: &str) -> NodeId {
        let reps = h.cluster.replicas(&key(0));
        let victim = reps[stale_idx];
        h.cluster.apply_crash(&mut h.sim, victim);
        h.run_one(StoreOp::Update {
            key: key(0),
            value: k(val),
        });
        h.cluster.hw_mut(victim).recover();
        victim
    }

    #[test]
    fn read_repair_fanout_fixes_stale_replica() {
        let mut cfg = ordered_config(3, 5, 1000);
        cfg.read_repair_chance = 1.0; // always fan out
        cfg.hinted_handoff = false;
        let mut h = Harness::new(cfg);
        h.run_one(StoreOp::Insert {
            key: key(0),
            value: k("old"),
        });
        let stale_node = make_stale_replica(&mut h, 2, "new");
        assert_eq!(
            h.cluster
                .read_local(stale_node, &key(0))
                .unwrap()
                .value
                .as_deref(),
            Some(&b"old"[..]),
            "replica missed the overwrite while down"
        );
        // A read triggers fan-out repair. At CL=ONE the client may still see
        // either version (whichever replica answers first) — that is the
        // consistency the level promises — but the repair must converge.
        let r = h.run_one(StoreOp::Read { key: key(0) });
        assert!(matches!(r.result, OpResult::Value(Some(_))));
        assert!(h.cluster.metrics().repair_fanouts >= 1);
        assert!(h.cluster.metrics().repair_writes >= 1);
        let repaired = h.cluster.read_local(stale_node, &key(0)).unwrap();
        assert_eq!(repaired.value.as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn no_repair_without_fanout_at_cl_one() {
        let mut cfg = ordered_config(3, 5, 1000);
        cfg.read_repair_chance = 0.0;
        cfg.hinted_handoff = false;
        let mut h = Harness::new(cfg);
        h.run_one(StoreOp::Insert {
            key: key(0),
            value: k("old"),
        });
        let stale_node = make_stale_replica(&mut h, 2, "new");
        h.run_one(StoreOp::Read { key: key(0) });
        assert_eq!(h.cluster.metrics().repair_fanouts, 0);
        assert_eq!(h.cluster.metrics().repair_writes, 0);
        // The stale replica stays stale (eventual consistency at ONE).
        let still = h.cluster.read_local(stale_node, &key(0)).unwrap();
        assert_eq!(still.value.as_deref(), Some(&b"old"[..]));
    }

    #[test]
    fn quorum_read_repairs_foreground_mismatch() {
        let mut cfg = ordered_config(3, 5, 1000);
        cfg.read_cl = Consistency::Quorum;
        cfg.read_repair_chance = 0.0;
        cfg.hinted_handoff = false;
        let mut h = Harness::new(cfg);
        h.run_one(StoreOp::Insert {
            key: key(0),
            value: k("old"),
        });
        // Regress the *main* replica, which always participates in reads.
        let stale_node = make_stale_replica(&mut h, 0, "new");
        let r = h.run_one(StoreOp::Read { key: key(0) });
        match r.result {
            OpResult::Value(Some(cell)) => {
                assert_eq!(
                    cell.value.as_deref(),
                    Some(&b"new"[..]),
                    "quorum reconciles"
                );
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(h.cluster.metrics().digest_mismatches >= 1);
        // Foreground mismatch repaired the quota member.
        let repaired = h.cluster.read_local(stale_node, &key(0)).unwrap();
        assert_eq!(repaired.value.as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn latency_orders_one_quorum_all() {
        // Write latency must rise with the consistency level.
        let mut lat = Vec::new();
        for cl in [Consistency::One, Consistency::Quorum, Consistency::All] {
            let mut cfg = ordered_config(3, 5, 1000);
            cfg.write_cl = cl;
            let mut h = Harness::new(cfg);
            let issue = h.sim.now();
            let t = h.submit(StoreOp::Insert {
                key: key(0),
                value: k("x"),
            });
            let mut done_at = 0;
            while let Some(Ev::Store(ev)) = h.sim.next() {
                h.cluster.handle(&mut h.sim, ev);
                if h.cluster.drain_completions().iter().any(|c| c.token == t) {
                    done_at = h.sim.now();
                }
            }
            lat.push(done_at - issue);
        }
        assert!(lat[0] <= lat[1] && lat[1] <= lat[2], "latencies: {lat:?}");
        assert!(lat[2] > lat[0], "ALL must cost more than ONE: {lat:?}");
    }

    #[test]
    fn gc_pause_delays_all_writes_but_not_one() {
        // Inject a pause on one replica, then measure a CL=ALL write vs a
        // CL=ONE write issued during the pause window.
        let mut lat = Vec::new();
        for cl in [Consistency::One, Consistency::All] {
            let mut cfg = ordered_config(3, 5, 1000);
            cfg.write_cl = cl;
            cfg.node.pause_interval_us = 0; // no random pauses; we inject one
            cfg.node.pause_duration_us = 0;
            let mut h = Harness::new(cfg);
            // Warm the path so coordinator rotation is identical.
            h.run_one(StoreOp::Insert {
                key: key(1),
                value: k("x"),
            });
            let reps = h.cluster.replicas(&key(0));
            // Manually pause the third replica for 50ms.
            let now = h.sim.now();
            let hw = h.cluster.hw_mut(reps[2]);
            for _ in 0..hw.cpu.servers() {
                hw.cpu.acquire(now, 50_000);
            }
            let issue = h.sim.now();
            let t = h.submit(StoreOp::Insert {
                key: key(0),
                value: k("y"),
            });
            let mut done = 0;
            while let Some(Ev::Store(ev)) = h.sim.next() {
                h.cluster.handle(&mut h.sim, ev);
                if h.cluster.drain_completions().iter().any(|c| c.token == t) {
                    done = h.sim.now();
                }
            }
            lat.push(done - issue);
        }
        assert!(lat[0] < 10_000, "ONE should dodge the straggler: {lat:?}");
        assert!(lat[1] > 40_000, "ALL must wait out the pause: {lat:?}");
    }

    #[test]
    fn timeouts_fire_when_replicas_die_mid_flight() {
        let mut cfg = ordered_config(3, 5, 1000);
        cfg.read_cl = Consistency::All;
        let mut h = Harness::new(cfg);
        h.run_one(StoreOp::Insert {
            key: key(0),
            value: k("x"),
        });
        let reps = h.cluster.replicas(&key(0));
        // Submit the read; kill a replica after the coordinator has fanned
        // out (i.e. right after the Arrive event), so its request is
        // silently dropped mid-flight.
        let t = h.submit(StoreOp::Read { key: key(0) });
        let mut out = Vec::new();
        while let Some(Ev::Store(ev)) = h.sim.next() {
            let was_arrive = matches!(ev, Event::Arrive { .. });
            h.cluster.handle(&mut h.sim, ev);
            out.extend(h.cluster.drain_completions());
            if was_arrive {
                h.cluster.apply_crash(&mut h.sim, reps[2]);
            }
        }
        let c = out.into_iter().find(|c| c.token == t).expect("timed out");
        // Mid-flight replica death is a *timeout*, not an unavailable
        // verdict: the coordinator accepted the request, so a retrying
        // client should treat it as transient.
        assert_eq!(c.result, OpResult::Error(OpError::Timeout));
        assert_eq!(h.cluster.metrics().timeouts, 1);
        assert_eq!(h.cluster.metrics().unavailable, 0);
    }

    #[test]
    fn every_setting_the_load_reads_keeps_clusters_from_loading_alike() {
        let base = ordered_config(3, 5, 100);
        let loaded = Cluster::new(base.clone());
        assert!(Cluster::new(base.clone()).loads_like(&loaded));
        let tweaks: [fn(&mut CStoreConfig); 5] = [
            |c| c.replication_factor = 2,
            |c| c.partitioner = Partitioner::murmur(),
            |c| c.strategy = crate::ring::Strategy::network_topology(1, 3),
            |c| c.lsm.block_size *= 2,
            |c| c.node.topology = simkit::Topology::single_rack(5, 1),
        ];
        for tweak in tweaks {
            let mut config = base.clone();
            tweak(&mut config);
            let other = Cluster::new(config);
            assert!(!other.loads_like(&loaded), "{:?}", other.config);
            assert!(!loaded.loads_like(&other), "{:?}", other.config);
        }
    }

    #[test]
    fn load_direct_populates_replicas() {
        let mut h = Harness::new(ordered_config(3, 5, 100));
        for i in 0..100u64 {
            h.cluster.load_direct(key(i), k("seed"), 1);
        }
        h.cluster.flush_all();
        for i in (0..100u64).step_by(13) {
            for r in h.cluster.replicas(&key(i)) {
                assert!(h.cluster.read_local(r, &key(i)).is_some());
            }
        }
        // Each node holds exactly its replicas' keys, as one run, with
        // nothing left in the memtable or unsynced in the commit log.
        let mut placed = vec![Vec::new(); h.cluster.len()];
        for i in 0..100u64 {
            for r in h.cluster.replicas(&key(i)) {
                placed[r.index()].push(key(i));
            }
        }
        for (node, mut want) in h.cluster.nodes.iter_mut().zip(placed) {
            want.sort();
            assert_eq!(node.lsm.table_count(), 1);
            assert_eq!(node.lsm.memtable_bytes(), 0);
            assert_eq!(node.lsm.wal_unsynced_bytes(), 0);
            let got: Vec<Key> = node
                .lsm
                .scan(b"", 1_000)
                .rows
                .iter()
                .map(|(k, _)| Key::copy_from_slice(k))
                .collect();
            assert_eq!(got, want);
        }
        // Reads served through the full path too.
        let r = h.run_one(StoreOp::Read { key: key(42) });
        assert!(matches!(r.result, OpResult::Value(Some(_))));
    }

    /// The distinct segments a base's runs hold, each with how many nodes
    /// hold it.
    fn held_segments(cluster: &Cluster) -> Vec<(Segment, usize)> {
        let mut distinct: Vec<(Segment, usize)> = Vec::new();
        for node in &cluster.nodes {
            for s in node.lsm.runs().iter().flat_map(|run| run.segments()) {
                match distinct.iter_mut().find(|(d, _)| d.shares_storage_with(s)) {
                    Some((_, holders)) => *holders += 1,
                    None => distinct.push((s.clone(), 1)),
                }
            }
        }
        distinct
    }

    #[test]
    fn an_ordered_base_holds_each_loaded_row_once() {
        let mut h = Harness::new(ordered_config(3, 5, 100));
        for i in 0..100u64 {
            h.cluster.load_direct(key(i), k("seed"), 1);
        }
        h.cluster.flush_all();
        // One segment per token range, held by each of its three replicas.
        let held = held_segments(&h.cluster);
        assert_eq!(held.len(), 5);
        assert!(held.iter().all(|&(_, holders)| holders == 3));
        assert_eq!(held.iter().map(|(s, _)| s.len()).sum::<usize>(), 100);
    }

    #[test]
    fn a_hashed_base_merges_each_nodes_ranges_into_its_own_segment() {
        // A hashing ring's ranges interleave in key order, so they cannot
        // sit side by side in one run: every node gets one private segment.
        let mut c = ordered_config(3, 5, 100);
        c.partitioner = Partitioner::murmur();
        let mut h = Harness::new(c);
        for i in 0..100u64 {
            h.cluster.load_direct(key(i), k("seed"), 1);
        }
        h.cluster.flush_all();
        let held = held_segments(&h.cluster);
        assert_eq!(held.len(), 5);
        assert!(held.iter().all(|&(_, holders)| holders == 1));
        assert_eq!(held.iter().map(|(s, _)| s.len()).sum::<usize>(), 300);
        for i in 0..100u64 {
            for r in h.cluster.replicas(&key(i)) {
                assert!(h.cluster.read_local(r, &key(i)).is_some());
            }
        }
    }

    /// The bulk load this one replaced, kept as the oracle: each ring
    /// segment's rows sorted into one segment, then each node's segments
    /// put in key order and merged into one of the node's own when their
    /// key ranges interleave, then one run per node built from its
    /// segments' sorted rows.
    fn per_node_flush_all(c: &mut Cluster) {
        let mut held = vec![Vec::new(); c.nodes.len()];
        let mut replicas = Vec::new();
        for (segment, load) in std::mem::take(&mut c.loaded).into_iter().enumerate() {
            if load.rows.is_empty() {
                continue;
            }
            let shared = Segment::from_queue(load.rows, &mut []);
            c.place(c.ring.segment_primary(segment), &mut replicas);
            for r in &replicas {
                held[r.index()].push(shared.clone());
            }
        }
        let range = |s: &Segment| (s.key(0).to_vec(), s.key(s.len() - 1).to_vec());
        for (node, mut segments) in c.nodes.iter_mut().zip(held) {
            node.lsm.flush();
            if !segments.is_empty() {
                segments.sort_by_key(range);
                if segments
                    .windows(2)
                    .any(|w| range(&w[0]).1 >= range(&w[1]).0)
                {
                    let mut rows = LoadQueue::default();
                    for (key, cell) in segments.iter().flat_map(|s| s.iter()) {
                        rows.push(key, cell.clone());
                    }
                    segments = vec![Segment::from_queue(rows, &mut [])];
                }
                let rows = segments.iter().map(|s| s.len()).sum();
                let mut run = RunBuilder::new(rows, node.lsm.config().block_size);
                for segment in segments {
                    run.hold(segment);
                }
                let id = node.lsm.reserve_table_id();
                node.lsm.load(id, run);
            }
            node.lsm.compact_all();
            node.lsm.sync_wal();
        }
    }

    /// Every node's tree (its runs' ids, rows, block arrays, bloom bits
    /// and sizes, its memtable, log and cache) is the same in `a` and
    /// `b`, and so is which runs share which segments.
    fn same_nodes(a: &Cluster, b: &Cluster) {
        for (node, (x, y)) in a.nodes.iter().zip(&b.nodes).enumerate() {
            prop_assert_eq!(
                format!("{:?}", x.lsm),
                format!("{:?}", y.lsm),
                "node {}",
                node
            );
        }
        let segments = |c: &Cluster| -> Vec<Segment> {
            let runs = c.nodes.iter().flat_map(|n| n.lsm.runs());
            runs.flat_map(|r| r.segments()).cloned().collect()
        };
        let (sa, sb) = (segments(a), segments(b));
        for i in 0..sa.len() {
            for j in i + 1..sa.len() {
                prop_assert_eq!(
                    sa[i].shares_storage_with(&sa[j]),
                    sb[i].shares_storage_with(&sb[j]),
                    "segments {} and {}",
                    i,
                    j
                );
            }
        }
    }

    /// Up to 400 loaded rows over 300 ids, so keys repeat, at timestamps
    /// 1–3 and three values, so a repeat is older, newer or an equal-time
    /// tie; a key's long form ties with its short form on the 16-byte
    /// prefix.
    fn arb_loaded_rows() -> impl Strategy<Value = Vec<(Key, Value, u64)>> {
        let row = (0u64..300, any::<bool>(), 0usize..3, 1u64..4).prop_map(|(id, long, v, ts)| {
            let key = if long {
                Bytes::from(format!("user{id:012}+tail").into_bytes())
            } else {
                key(id)
            };
            (key, k(["a", "b", "c"][v]), ts)
        });
        prop::collection::vec(row, 0..400)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The one-pass load builds every node's runs as the per-node path
        /// did, bit for bit: into an empty store, then again after
        /// run-time writes, over 1–3 regions of 1–5 nodes, both rings, and
        /// SimpleStrategy at RF 1–6 or random NetworkTopologyStrategy
        /// quotas.
        #[test]
        fn the_one_pass_load_builds_the_per_node_runs(
            (regions, per_region) in (1u32..4, 1usize..6),
            (nts, rf, quotas) in (any::<bool>(), 1u32..7, prop::collection::vec(0u32..4, 3..4)),
            ordered in any::<bool>(),
            first in arb_loaded_rows(),
            writes in prop::collection::vec((0u64..300, 0usize..15, any::<bool>()), 0..60),
            second in arb_loaded_rows(),
        ) {
            let nodes = regions as usize * per_region;
            let geo = simkit::GeoConfig {
                regions,
                inter_region_us: WAN_US,
                wan_jitter: 0.0,
                jitter_seed: 0,
            };
            let partitioner = if ordered {
                Partitioner::order_preserving((0..nodes as u64).map(|i| key(i * 300 / nodes as u64)).collect())
            } else {
                Partitioner::murmur()
            };
            let mut c = CStoreConfig::paper_testbed(rf, partitioner);
            c.node.topology = geo.topology(per_region, c.node.profile.nic.prop_us);
            if nts {
                let mut per_dc = quotas[..regions as usize].to_vec();
                if per_dc.iter().all(|&q| q == 0) {
                    per_dc[0] = 1;
                }
                c.replication_factor = per_dc.iter().sum();
                c.strategy = crate::Strategy::NetworkTopology { per_dc };
            }
            let mut cluster = Cluster::new(c);
            let mut twin = cluster.clone();
            for rows in [first, second] {
                for (key, value, ts) in rows {
                    cluster.load_direct(key.clone(), value.clone(), ts);
                    twin.load_direct(key, value, ts);
                }
                cluster.flush_all();
                per_node_flush_all(&mut twin);
                same_nodes(&cluster, &twin);
                // Run-time writes, some flushed into runs of their own.
                for &(id, node, flush) in &writes {
                    for c in [&mut cluster, &mut twin] {
                        let lsm = &mut c.nodes[node % nodes].lsm;
                        lsm.put(key(id), Cell::live(k("w"), 9));
                        if flush {
                            lsm.flush();
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut h = Harness::new(ordered_config(3, 5, 1000));
            let mut tokens = Vec::new();
            for i in 0..20u64 {
                tokens.push(h.submit(StoreOp::Insert {
                    key: key(i),
                    value: k("v"),
                }));
            }
            let out = h.run();
            (out.len(), h.sim.now(), h.cluster.metrics().writes)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn metrics_count_operations() {
        let mut h = Harness::new(ordered_config(2, 4, 100));
        h.run_one(StoreOp::Insert {
            key: key(0),
            value: k("v"),
        });
        h.run_one(StoreOp::Read { key: key(0) });
        h.run_one(StoreOp::Scan {
            start: key(0),
            limit: 5,
        });
        let m = h.cluster.metrics();
        assert_eq!(m.writes, 1);
        assert_eq!(m.reads, 1);
        assert_eq!(m.scans, 1);
    }

    // ----- geo: datacenter-aware consistency levels -----

    const WAN_US: u64 = 25_000;

    /// A multi-region cluster: `regions × nodes_per_region`, NTS placing
    /// `rf_per_dc` replicas in each DC, a uniform `WAN_US` one-way
    /// inter-region delay, deterministic service times, no read repair.
    fn geo_cluster_config(regions: u32, nodes_per_region: usize, rf_per_dc: u32) -> CStoreConfig {
        let geo_cfg = simkit::GeoConfig {
            regions,
            inter_region_us: WAN_US,
            wan_jitter: 0.0,
            jitter_seed: 0,
        };
        let mut c = CStoreConfig::paper_testbed(regions * rf_per_dc, Partitioner::murmur());
        c.node.topology = geo_cfg.topology(nodes_per_region, c.node.profile.nic.prop_us);
        c.strategy = crate::Strategy::network_topology(regions, rf_per_dc);
        c.read_repair_chance = 0.0;
        c.node.jitter = 0.0;
        c
    }

    fn timed_write(mut cfg: CStoreConfig, write_cl: Consistency) -> SimTime {
        cfg.write_cl = write_cl;
        let mut h = Harness::new(cfg);
        let issue = h.sim.now();
        let t = h.submit(StoreOp::Insert {
            key: key(0),
            value: k("x"),
        });
        let mut done_at = None;
        while let Some(Ev::Store(ev)) = h.sim.next() {
            h.cluster.handle(&mut h.sim, ev);
            for c in h.cluster.drain_completions() {
                if c.token == t {
                    assert!(
                        matches!(c.result, OpResult::Written { .. }),
                        "write failed: {:?}",
                        c.result
                    );
                    done_at = Some(h.sim.now());
                }
            }
        }
        done_at.expect("write settled") - issue
    }

    #[test]
    fn local_quorum_write_settles_without_wan_hop() {
        // 2 regions, 3 replicas per DC, 25 ms WAN: LOCAL_QUORUM must settle
        // on the coordinator DC's quorum alone — well under one WAN hop.
        let lat = timed_write(geo_cluster_config(2, 3, 3), Consistency::LocalQuorum);
        assert!(
            lat < WAN_US,
            "LOCAL_QUORUM paid a WAN hop: {lat}us >= {WAN_US}us"
        );
    }

    #[test]
    fn each_quorum_write_waits_on_the_slowest_dc() {
        // EACH_QUORUM needs a remote-DC quorum: at least one full WAN round
        // trip (request out + ack back) sits on the settle path.
        let each = timed_write(geo_cluster_config(2, 3, 3), Consistency::EachQuorum);
        assert!(
            each >= 2 * WAN_US,
            "EACH_QUORUM must pay a WAN round trip: {each}us < {}us",
            2 * WAN_US
        );
        let local = timed_write(geo_cluster_config(2, 3, 3), Consistency::LocalQuorum);
        assert!(
            local < each,
            "LOCAL_QUORUM {local}us vs EACH_QUORUM {each}us"
        );
    }

    #[test]
    fn per_dc_ack_sets_gate_each_quorum() {
        // Acks from one DC alone — however many — must not settle an
        // EACH_QUORUM write. With the remote DC crashed the write is
        // rejected as unavailable (its quorum can never assemble).
        let mut cfg = geo_cluster_config(2, 3, 3);
        cfg.write_cl = Consistency::EachQuorum;
        let mut h = Harness::new(cfg);
        for n in 3..6 {
            h.cluster.apply_crash(&mut h.sim, NodeId(n)); // take down all of region 1
        }
        let c = h.run_one(StoreOp::Insert {
            key: key(0),
            value: k("x"),
        });
        assert_eq!(c.result, OpResult::Error(OpError::Unavailable));

        // LOCAL_QUORUM (coordinator in the surviving DC) rides through.
        let mut cfg3 = geo_cluster_config(2, 3, 3);
        cfg3.write_cl = Consistency::LocalQuorum;
        let mut h = Harness::new(cfg3);
        for n in 3..6 {
            h.cluster.apply_crash(&mut h.sim, NodeId(n));
        }
        let c = h.run_one(StoreOp::Insert {
            key: key(0),
            value: k("x"),
        });
        assert!(matches!(c.result, OpResult::Written { .. }));
    }

    #[test]
    fn local_quorum_read_contacts_only_local_replicas() {
        let mut cfg = geo_cluster_config(2, 3, 3);
        cfg.read_cl = Consistency::LocalQuorum;
        cfg.write_cl = Consistency::EachQuorum; // seed every DC first
        let mut h = Harness::new(cfg);
        h.run_one(StoreOp::Insert {
            key: key(0),
            value: k("v"),
        });
        let issue = h.sim.now();
        let t = h.submit(StoreOp::Read { key: key(0) });
        let mut done_at = None;
        while let Some(Ev::Store(ev)) = h.sim.next() {
            h.cluster.handle(&mut h.sim, ev);
            for c in h.cluster.drain_completions() {
                if c.token == t {
                    assert!(matches!(c.result, OpResult::Value(Some(_))));
                    done_at = Some(h.sim.now());
                }
            }
        }
        let lat = done_at.expect("read settled") - issue;
        assert!(
            lat < WAN_US,
            "LOCAL_QUORUM read paid a WAN hop: {lat}us >= {WAN_US}us"
        );
    }

    #[test]
    fn single_region_local_quorum_is_bit_identical_to_quorum() {
        // On a single-DC cluster the DC-aware levels reduce exactly to
        // QUORUM: same completions at the same virtual instants, same
        // event and RNG trajectory (sim.now() and dispatch counts match).
        let run = |read_cl: Consistency, write_cl: Consistency| {
            let mut cfg = ordered_config(3, 5, 1000);
            cfg.read_cl = read_cl;
            cfg.write_cl = write_cl;
            let mut h = Harness::new(cfg);
            for i in 0..30u64 {
                h.submit(StoreOp::Insert {
                    key: key(i % 7),
                    value: k("v"),
                });
            }
            for i in 0..30u64 {
                h.submit(StoreOp::Read { key: key(i % 7) });
            }
            let out = h.run();
            (out.len(), h.sim.now(), h.sim.dispatched())
        };
        let quorum = run(Consistency::Quorum, Consistency::Quorum);
        assert_eq!(
            run(Consistency::LocalQuorum, Consistency::LocalQuorum),
            quorum
        );
        assert_eq!(
            run(Consistency::EachQuorum, Consistency::EachQuorum),
            quorum
        );
    }

    #[test]
    fn local_quorum_scan_counts_only_local_replicas() {
        // Sized as a plain QUORUM of all 6 replicas, a LOCAL_QUORUM scan
        // round waited for 4 answers, at least one across the WAN.
        let mut cfg = geo_cluster_config(2, 3, 3);
        cfg.partitioner = Partitioner::order_preserving((0..6).map(|i| key(i * 20)).collect());
        cfg.read_cl = Consistency::LocalQuorum;
        let mut h = Harness::new(cfg);
        for i in 0..120u64 {
            h.cluster.load_direct(key(i), k("v"), 1);
        }
        h.cluster.flush_all();
        let issue = h.sim.now();
        let t = h.submit(StoreOp::Scan {
            start: key(0),
            limit: 5,
        });
        let (mut counted, mut done_at) = (Vec::new(), None);
        while let Some(Ev::Store(ev)) = h.sim.next() {
            if let Event::ReplicaScan {
                node, count: true, ..
            } = &ev
            {
                counted.push(*node);
            }
            h.cluster.handle(&mut h.sim, ev);
            for c in h.cluster.drain_completions() {
                if c.token == t {
                    let OpResult::Rows(rows) = c.result else {
                        panic!("unexpected: {:?}", c.result);
                    };
                    let got: Vec<_> = rows
                        .iter()
                        .map(|(key, _)| Key::copy_from_slice(key))
                        .collect();
                    assert_eq!(got, (0..5).map(key).collect::<Vec<_>>());
                    done_at = Some(h.sim.now());
                }
            }
        }
        // The first coordinator is node 0, in region 0.
        assert_eq!(counted.len(), 2, "a majority of the local 3: {counted:?}");
        assert!(
            counted.iter().all(|&n| h.cluster.region_of(n) == 0),
            "counted a remote replica: {counted:?}"
        );
        let lat = done_at.expect("scan settled") - issue;
        assert!(lat < WAN_US, "LOCAL_QUORUM scan paid a WAN hop: {lat}us");
    }

    // ----- the quota plan against the code it replaced -----

    /// How the coordinator sized a write's ack rule before one [`Quota`]
    /// served reads, writes and scans (a copy of that code, as an oracle).
    enum RefRule {
        Count,
        LocalDc { dc: u32, acks: u32 },
        PerDc(Vec<(u32, u32, u32)>),
    }

    impl RefRule {
        fn ack(&mut self, region: u32, needed: u32, total_acks: u32) -> bool {
            match self {
                RefRule::Count => total_acks >= needed,
                RefRule::LocalDc { dc, acks } => {
                    if region == *dc {
                        *acks += 1;
                    }
                    *acks >= needed
                }
                RefRule::PerDc(quotas) => {
                    if let Some(q) = quotas.iter_mut().find(|q| q.0 == region) {
                        q.2 += 1;
                    }
                    quotas.iter().all(|q| q.2 >= q.1)
                }
            }
        }
    }

    /// The replaced code's verdicts over replicas `(node, region, up)` in
    /// ring order: `(needed, write rule, write available, read targets,
    /// read available)`.
    fn reference_plan(
        cl: Consistency,
        rf: u32,
        coord_dc: u32,
        multi_dc: bool,
        reps: &[(NodeId, u32, bool)],
    ) -> (u32, RefRule, bool, Vec<NodeId>, bool) {
        let live: Vec<NodeId> = reps.iter().filter(|r| r.2).map(|r| r.0).collect();
        let live_in = |dc: u32| reps.iter().filter(move |r| r.2 && r.1 == dc).map(|r| r.0);
        let mut totals: Vec<(u32, u32)> = Vec::new();
        for r in reps {
            match totals.iter_mut().find(|q| q.0 == r.1) {
                Some(q) => q.1 += 1,
                None => totals.push((r.1, 1)),
            }
        }
        let local_total = reps.iter().filter(|r| r.1 == coord_dc).count() as u32;
        let dc_aware = matches!(cl, Consistency::LocalQuorum | Consistency::EachQuorum);
        if !(dc_aware && multi_dc) || (cl == Consistency::LocalQuorum && local_total == 0) {
            let n = cl.required(rf);
            let targets: Vec<NodeId> = live.iter().copied().take(n as usize).collect();
            let available = live.len() as u32 >= n;
            return (n, RefRule::Count, available, targets, available);
        }
        if cl == Consistency::LocalQuorum {
            let n = local_total / 2 + 1;
            let targets: Vec<NodeId> = live_in(coord_dc).take(n as usize).collect();
            let write_available = live_in(coord_dc).count() as u32 >= n;
            let rule = RefRule::LocalDc {
                dc: coord_dc,
                acks: 0,
            };
            let read_available = targets.len() as u32 >= n;
            return (n, rule, write_available, targets, read_available);
        }
        let quotas: Vec<(u32, u32, u32)> = totals.iter().map(|&(r, t)| (r, t / 2 + 1, 0)).collect();
        let needed = quotas.iter().map(|q| q.1).sum();
        let targets: Vec<NodeId> = quotas
            .iter()
            .flat_map(|q| live_in(q.0).take(q.1 as usize))
            .collect();
        let write_available = quotas.iter().all(|q| live_in(q.0).count() as u32 >= q.1);
        let read_available = targets.len() as u32 >= needed;
        let rule = RefRule::PerDc(quotas);
        (needed, rule, write_available, targets, read_available)
    }

    const LEVELS: [Consistency; 5] = [
        Consistency::One,
        Consistency::Quorum,
        Consistency::LocalQuorum,
        Consistency::EachQuorum,
        Consistency::All,
    ];

    /// `regions × nodes_per_region` nodes, `per_dc[r]` replicas in region
    /// `r`, level `cl` for reads and writes, no read repair, and a wire
    /// without propagation delay: every replica request then arrives one
    /// fixed transfer time after it is sent, so requests pop in send order,
    /// except that one to the coordinator itself arrives at once.
    fn quota_config(
        regions: u32,
        nodes_per_region: usize,
        per_dc: Vec<u32>,
        cl: Consistency,
    ) -> CStoreConfig {
        let rf = per_dc.iter().sum();
        let mut c = CStoreConfig::paper_testbed(rf, Partitioner::murmur());
        c.node.topology = simkit::Topology::geo(
            regions,
            nodes_per_region,
            0,
            vec![0; (regions * regions) as usize],
        );
        c.strategy = crate::Strategy::NetworkTopology { per_dc };
        c.read_repair_chance = 0.0;
        c.node.jitter = 0.0;
        c.read_cl = cl;
        c.write_cl = cl;
        c
    }

    /// The replica requests `op` sends from coordinator `coord` with `down`
    /// crashed, in arrival order, each with its `count` flag (reads and
    /// writes always count); `None` when the op is refused as unavailable.
    fn replica_requests(
        cfg: &CStoreConfig,
        down: &[NodeId],
        coord: NodeId,
        op: StoreOp,
    ) -> Option<Vec<(NodeId, bool)>> {
        let mut h = Harness::new(cfg.clone());
        for &n in down {
            h.cluster.apply_crash(&mut h.sim, n);
        }
        h.cluster.next_coord = coord.index();
        h.submit(op);
        let Some(Ev::Store(arrive)) = h.sim.next() else {
            panic!("no arrival");
        };
        h.cluster.handle(&mut h.sim, arrive);
        let mut sent = Vec::new();
        while let Some(Ev::Store(ev)) = h.sim.next() {
            match ev {
                Event::ReplicaRead { node, .. } | Event::ReplicaWrite { node, .. } => {
                    sent.push((node, true));
                }
                Event::ReplicaScan { node, count, .. } => sent.push((node, count)),
                _ => {}
            }
        }
        (h.cluster.metrics().unavailable == 0).then_some(sent)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn one_quota_plan_matches_the_replaced_code(
            (regions, nodes_per_region) in (1u32..4, 1usize..4),
            per_dc in prop::collection::vec(0u32..4, 3..4),
            cl in (0..LEVELS.len()).prop_map(|i| LEVELS[i]),
            (coord, (a, b)) in (0usize..9, (any::<u16>(), any::<u16>())),
            (id, ack_seed) in (0u64..1_000, any::<u64>()),
        ) {
            let nodes = regions as usize * nodes_per_region;
            let per_dc: Vec<u32> = per_dc[..regions as usize]
                .iter()
                .map(|&n| n.min(nodes_per_region as u32))
                .collect();
            prop_assume!(per_dc.iter().sum::<u32>() > 0);
            let coord = NodeId((coord % nodes) as u32);
            // Every other node is down with probability 1/4.
            let down: Vec<NodeId> = (0..nodes as u32)
                .map(NodeId)
                .filter(|&n| n != coord && (a & b) >> n.0 & 1 == 1)
                .collect();
            let cfg = quota_config(regions, nodes_per_region, per_dc, cl);
            let cluster = Cluster::new(cfg.clone());
            let replicas = cluster.replicas(&key(id));
            let reps: Vec<(NodeId, u32, bool)> = replicas
                .iter()
                .map(|&r| (r, cluster.region_of(r), !down.contains(&r)))
                .collect();
            let (needed, mut rule, write_available, read_targets, read_available) = reference_plan(
                cl,
                cfg.replication_factor,
                cluster.region_of(coord),
                regions > 1,
                &reps,
            );
            let strategy = &cfg.strategy;
            let case = format!("{cl} {strategy:?} coord {coord} replicas {reps:?}");

            let home = cluster.multi_dc().then(|| cluster.region_of(coord));
            let region = |r| cluster.region_of(r);
            let mut quota = Quota::new(cl, cfg.replication_factor, home, &replicas, region);
            assert_eq!(quota.needed(), needed, "{case}");
            // Acks from the live replicas in a seeded order settle at the
            // same one.
            let mut acks: Vec<&(NodeId, u32, bool)> = reps.iter().filter(|r| r.2).collect();
            acks.sort_by_key(|r| {
                (ack_seed ^ r.0.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            });
            let settle = |ack: &mut dyn FnMut(u32, u32) -> bool| {
                (1..=acks.len() as u32).find(|&total| ack(acks[total as usize - 1].1, total))
            };
            assert_eq!(
                settle(&mut |region, total| quota.ack(region, total)),
                settle(&mut |region, total| rule.ack(region, needed, total)),
                "write settle point: {case}"
            );

            // Requests to the coordinator itself arrive first.
            let arrival_order = |sent: &[NodeId]| {
                let mut order: Vec<(NodeId, bool)> = sent.iter().map(|&n| (n, true)).collect();
                order.sort_by_key(|&(n, _)| n != coord);
                order
            };
            let live: Vec<NodeId> = reps.iter().filter(|r| r.2).map(|r| r.0).collect();
            let write = StoreOp::Insert { key: key(id), value: k("v") };
            let written = replica_requests(&cfg, &down, coord, write);
            assert_eq!(written.is_some(), write_available, "write availability: {case}");
            if let Some(sent) = written {
                assert_eq!(sent, arrival_order(&live), "writes reach every live replica: {case}");
            }
            let read = replica_requests(&cfg, &down, coord, StoreOp::Read { key: key(id) });
            assert_eq!(read.is_some(), read_available, "read availability: {case}");
            let scan = StoreOp::Scan { start: key(id), limit: 1 };
            let scanned = replica_requests(&cfg, &down, coord, scan);
            assert_eq!(scanned.is_some(), read_available, "scan availability: {case}");
            if let (Some(read), Some(scanned)) = (read, scanned) {
                assert_eq!(read, arrival_order(&read_targets), "read targets: {case}");
                assert_eq!(scanned, read, "scan round targets: {case}");
            }
        }
    }
}
