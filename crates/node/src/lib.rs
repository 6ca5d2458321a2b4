//! # node — the replica-node runtime under both stores
//!
//! The paper compares two replication protocols on identical hardware.
//! Everything around the protocol is this crate's [`Runtime`], written once:
//!
//! * per-node hardware ([`NodeHw`]): up/down state, disk and NIC
//!   degradation, and the background-I/O backlog and its throttled drain;
//! * the front door ([`Runtime::submit`]): admission shed, request
//!   receive, the `Arrive` event and the op's RPC timer;
//! * the in-flight table (a [`Slab`] of [`InFlight`]), response sizing and
//!   delivery, completions, and the span [`Tracer`].
//!
//! A store embeds one `Runtime<S, E>`, built from its [`NodeConfig`] alone
//! (the node count is the topology's): `S` is its per-op protocol state and
//! `E` its event enum, which spells the runtime's events through
//! [`NodeEvent`] so a queue entry keeps the store's own layout. What stays
//! in each store is its protocol, its fast-fail verdict and its timeout
//! *policy* (see [`Runtime::time_out`]). Each store also implements
//! [`SimStore`], the surface the benchmark driver sees.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod store;

use std::marker::PhantomData;

use obs::{Stage, Tracer};
use simkit::{
    AdmissionConfig, NodeHw, NodeId, NodeProfile, OpKey, OpTag, Sim, SimTime, Slab, TimerId,
    Topology,
};
use storage::{Cell, Completion, IoOp, IoPlan, OpError, OpResult, Rows};

pub use store::{DriverEvent, SimStore};

/// Fixed overhead bytes of every message either store sends (headers,
/// serialization).
pub const MSG_OVERHEAD_BYTES: u64 = 100;
/// Background (flush/compaction) disk-I/O throttle, bytes/second per node:
/// Cassandra's `compaction_throughput_mb_per_sec` (16 MB/s).
const BG_IO_RATE: u64 = 16_000_000;
/// Background-I/O chunk, bytes: foreground reads interleave between chunks
/// on the FIFO disk (64 KiB ≈ one SSTable block write).
const BG_CHUNK_BYTES: u64 = 64 * 1024;

/// The node-level settings both stores share, each with one meaning.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// Hardware of each node.
    pub profile: NodeProfile,
    /// Rack layout / network distances; its length is the node count.
    pub topology: Topology,
    /// Give-up interval, microseconds: an op still unanswered this long
    /// after its request reached the serving node fails with
    /// [`OpError::Timeout`] (Cassandra's `rpc_timeout_in_ms`, HBase's client
    /// RPC timeout; fault experiments shorten it so timeouts are visible
    /// within one timeline window).
    pub rpc_timeout_us: u64,
    /// Front-door admission control (the cstore coordinator, the hstore
    /// regionserver's RPC call queue): bounded in-flight queue with load
    /// shedding. Disabled by default ([`AdmissionConfig::off`]) — off runs
    /// add zero events and zero RNG draws.
    pub admission: AdmissionConfig,
}

impl NodeConfig {
    /// The paper's testbed: `nodes` machines in one rack, era defaults
    /// everywhere else.
    pub fn paper_testbed(nodes: usize) -> Self {
        let profile = NodeProfile::paper_testbed();
        Self {
            profile,
            topology: Topology::single_rack(nodes, profile.nic.prop_us),
            rpc_timeout_us: 2_000_000,
            admission: AdmissionConfig::off(),
        }
    }
}

/// The runtime's events, spelled as variants of the store's own event type,
/// so the runtime adds no variant and no byte to a queue entry.
pub trait NodeEvent {
    /// The request of `op` has fully arrived at its serving node.
    fn arrive(op: OpKey) -> Self;
    /// The RPC timer of `op` fired.
    fn timeout(op: OpKey) -> Self;
    /// A response reaches the client.
    fn deliver(token: u64, op: OpKey, result: OpResult) -> Self;
    /// One chunk of `node`'s background-I/O backlog is due.
    fn bg_io(node: NodeId) -> Self;
}

/// One in-flight op.
#[derive(Debug, Clone)]
pub struct InFlight<S> {
    /// The driver token: the op's external identity (completions, traces).
    pub token: u64,
    /// The node the request was received at.
    pub node: NodeId,
    /// True once a response is on its way to the client.
    pub responded: bool,
    /// The op's RPC timer, cancelled when the op is retired.
    timer: TimerId,
    /// The protocol's per-op state.
    pub state: S,
}

#[derive(Debug, Clone)]
struct Node {
    hw: NodeHw,
    /// Bytes of flush/compaction disk work waiting for the throttle.
    backlog: u64,
    /// True while a background-I/O drain event is scheduled.
    draining: bool,
}

/// The per-node machinery of one cluster. See the crate docs.
#[derive(Debug, Clone)]
pub struct Runtime<S, E> {
    config: NodeConfig,
    nodes: Vec<Node>,
    pending: Slab<InFlight<S>>,
    completed: Vec<Completion>,
    shed: u64,
    /// The span tracer (disabled by default; the driver enables it and
    /// registers which tokens to record).
    pub tracer: Tracer,
    _event: PhantomData<fn() -> E>,
}

impl<S, E: NodeEvent> Runtime<S, E> {
    /// One idle machine per node of `config.topology`.
    pub fn new(config: NodeConfig) -> Self {
        let node = Node {
            hw: NodeHw::new(config.profile),
            backlog: 0,
            draining: false,
        };
        Self {
            nodes: vec![node; config.topology.len()],
            config,
            pending: Slab::new(),
            completed: Vec::new(),
            shed: 0,
            tracer: Tracer::new(),
            _event: PhantomData,
        }
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// A node's hardware.
    pub fn hw(&self, node: NodeId) -> &NodeHw {
        &self.nodes[node.index()].hw
    }

    /// Mutable access to a node's hardware (CPU, disk and NIC charging,
    /// crash/recover, degradation faults).
    pub fn hw_mut(&mut self, node: NodeId) -> &mut NodeHw {
        &mut self.nodes[node.index()].hw
    }

    /// True while `node` is serving.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.nodes[node.index()].hw.is_up()
    }

    /// The nodes of datacenter `region`; none for a region the topology
    /// does not have.
    pub fn region_nodes(&self, region: u32) -> Vec<NodeId> {
        if region >= self.config.topology.num_regions() {
            return Vec::new();
        }
        self.config.topology.region_nodes(region).collect()
    }

    /// The in-flight op at `op`, if it has not been retired.
    pub fn get(&self, op: OpKey) -> Option<&InFlight<S>> {
        self.pending.get(op)
    }

    /// Mutable access to the in-flight op at `op`.
    pub fn get_mut(&mut self, op: OpKey) -> Option<&mut InFlight<S>> {
        self.pending.get_mut(op)
    }

    /// Ops shed at the front door by admission control.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Hand a finished op to the driver (with its next drain).
    pub fn complete(&mut self, token: u64, result: OpResult) {
        self.completed.push(Completion { token, result });
    }

    /// Take all completions produced since the last drain.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completed)
    }

    /// [`Runtime::drain_completions`] into a buffer the caller reuses; both
    /// vectors keep their allocations.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completed);
    }

    /// The front door. When admission control sheds the op the completion
    /// is an immediate [`OpError::Overloaded`]: no event is scheduled and no
    /// RNG is drawn. Otherwise `route` picks the serving node and builds the
    /// op's state, or returns the store's fast-fail verdict as an immediate
    /// completion. A
    /// routed request of `req_bytes` is received at its node, its `Arrive`
    /// is scheduled, and its RPC timer armed, in that order.
    pub fn submit<W: From<E>>(
        &mut self,
        sim: &mut Sim<W>,
        token: u64,
        tag: OpTag,
        req_bytes: u64,
        route: impl FnOnce(&Self) -> Result<(NodeId, S), OpError>,
    ) {
        let now = sim.now();
        if !self.config.admission.admits(self.pending.len(), tag) {
            self.shed += 1;
            self.tracer
                .record(token, Stage::AdmissionQueue, 0, now, now);
            self.complete(token, OpResult::Error(OpError::Overloaded));
            return;
        }
        let (node, state) = match route(self) {
            Ok(routed) => routed,
            Err(e) => {
                self.complete(token, OpResult::Error(e));
                return;
            }
        };
        let arr = now + self.config.profile.nic.prop_us;
        let rx = self.nodes[node.index()].hw.nic.rx(arr, req_bytes);
        self.tracer
            .record(token, Stage::ClientSend, node.0, now, rx);
        let deadline = rx + self.config.rpc_timeout_us;
        self.pending.insert_with(|key| {
            sim.schedule_at(rx, W::from(E::arrive(key)));
            InFlight {
                token,
                node,
                responded: false,
                timer: sim.timer_at(deadline, W::from(E::timeout(key))),
                state,
            }
        });
    }

    /// Take a finished op out of the in-flight table and cancel its timer.
    pub fn retire<W>(&mut self, sim: &mut Sim<W>, op: OpKey) -> Option<InFlight<S>> {
        let p = self.pending.remove(op)?;
        sim.cancel_timer(p.timer);
        Some(p)
    }

    /// Sample a service time with mean `mean_us`: exponentially
    /// distributed (JVM-era RPC handling is heavy-tailed, GC stragglers
    /// included; this is what makes waiting for *all* replicas expensive
    /// relative to waiting for the fastest). A zero mean draws nothing.
    pub fn service<W>(&self, sim: &mut Sim<W>, mean_us: u64) -> u64 {
        if mean_us == 0 {
            return 0;
        }
        let u = sim.rng().unit().max(1e-12);
        (-u.ln() * mean_us as f64).round() as u64
    }

    /// Move `bytes` from `from` to `to` starting at `start`; returns full
    /// delivery time. Loopback is free.
    pub fn net_to(&mut self, from: NodeId, to: NodeId, bytes: u64, start: SimTime) -> SimTime {
        if from == to {
            return start;
        }
        let tx = self.nodes[from.index()].hw.nic.tx(start, bytes);
        let arr = tx + self.config.topology.prop_us(from, to);
        self.nodes[to.index()].hw.nic.rx(arr, bytes)
    }

    /// Delivery time of a server→client message sent at `start`.
    pub fn client_delivery(&mut self, from: NodeId, bytes: u64, start: SimTime) -> SimTime {
        let tx = self.nodes[from.index()].hw.nic.tx(start, bytes);
        tx + self.config.profile.nic.prop_us
    }

    /// Wire size of a message carrying `cell`.
    pub fn cell_bytes(&self, cell: &Option<Cell>) -> u64 {
        MSG_OVERHEAD_BYTES + cell.as_ref().map_or(0, Cell::encoded_len)
    }

    /// Wire size of a message carrying `rows`.
    pub fn rows_bytes(&self, rows: &Rows) -> u64 {
        MSG_OVERHEAD_BYTES + rows.encoded_len()
    }

    /// Send `result` from `from` to the client at `start`: the response is
    /// sized, transmitted and traced, the op (if still in flight) is marked
    /// responded, and its `Deliver` scheduled.
    pub fn respond<W: From<E>>(
        &mut self,
        sim: &mut Sim<W>,
        op: OpKey,
        token: u64,
        from: NodeId,
        start: SimTime,
        result: OpResult,
    ) {
        let bytes = match &result {
            OpResult::Value(cell) => self.cell_bytes(cell),
            OpResult::Rows(rows) => self.rows_bytes(rows),
            _ => MSG_OVERHEAD_BYTES,
        };
        let at = self.client_delivery(from, bytes, start);
        self.tracer
            .record(token, Stage::RespSend, from.0, start, at);
        if let Some(p) = self.pending.get_mut(op) {
            p.responded = true;
        }
        sim.schedule_at(at, W::from(E::deliver(token, op, result)));
    }

    /// Fail `op` with [`OpError::Timeout`]: the client learns one
    /// propagation delay from now, traced as a response sent from
    /// `span_node`. *When* an op times out is the store's policy — cstore
    /// retires the op first and counts it, hstore lets an op that already
    /// responded wait for its `Deliver` — so this neither retires nor
    /// checks `responded`.
    pub fn time_out<W: From<E>>(
        &mut self,
        sim: &mut Sim<W>,
        op: OpKey,
        token: u64,
        span_node: u32,
    ) {
        let now = sim.now();
        let at = now + self.config.profile.nic.prop_us;
        self.tracer
            .record(token, Stage::RespSend, span_node, now, at);
        sim.schedule_at(
            at,
            W::from(E::deliver(token, op, OpResult::Error(OpError::Timeout))),
        );
    }

    /// Charge an I/O plan against `node`'s disk, serially, from `start`.
    /// Returns when the last read completes.
    pub fn charge_io_plan(&mut self, node: NodeId, start: SimTime, plan: &IoPlan) -> SimTime {
        let disk = &mut self.nodes[node.index()].hw.disk;
        let mut t = start;
        for op in plan.iter() {
            match *op {
                IoOp::DiskRead { bytes } => t = disk.random_read(t, bytes),
                IoOp::DiskSeqRead { bytes } => t = disk.seq_read(t, bytes),
                IoOp::MemtableHit | IoOp::CacheHit { .. } | IoOp::BloomSkip => {}
            }
        }
        t
    }

    /// Queue `bytes` of flush/compaction disk work on `node` for the
    /// background-I/O throttle (see [`Runtime::kick_bg_io`]).
    pub fn add_backlog(&mut self, node: NodeId, bytes: u64) {
        self.nodes[node.index()].backlog += bytes;
    }

    /// Start draining `node`'s backlog unless it is empty or already
    /// draining: at most one drain chain per node.
    pub fn kick_bg_io<W: From<E>>(&mut self, sim: &mut Sim<W>, node: NodeId) {
        let n = &mut self.nodes[node.index()];
        if n.backlog > 0 && !n.draining {
            n.draining = true;
            sim.schedule_in(0, W::from(E::bg_io(node)));
        }
    }

    /// Write one `BG_CHUNK_BYTES` chunk of `node`'s backlog, and schedule
    /// the next so the long-run rate is `BG_IO_RATE`.
    pub fn on_bg_io<W: From<E>>(&mut self, sim: &mut Sim<W>, node: NodeId) {
        let n = &mut self.nodes[node.index()];
        if n.backlog == 0 {
            n.draining = false;
            return;
        }
        let chunk = n.backlog.min(BG_CHUNK_BYTES);
        n.backlog -= chunk;
        n.hw.disk.seq_write(sim.now(), chunk);
        if n.backlog > 0 {
            let interval = simkit::time::transfer_time(chunk, BG_IO_RATE);
            sim.schedule_in(interval, W::from(E::bg_io(node)));
        } else {
            n.draining = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy protocol's events: just the runtime's own.
    #[derive(Debug, Clone, PartialEq)]
    enum Ev {
        Arrive(OpKey),
        Timeout(OpKey),
        Deliver(u64, OpResult),
        BgIo(NodeId),
    }

    impl NodeEvent for Ev {
        fn arrive(op: OpKey) -> Self {
            Ev::Arrive(op)
        }
        fn timeout(op: OpKey) -> Self {
            Ev::Timeout(op)
        }
        fn deliver(token: u64, _op: OpKey, result: OpResult) -> Self {
            Ev::Deliver(token, result)
        }
        fn bg_io(node: NodeId) -> Self {
            Ev::BgIo(node)
        }
    }

    type Rt = Runtime<(), Ev>;

    fn runtime(nodes: usize, tweak: impl FnOnce(&mut NodeConfig)) -> Rt {
        let mut config = NodeConfig::paper_testbed(nodes);
        tweak(&mut config);
        Runtime::new(config)
    }

    /// Submit an op served by node 0.
    fn submit(rt: &mut Rt, sim: &mut Sim<Ev>, token: u64, tag: OpTag) {
        rt.submit(sim, token, tag, 100, |_| Ok((NodeId(0), ())));
    }

    #[test]
    fn an_admission_shed_is_an_immediate_overloaded_completion() {
        // Strict priority halves the bound per priority level, so with a
        // bound of 1 a priority-1 op is shed even into an empty cluster.
        let mut rt = runtime(2, |c| {
            c.admission = AdmissionConfig { max_in_flight: 1 };
        });
        let mut sim: Sim<Ev> = Sim::new(3);
        let rng = sim.rng().clone();
        let tag = OpTag { priority: 1 };
        submit(&mut rt, &mut sim, 9, tag);
        assert_eq!(sim.pending(), 0, "no event scheduled");
        assert_eq!(*sim.rng(), rng, "no RNG drawn");
        assert_eq!(rt.shed(), 1);
        assert_eq!(
            rt.drain_completions(),
            vec![Completion {
                token: 9,
                result: OpResult::Error(OpError::Overloaded),
            }]
        );
    }

    #[test]
    fn a_backlog_drains_in_chunks_at_the_throttle_rate_one_chain_per_node() {
        let mut rt = runtime(2, |_| {});
        let mut sim: Sim<Ev> = Sim::new(1);
        let chunk = 64 * 1024;
        rt.add_backlog(NodeId(1), 3 * chunk + 10);
        rt.kick_bg_io(&mut sim, NodeId(1));
        rt.kick_bg_io(&mut sim, NodeId(1));
        assert_eq!(sim.pending(), 1, "one drain chain");
        let mut writes = Vec::new();
        while let Some(ev) = sim.next() {
            assert_eq!(ev, Ev::BgIo(NodeId(1)));
            let before = rt.hw(NodeId(1)).disk.written_bytes();
            rt.on_bg_io(&mut sim, NodeId(1));
            writes.push((sim.now(), rt.hw(NodeId(1)).disk.written_bytes() - before));
            rt.kick_bg_io(&mut sim, NodeId(1));
            assert!(sim.pending() <= 1, "a kick mid-drain adds no chain");
        }
        let gap = simkit::time::transfer_time(chunk, 16_000_000);
        assert_eq!(
            writes,
            vec![(0, chunk), (gap, chunk), (2 * gap, chunk), (3 * gap, 10)]
        );
        assert_eq!(rt.hw(NodeId(0)).disk.written_bytes(), 0);
    }

    #[test]
    fn retire_cancels_the_timer() {
        let mut rt = runtime(1, |_| {});
        let mut sim: Sim<Ev> = Sim::new(1);
        // The first op's timer is the earliest, so it sits in the queue;
        // the second op's is parked behind it, where a cancel removes it.
        submit(&mut rt, &mut sim, 1, OpTag::default());
        assert!(matches!(sim.next(), Some(Ev::Arrive(_))));
        let before = sim.pending();
        submit(&mut rt, &mut sim, 2, OpTag::default());
        assert_eq!(sim.pending(), before + 2);
        let Some(Ev::Arrive(op)) = sim.next() else {
            panic!("second arrival")
        };
        assert_eq!(rt.retire(&mut sim, op).map(|p| p.token), Some(2));
        assert_eq!(sim.pending(), before);
        assert!(rt.retire(&mut sim, op).is_none());
    }

    #[test]
    fn the_runtime_has_one_addressable_node_per_topology_member() {
        // Two regions of three nodes, 25 ms apart.
        let topology = Topology::geo(2, 3, 50, vec![0, 25_000, 25_000, 0]);
        let config = NodeConfig {
            topology: topology.clone(),
            ..NodeConfig::paper_testbed(1)
        };
        let rt: Rt = Runtime::new(config);
        assert_eq!(rt.nodes(), topology.len());
        let mut seen = 0;
        for r in 0..topology.num_regions() {
            for n in rt.region_nodes(r) {
                assert!(rt.hw(n).is_up(), "{n} in region {r}");
                seen += 1;
            }
        }
        assert_eq!(seen, rt.nodes());
        assert!(rt.region_nodes(2).is_empty(), "no third region");
    }

    #[test]
    fn io_plan_charging_serializes_reads() {
        let mut rt = runtime(1, |_| {});
        let mut plan = IoPlan::new();
        plan.push(IoOp::DiskRead { bytes: 0 });
        plan.push(IoOp::DiskRead { bytes: 0 });
        let done = rt.charge_io_plan(NodeId(0), 0, &plan);
        assert_eq!(done, 16_000, "two 8ms seeks back to back");
    }

    #[test]
    fn a_timeout_reaches_the_client_one_hop_later() {
        let mut rt = runtime(1, |_| {});
        let mut sim: Sim<Ev> = Sim::new(1);
        submit(&mut rt, &mut sim, 4, OpTag::default());
        let Some(Ev::Arrive(op)) = sim.next() else {
            panic!("arrival")
        };
        let sent = sim.now();
        rt.time_out(&mut sim, op, 4, 0);
        assert_eq!(
            sim.next(),
            Some(Ev::Deliver(4, OpResult::Error(OpError::Timeout)))
        );
        assert_eq!(sim.now(), sent + 50);
        assert!(rt.get(op).is_some(), "the store's policy retires, not this");
    }
}
