//! The assembled cluster: region servers, the WAL pipeline, reads, scans,
//! flushes, failover.
//!
//! A write: `Arrive` at the region's server → join the server's WAL group →
//! the group's pipeline round trip (in-memory ack at every replica, disk
//! bandwidth consumed in the background) → `WalFlushDone` applies every
//! mutation in the group to its memstore and answers the clients. A read
//! never leaves the region's server (strong consistency, short-circuit
//! local HFile access). A scan walks regions, one leg per region server.
//! The front door, the in-flight table and the server hardware are the
//! [`node::Runtime`].

use node::{DriverEvent, InFlight, Runtime, SimStore};
use obs::Stage;
use simkit::{NodeId, OpKey, OpTag, Sim, SimRng, SimTime};
use storage::lsm::CompactionReceipt;
use storage::types::entry_encoded_len;
use storage::{
    Cell, Completion, IoOp, Key, LoadQueue, OpError, OpResult, Rows, Segment, StoreOp, TableId,
    Value,
};

use crate::config::HStoreConfig;
use crate::dfs::{DfsCluster, FileId};
use crate::event::Event;
use crate::group_commit::GroupCommit;
use crate::master::Master;
use crate::metrics::Metrics;
use crate::region::RegionMap;

#[derive(Debug, Clone)]
struct WalState {
    file: FileId,
    pipeline: Vec<NodeId>,
    commit: GroupCommit,
}

/// Per-op state machine. The submitted `StoreOp` lives in `Init` until the
/// arrival event dispatches it; write payloads then move (not clone) into
/// `Write` so the WAL flush can move them again into the memstore. `region`
/// is the index the op was routed to at submit (a scan moves on through
/// `Event::ScanExec`'s own index); only the region's `server` is read fresh
/// at each step: failover moves regions, never keys.
#[derive(Debug, Clone)]
enum PendingState {
    /// Submitted, not yet arrived at its region server.
    Init { region: usize, op: StoreOp },
    /// Queued in the server's WAL; `None` value = delete (tombstone).
    Write {
        region: usize,
        key: Key,
        value: Option<Value>,
    },
    /// A scan walking regions.
    Scan(ScanState),
    /// Dispatched with no retained payload (reads, applied writes).
    Done,
}

#[derive(Debug, Clone)]
struct ScanState {
    collected: Rows,
    limit: usize,
}

/// A region's rows queued by `load_direct` since the last `flush_all`, and
/// how far the replay of their HFile history has got.
#[derive(Debug, Clone, Default)]
struct RegionLoad {
    rows: LoadQueue,
    /// What the memstore would hold: the encoded bytes of the rows queued
    /// since the last replayed flush.
    memstore_bytes: u64,
    /// The newest replayed HFile: its table id and bytes.
    hfile: Option<(TableId, u64)>,
}

/// A simulated HBase-analog cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: HStoreConfig,
    regions: RegionMap,
    master: Master,
    wals: Vec<WalState>,
    fs: DfsCluster,
    rt: Runtime<PendingState, Event>,
    metrics: Metrics,
    /// Drives HDFS replica placement.
    rng: SimRng,
    /// The seed `rng` started from.
    seed: u64,
    /// Per-follower-region applied watermark: the latest primary commit
    /// time whose WAL bytes the follower has applied (async replication).
    follower_watermark: Vec<SimTime>,
    /// Accumulated `apply - commit` gap across all WAL ships, for the mean
    /// replication window.
    ship_window_sum: u64,
    /// Per-region bulk-load queues, one per region once a load begins.
    /// `flush_all` takes the whole `Vec`, so snapshots clone nothing.
    loading: Vec<RegionLoad>,
}

impl Cluster {
    /// Build a cluster. `seed` drives HDFS replica placement.
    pub fn new(config: HStoreConfig, seed: u64) -> Self {
        let nodes = config.node.topology.len();
        assert!(nodes > 0);
        assert!(config.replication_factor >= 1);
        let mut rng = SimRng::new(seed);
        let mut fs = DfsCluster::new(nodes, config.replication_factor);
        let wals = (0..nodes)
            .map(|i| {
                let file = fs.create_file();
                let w = fs.append_block(file, 0, NodeId(i as u32), &mut rng);
                WalState {
                    file,
                    pipeline: w.map_or_else(Vec::new, |w| w.pipeline),
                    commit: GroupCommit::default(),
                }
            })
            .collect();
        // The configured cache is per server; split it across the server's
        // regions since each region owns its own engine.
        let region_count = config.region_splits.len() + 1;
        let rps = region_count.div_ceil(nodes).max(1);
        let mut lsm = config.lsm;
        lsm.cache_bytes /= rps as u64;
        let regions = RegionMap::new(config.region_splits.clone(), nodes, lsm);
        let rt = Runtime::new(config.node.clone());
        let followers = config.follower_regions as usize;
        Self {
            config,
            regions,
            master: Master::new(),
            wals,
            fs,
            rt,
            metrics: Metrics::new(),
            rng,
            seed,
            follower_watermark: vec![0; followers],
            ship_window_sum: 0,
            loading: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HStoreConfig {
        &self.config
    }

    /// The region map.
    pub fn regions(&self) -> &RegionMap {
        &self.regions
    }

    /// Mean replication window, microseconds: the average gap between a WAL
    /// group's commit on the primary and its application at a follower
    /// region's sink. Zero when async cluster replication is off (or no
    /// group has shipped yet).
    pub fn mean_replication_window_us(&self) -> f64 {
        if self.metrics.wal_ships == 0 {
            0.0
        } else {
            self.ship_window_sum as f64 / self.metrics.wal_ships as f64
        }
    }

    // ----- HFiles -----

    /// Write region `idx`'s table `table` as one HFile of `bytes` through
    /// the `dfs` pipeline from the region's server; returns the pipeline.
    /// With no datanode up the HFile gets no replica, as if every replica
    /// had died, and the pipeline is empty.
    fn write_hfile(&mut self, idx: usize, table: TableId, bytes: u64) -> Vec<NodeId> {
        let file = self.fs.create_file();
        let server = self.regions.get(idx).server;
        let w = self.fs.append_block(file, bytes, server, &mut self.rng);
        self.regions.get_mut(idx).hfiles.insert(table, file);
        w.map_or_else(Vec::new, |w| w.pipeline)
    }

    /// Install region `idx`'s compaction `c`: write its output HFile, then
    /// delete its input HFiles. Returns the output's pipeline.
    fn install_compaction(&mut self, idx: usize, c: &CompactionReceipt) -> Vec<NodeId> {
        let pipeline = self.write_hfile(idx, c.output, c.write_bytes);
        for table in &c.inputs {
            if let Some(file) = self.regions.get_mut(idx).hfiles.remove(table) {
                self.fs.delete_file(file);
            }
        }
        pipeline
    }

    /// Flush one region's memstore into an HFile and major-compact it (no
    /// virtual time: load phases). Operators major-compact after bulk loads,
    /// so runs start from one file.
    fn flush_region_functional(&mut self, idx: usize) {
        if let Some(receipt) = self.regions.get_mut(idx).lsm.flush() {
            self.write_hfile(idx, receipt.table, receipt.bytes);
        }
        if let Some(c) = self.regions.get_mut(idx).lsm.compact_all() {
            self.install_compaction(idx, &c);
        }
        self.regions.get_mut(idx).lsm.sync_wal();
    }

    /// Replay, for region `idx`'s bulk load, the `dfs` side of one
    /// [`Cluster::flush_region_functional`] a row-by-row load would have
    /// run: the flush of `bytes` as an HFile then, when the load already
    /// left the HFile `prev`, the major compaction of the two. Table ids
    /// are reserved as the flush and the compaction would have taken them.
    /// Returns the HFile the region is left with.
    fn replay_load_flush(
        &mut self,
        idx: usize,
        prev: Option<(TableId, u64)>,
        bytes: u64,
    ) -> (TableId, u64) {
        let flushed = self.regions.get_mut(idx).lsm.reserve_table_id();
        self.write_hfile(idx, flushed, bytes);
        let Some((prev, prev_bytes)) = prev else {
            return (flushed, bytes);
        };
        let merged = prev_bytes + bytes;
        let c = CompactionReceipt {
            inputs: vec![prev, flushed],
            output: self.regions.get_mut(idx).lsm.reserve_table_id(),
            read_bytes: merged,
            write_bytes: merged,
        };
        self.install_compaction(idx, &c);
        (c.output, merged)
    }

    // ----- plumbing -----

    /// The serving server is down: fail fast with [`OpError::ServerDown`].
    fn server_down<W>(&mut self, sim: &mut Sim<W>, op: OpKey, token: u64) {
        self.metrics.server_down += 1;
        self.rt.retire(sim, op);
        self.rt
            .complete(token, OpResult::Error(OpError::ServerDown));
    }

    /// Push `bytes` through a replication pipeline starting at `start`:
    /// every hop pays CPU and background log-disk bandwidth; the return value
    /// is when the final in-memory acknowledgement reaches the head. When
    /// `hops_out` is given, each inter-node hop's `(node, start, end)`
    /// interval is appended to it (trace assembly only — no behaviour
    /// depends on it).
    fn pipeline_round_trip(
        &mut self,
        pipeline: &[NodeId],
        bytes: u64,
        start: SimTime,
        mut hops_out: Option<&mut Vec<(u32, SimTime, SimTime)>>,
    ) -> SimTime {
        let hop_us = self.config.costs.wal_hop_us;
        let prop = self.config.node.profile.nic.prop_us;
        let mut t = start;
        let mut prev: Option<NodeId> = None;
        let mut hops = 0u64;
        for &n in pipeline {
            if !self.rt.is_up(n) {
                continue; // HDFS drops dead pipeline members
            }
            let hop_start = t;
            if let Some(p) = prev {
                let tx = self.rt.hw_mut(p).nic.tx(t, bytes);
                t = self.rt.hw_mut(n).nic.rx(tx + prop, bytes);
                hops += 1;
            }
            let hw = self.rt.hw_mut(n);
            t = hw.cpu.acquire(t, hop_us);
            // Log bytes reach this replica's disk asynchronously.
            hw.disk.seq_write(t, bytes);
            if prev.is_some() {
                if let Some(out) = hops_out.as_deref_mut() {
                    out.push((n.0, hop_start, t));
                }
            }
            prev = Some(n);
        }
        // Acks ripple back through the chain.
        t + hops * prop
    }

    fn on_arrive<W: From<Event>>(&mut self, sim: &mut Sim<W>, op: OpKey) {
        let Some(p) = self.rt.get_mut(op) else {
            return;
        };
        let token = p.token;
        // Move the submitted op out of its pending slot; write payloads are
        // parked back in `PendingState::Write` below without cloning.
        let (idx, kind) = match std::mem::replace(&mut p.state, PendingState::Done) {
            PendingState::Init { region, op } => (region, op),
            other => {
                p.state = other;
                return;
            }
        };
        let server = self.regions.get(idx).server;
        if !self.rt.is_up(server) {
            self.server_down(sim, op, token);
            return;
        }
        let service = self.rt.service(sim, self.config.costs.server_us);
        let now = sim.now();
        let t1 = self.rt.hw_mut(server).cpu.acquire(now, service);
        self.rt
            .tracer
            .record(token, Stage::ServerCpu, server.0, now, t1);
        let (key, value) = match kind {
            StoreOp::Read { key } => {
                self.metrics.reads += 1;
                self.read_region(idx, &key, t1, sim, op, token);
                return;
            }
            StoreOp::Scan { start, limit } => {
                self.metrics.scans += 1;
                if let Some(p) = self.rt.get_mut(op) {
                    p.state = PendingState::Scan(ScanState {
                        collected: Rows::default(),
                        limit,
                    });
                }
                sim.schedule_at(
                    t1,
                    W::from(Event::ScanExec {
                        op,
                        region: idx,
                        start,
                    }),
                );
                return;
            }
            StoreOp::Insert { key, value } | StoreOp::Update { key, value } => (key, Some(value)),
            StoreOp::Delete { key } => (key, None),
        };
        self.metrics.writes += 1;
        let cell = Cell { value, ts: 0 };
        let bytes = entry_encoded_len(&key, &cell) + 8;
        if let Some(p) = self.rt.get_mut(op) {
            p.state = PendingState::Write {
                region: idx,
                key,
                value: cell.value,
            };
        }
        let commit = &mut self.wals[server.index()].commit;
        if commit.enqueue((op, token, t1), bytes) {
            self.start_wal_group(sim, server, t1);
        }
    }

    /// Full read path: region engine + local (or post-failover remote) disk.
    fn read_region<W: From<Event>>(
        &mut self,
        idx: usize,
        key: &[u8],
        t0: SimTime,
        sim: &mut Sim<W>,
        op: OpKey,
        token: u64,
    ) {
        let server = self.regions.get(idx).server;
        let service = self.rt.service(sim, self.config.costs.read_us);
        let t1 = self.rt.hw_mut(server).cpu.acquire(t0, service);
        self.rt
            .tracer
            .record(token, Stage::ServerCpu, server.0, t0, t1);
        let remote = self.region_remote_source(idx);
        let res = self.regions.get_mut(idx).lsm.get(key);
        let t = match remote {
            // Short-circuit read from the local replica.
            None => self.rt.charge_io_plan(server, t1, &res.io),
            // Post-failover: fetch each block from a remote datanode's
            // disk, then move it over the network.
            Some(src) => {
                let mut t = t1;
                for io in res.io.iter() {
                    let disk = &mut self.rt.hw_mut(src).disk;
                    let (read, bytes) = match *io {
                        IoOp::DiskRead { bytes } => (disk.random_read(t, bytes), bytes),
                        IoOp::DiskSeqRead { bytes } => (disk.seq_read(t, bytes), bytes),
                        _ => continue,
                    };
                    t = self.rt.net_to(src, server, bytes, read);
                }
                t
            }
        };
        self.rt.tracer.record(token, Stage::DiskIo, server.0, t1, t);
        let client_cell = res.cell.filter(|c| !c.is_tombstone());
        self.rt
            .respond(sim, op, token, server, t, OpResult::Value(client_cell));
    }

    /// Where a region's HFile blocks must be fetched from when the serving
    /// server lacks a local replica (only after failover). `None` = local.
    fn region_remote_source(&self, idx: usize) -> Option<NodeId> {
        let region = self.regions.get(idx);
        let server = region.server;
        for file in region.hfiles.values() {
            for block in self.fs.namenode().file(*file)? {
                if self.fs.pick_read_replica(*block, server) != Some(server) {
                    return self.fs.pick_read_replica(*block, server);
                }
            }
        }
        None
    }

    fn start_wal_group<W: From<Event>>(&mut self, sim: &mut Sim<W>, server: NodeId, t: SimTime) {
        let wal = &mut self.wals[server.index()];
        let overhead = self.config.node.msg_overhead_bytes;
        let (writers, bytes, roll) = wal.commit.start(overhead, self.config.wal_block_bytes);
        // Borrow the pipeline by moving it out; restored below before any
        // WAL roll can replace it.
        let pipeline = std::mem::take(&mut wal.pipeline);
        self.metrics.wal_groups += 1;
        self.metrics.wal_entries += writers.len() as u64;
        // Per-hop spans are collected only when some group member is traced;
        // the collection is bookkeeping, never behaviour.
        let tracer = &self.rt.tracer;
        let want_hops =
            tracer.enabled() && writers.iter().any(|&(_, token, _)| tracer.watching(token));
        let mut hops: Vec<(u32, SimTime, SimTime)> = Vec::new();
        let done = self.pipeline_round_trip(&pipeline, bytes, t, want_hops.then_some(&mut hops));
        let tracer = &mut self.rt.tracer;
        for &(_, token, enq) in &writers {
            tracer.record(token, Stage::WalQueue, server.0, enq, t);
            tracer.record(token, Stage::WalCommit, server.0, t, done);
            for &(node, hs, he) in &hops {
                tracer.record(token, Stage::PipelineHop, node, hs, he);
            }
        }
        let wal = &mut self.wals[server.index()];
        wal.pipeline = pipeline;
        // Roll the WAL block when it fills (a fresh HDFS block and possibly
        // a fresh pipeline).
        if let Some(len) = roll {
            let w = self.fs.append_block(wal.file, len, server, &mut self.rng);
            wal.pipeline = w.map_or_else(Vec::new, |w| w.pipeline);
            self.metrics.wal_blocks_rolled += 1;
        }
        let ops = wal.commit.sent(writers);
        sim.schedule_at(done, W::from(Event::WalFlushDone { server, group: ops }));
        // Async cluster replication: the replication source tails the WAL
        // after commit (ship lag) and ships the group's bytes across the
        // WAN to every follower region. The primary's NIC transmit is
        // charged, so shipping competes with foreground traffic; the
        // follower side is a sink (no backpressure to the write path).
        let mut t = done + self.config.ship_lag_us;
        for follower in 0..self.config.follower_regions {
            t = self.rt.hw_mut(server).nic.tx(t, bytes);
            let arrive = t + self.config.ship_wan_us;
            self.rt.tracer.record_bg(Stage::WanHop, server.0, t, arrive);
            sim.schedule_at(
                arrive,
                W::from(Event::WalShip {
                    follower,
                    commit_ts: done,
                }),
            );
        }
    }

    fn on_wal_ship(&mut self, now: SimTime, follower: u32, commit_ts: SimTime) {
        self.metrics.wal_ships += 1;
        let w = &mut self.follower_watermark[follower as usize];
        *w = (*w).max(commit_ts);
        self.ship_window_sum += now.saturating_sub(commit_ts);
    }

    fn on_wal_flush_done<W: From<Event>>(
        &mut self,
        sim: &mut Sim<W>,
        server: NodeId,
        group: Vec<OpKey>,
    ) {
        let now = sim.now();
        let apply_us = self.config.costs.apply_us;
        for &op in &group {
            let Some(p) = self.rt.get_mut(op) else {
                continue; // timed out; the slot is gone
            };
            let token = p.token;
            // Move the parked write payload out; no clones on the apply path.
            let (idx, key, cell) = match std::mem::replace(&mut p.state, PendingState::Done) {
                PendingState::Write { region, key, value } => {
                    (region, key, Cell { value, ts: now })
                }
                other => {
                    p.state = other;
                    continue;
                }
            };
            let t_apply = self.rt.hw_mut(server).cpu.acquire(now, apply_us);
            self.rt
                .tracer
                .record(token, Stage::Apply, server.0, now, t_apply);
            self.regions.get_mut(idx).lsm.put(key, cell);
            self.maintain_region(sim, idx, t_apply);
            let written = OpResult::Written { ts: now };
            self.rt.respond(sim, op, token, server, t_apply, written);
        }
        // More writers queued while this group was in flight?
        if self.wals[server.index()].commit.finish(group) && self.rt.is_up(server) {
            self.start_wal_group(sim, server, now);
        }
    }

    /// Flush/compact a region when its memstore fills, charging the `dfs`
    /// pipeline: every replica's disk receives the HFile bytes (via the
    /// background-I/O throttle).
    fn maintain_region<W: From<Event>>(&mut self, sim: &mut Sim<W>, idx: usize, now: SimTime) {
        let threshold = self.regions.get(idx).lsm.config().memtable_flush_bytes;
        if self.regions.get(idx).lsm.memtable_bytes() < threshold {
            return;
        }
        let server = self.regions.get(idx).server;
        let Some(receipt) = self.regions.get_mut(idx).lsm.flush() else {
            return;
        };
        self.metrics.flushes += 1;
        let pipeline = self.write_hfile(idx, receipt.table, receipt.bytes);
        self.charge_replication(&pipeline, receipt.bytes, now);
        if receipt.compaction_due {
            if let Some(c) = self.regions.get_mut(idx).lsm.maybe_compact() {
                self.metrics.compactions += 1;
                // Read inputs locally, write the output through the pipeline.
                self.rt.add_backlog(server, c.read_bytes);
                let pipeline = self.install_compaction(idx, &c);
                self.charge_replication(&pipeline, c.write_bytes, now);
            }
        }
        for i in 0..self.rt.nodes() {
            self.rt.kick_bg_io(sim, NodeId(i as u32));
        }
    }

    /// Background replication traffic: bytes land in every pipeline node's
    /// background-I/O backlog (throttled onto its disk), moving over the
    /// network between consecutive members.
    fn charge_replication(&mut self, pipeline: &[NodeId], bytes: u64, now: SimTime) {
        let prop = self.config.node.profile.nic.prop_us;
        let mut t = now;
        let mut prev: Option<NodeId> = None;
        for &n in pipeline {
            if !self.rt.is_up(n) {
                continue;
            }
            if let Some(p) = prev {
                let tx = self.rt.hw_mut(p).nic.tx(t, bytes);
                t = self.rt.hw_mut(n).nic.rx(tx + prop, bytes);
            }
            self.rt.add_backlog(n, bytes);
            prev = Some(n);
        }
    }

    fn on_scan_exec<W: From<Event>>(
        &mut self,
        sim: &mut Sim<W>,
        op: OpKey,
        idx: usize,
        start: Key,
    ) {
        let Some(InFlight {
            token,
            state: PendingState::Scan(s),
            ..
        }) = self.rt.get(op)
        else {
            return;
        };
        let token = *token;
        let remaining = s.limit - s.collected.len();
        let server = self.regions.get(idx).server;
        if !self.rt.is_up(server) {
            self.server_down(sim, op, token);
            return;
        }
        let costs = self.config.costs;
        let now = sim.now();
        let t1 = self.rt.hw_mut(server).cpu.acquire(now, costs.read_us);
        self.rt
            .tracer
            .record(token, Stage::ServerCpu, server.0, now, t1);
        let res = self.regions.get_mut(idx).lsm.scan(&start, remaining);
        let t_io = self.rt.charge_io_plan(server, t1, &res.io);
        let rows = res.rows;
        self.rt
            .tracer
            .record(token, Stage::DiskIo, server.0, t1, t_io);
        let t = self
            .rt
            .hw_mut(server)
            .cpu
            .acquire(t_io, costs.scan_row_us * rows.len() as u64);
        self.rt
            .tracer
            .record(token, Stage::ScanRows, server.0, t_io, t);
        // This region ran out before the row budget: the scan goes on into
        // the next one, if there is one.
        let more = rows.len() < remaining && idx + 1 < self.regions.len();
        let Some(InFlight {
            state: PendingState::Scan(s),
            ..
        }) = self.rt.get_mut(op)
        else {
            return;
        };
        s.collected.append(rows);
        if !more {
            let rows = std::mem::take(&mut s.collected);
            self.rt
                .respond(sim, op, token, server, t, OpResult::Rows(rows));
            return;
        }
        let next = self.regions.get(idx + 1).start.clone();
        // The client receives this leg's rows, then asks the next region's
        // server (client-mediated scanning, as in HBase).
        let leg_bytes = self.config.node.msg_overhead_bytes;
        let back = self.rt.client_delivery(server, leg_bytes, t);
        let next_server = self.regions.get(idx + 1).server;
        let arr = back + self.config.node.profile.nic.prop_us;
        let rx = self.rt.hw_mut(next_server).nic.rx(arr, leg_bytes);
        self.rt
            .tracer
            .record(token, Stage::RespSend, server.0, t, back);
        self.rt
            .tracer
            .record(token, Stage::ClientSend, next_server.0, back, rx);
        sim.schedule_at(
            rx,
            W::from(Event::ScanExec {
                op,
                region: idx + 1,
                start: next,
            }),
        );
    }

    fn on_timeout<W: From<Event>>(&mut self, sim: &mut Sim<W>, op: OpKey) {
        let Some(p) = self.rt.get(op) else {
            return;
        };
        if p.responded {
            return; // Deliver is already scheduled; let it land.
        }
        let token = p.token;
        self.rt.retire(sim, op);
        // Distinct from `ServerDown`: the server accepted the request and
        // then went silent (crashed mid-flight), rather than being
        // known-dead at routing time.
        self.rt.time_out(sim, op, token, obs::CLIENT_NODE);
    }

    // ----- failure handling -----

    /// Crash a region server: its regions fail over to the survivors
    /// immediately (no detection delay), each paying WAL-replay time and
    /// restarting with a cold cache; its HDFS blocks re-replicate in the
    /// background. Equivalent to [`Cluster::crash_server`] followed by the
    /// master's failover.
    pub(crate) fn fail_server(&mut self, node: NodeId) {
        self.crash_server(node);
        self.fail_over_from(node);
    }

    /// Crash a region server *without* failover: requests to its regions
    /// fail until the master notices (an `Event::FailOver`) or the server
    /// recovers. Used by deferred crash injection.
    pub(crate) fn crash_server(&mut self, node: NodeId) {
        self.rt.hw_mut(node).fail();
    }

    /// The master detects the crash: a no-op when the server is back up.
    fn on_fail_over(&mut self, server: NodeId) {
        if self.rt.is_up(server) {
            return;
        }
        self.fail_over_from(server);
    }

    /// Move the dead server's regions to the survivors and start HDFS
    /// re-replication.
    fn fail_over_from(&mut self, node: NodeId) {
        self.fs.fail_node(node);
        let live: Vec<NodeId> = (0..self.rt.nodes() as u32)
            .map(NodeId)
            .filter(|n| self.rt.is_up(*n))
            .collect();
        if live.is_empty() {
            return;
        }
        let moves = self.master.fail_over(&mut self.regions, node, &live);
        self.metrics.regions_moved += moves.len() as u64;
        for m in &moves {
            let region = self.regions.get_mut(m.region);
            // The new server replays the region's WAL tail and starts cold.
            let replay_bytes = region.lsm.memtable_bytes();
            region.lsm.drop_cache();
            self.rt.hw_mut(m.to).disk.seq_read(0, replay_bytes);
        }
        // HDFS restores the replication factor in the background.
        let tasks = self.fs.rereplicate(&mut self.rng);
        for t in tasks {
            self.rt.hw_mut(t.src).disk.seq_read(0, t.len);
            self.rt.hw_mut(t.dst).disk.seq_write(0, t.len);
        }
    }
}

impl SimStore for Cluster {
    type Event = Event;

    fn name(&self) -> &'static str {
        "hstore"
    }

    /// The op is routed to its region's server; a server known to be down
    /// fails it fast as [`OpError::ServerDown`].
    fn submit_tagged(
        &mut self,
        sim: &mut Sim<DriverEvent<Event>>,
        token: u64,
        op: StoreOp,
        tag: OpTag,
    ) {
        let bytes = self.config.node.msg_overhead_bytes + op.key().len() as u64;
        self.rt.submit(sim, token, tag, bytes, |rt| {
            let region = self.regions.region_of(op.key());
            let server = self.regions.get(region).server;
            if !rt.is_up(server) {
                self.metrics.server_down += 1;
                return Err(OpError::ServerDown);
            }
            Ok((server, PendingState::Init { region, op }))
        });
    }

    fn handle(&mut self, sim: &mut Sim<DriverEvent<Event>>, ev: Event) {
        match ev {
            Event::Arrive { op } => self.on_arrive(sim, op),
            Event::WalFlushDone { server, group } => self.on_wal_flush_done(sim, server, group),
            Event::ScanExec { op, region, start } => self.on_scan_exec(sim, op, region, start),
            Event::Deliver { token, op, result } => {
                self.rt.retire(sim, op);
                self.rt.complete(token, result);
            }
            Event::Timeout { op } => self.on_timeout(sim, op),
            Event::BgIo { server } => self.rt.on_bg_io(sim, server),
            Event::GcPause { server } => self.rt.on_gc_pause(sim, server),
            Event::FailOver { server } => self.on_fail_over(server),
            Event::WalShip {
                follower,
                commit_ts,
            } => self.on_wal_ship(sim.now(), follower, commit_ts),
        }
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        self.rt.drain_completions()
    }

    fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        self.rt.drain_completions_into(out);
    }

    /// Queues the row under its region and, whenever the region's queued
    /// bytes reach the memstore flush threshold, replays the `dfs` side of
    /// the flush and major compaction a row-by-row load would have run
    /// there: HFile placements draw on the cluster RNG, which every later
    /// placement reads. The replay is exact when the region held nothing
    /// as the load began and the load's keys are distinct, as in
    /// `driver::load`; otherwise every key still reads its newest version,
    /// but the HFile history may differ.
    fn load_direct(&mut self, key: Key, value: Value, ts: u64) {
        let idx = self.regions.region_of(&key);
        if self.loading.is_empty() {
            self.loading
                .resize_with(self.regions.len(), RegionLoad::default);
        }
        let threshold = self.regions.get(idx).lsm.config().memtable_flush_bytes;
        let load = &mut self.loading[idx];
        load.memstore_bytes += load.rows.push(&key, Cell::live(value, ts));
        if load.memstore_bytes >= threshold {
            let (prev, bytes) = (load.hfile, std::mem::take(&mut load.memstore_bytes));
            let hfile = self.replay_load_flush(idx, prev, bytes);
            self.loading[idx].hfile = Some(hfile);
        }
    }

    /// Per region: replays the last flush and compaction of the load, sorts
    /// the loaded rows once into one run under the id of the HFile the
    /// replay ended with, reading and hashing each key once, then flushes
    /// and compacts whatever else the region holds (run-time writes, an
    /// earlier load's run).
    fn flush_all(&mut self) {
        let mut loads = std::mem::take(&mut self.loading).into_iter();
        for idx in 0..self.regions.len() {
            let load = loads.next().unwrap_or_default();
            let mut hfile = load.hfile;
            if load.memstore_bytes > 0 {
                hfile = Some(self.replay_load_flush(idx, hfile, load.memstore_bytes));
            }
            if let Some((id, _)) = hfile {
                let lsm = &mut self.regions.get_mut(idx).lsm;
                let mut run = lsm.load_builder(load.rows.len(), load.rows.bytes());
                Segment::from_queue(load.rows, &mut [&mut run]);
                lsm.load(id, run);
            }
            self.flush_region_functional(idx);
        }
    }

    fn warm_caches(&mut self) {
        for region in self.regions.iter_mut() {
            region.lsm.warm_cache();
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
        self.regions.len() == other.regions.len()
            && self
                .regions
                .iter()
                .zip(other.regions.iter())
                .all(|(a, b)| a.lsm.shares_tables_with(&b.lsm))
    }
}

impl Cluster {
    /// True when a bulk load leaves `self` and `other` holding the same
    /// data. The load reads nearly all of the build (region splits, storage
    /// tuning, the dfs replication factor and the placement RNG that every
    /// HFile placement draws on), so only identical configurations built
    /// with the same placement seed load alike.
    pub fn loads_like(&self, other: &Self) -> bool {
        self.config == other.config && self.seed == other.seed
    }

    /// This unloaded cluster holding a copy-on-write snapshot of the data
    /// `loaded` was bulk-loaded with. The two builds are identical, so that
    /// is a snapshot of `loaded` itself.
    ///
    /// # Panics
    /// If `loaded` does not [load like](Cluster::loads_like) `self`.
    pub fn with_data_of(self, loaded: &Self) -> Self {
        assert!(self.loads_like(loaded), "the clusters load different data");
        loaded.snapshot()
    }
}

/// The uniform fault surface. A crash honours `failover_delay_us`: with a
/// nonzero delay the server drops dead now and the master's failover runs
/// as a scheduled `Event::FailOver` — requests to its regions fail until
/// then, which is the availability gap fig4 measures. A recovered server
/// rejoins empty: regions stay where they are, as HBase does not
/// auto-rebalance immediately.
impl faults::FaultTarget for Cluster {
    type Event = Event;

    fn fault_nodes(&self) -> usize {
        self.rt.nodes()
    }

    fn region_nodes(&self, region: u32) -> Vec<NodeId> {
        self.rt.region_nodes(region)
    }

    fn apply_crash<W: From<Event>>(&mut self, sim: &mut Sim<W>, node: NodeId) {
        if self.config.failover_delay_us == 0 {
            self.fail_server(node);
        } else {
            self.crash_server(node);
            sim.schedule_in(
                self.config.failover_delay_us,
                W::from(Event::FailOver { server: node }),
            );
        }
    }

    fn apply_recover<W: From<Event>>(&mut self, _sim: &mut Sim<W>, node: NodeId) {
        self.rt.hw_mut(node).recover();
        self.fs.recover_node(node);
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
    use crate::dfs::BlockId;
    use bytes::Bytes;
    use proptest::prelude::*;

    type Ev = DriverEvent<Event>;

    fn k(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn key(i: u64) -> Bytes {
        Bytes::from(format!("user{i:012}").into_bytes())
    }

    fn config(rf: u32, nodes: usize, records: u64) -> HStoreConfig {
        let splits: Vec<Bytes> = (1..nodes as u64)
            .map(|i| key(i * records / nodes as u64))
            .collect();
        let mut c = HStoreConfig::paper_testbed(rf, splits);
        c.node.topology = simkit::Topology::single_rack(nodes, c.node.profile.nic.prop_us);
        c
    }

    struct Harness {
        cluster: Cluster,
        sim: Sim<Ev>,
        next_token: u64,
    }

    impl Harness {
        fn new(cfg: HStoreConfig) -> Self {
            Self {
                cluster: Cluster::new(cfg, 7),
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

        fn run(&mut self) -> Vec<Completion> {
            let mut out = Vec::new();
            out.extend(self.cluster.drain_completions());
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
    fn builds_with_different_placement_seeds_never_load_alike() {
        let loaded = Cluster::new(config(3, 5, 100), 1);
        assert!(Cluster::new(config(3, 5, 100), 1).loads_like(&loaded));
        for seed in [0, 2, 1 << 40, u64::MAX] {
            assert!(!Cluster::new(config(3, 5, 100), seed).loads_like(&loaded));
        }
        let mut other = config(3, 5, 100);
        other.node.rpc_timeout_us /= 2;
        assert!(!Cluster::new(other, 1).loads_like(&loaded));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut h = Harness::new(config(3, 5, 1000));
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
    fn reads_are_strongly_consistent_immediately() {
        // No consistency knob exists: a write acked is a write visible.
        let mut h = Harness::new(config(6, 5, 1000));
        for i in 0..50u64 {
            h.run_one(StoreOp::Update {
                key: key(i % 3),
                value: Bytes::from(format!("v{i}").into_bytes()),
            });
            let r = h.run_one(StoreOp::Read { key: key(i % 3) });
            match r.result {
                OpResult::Value(Some(cell)) => {
                    assert_eq!(cell.value.as_deref(), Some(format!("v{i}").as_bytes()));
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn delete_hides_value() {
        let mut h = Harness::new(config(2, 4, 1000));
        h.run_one(StoreOp::Insert {
            key: key(1),
            value: k("v"),
        });
        h.run_one(StoreOp::Delete { key: key(1) });
        let r = h.run_one(StoreOp::Read { key: key(1) });
        assert_eq!(r.result, OpResult::Value(None));
    }

    #[test]
    fn scan_crosses_region_boundaries_in_order() {
        let mut h = Harness::new(config(2, 4, 100));
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
                assert_eq!(rows.len(), 40);
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
    fn scan_stops_at_data_end() {
        let mut h = Harness::new(config(2, 4, 100));
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
    fn group_commit_batches_concurrent_writers() {
        let mut h = Harness::new(config(3, 2, 100));
        // Many writes to the same region submitted at once.
        let mut tokens = Vec::new();
        for i in 0..20u64 {
            tokens.push(h.submit(StoreOp::Insert {
                key: key(i), // region 0 holds 0..50
                value: k("v"),
            }));
        }
        let out = h.run();
        assert_eq!(out.len(), 20);
        assert!(out
            .iter()
            .all(|c| matches!(c.result, OpResult::Written { .. })));
        let m = h.cluster.metrics;
        assert!(
            m.wal_groups < 20,
            "expected batching, got {} groups",
            m.wal_groups
        );
        assert!(
            m.wal_entries > m.wal_groups,
            "more than one write per group"
        );
    }

    #[test]
    fn wal_pipeline_replicates_log_bytes_to_rf_disks() {
        let mut h = Harness::new(config(3, 5, 1000));
        h.run_one(StoreOp::Insert {
            key: key(0),
            value: Bytes::from(vec![9u8; 500]),
        });
        let pipeline = h.cluster.wals[h.cluster.regions.get(0).server.index()]
            .pipeline
            .clone();
        assert_eq!(pipeline.len(), 3);
        for n in pipeline {
            assert!(
                h.cluster.rt.hw(n).disk.written_bytes() >= 500,
                "pipeline member {n} received no log bytes"
            );
        }
    }

    #[test]
    fn write_latency_grows_only_mildly_with_rf() {
        // The paper's key HBase observation: in-memory pipeline replication
        // keeps the write latency nearly flat as RF grows.
        let mut lats = Vec::new();
        for rf in [1u32, 6] {
            let mut h = Harness::new(config(rf, 8, 1000));
            let issue = h.sim.now();
            let t = h.submit(StoreOp::Insert {
                key: key(0),
                value: Bytes::from(vec![1u8; 1000]),
            });
            let mut done = 0;
            while let Some(Ev::Store(ev)) = h.sim.next() {
                h.cluster.handle(&mut h.sim, ev);
                if h.cluster.drain_completions().iter().any(|c| c.token == t) {
                    done = h.sim.now();
                }
            }
            lats.push(done - issue);
        }
        let (rf1, rf6) = (lats[0] as f64, lats[1] as f64);
        assert!(rf6 > rf1, "more hops must cost something");
        assert!(
            rf6 < rf1 * 3.0,
            "write latency should grow mildly, not proportionally: {lats:?}"
        );
    }

    #[test]
    fn flush_writes_hfiles_through_dfs() {
        let mut cfg = config(3, 4, 200);
        cfg.lsm.memtable_flush_bytes = 2_048;
        let mut h = Harness::new(cfg);
        for i in 0..200u64 {
            h.run_one(StoreOp::Insert {
                key: key(i),
                value: Bytes::from(vec![3u8; 100]),
            });
        }
        assert!(h.cluster.metrics.flushes > 0);
        // Each flushed HFile exists in dfs with RF replicas.
        let total_hfiles: usize = h.cluster.regions().iter().map(|r| r.hfiles.len()).sum();
        assert!(total_hfiles > 0);
        for region in h.cluster.regions().iter() {
            for file in region.hfiles.values() {
                for b in h.cluster.fs.namenode().file(*file).expect("file exists") {
                    assert_eq!(h.cluster.fs.locations(*b).len(), 3);
                }
            }
        }
    }

    #[test]
    fn reads_stay_local_and_rf_blind() {
        // Read latency must be (statistically) identical across RF because
        // the read path never touches a replica.
        let mut lat_by_rf = Vec::new();
        for rf in [1u32, 6] {
            let mut cfg = config(rf, 5, 500);
            cfg.lsm.memtable_flush_bytes = 8 * 1024;
            let mut h = Harness::new(cfg);
            for i in 0..500u64 {
                h.cluster.load_direct(key(i), k("v"), 1);
            }
            h.cluster.flush_all();
            let issue = h.sim.now();
            let t = h.submit(StoreOp::Read { key: key(250) });
            let mut done = 0;
            while let Some(Ev::Store(ev)) = h.sim.next() {
                h.cluster.handle(&mut h.sim, ev);
                if h.cluster.drain_completions().iter().any(|c| c.token == t) {
                    done = h.sim.now();
                }
            }
            lat_by_rf.push(done - issue);
        }
        assert_eq!(
            lat_by_rf[0], lat_by_rf[1],
            "read path must be identical across RF"
        );
    }

    #[test]
    fn server_down_errors_without_failover() {
        let mut h = Harness::new(config(2, 4, 100));
        h.run_one(StoreOp::Insert {
            key: key(10),
            value: k("v"),
        });
        let server = h.cluster.regions().get(0).server;
        h.cluster.crash_server(server);
        let r = h.run_one(StoreOp::Read { key: key(10) });
        assert_eq!(r.result, OpResult::Error(OpError::ServerDown));
        assert!(h.cluster.metrics.server_down >= 1);
    }

    #[test]
    fn timeouts_fire_when_the_server_dies_mid_flight() {
        // Two writes to the same server submitted back to back: the first
        // opens a WAL group, the second queues behind it. Crashing the
        // server after both arrivals strands the queued writer — no new
        // group ever starts — so it must surface as a retryable `Timeout`
        // (server accepted, then went silent), not a `ServerDown` verdict.
        let mut cfg = config(1, 2, 100);
        cfg.node.rpc_timeout_us = 50_000;
        let mut h = Harness::new(cfg);
        let server = h.cluster.regions().get(0).server;
        let t1 = h.submit(StoreOp::Insert {
            key: key(1),
            value: k("a"),
        });
        let t2 = h.submit(StoreOp::Insert {
            key: key(2),
            value: k("b"),
        });
        let mut out = Vec::new();
        let mut arrivals = 0;
        while let Some(Ev::Store(ev)) = h.sim.next() {
            let was_arrive = matches!(ev, Event::Arrive { .. });
            h.cluster.handle(&mut h.sim, ev);
            out.extend(h.cluster.drain_completions());
            if was_arrive {
                arrivals += 1;
                if arrivals == 2 {
                    h.cluster.crash_server(server);
                }
            }
        }
        let first = out.iter().find(|c| c.token == t1).expect("first write");
        assert!(
            matches!(first.result, OpResult::Written { .. }),
            "in-flight group still commits: {first:?}"
        );
        let second = out.iter().find(|c| c.token == t2).expect("second write");
        assert_eq!(second.result, OpResult::Error(OpError::Timeout));
    }

    #[test]
    fn failover_moves_regions_and_keeps_data_readable() {
        let mut cfg = config(3, 4, 400);
        cfg.lsm.memtable_flush_bytes = 4 * 1024;
        let mut h = Harness::new(cfg);
        for i in 0..400u64 {
            h.cluster.load_direct(key(i), k("v"), 1);
        }
        h.cluster.flush_all();
        let victim = h.cluster.regions().get(0).server;
        h.cluster.fail_server(victim);
        assert!(h.cluster.metrics.regions_moved > 0);
        assert!(h.cluster.regions().on_server(victim).is_empty());
        // A key from the moved region is still readable (remote blocks).
        let r = h.run_one(StoreOp::Read { key: key(5) });
        assert!(matches!(r.result, OpResult::Value(Some(_))), "{r:?}");
    }

    #[test]
    fn failover_restores_dfs_replication() {
        let mut cfg = config(3, 6, 300);
        cfg.lsm.memtable_flush_bytes = 4 * 1024;
        let mut h = Harness::new(cfg);
        for i in 0..300u64 {
            h.cluster.load_direct(key(i), k("v"), 1);
        }
        h.cluster.flush_all();
        let victim = h.cluster.regions().get(0).server;
        h.cluster.fail_server(victim);
        assert!(
            h.cluster.fs.namenode().under_replicated().is_empty(),
            "re-replication should have healed all blocks"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut h = Harness::new(config(3, 5, 1000));
            for i in 0..20u64 {
                h.submit(StoreOp::Insert {
                    key: key(i),
                    value: k("v"),
                });
            }
            let out = h.run();
            (out.len(), h.sim.now(), h.cluster.metrics.wal_groups)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wal_ships_reach_every_follower_with_the_configured_lag() {
        let mut cfg = config(3, 5, 1000);
        cfg.follower_regions = 2;
        cfg.ship_wan_us = 25_000;
        cfg.ship_lag_us = 10_000;
        let mut h = Harness::new(cfg);
        for i in 0..20u64 {
            h.submit(StoreOp::Insert {
                key: key(i),
                value: k("v"),
            });
        }
        h.run();
        let m = h.cluster.metrics;
        assert_eq!(
            m.wal_ships,
            m.wal_groups * 2,
            "every committed group ships to both followers"
        );
        // The window is at least lag + WAN one-way; NIC transmit adds more.
        let window = h.cluster.mean_replication_window_us();
        assert!(window >= 35_000.0, "window {window} below lag+WAN floor");
        // Watermarks advanced to the last commit the followers have applied.
        for f in 0..2 {
            assert!(h.cluster.follower_watermark[f as usize] > 0);
            assert!(h.cluster.follower_watermark[f as usize] < h.sim.now());
        }
    }

    #[test]
    fn replication_window_tracks_ship_lag() {
        let run = |lag: u64| {
            let mut cfg = config(3, 5, 1000);
            cfg.follower_regions = 1;
            cfg.ship_lag_us = lag;
            let mut h = Harness::new(cfg);
            for i in 0..20u64 {
                h.submit(StoreOp::Insert {
                    key: key(i),
                    value: k("v"),
                });
            }
            h.run();
            h.cluster.mean_replication_window_us()
        };
        let short = run(10_000);
        let long = run(200_000);
        assert!(
            (long - short - 190_000.0).abs() < 1.0,
            "window grows exactly with the ship lag: {short} vs {long}"
        );
    }

    #[test]
    fn disabled_async_replication_is_bit_identical() {
        let run = |followers: u32| {
            let mut cfg = config(3, 5, 1000);
            cfg.follower_regions = followers;
            let mut h = Harness::new(cfg);
            for i in 0..30u64 {
                h.submit(StoreOp::Insert {
                    key: key(i),
                    value: k("v"),
                });
                h.submit(StoreOp::Read { key: key(i) });
            }
            let out = h.run();
            (out.len(), h.sim.now(), h.sim.dispatched())
        };
        // follower_regions = 0 must not change a single event relative to
        // the pre-geo code path (the seed determinism contract).
        assert_eq!(run(0), run(0));
        // And the foreground timeline is untouched by shipping: only the
        // extra ship events distinguish the runs.
        let (n0, _, d0) = run(0);
        let (n1, t1, d1) = run(1);
        assert_eq!(n0, n1);
        assert!(d1 > d0, "ship events were dispatched");
        assert!(t1 > 0);
    }

    #[test]
    fn a_flush_after_every_datanode_died_writes_an_hfile_with_no_replica() {
        // Two servers, one region each, and a memstore that one write
        // fills. Both servers crash while each has a WAL group in flight;
        // the groups still commit, and each apply flushes an HFile that no
        // live datanode can hold.
        let mut cfg = HStoreConfig::paper_testbed(2, vec![key(50)]);
        cfg.node.topology = simkit::Topology::single_rack(2, cfg.node.profile.nic.prop_us);
        cfg.lsm.memtable_flush_bytes = 64;
        let mut h = Harness::new(cfg);
        let tokens: Vec<u64> = [1, 2, 60, 61]
            .map(|i| {
                h.submit(StoreOp::Insert {
                    key: key(i),
                    value: Bytes::from(vec![5u8; 100]),
                })
            })
            .to_vec();
        let mut out = Vec::new();
        let mut arrivals = 0;
        while let Some(Ev::Store(ev)) = h.sim.next() {
            let was_arrive = matches!(ev, Event::Arrive { .. });
            h.cluster.handle(&mut h.sim, ev);
            out.extend(h.cluster.drain_completions());
            if was_arrive {
                arrivals += 1;
                if arrivals == 4 {
                    for n in 0..2 {
                        faults::FaultTarget::apply_crash(&mut h.cluster, &mut h.sim, NodeId(n));
                    }
                }
            }
        }
        let mut settled: Vec<u64> = out.iter().map(|c| c.token).collect();
        settled.sort_unstable();
        assert_eq!(settled, tokens, "every write settles once");
        assert_eq!(h.cluster.metrics.flushes, 2);
        for region in h.cluster.regions().iter() {
            assert_eq!(region.hfiles.len(), 1);
            for file in region.hfiles.values() {
                assert_eq!(h.cluster.fs.namenode().file(*file), Some(&[][..]));
            }
        }
    }

    /// The rows of `ids`, in an order that interleaves the regions as
    /// hashed keys do, with 40-byte values (73-byte entries) at `ts`.
    fn rows(ids: impl Iterator<Item = u64>, ts: u64) -> Vec<(Key, Value, u64)> {
        let mut ids: Vec<u64> = ids.collect();
        ids.sort_by_key(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        ids.into_iter()
            .map(|i| (key(i), Bytes::from(vec![b'v'; 40]), ts))
            .collect()
    }

    /// The row-by-row load that `load_direct` and `flush_all` replay: each
    /// row through the WAL and the memstore, a flush and major compaction
    /// whenever the memstore fills, then one more for every region.
    fn load_per_row(c: &mut Cluster, rows: &[(Key, Value, u64)]) {
        for (key, value, ts) in rows {
            let idx = c.regions.region_of(key);
            let lsm = &mut c.regions.get_mut(idx).lsm;
            lsm.put(key.clone(), Cell::live(value.clone(), *ts));
            if lsm.memtable_bytes() >= lsm.config().memtable_flush_bytes {
                c.flush_region_functional(idx);
            }
        }
        for idx in 0..c.regions.len() {
            c.flush_region_functional(idx);
        }
    }

    fn bulk_load(c: &mut Cluster, rows: &[(Key, Value, u64)]) {
        for (key, value, ts) in rows {
            c.load_direct(key.clone(), value.clone(), *ts);
        }
        c.flush_all();
    }

    /// A run: its id, rows, block count and bytes.
    type Run = (TableId, Vec<(Key, Cell)>, usize, u64);

    /// A file's blocks, each with its replicas and length.
    type Blocks = Vec<(BlockId, Vec<NodeId>, u64)>;

    /// What a load leaves that later simulation reads, but for the block
    /// cache, which a load leaves empty.
    #[derive(Debug, PartialEq)]
    struct Loaded {
        /// Per region.
        runs: Vec<Vec<Run>>,
        hfiles: Vec<Vec<(TableId, FileId)>>,
        next_table: Vec<TableId>,
        /// Every WAL and HFile.
        files: Vec<(FileId, Blocks)>,
        used: Vec<u64>,
        rng: SimRng,
    }

    fn loaded(c: &Cluster) -> Loaded {
        let runs = c
            .regions
            .iter()
            .map(|r| {
                r.lsm
                    .runs()
                    .iter()
                    .map(|t| {
                        let rows = t.segments().iter().flat_map(|s| s.iter());
                        (
                            t.id(),
                            rows.map(|(k, c)| (Key::copy_from_slice(k), c.clone()))
                                .collect(),
                            t.block_count(),
                            t.total_bytes(),
                        )
                    })
                    .collect()
            })
            .collect();
        let hfiles: Vec<Vec<_>> = c
            .regions
            .iter()
            .map(|r| {
                let mut files: Vec<_> = r.hfiles.iter().map(|(&t, &f)| (t, f)).collect();
                files.sort_unstable();
                files
            })
            .collect();
        let nn = c.fs.namenode();
        let wal_files = c.wals.iter().map(|w| w.file);
        let files = wal_files
            .chain(hfiles.iter().flatten().map(|&(_, f)| f))
            .map(|f| {
                let blocks = nn.file(f).expect("live file").iter().map(|&b| {
                    let meta = nn.block(b).expect("registered block");
                    (b, meta.replicas.clone(), meta.len)
                });
                (f, blocks.collect())
            })
            .collect();
        Loaded {
            runs,
            hfiles,
            next_table: c
                .regions
                .iter()
                .map(|r| r.lsm.clone().reserve_table_id())
                .collect(),
            files,
            used: c.fs.node_used_bytes(),
            rng: c.rng.clone(),
        }
    }

    /// Load `loads` in turn into one cluster through `load_direct` and
    /// `flush_all`, and into a twin row by row. With `exact`, the two must
    /// leave the same [`Loaded`] state and then, after a crash with
    /// synchronous failover, serve the same reads and writes at the same
    /// times; otherwise they must hold the same rows.
    fn check_replay(cfg: HStoreConfig, loads: &[Vec<(Key, Value, u64)>], exact: bool) {
        let mut bulk = Harness::new(cfg.clone());
        let mut per_row = Harness::new(cfg);
        for rows in loads {
            bulk_load(&mut bulk.cluster, rows);
            load_per_row(&mut per_row.cluster, rows);
        }
        let (a, b) = (loaded(&bulk.cluster), loaded(&per_row.cluster));
        if !exact {
            let rows = |l: &Loaded| -> Vec<Vec<(Key, Cell)>> {
                let runs = l.runs.iter();
                runs.map(|r| r.iter().flat_map(|run| run.1.clone()).collect())
                    .collect()
            };
            assert_eq!(rows(&a), rows(&b));
            return;
        }
        assert_eq!(a, b);
        let serve = |h: &mut Harness| {
            let victim = h.cluster.regions().get(0).server;
            faults::FaultTarget::apply_crash(&mut h.cluster, &mut h.sim, victim);
            for i in 0..300u64 {
                h.submit(StoreOp::Read {
                    key: key(i * 7 % 1000),
                });
                h.submit(StoreOp::Update {
                    key: key(i * 3 % 1000),
                    value: Bytes::from(vec![b'w'; 40]),
                });
            }
            (h.run(), h.sim.now(), loaded(&h.cluster))
        };
        assert_eq!(serve(&mut bulk), serve(&mut per_row));
    }

    /// The load this one replaced, kept as the oracle: each region's
    /// rows sorted into one segment, then its run built from the
    /// segment's sorted rows.
    fn per_region_flush_all(c: &mut Cluster) {
        let mut loads = std::mem::take(&mut c.loading).into_iter();
        for idx in 0..c.regions.len() {
            let load = loads.next().unwrap_or_default();
            let mut hfile = load.hfile;
            if load.memstore_bytes > 0 {
                hfile = Some(c.replay_load_flush(idx, hfile, load.memstore_bytes));
            }
            if let Some((id, _)) = hfile {
                let lsm = &mut c.regions.get_mut(idx).lsm;
                let segment = Segment::from_queue(load.rows, &mut []);
                let mut run = storage::RunBuilder::new(segment.len(), lsm.config().block_size);
                run.hold(segment);
                lsm.load(id, run);
            }
            c.flush_region_functional(idx);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one-pass load builds every region's run as the per-region
        /// path did, bit for bit (ids, rows, block arrays, bloom bits,
        /// sizes, and the HFile history in the file system), into an empty
        /// store and again after run-time writes. Keys repeat, older,
        /// newer or at an equal timestamp, and tie on their 16-byte prefix.
        #[test]
        fn the_one_pass_load_builds_the_per_region_runs(
            nodes in 1usize..6,
            flush_bytes in 200u64..4_000,
            loads in prop::collection::vec(
                prop::collection::vec((0u64..300, any::<bool>(), 0usize..3, 1u64..4), 0..400),
                2..3,
            ),
            writes in prop::collection::vec((0u64..300, any::<bool>()), 0..60),
        ) {
            let mut cfg = config(3, nodes, 300);
            cfg.lsm.memtable_flush_bytes = flush_bytes;
            let mut cluster = Cluster::new(cfg, 7);
            let mut twin = cluster.clone();
            for rows in loads {
                for (id, long, v, ts) in rows {
                    let key = if long {
                        Bytes::from(format!("user{id:012}+tail").into_bytes())
                    } else {
                        key(id)
                    };
                    for c in [&mut cluster, &mut twin] {
                        c.load_direct(key.clone(), k(["a", "b", "c"][v]), ts);
                    }
                }
                cluster.flush_all();
                per_region_flush_all(&mut twin);
                for (region, (x, y)) in cluster.regions.iter().zip(twin.regions.iter()).enumerate() {
                    prop_assert_eq!(format!("{:?}", x.lsm), format!("{:?}", y.lsm), "region {}", region);
                }
                prop_assert_eq!(loaded(&cluster), loaded(&twin));
                // Run-time writes, some flushed into HFiles of their own.
                for &(id, flush) in &writes {
                    for c in [&mut cluster, &mut twin] {
                        let idx = c.regions.region_of(&key(id));
                        c.regions.get_mut(idx).lsm.put(key(id), Cell::live(k("w"), 9));
                        if flush {
                            c.flush_region_functional(idx);
                        }
                    }
                }
            }
        }
    }

    fn replay_config(records: u64, flush_bytes: u64) -> HStoreConfig {
        let mut cfg = config(3, 5, records);
        cfg.lsm.memtable_flush_bytes = flush_bytes;
        cfg
    }

    #[test]
    fn bulk_load_replays_the_flush_per_threshold_history() {
        // 200 rows of 73 B per region and a 2 KB memstore: six flushes and
        // five compactions per region mid-load, one more of each at the end.
        check_replay(replay_config(1000, 2_048), &[rows(0..1000, 1)], true);
        // 150 rows per region, 30 per flush: every region's last row lands
        // exactly on the threshold, so its last HFile id is taken mid-load.
        check_replay(replay_config(750, 30 * 73), &[rows(0..750, 1)], true);
        // Region 2 (keys 400..600) gets no rows.
        let sparse = rows((0..1000).filter(|i| !(400..600).contains(i)), 1);
        check_replay(replay_config(1000, 2_048), &[sparse], true);
        check_replay(replay_config(1000, 2_048), &[rows(500..501, 1)], true);
        // A second load into a loaded store, overwriting half the first:
        // every key reads its newest version.
        let again = [rows(0..500, 1), rows(250..1000, 2)];
        check_replay(replay_config(1000, 2_048), &again, false);
    }
}
