//! The YCSB driver: closed-loop (the paper's client model) or open-loop.
//!
//! Closed loop is exactly the paper's client: a fixed number of client
//! threads, each issuing its next operation only after the previous response
//! ("The YCSB client will not emit a new request until it receives a
//! response for the prior request"), optionally throttled to a cluster-wide
//! target throughput. Latency is measured client-side in virtual time; a
//! warm-up prefix is excluded; read-modify-write is composed client-side
//! (read, then update, one combined latency) as YCSB does; and every read is
//! checked against the staleness tracker, so consistency is *measured*.
//!
//! Open loop ([`ArrivalMode::OpenLoop`]) replaces the completion-driven
//! reissue with a seed-deterministic Poisson arrival process
//! ([`ycsb::OpenLoop`]): arrivals fire at their drawn virtual instants
//! regardless of how the store is doing, so queues actually build at
//! saturation. Because each arrival is a simulated event, an op's issue
//! time *is* its intended start time — there is no client-side stall that
//! could push issuance late — so open-loop latency percentiles are free of
//! coordinated omission by construction.

use faults::{FaultInjector, FaultPlan, FaultTarget};
use simkit::{OpKey, OpTag, Sim, SimTime, Slab};
use storage::{Key, OpError, OpKind, OpResult, StoreOp};
use ycsb::{
    encode_key, KeyInterner, KeySpace, OpenLoop, RunMetrics, StalenessTracker, Throttle, ValuePool,
    WorkloadSpec,
};

use crate::resilience::{GiveUpReason, RetryDecision, RetryPolicy};
use crate::store::{DriverEvent, SimStore};

/// How client operations arrive at the store.
#[derive(Debug, Clone, Default)]
pub enum ArrivalMode {
    /// The paper's closed loop: each of [`DriverConfig::threads`] client
    /// threads issues its next op only after the previous response,
    /// optionally throttled. The default.
    #[default]
    ClosedLoop,
    /// Open-loop arrivals drawn from a Poisson process split over a
    /// weighted tenant mix. `threads` and `target_ops_per_sec` are
    /// ignored; the offered load is the process's rate, and results are
    /// identical at any worker thread count.
    OpenLoop(OpenLoop),
}

impl ArrivalMode {
    /// True for [`ArrivalMode::OpenLoop`].
    pub(crate) fn is_open(&self) -> bool {
        matches!(self, ArrivalMode::OpenLoop(_))
    }
}

/// Configuration of one benchmark run.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// The workload to run.
    pub workload: WorkloadSpec,
    /// Client threads.
    pub threads: usize,
    /// Cluster-wide target throughput in ops/second; `0.0` = unthrottled.
    pub target_ops_per_sec: f64,
    /// Records preloaded (the request distribution's initial domain).
    pub records: u64,
    /// Value bytes per written record.
    pub value_len: usize,
    /// Completions discarded before measurement starts.
    pub warmup_ops: u64,
    /// Completions measured.
    pub measure_ops: u64,
    /// Seed for all randomness in the run.
    pub seed: u64,
    /// Faults injected during the run at their absolute virtual times. An
    /// empty plan adds no events and leaves the run bit-identical to one
    /// without fault machinery.
    pub faults: FaultPlan,
    /// Timeline window width (virtual µs) for time-bucketed metrics; `0`
    /// (the default) disables timeline collection entirely.
    pub timeline_window_us: u64,
    /// The client-resilience policy: retries, backoff, deadline budget,
    /// hedged reads. [`RetryPolicy::none`] (the default) schedules no
    /// extra events and draws no randomness, leaving the run bit-identical
    /// to a driver without the resilience layer.
    pub retry: RetryPolicy,
    /// Span-trace sampling. [`obs::TraceConfig::off`] (the default) keeps
    /// the store tracers disabled: no spans are recorded, no events or RNG
    /// draws are added, and the run is bit-identical to a driver without
    /// the tracing layer.
    pub trace: obs::TraceConfig,
    /// Operation-history recording for the consistency auditors.
    /// [`audit::AuditConfig::off`] (the default) keeps the recorder
    /// disabled: no records are kept, no events or RNG draws are added,
    /// and the run is bit-identical to a driver without the audit layer.
    pub audit: audit::AuditConfig,
    /// Arrival model. [`ArrivalMode::ClosedLoop`] (the default) is the
    /// paper's client and is bit-identical to the pre-open-loop driver.
    pub arrival: ArrivalMode,
}

impl DriverConfig {
    /// A run with sane defaults for the given workload and record count.
    pub fn new(workload: WorkloadSpec, records: u64) -> Self {
        Self {
            workload,
            threads: 64,
            target_ops_per_sec: 0.0,
            records,
            value_len: 100,
            warmup_ops: 2_000,
            measure_ops: 20_000,
            seed: 42,
            faults: FaultPlan::new(),
            timeline_window_us: 0,
            retry: RetryPolicy::none(),
            trace: obs::TraceConfig::off(),
            audit: audit::AuditConfig::off(),
            arrival: ArrivalMode::ClosedLoop,
        }
    }
}

/// What one benchmark run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Latency histograms and counters over the measured window.
    pub metrics: RunMetrics,
    /// Runtime throughput over the measured window (ops/s).
    pub throughput: f64,
    /// Mean latency over the measured window (µs).
    pub mean_latency_us: f64,
    /// Failed operations during the measured window.
    pub errors: u64,
    /// Stale reads / checked reads over the measured window.
    pub stale_fraction: f64,
    /// Virtual time the whole run took.
    pub sim_duration_us: u64,
    /// Simulation events dispatched over the whole run (driver wake-ups
    /// plus store-internal events) — the denominator of engine speed.
    pub events_dispatched: u64,
    /// Fault-plan events actually applied before the run finished.
    pub faults_injected: u64,
    /// Operations still tracked by the client when the run ended. Zero for
    /// any run that completed its full operation count — every issued op
    /// must settle exactly once (the no-token-leak invariant of the retry
    /// and deadline paths). Nonzero only when the run quiesced early.
    pub unsettled_ops: u64,
    /// Store behaviour counters at the end of the run (cumulative).
    pub counters: Vec<(&'static str, u64)>,
    /// Per-op span trees for the sampled operations, when
    /// [`DriverConfig::trace`] enabled tracing; `None` otherwise.
    pub trace: Option<obs::RunTrace>,
    /// The recorded operation history, when [`DriverConfig::audit`]
    /// enabled recording; `None` otherwise.
    pub audit: Option<audit::History>,
}

/// Bulk-load `records` records (functional, instant) and flush, leaving the
/// store in the paper's post-warm-up state: data in sorted runs, caches at
/// steady state (the paper runs long precisely to get past cold start).
pub fn load<S: SimStore>(store: &mut S, records: u64, value_len: usize, seed: u64) {
    let mut rng = simkit::SimRng::new(seed ^ 0x10AD);
    let pool = ValuePool::new(value_len, 4);
    for i in 0..records {
        store.load_direct(encode_key(i), pool.next(&mut rng), 1);
    }
    store.flush_all();
    store.warm_caches();
}

/// Client-side state of one *logical* operation, stored in a slab and
/// addressed by [`OpKey`]. Retries and hedges submit further attempts whose
/// tokens map back to the same slab slot; the op settles (records one
/// latency or one error) exactly once, when an attempt completes and the
/// policy stops. The RMW write phase re-inserts the context so read-phase
/// attempt keys go stale, exactly like the old token re-keying did.
struct OpCtx {
    /// Closed loop: the issuing client thread (indexes `throttles`).
    /// Open loop: the issuing tenant's index in the arrival mix.
    thread: usize,
    /// Scheduling metadata carried to the store's admission controller on
    /// every attempt of this op.
    tag: OpTag,
    kind: OpKind,
    issued: SimTime,
    /// Absolute give-up time ([`SimTime::MAX`] when unbounded).
    deadline: SimTime,
    /// The submitted operation, kept for re-submission by retries/hedges.
    op: StoreOp,
    key: Key,
    expected_ts: u64,
    rmw_read_phase: bool,
    /// True once any retry or winning hedge helped this op: its eventual
    /// success counts as recovered goodput, not first-try goodput.
    recovered: bool,
    /// Attempts submitted across all phases (≥ 1).
    attempts_total: u32,
    /// Retries spent on the current phase (resets at the RMW write phase).
    retries: u32,
    /// Attempts currently outstanding at the store (1, or 2 while hedged).
    in_flight: u32,
    hedged: bool,
    /// The hedge attempt's token, to spot a speculative win at drain.
    hedge_token: Option<u64>,
    /// Logical trace id (the first attempt's token) when this op is being
    /// traced; `None` for unsampled ops.
    trace_id: Option<u64>,
}

/// Every attempt submitted to the store. Tokens are issued sequentially, so
/// a `Vec` indexed by token maps each to its op's slab key without a hash
/// lookup on the completion drain path ([`OpKey::NONE`] marks
/// consumed/unknown entries). Retries, hedges and the RMW write phase submit
/// fresh tokens whose spans must fold back into a traced op's logical trace
/// id, so those attempts map to it too.
struct Attempts {
    next_token: u64,
    op_of: Vec<OpKey>,
    trace_of: simkit::FastHashMap<u64, u64>,
}

impl Attempts {
    /// Submit `op` as an attempt of the op at `key` under a fresh token,
    /// which is returned. A traced op's token is watched by the store's
    /// tracer and mapped to `trace_id`.
    fn submit<S: SimStore>(
        &mut self,
        store: &mut S,
        sim: &mut Sim<DriverEvent<S::Event>>,
        key: OpKey,
        trace_id: Option<u64>,
        op: StoreOp,
        tag: OpTag,
    ) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        let i = token as usize;
        if self.op_of.len() <= i {
            self.op_of.resize(i + 1, OpKey::NONE);
        }
        self.op_of[i] = key;
        if let Some(logical) = trace_id {
            self.trace_of.insert(token, logical);
            store.tracer_mut().watch(token);
        }
        store.submit_tagged(sim, token, op, tag);
        token
    }

    /// The op of attempt `token`, consumed.
    fn take(&mut self, token: u64) -> OpKey {
        match self.op_of.get_mut(token as usize) {
            Some(slot) => std::mem::replace(slot, OpKey::NONE),
            None => OpKey::NONE,
        }
    }
}

/// Run one benchmark against a loaded store. Faults listed in
/// [`DriverConfig::faults`] are scheduled into the same event queue as
/// client wake-ups and store events, so they land at exact virtual
/// instants interleaved with operations.
pub fn run<S>(store: &mut S, cfg: &DriverConfig) -> RunOutcome
where
    S: SimStore + FaultTarget<Event = <S as SimStore>::Event>,
{
    let total = cfg.warmup_ops + cfg.measure_ops;
    let mut sim: Sim<DriverEvent<<S as SimStore>::Event>> = Sim::new(cfg.seed);
    let mut dist = cfg.workload.request_distribution(cfg.records);
    let mut keyspace = KeySpace::new(cfg.records);
    // Skewed request distributions hammer a small hot set; intern their
    // encoded keys so repeats are a slot probe + refcount bump. Bounded at
    // 64Ki slots (or the record count when smaller).
    let mut interner = KeyInterner::new((cfg.records as usize).min(1 << 16));
    let pool = ValuePool::new(cfg.value_len, 4);
    let mut throttles: Vec<Throttle> = (0..cfg.threads)
        .map(|_| Throttle::for_target(cfg.target_ops_per_sec, cfg.threads))
        .collect();
    let mut tracker = StalenessTracker::new();
    let mut metrics = RunMetrics::new();
    // Logical op contexts, slab-allocated, and every outstanding attempt
    // mapped back to its op's slab key. An attempt whose key has gone stale
    // is a cancelled hedge loser.
    let mut ctxs: Slab<OpCtx> = Slab::new();
    let mut attempts = Attempts {
        next_token: 1,
        op_of: Vec::new(),
        trace_of: simkit::FastHashMap::default(),
    };
    let mut issued: u64 = 0;
    let mut completed: u64 = 0;
    // Completions drained after each event; one buffer for the whole run.
    let mut done: Vec<storage::Completion> = Vec::new();
    // Tracing bookkeeping. All of it is gated on `tracing`, and the tracer
    // itself is pure bookkeeping (no events, no RNG), so a disabled run is
    // bit-identical to one without any of this machinery.
    let tracing = cfg.trace.enabled();
    if tracing {
        store.tracer_mut().enable();
    }
    // Audit bookkeeping. Gated on `auditing`, and the recorder itself is
    // pure bookkeeping (no events, no RNG), so a disabled run is
    // bit-identical to one without any of this machinery.
    let auditing = cfg.audit.enabled();
    let mut recorder = audit::Recorder::new(cfg.audit);
    // Settle metadata of traced ops: (logical id, kind, issued, settled, ok).
    let mut traced_settled: Vec<(u64, OpKind, SimTime, SimTime, bool)> = Vec::new();
    let mut window_start: SimTime = 0;
    let mut window_end: SimTime = 0;
    if cfg.timeline_window_us > 0 {
        metrics.enable_timeline(cfg.timeline_window_us);
    }

    // Faults first, so a fault at the same instant as a client wake-up
    // applies before the operation is issued (matters for crash-at-zero
    // plans, which must behave like a store failed before the run).
    let mut injector = FaultInjector::new(cfg.faults.clone());
    injector.schedule(&mut sim, |index| DriverEvent::Fault { index });

    let open_loop = cfg.arrival.is_open();
    match &cfg.arrival {
        // Stagger thread start within the first millisecond.
        ArrivalMode::ClosedLoop => {
            assert!(cfg.threads > 0, "need at least one client thread");
            for t in 0..cfg.threads {
                sim.schedule_at((t as u64) * 13 % 1_000, DriverEvent::Issue { thread: t });
            }
        }
        // One seed arrival; each arrival chains the next from the Poisson
        // process, so the client-thread count never enters the schedule.
        ArrivalMode::OpenLoop(_) => {
            sim.schedule_at(0, DriverEvent::Issue { thread: 0 });
        }
    }

    while completed < total {
        let Some(ev) = sim.next() else {
            break; // quiesced early (all threads done)
        };
        match ev {
            DriverEvent::Issue { thread } => {
                if issued >= total {
                    continue;
                }
                issued += 1;
                let now = sim.now();
                // Closed loop: `thread` is the issuing client thread. Open
                // loop: this wake-up is one Poisson arrival — draw the
                // issuing tenant and chain the next arrival at its drawn
                // instant. An empty tenant list is one tenant at priority 0.
                let (client, priority, kind) = match &cfg.arrival {
                    ArrivalMode::ClosedLoop => (thread, 0u8, cfg.workload.mix.choose(sim.rng())),
                    ArrivalMode::OpenLoop(ol) => {
                        let tenant = ol.pick_tenant(sim.rng());
                        let kind = cfg.workload.mix.choose(sim.rng());
                        let gap = ol.next_interarrival_us(sim.rng());
                        if issued < total {
                            sim.schedule_in(gap, DriverEvent::Issue { thread: 0 });
                        }
                        let priority = ol.tenants.get(tenant).map_or(0, |t| t.priority);
                        (tenant, priority, kind)
                    }
                };
                // An insert takes the next fresh key; every other kind draws
                // one from the request distribution before any value or
                // scan length.
                let key = if kind == OpKind::Insert {
                    let (_, key) = keyspace.next_insert();
                    dist.set_items(keyspace.count());
                    key
                } else {
                    interner.key(dist.next(sim.rng()))
                };
                let (op, expected_ts) = match kind {
                    OpKind::Read | OpKind::ReadModifyWrite => {
                        let expected = tracker.expected(&key);
                        (StoreOp::Read { key: key.clone() }, expected)
                    }
                    OpKind::Update => {
                        let value = pool.next(sim.rng());
                        (
                            StoreOp::Update {
                                key: key.clone(),
                                value,
                            },
                            0,
                        )
                    }
                    OpKind::Insert => {
                        let value = pool.next(sim.rng());
                        (
                            StoreOp::Insert {
                                key: key.clone(),
                                value,
                            },
                            0,
                        )
                    }
                    OpKind::Scan => {
                        let limit = cfg.workload.scan_len(sim.rng());
                        (
                            StoreOp::Scan {
                                start: key.clone(),
                                limit,
                            },
                            0,
                        )
                    }
                    OpKind::Delete => (StoreOp::Delete { key: key.clone() }, 0),
                };
                // Deterministic sampling by 0-based issue index: the same
                // seed and sampling config always trace the same ops, each
                // under its first attempt's token.
                let trace_id = (tracing && cfg.trace.samples(issued - 1, cfg.seed))
                    .then_some(attempts.next_token);
                let deadline = cfg.retry.deadline_at(now);
                let tag = OpTag { priority };
                let opkey = ctxs.insert(OpCtx {
                    thread: client,
                    tag,
                    kind,
                    issued: now,
                    deadline,
                    op: op.clone(),
                    key,
                    expected_ts,
                    rmw_read_phase: kind == OpKind::ReadModifyWrite,
                    recovered: false,
                    attempts_total: 1,
                    retries: 0,
                    in_flight: 1,
                    hedged: false,
                    hedge_token: None,
                    trace_id,
                });
                attempts.submit(store, &mut sim, opkey, trace_id, op, tag);
                // Hedging covers point reads only (including the RMW read
                // phase); the event is harmless if the op settles first.
                if cfg.retry.hedges() && matches!(kind, OpKind::Read | OpKind::ReadModifyWrite) {
                    sim.schedule_in(cfg.retry.hedge_after_us, DriverEvent::Hedge { op: opkey });
                }
            }
            DriverEvent::Retry { op } => {
                // Scheduled only while its op is pending with nothing in
                // flight, so the ctx is present; guard anyway.
                if let Some(ctx) = ctxs.get_mut(op) {
                    ctx.attempts_total += 1;
                    ctx.in_flight += 1;
                    let resubmit = ctx.op.clone();
                    attempts.submit(store, &mut sim, op, ctx.trace_id, resubmit, ctx.tag);
                }
            }
            DriverEvent::Hedge { op } => {
                // Speculative second read: only if the op is still pending
                // on its first attempt, is a point read (an RMW may have
                // moved on to its write phase), and has deadline budget.
                if let Some(ctx) = ctxs.get_mut(op) {
                    if !ctx.hedged
                        && ctx.in_flight == 1
                        && matches!(ctx.op, StoreOp::Read { .. })
                        && sim.now() < ctx.deadline
                    {
                        ctx.hedged = true;
                        ctx.attempts_total += 1;
                        ctx.in_flight += 1;
                        metrics.resilience_mut().hedges += 1;
                        let resubmit = ctx.op.clone();
                        let token =
                            attempts.submit(store, &mut sim, op, ctx.trace_id, resubmit, ctx.tag);
                        ctx.hedge_token = Some(token);
                    }
                }
            }
            DriverEvent::Fault { index } => {
                injector.fire(&mut sim, store, index);
            }
            DriverEvent::Store(ev) => {
                store.handle(&mut sim, ev);
            }
        }
        // Drain completions produced by this dispatch.
        store.drain_completions_into(&mut done);
        for c in done.drain(..) {
            let opkey = attempts.take(c.token);
            if opkey.is_none() {
                continue;
            }
            let Some(ctx) = ctxs.get_mut(opkey) else {
                // The op already settled through another attempt (the slab
                // generation moved on): the losing side of a hedge race,
                // cancelled at drain.
                metrics.resilience_mut().hedge_cancelled += 1;
                continue;
            };
            ctx.in_flight -= 1;
            let now = sim.now();
            let in_window = completed >= cfg.warmup_ops;
            if let OpResult::Error(e) = &c.result {
                // A hedge twin is still racing: let it decide the op.
                if ctx.in_flight > 0 {
                    continue;
                }
                match cfg
                    .retry
                    .on_error(ctx.retries, now, ctx.deadline, sim.rng())
                {
                    RetryDecision::RetryAt(at) => {
                        ctx.retries += 1;
                        ctx.recovered = true;
                        metrics.resilience_mut().retries += 1;
                        if tracing {
                            if let Some(logical) = ctx.trace_id {
                                store.tracer_mut().record(
                                    logical,
                                    obs::Stage::RetryBackoff,
                                    obs::CLIENT_NODE,
                                    now,
                                    at,
                                );
                            }
                        }
                        sim.schedule_at(at, DriverEvent::Retry { op: opkey });
                        continue;
                    }
                    RetryDecision::GiveUp(reason) => {
                        if reason == GiveUpReason::DeadlineExceeded {
                            metrics.resilience_mut().deadline_exceeded += 1;
                        }
                        metrics.note_timeline_error(now, ctx.attempts_total);
                        if in_window {
                            metrics.record_error();
                            if open_loop {
                                metrics.record_tenant_error(ctx.thread, *e == OpError::Overloaded);
                            }
                        }
                        // Fall through: the op settles as one client error.
                    }
                }
            } else {
                // A success from the speculative attempt is a hedge win.
                if ctx.hedge_token == Some(c.token) {
                    metrics.resilience_mut().hedge_wins += 1;
                    ctx.recovered = true;
                }
                // RMW read phase: chain the write without finishing the op.
                // Per-phase retry/hedge state resets; the deadline budget
                // and recovered flag span the whole logical op. Re-inserting
                // bumps the slab generation, so any still-racing read-phase
                // attempt resolves to a stale key (a cancelled hedge loser).
                if ctx.rmw_read_phase {
                    let Some(mut ctx) = ctxs.remove(opkey) else {
                        continue; // unreachable: get_mut above proved it live
                    };
                    let op = StoreOp::Update {
                        key: ctx.key.clone(),
                        value: pool.next(sim.rng()),
                    };
                    ctx.rmw_read_phase = false;
                    ctx.op = op.clone();
                    ctx.retries = 0;
                    ctx.hedged = false;
                    ctx.hedge_token = None;
                    ctx.attempts_total += 1;
                    ctx.in_flight = 1;
                    let (trace_id, tag) = (ctx.trace_id, ctx.tag);
                    let newkey = ctxs.insert(ctx);
                    attempts.submit(store, &mut sim, newkey, trace_id, op, tag);
                    continue;
                }
                match &c.result {
                    OpResult::Written { ts } => {
                        tracker.write_acked(&ctx.key, *ts);
                    }
                    OpResult::Value(cell) => {
                        let check =
                            tracker.check_read(ctx.expected_ts, cell.as_ref().map(|c| c.ts));
                        if in_window {
                            metrics.record_read_check(check.stale, check.missing);
                        }
                    }
                    _ => {}
                }
                // The timeline (when enabled) spans the whole run including
                // warm-up: a failure curve needs the pre-fault baseline.
                metrics.note_timeline(now, now - ctx.issued, ctx.recovered, ctx.attempts_total);
                if in_window {
                    metrics.record(ctx.kind, now - ctx.issued);
                    if open_loop {
                        metrics.record_tenant(ctx.thread, now - ctx.issued);
                    }
                }
                let res = metrics.resilience_mut();
                if ctx.recovered {
                    res.retried_ok += 1;
                } else {
                    res.first_try_ok += 1;
                }
            }
            // The op settles here, exactly once, on success or give-up.
            let Some(ctx) = ctxs.remove(opkey) else {
                continue; // unreachable: every path above kept the slot live
            };
            if auditing {
                recorder.push(audit::OpRecord {
                    client: ctx.thread as u32,
                    kind: ctx.kind,
                    key: ctx.key.clone(),
                    issued: ctx.issued,
                    settled: now,
                    measured: in_window,
                    fate: match &c.result {
                        OpResult::Written { ts } => audit::Fate::Write { ts: *ts },
                        OpResult::Value(cell) => audit::Fate::Read {
                            expected_ts: ctx.expected_ts,
                            observed_ts: cell.as_ref().map(|cl| cl.ts),
                        },
                        OpResult::Rows(_) => audit::Fate::Scanned,
                        OpResult::Error(_) => audit::Fate::Failed,
                    },
                });
            }
            if tracing {
                if let Some(logical) = ctx.trace_id {
                    let ok = !matches!(c.result, OpResult::Error(_));
                    traced_settled.push((logical, ctx.kind, ctx.issued, now, ok));
                }
            }
            completed += 1;
            if completed == cfg.warmup_ops {
                window_start = now;
            }
            if completed >= total {
                window_end = now;
            }
            // Closed loop: the thread's next issue. (Open loop arrivals are
            // chained from the arrival process, not from completions.)
            if !open_loop && issued < total {
                let due = throttles[ctx.thread].next_issue(now);
                sim.schedule_at(due, DriverEvent::Issue { thread: ctx.thread });
            }
        }
    }

    if window_end == 0 {
        window_end = sim.now();
    }
    // Assemble the per-op traces: fold every attempt's spans back onto its
    // logical op, split off background activity, order deterministically.
    let trace = if tracing {
        let mut by_op: std::collections::BTreeMap<u64, Vec<obs::StageSpan>> = Default::default();
        let mut background: Vec<obs::StageSpan> = Vec::new();
        for mut s in store.tracer_mut().take_spans() {
            if s.op == obs::BG_OP {
                background.push(s);
                continue;
            }
            let Some(&logical) = attempts.trace_of.get(&s.op) else {
                continue;
            };
            s.op = logical;
            by_op.entry(logical).or_default().push(s);
        }
        background.sort_by_key(|s| s.sort_key());
        traced_settled.sort_by_key(|&(id, ..)| id);
        let ops = traced_settled
            .into_iter()
            .map(|(id, kind, issued_at, settled, ok)| {
                let mut spans = by_op.remove(&id).unwrap_or_default();
                spans.sort_by_key(|s| s.sort_key());
                obs::OpTrace {
                    op: id,
                    kind,
                    issued: issued_at,
                    settled,
                    ok,
                    spans,
                }
            })
            .collect();
        Some(obs::RunTrace { ops, background })
    } else {
        None
    };
    // Every token issued is one attempt submitted.
    metrics.resilience_mut().attempts = attempts.next_token - 1;
    metrics.set_window(window_start, window_end);
    let (stale, checked) = metrics.staleness();
    RunOutcome {
        throughput: metrics.throughput(),
        mean_latency_us: metrics.overall().mean(),
        errors: metrics.errors(),
        stale_fraction: if checked == 0 {
            0.0
        } else {
            stale as f64 / checked as f64
        },
        sim_duration_us: sim.now(),
        events_dispatched: sim.dispatched(),
        faults_injected: injector.applied(),
        unsettled_ops: ctxs.len() as u64,
        counters: store.counters(),
        trace,
        audit: if auditing {
            Some(recorder.finish())
        } else {
            None
        },
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build_cstore, build_hstore, Scale};
    use cstore::Consistency;

    fn quick_cfg(workload: WorkloadSpec, scale: &Scale) -> DriverConfig {
        DriverConfig {
            threads: 8,
            warmup_ops: 200,
            measure_ops: 1_000,
            value_len: scale.value_len,
            ..DriverConfig::new(workload, scale.records)
        }
    }

    #[test]
    fn cstore_read_mostly_end_to_end() {
        let scale = Scale::tiny();
        let mut store = build_cstore(&scale, 3, Consistency::One, Consistency::One);
        load(&mut store, scale.records, scale.value_len, 1);
        let out = run(&mut store, &quick_cfg(WorkloadSpec::read_mostly(), &scale));
        assert_eq!(out.metrics.ops(), 1_000);
        assert_eq!(out.errors, 0);
        assert!(out.throughput > 0.0);
        assert!(out.mean_latency_us > 0.0);
        assert!(out.metrics.for_op(OpKind::Read).is_some());
        assert!(out.metrics.for_op(OpKind::Update).is_some());
    }

    #[test]
    fn hstore_read_mostly_end_to_end() {
        let scale = Scale::tiny();
        let mut store = build_hstore(&scale, 3);
        load(&mut store, scale.records, scale.value_len, 1);
        let out = run(&mut store, &quick_cfg(WorkloadSpec::read_mostly(), &scale));
        assert_eq!(out.metrics.ops(), 1_000);
        assert_eq!(out.errors, 0);
        assert!(out.throughput > 0.0);
    }

    #[test]
    fn rmw_workload_composes_read_plus_write() {
        let scale = Scale::tiny();
        let mut store = build_hstore(&scale, 2);
        load(&mut store, scale.records, scale.value_len, 1);
        let out = run(
            &mut store,
            &quick_cfg(WorkloadSpec::read_modify_write(), &scale),
        );
        let rmw = out
            .metrics
            .for_op(OpKind::ReadModifyWrite)
            .expect("rmw ran");
        let read = out.metrics.for_op(OpKind::Read).expect("read ran");
        // An RMW is a read plus a write: its mean must exceed a plain read's.
        assert!(rmw.mean() > read.mean());
    }

    #[test]
    fn scan_workload_runs_and_inserts_grow_keyspace() {
        let scale = Scale::tiny();
        let mut store = build_cstore(&scale, 2, Consistency::One, Consistency::One);
        load(&mut store, scale.records, scale.value_len, 1);
        let out = run(
            &mut store,
            &quick_cfg(WorkloadSpec::scan_short_ranges(), &scale),
        );
        assert!(out.metrics.for_op(OpKind::Scan).is_some());
        assert!(out.metrics.for_op(OpKind::Insert).is_some());
        assert_eq!(out.errors, 0);
    }

    #[test]
    fn open_loop_runs_without_client_threads() {
        // `threads` is a closed-loop knob: an open-loop run must not need it.
        let scale = Scale::tiny();
        let mut store = build_hstore(&scale, 2);
        load(&mut store, scale.records, scale.value_len, 1);
        let cfg = DriverConfig {
            threads: 0,
            arrival: ArrivalMode::OpenLoop(OpenLoop::poisson(2_000.0)),
            ..quick_cfg(WorkloadSpec::read_mostly(), &scale)
        };
        let out = run(&mut store, &cfg);
        assert_eq!(out.metrics.ops() + out.errors, 1_000);
        assert_eq!(out.unsettled_ops, 0);
    }

    #[test]
    fn throttling_caps_runtime_throughput() {
        let scale = Scale::tiny();
        let mut base = build_hstore(&scale, 2);
        load(&mut base, scale.records, scale.value_len, 1);
        let unthrottled = run(
            &mut base.clone(),
            &quick_cfg(WorkloadSpec::read_mostly(), &scale),
        );
        let mut cfg = quick_cfg(WorkloadSpec::read_mostly(), &scale);
        cfg.target_ops_per_sec = 500.0;
        let throttled = run(&mut base.clone(), &cfg);
        assert!(
            throttled.throughput < unthrottled.throughput,
            "throttled {} vs unthrottled {}",
            throttled.throughput,
            unthrottled.throughput
        );
        // Runtime tracks the target when capacity allows (within 15%).
        assert!(
            (throttled.throughput - 500.0).abs() / 500.0 < 0.15,
            "runtime {} should approximate the 500 ops/s target",
            throttled.throughput
        );
    }

    #[test]
    fn quorum_runs_have_zero_staleness() {
        let scale = Scale::tiny();
        let mut store = build_cstore(&scale, 3, Consistency::Quorum, Consistency::Quorum);
        load(&mut store, scale.records, scale.value_len, 1);
        let out = run(&mut store, &quick_cfg(WorkloadSpec::read_update(), &scale));
        assert_eq!(
            out.stale_fraction, 0.0,
            "W+R>N must never serve a stale acknowledged write"
        );
    }

    #[test]
    fn driver_is_deterministic() {
        let scale = Scale::tiny();
        let go = || {
            let mut store = build_cstore(&scale, 2, Consistency::One, Consistency::One);
            load(&mut store, scale.records, scale.value_len, 1);
            let out = run(&mut store, &quick_cfg(WorkloadSpec::read_update(), &scale));
            (
                out.metrics.ops(),
                out.sim_duration_us,
                out.metrics.overall().max(),
            )
        };
        assert_eq!(go(), go());
    }
}
