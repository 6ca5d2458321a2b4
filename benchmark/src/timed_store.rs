//! `TimedStore<S>`: the span recorder of the traced run.
//!
//! An adapter that implements [`SimStore`] + [`FaultTarget`] by pure
//! delegation and keeps, in memory, a call count and an `Instant`-timed
//! total around the three calls that form the boundary between
//! `bench_core::driver` and a store — `submit_tagged`, `handle`,
//! `drain_completions` — plus the two bulk set-up stages `flush_all` and
//! `warm_caches`. It also counts the rows of the scans it sees complete,
//! which `RunOutcome` does not carry. It adds no simulation events and
//! draws no randomness, so a wrapped run has the same `model_fingerprint`
//! as a bare one (the benchmark checks this); what it adds is host time,
//! reported as `trace.overhead_frac`.

use std::time::{Duration, Instant};

use bench_core::store::{DriverEvent, SimStore};
use faults::FaultTarget;
use simkit::{NodeId, OpTag, Sim};
use storage::{Completion, Key, OpResult, StoreOp, Value};

/// Call count and total host time of one boundary call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Times the call was made.
    pub calls: u64,
    /// Host time spent inside it, summed.
    pub total: Duration,
}

impl Span {
    #[inline]
    fn note(&mut self, start: Instant) {
        self.calls += 1;
        self.total += start.elapsed();
    }

    /// Total host nanoseconds inside the call.
    pub fn ns(&self) -> f64 {
        self.total.as_nanos() as f64
    }
}

/// What a [`TimedStore`] has recorded since it was built or snapshotted.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// `submit` and `submit_tagged`.
    pub submit: Span,
    /// `handle`.
    pub handle: Span,
    /// `drain_completions`.
    pub drain: Span,
    /// `flush_all`.
    pub flush: Span,
    /// `warm_caches`.
    pub warm: Span,
    /// Scans among the drained completions that succeeded.
    pub scans_done: u64,
    /// Rows those scans returned.
    pub scan_rows: u64,
}

/// A store with timed driver-facing calls.
#[derive(Debug)]
pub struct TimedStore<S> {
    inner: S,
    spans: Spans,
}

impl<S> TimedStore<S> {
    /// Wrap `inner` with zeroed spans.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            spans: Spans::default(),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The recorded spans.
    pub fn spans(&self) -> &Spans {
        &self.spans
    }
}

impl<S: SimStore> SimStore for TimedStore<S> {
    type Event = S::Event;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn submit(&mut self, sim: &mut Sim<DriverEvent<Self::Event>>, token: u64, op: StoreOp) {
        let start = Instant::now();
        self.inner.submit(sim, token, op);
        self.spans.submit.note(start);
    }

    fn submit_tagged(
        &mut self,
        sim: &mut Sim<DriverEvent<Self::Event>>,
        token: u64,
        op: StoreOp,
        tag: OpTag,
    ) {
        let start = Instant::now();
        self.inner.submit_tagged(sim, token, op, tag);
        self.spans.submit.note(start);
    }

    fn handle(&mut self, sim: &mut Sim<DriverEvent<Self::Event>>, ev: Self::Event) {
        let start = Instant::now();
        self.inner.handle(sim, ev);
        self.spans.handle.note(start);
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        let start = Instant::now();
        let done = self.inner.drain_completions();
        self.spans.drain.note(start);
        for c in &done {
            if let OpResult::Rows(rows) = &c.result {
                self.spans.scans_done += 1;
                self.spans.scan_rows += rows.len() as u64;
            }
        }
        done
    }

    fn load_direct(&mut self, key: Key, value: Value, ts: u64) {
        self.inner.load_direct(key, value, ts);
    }

    fn flush_all(&mut self) {
        let start = Instant::now();
        self.inner.flush_all();
        self.spans.flush.note(start);
    }

    fn warm_caches(&mut self) {
        let start = Instant::now();
        self.inner.warm_caches();
        self.spans.warm.note(start);
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.counters()
    }

    fn tracer_mut(&mut self) -> &mut obs::Tracer {
        self.inner.tracer_mut()
    }

    /// A snapshot of the wrapped store with zeroed spans.
    fn snapshot(&self) -> Self {
        Self::new(self.inner.snapshot())
    }

    fn shares_storage_with(&self, other: &Self) -> bool {
        self.inner.shares_storage_with(&other.inner)
    }
}

impl<S: FaultTarget> FaultTarget for TimedStore<S> {
    type Event = S::Event;

    fn fault_nodes(&self) -> usize {
        self.inner.fault_nodes()
    }

    fn region_nodes(&self, region: u32) -> Vec<NodeId> {
        self.inner.region_nodes(region)
    }

    fn apply_crash<W: From<Self::Event>>(&mut self, sim: &mut Sim<W>, node: NodeId) {
        self.inner.apply_crash(sim, node);
    }

    fn apply_recover<W: From<Self::Event>>(&mut self, sim: &mut Sim<W>, node: NodeId) {
        self.inner.apply_recover(sim, node);
    }

    fn apply_slow_disk(&mut self, node: NodeId, factor: u32) {
        self.inner.apply_slow_disk(node, factor);
    }

    fn apply_restore_disk(&mut self, node: NodeId) {
        self.inner.apply_restore_disk(node);
    }

    fn apply_net_delay(&mut self, node: NodeId, extra_us: u64) {
        self.inner.apply_net_delay(node, extra_us);
    }

    fn apply_restore_net(&mut self, node: NodeId) {
        self.inner.apply_restore_net(node);
    }
}
