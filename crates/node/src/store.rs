//! The driver-facing store surface: [`SimStore`] is the asynchronous
//! submit/handle/drain surface both database analogs implement, so the
//! YCSB driver, the experiments and the examples are written once.

use simkit::{OpTag, Sim};
use storage::{Completion, Key, StoreOp, Value};

/// The event payload the driver runs its simulation over: client-side
/// wake-ups interleaved with the store's internal events.
#[derive(Debug, Clone)]
pub enum DriverEvent<E> {
    /// A client thread is due to issue its next operation.
    Issue {
        /// The client thread.
        thread: usize,
    },
    /// A backed-off retry of a logical operation is due to re-submit.
    Retry {
        /// Slab key of the logical op's client-side context.
        op: simkit::OpKey,
    },
    /// A hedged (speculative second) read attempt is due; a no-op if the
    /// operation already settled.
    Hedge {
        /// Slab key of the logical op's client-side context.
        op: simkit::OpKey,
    },
    /// A scheduled fault (entry `index` of the run's fault plan) fires.
    Fault {
        /// Index into the fault plan driving the run.
        index: usize,
    },
    /// An internal store event.
    Store(E),
}

impl<E> From<E> for DriverEvent<E> {
    fn from(e: E) -> Self {
        DriverEvent::Store(e)
    }
}

/// A simulated cloud serving database, as the benchmark driver sees it.
pub trait SimStore {
    /// The store's internal event type.
    type Event;

    /// Short display name (`"hstore"` / `"cstore"`).
    fn name(&self) -> &'static str;

    /// Submit a client operation; its completion surfaces via
    /// [`SimStore::drain_completions`] at the virtual time the response
    /// reaches the client.
    fn submit(&mut self, sim: &mut Sim<DriverEvent<Self::Event>>, token: u64, op: StoreOp) {
        self.submit_tagged(sim, token, op, OpTag::default());
    }

    /// [`SimStore::submit`] with client scheduling metadata (tenant priority
    /// and absolute deadline) for the store's admission controller. With
    /// admission control disabled (the default) the tag is ignored and this
    /// is exactly `submit`.
    fn submit_tagged(
        &mut self,
        sim: &mut Sim<DriverEvent<Self::Event>>,
        token: u64,
        op: StoreOp,
        tag: OpTag,
    );

    /// Dispatch one internal event.
    fn handle(&mut self, sim: &mut Sim<DriverEvent<Self::Event>>, ev: Self::Event);

    /// Take completions produced since the last drain.
    fn drain_completions(&mut self) -> Vec<Completion>;

    /// [`SimStore::drain_completions`] appending to a buffer the caller
    /// reuses, so a drain per dispatched event allocates nothing.
    fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.extend(self.drain_completions());
    }

    /// Bulk-load one record functionally (no virtual time). Loaded records
    /// become readable at [`SimStore::flush_all`].
    fn load_direct(&mut self, key: Key, value: Value, ts: u64);

    /// Write loaded records and memtables/memstores to sorted runs
    /// functionally.
    fn flush_all(&mut self);

    /// Warm block caches to steady state (post-load, pre-measurement).
    fn warm_caches(&mut self);

    /// Behaviour counters for reports: `(label, value)` pairs.
    fn counters(&self) -> Vec<(&'static str, u64)>;

    /// The store's span tracer. Disabled by default; the driver enables it
    /// for sampled runs and harvests recorded spans at the end of the run.
    fn tracer_mut(&mut self) -> &mut obs::Tracer;

    /// A copy-on-write snapshot of the loaded store: sorted runs are shared
    /// with the original (O(metadata) cost), mutable state is copied. The
    /// sweep engine stamps one snapshot out per experiment cell.
    fn snapshot(&self) -> Self
    where
        Self: Sized;

    /// True when `self` and `other` still share every sorted run — the
    /// probe snapshot tests use to prove clones are copy-on-write.
    fn shares_storage_with(&self, other: &Self) -> bool
    where
        Self: Sized;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_event_wraps_store_events() {
        let ev: DriverEvent<u32> = 7u32.into();
        assert!(matches!(ev, DriverEvent::Store(7)));
        let issue: DriverEvent<u32> = DriverEvent::Issue { thread: 3 };
        assert!(matches!(issue, DriverEvent::Issue { thread: 3 }));
    }
}
