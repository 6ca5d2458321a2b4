//! The simulation context: virtual clock + event queue + RNG.
//!
//! A `Sim<E>` is handed to every model method. Models schedule follow-up
//! events with [`Sim::schedule_in`] / [`Sim::schedule_at`]; the experiment
//! driver repeatedly calls [`Sim::next`] and dispatches each event to the
//! owning model. Event payload types are caller-defined, and store crates
//! stay queue-agnostic by being generic over any payload `W: From<StoreEvent>`.
//!
//! # Cancellable timers
//!
//! An event that is armed on every operation and almost never fires — an
//! RPC timeout — is a [`Sim::timer_at`] timer, not a scheduled event. Its
//! payload waits in a slab and a thin `(time, seq, key)` entry in a min-heap,
//! where `seq` is taken from the queue's own insertion counter when the timer
//! is armed. Only the earliest timer is ever in the event queue, queued under
//! the `(time, seq)` it reserved; when it fires the next live one takes its
//! place. So every other event keeps the sequence number it would have had,
//! a timer that does fire fires exactly where an eager `schedule_at` would
//! have put it, and [`Sim::cancel_timer`] makes the rest disappear without
//! ever being queued or dispatched. That is the point of the lane: an RPC
//! timeout is armed on every op and almost never fires, so as plain events
//! the timeouts of the last `rpc_timeout` of virtual time would all sit in
//! the event heap, and each would be popped and counted in
//! [`Sim::dispatched`] only to be ignored.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::slab::{OpKey, Slab};
use crate::time::SimTime;

/// Handle to a timer armed with [`Sim::timer_at`], for [`Sim::cancel_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId(OpKey);

/// Simulation context threaded through all model code.
pub struct Sim<E> {
    now: SimTime,
    queue: EventQueue<E>,
    rng: SimRng,
    dispatched: u64,
    /// Payloads of the timers parked outside the queue. A key in `parked`
    /// with no entry here is a cancelled timer.
    timers: Slab<E>,
    /// `(time, seq, payload key)` of every parked timer, earliest first;
    /// cancelled ones are dropped when they surface.
    parked: BinaryHeap<Reverse<(SimTime, u64, OpKey)>>,
    /// `(time, seq)` of the earliest timer moved into the queue and not yet
    /// popped. It sorts before everything in `parked`, and popping it is
    /// what moves the next parked timer in, so no timer can be passed over.
    armed: Option<(SimTime, u64)>,
}

impl<E> Sim<E> {
    /// Create a simulation starting at time zero with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self {
            now: 0,
            queue: EventQueue::new(),
            rng: SimRng::new(seed),
            dispatched: 0,
            timers: Slab::new(),
            parked: BinaryHeap::new(),
            armed: None,
        }
    }

    /// The current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far (a cheap progress/size metric).
    #[inline]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Pending event count, live parked timers included.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len() + self.timers.len()
    }

    /// The simulation RNG.
    #[inline]
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedule `event` to fire `delay` microseconds from now.
    #[inline]
    pub fn schedule_in(&mut self, delay: u64, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedule `event` at an absolute virtual time. Scheduling in the past
    /// is a model bug; it fires immediately (clamped to `now`) in release
    /// builds and panics in debug builds.
    #[inline]
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        debug_assert!(
            time >= self.now,
            "event scheduled in the past: {time} < {}",
            self.now
        );
        self.queue.push(time.max(self.now), event);
    }

    /// Arm a cancellable timer: `event` fires at `time` (clamped to `now`
    /// like [`Sim::schedule_at`]) in exactly the dispatch position a
    /// `schedule_at` made now would give it, unless [`Sim::cancel_timer`]
    /// gets there first.
    pub fn timer_at(&mut self, time: SimTime, event: E) -> TimerId {
        debug_assert!(
            time >= self.now,
            "timer armed in the past: {time} < {}",
            self.now
        );
        let time = time.max(self.now);
        let seq = self.queue.reserve_seq();
        if self.armed.is_none_or(|head| (time, seq) < head) {
            // Earlier than every other timer: this is the one the queue
            // holds. A displaced head stays queued as a plain event.
            self.queue.push_seq(time, seq, event);
            self.armed = Some((time, seq));
            return TimerId(OpKey::NONE);
        }
        let key = self.timers.insert(event);
        self.parked.push(Reverse((time, seq, key)));
        TimerId(key)
    }

    /// Cancel a timer. One that is still parked will never be dispatched; one
    /// that already fired, was already cancelled, or has been moved into the
    /// queue as the earliest timer is left alone — so the receiver of a timer
    /// event must tolerate a dead one.
    #[inline]
    pub fn cancel_timer(&mut self, id: TimerId) {
        if self.timers.remove(id.0).is_none() {
            return;
        }
        // Drop cancelled timers as they surface, so the heap holds about as
        // many entries as there are live timers, not every timer armed in
        // the last timeout's worth of virtual time.
        while let Some(&Reverse((_, _, key))) = self.parked.peek() {
            if self.timers.get(key).is_some() {
                break;
            }
            self.parked.pop();
        }
    }

    /// The earliest timer has just been popped: queue the next live one.
    fn arm_next_timer(&mut self) {
        self.armed = None;
        while let Some(Reverse((time, seq, key))) = self.parked.pop() {
            if let Some(event) = self.timers.remove(key) {
                self.queue.push_seq(time, seq, event);
                self.armed = Some((time, seq));
                return;
            }
        }
    }

    /// Advance the clock to the next event and return it, or `None` when the
    /// simulation has quiesced. (Named like — but deliberately not an —
    /// `Iterator`: advancing mutates the clock that concurrently-held
    /// resources read.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<E> {
        let (t, seq, ev) = self.queue.pop_seq()?;
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.dispatched += 1;
        if self.armed == Some((t, seq)) {
            self.arm_next_timer();
        }
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.schedule_in(100, 1);
        sim.schedule_in(50, 2);
        sim.schedule_at(75, 3);
        let mut last = 0;
        let mut order = Vec::new();
        while let Some(ev) = sim.next() {
            assert!(sim.now() >= last);
            last = sim.now();
            order.push((sim.now(), ev));
        }
        assert_eq!(order, vec![(50, 2), (75, 3), (100, 1)]);
        assert_eq!(sim.dispatched(), 3);
    }

    #[test]
    fn events_scheduled_during_dispatch_fire_later() {
        let mut sim: Sim<&'static str> = Sim::new(1);
        sim.schedule_in(10, "first");
        let mut log = Vec::new();
        while let Some(ev) = sim.next() {
            log.push((sim.now(), ev));
            if ev == "first" {
                sim.schedule_in(5, "second");
            }
        }
        assert_eq!(log, vec![(10, "first"), (15, "second")]);
    }

    #[test]
    fn zero_delay_event_fires_at_same_instant_after_current() {
        let mut sim: Sim<u8> = Sim::new(1);
        sim.schedule_in(0, 1);
        assert_eq!(sim.next(), Some(1));
        assert_eq!(sim.now(), 0);
    }

    #[test]
    fn rng_is_seed_deterministic() {
        let mut a: Sim<()> = Sim::new(99);
        let mut b: Sim<()> = Sim::new(99);
        use rand::RngCore;
        assert_eq!(a.rng().next_u64(), b.rng().next_u64());
    }

    #[test]
    fn pending_counts_queue_size() {
        let mut sim: Sim<u8> = Sim::new(0);
        assert_eq!(sim.pending(), 0);
        sim.schedule_in(1, 0);
        sim.schedule_in(2, 0);
        assert_eq!(sim.pending(), 2);
    }

    /// Drain the simulation into a `(time, payload)` log.
    fn drain(sim: &mut Sim<u32>) -> Vec<(SimTime, u32)> {
        let mut log = Vec::new();
        while let Some(ev) = sim.next() {
            log.push((sim.now(), ev));
        }
        log
    }

    #[test]
    fn timers_fire_where_a_scheduled_event_would() {
        let mut sim: Sim<u32> = Sim::new(1);
        // Armed out of deadline order, with same-instant ties against plain
        // events on both sides: `(time, arm order)` decides, as for events.
        sim.schedule_at(50, 0);
        sim.timer_at(50, 1);
        sim.schedule_at(50, 2);
        sim.timer_at(20, 3);
        sim.timer_at(5_000_000, 4);
        sim.timer_at(50, 5);
        assert_eq!(sim.pending(), 6);
        assert_eq!(
            drain(&mut sim),
            vec![(20, 3), (50, 0), (50, 1), (50, 2), (50, 5), (5_000_000, 4)]
        );
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn a_cancelled_timer_is_never_dispatched() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.timer_at(10, 0);
        let parked = sim.timer_at(20, 1);
        sim.timer_at(30, 2);
        sim.cancel_timer(parked);
        sim.cancel_timer(parked); // twice is once
        assert_eq!(drain(&mut sim), vec![(10, 0), (30, 2)]);
        assert_eq!(sim.dispatched(), 2);
        sim.cancel_timer(parked); // after the fact: nothing to do
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn cancelling_after_the_slot_was_reused_hits_nothing() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.timer_at(10, 0);
        let old = sim.timer_at(20, 1);
        sim.cancel_timer(old);
        let new = sim.timer_at(25, 2); // takes the freed payload slot
        assert_ne!(old, new);
        sim.cancel_timer(old);
        assert_eq!(drain(&mut sim), vec![(10, 0), (25, 2)]);
    }

    #[test]
    fn thousand_armed_then_cancelled_timers_cost_one_dispatch() {
        // The shape of an RPC timeout: armed with the op, cancelled when the
        // op settles a few microseconds later, two virtual seconds early.
        let mut sim: Sim<u32> = Sim::new(1);
        const OP: u32 = 0;
        const TIMEOUT: u32 = 1;
        for _ in 0..1_000 {
            sim.schedule_in(5, OP);
            let timeout = sim.timer_at(sim.now() + 2_000_000, TIMEOUT);
            assert_eq!(sim.next(), Some(OP));
            sim.cancel_timer(timeout);
        }
        assert!(sim.timers.is_empty(), "cancelling frees the payload");
        assert!(
            sim.parked.is_empty(),
            "cancelled keys are dropped as they surface"
        );
        // Only the very first timer was the earliest when it was armed, so
        // it alone reached the queue before it was cancelled.
        assert_eq!(drain(&mut sim), vec![(2_000_000, TIMEOUT)]);
        assert_eq!(sim.dispatched(), 1_001);
    }
}
