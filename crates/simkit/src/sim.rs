//! The simulation context: virtual clock + event queue + RNG.
//!
//! A `Sim<E>` is handed to every model method. Models schedule follow-up
//! events with [`Sim::schedule_in`] / [`Sim::schedule_at`]; the experiment
//! driver repeatedly calls [`Sim::next`] and dispatches each event to the
//! owning model. Event payload types are caller-defined, and store crates
//! stay queue-agnostic by being generic over any payload `W: From<StoreEvent>`.

use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::SimTime;

/// Simulation context threaded through all model code.
pub struct Sim<E> {
    now: SimTime,
    queue: EventQueue<E>,
    rng: SimRng,
    dispatched: u64,
}

impl<E> Sim<E> {
    /// Create a simulation starting at time zero with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self {
            now: 0,
            queue: EventQueue::new(),
            rng: SimRng::new(seed),
            dispatched: 0,
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

    /// Pending event count.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
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

    /// Advance the clock to the next event and return it, or `None` when the
    /// simulation has quiesced. (Named like — but deliberately not an —
    /// `Iterator`: advancing mutates the clock that concurrently-held
    /// resources read.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<E> {
        let (t, ev) = self.queue.pop()?;
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.dispatched += 1;
        Some(ev)
    }

    /// Fire time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
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
        assert_eq!(sim.peek_time(), Some(1));
    }
}
