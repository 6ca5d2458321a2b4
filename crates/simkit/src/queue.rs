//! The event queue: a binary min-heap ordered by `(time, sequence)`, and
//! beside it a slot for one event that sorts before the heap's top.
//!
//! The sequence number makes dispatch order total and deterministic: two
//! events scheduled for the same instant fire in the order they were
//! scheduled, independent of container internals. `tests/queue_equivalence.rs`
//! checks the pop order against a plain heap of `(time, seq, event)` tuples,
//! late `push_seq`s under reserved numbers included.
//!
//! A heap costs `O(log n)` per push and pop. The figures and benchmark
//! workloads keep tens to hundreds of events pending (fig10's overload
//! ladder peaks near 14k), so that is a handful of sift levels, and one
//! growable buffer is all it allocates. The events that would make the heap large — an RPC
//! timeout armed on every op and almost always cancelled — never enter it:
//! they are [`crate::Sim`] timers, of which only the earliest is ever
//! queued here.
//!
//! Many pushes — a tenth to a half of them in the benchmark workloads —
//! are the earliest event pending, popped next. Such an event goes to the
//! slot, not the heap: a later push that sorts before it moves it into the
//! heap and takes its place, and `pop` takes it before the heap's top. The
//! slot's event thus always sorts first, and the pop order stays the
//! total `(time, seq)` order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// True when `self` fires before `other`.
    #[inline]
    fn before(&self, other: &Self) -> bool {
        (self.time, self.seq) < (other.time, other.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest event first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of simulation events: a binary heap and one held
/// event before its top, dispatching in the total `(time, seq)` order,
/// where `seq` is the insertion count.
pub struct EventQueue<E> {
    /// The earliest pending event, when it has not entered the heap: it
    /// sorts before the heap's top.
    first: Option<Entry<E>>,
    heap: BinaryHeap<Entry<E>>,
    /// Sequence number the next pushed event gets.
    seq: u64,
    /// Debug builds: `(time, seq)` of the last popped event, which every
    /// later push must sort after.
    #[cfg(debug_assertions)]
    popped: Option<(SimTime, u64)>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue. It allocates nothing until the heap's first
    /// push.
    pub fn new() -> Self {
        Self {
            first: None,
            heap: BinaryHeap::new(),
            seq: 0,
            #[cfg(debug_assertions)]
            popped: None,
        }
    }

    /// Schedule `event` to fire at absolute time `time`, which must not
    /// precede the last popped event's.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.reserve_seq();
        self.push_seq(time, seq, event);
    }

    /// Take the sequence number the next [`EventQueue::push`] would have
    /// used, for an event that is queued later through
    /// [`EventQueue::push_seq`] and must still fire where a push made now
    /// would have put it.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// [`EventQueue::push`] under a sequence number from
    /// [`EventQueue::reserve_seq`]. Reserved numbers may be queued in any
    /// order, each once, and `(time, seq)` must sort after the last popped
    /// event: the pop order stays the total `(time, seq)` order.
    pub fn push_seq(&mut self, time: SimTime, seq: u64, event: E) {
        #[cfg(debug_assertions)]
        if let Some(popped) = self.popped {
            debug_assert!(
                (time, seq) > popped,
                "event ({time}, {seq}) pushed behind the popped ({}, {})",
                popped.0,
                popped.1
            );
        }
        let entry = Entry { time, seq, event };
        let earliest = match &self.first {
            Some(first) => entry.before(first),
            None => self.heap.peek().is_none_or(|top| entry.before(top)),
        };
        if !earliest {
            self.heap.push(entry);
        } else if let Some(later) = self.first.replace(entry) {
            self.heap.push(later);
        }
        self.debug_check();
    }

    /// Remove and return the earliest event, with its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_seq().map(|(time, _, event)| (time, event))
    }

    /// [`EventQueue::pop`] that also returns the event's sequence number.
    pub(crate) fn pop_seq(&mut self) -> Option<(SimTime, u64, E)> {
        self.debug_check();
        let e = self.first.take().or_else(|| self.heap.pop())?;
        #[cfg(debug_assertions)]
        {
            self.popped = Some((e.time, e.seq));
        }
        Some((e.time, e.seq, e.event))
    }

    /// Debug builds: the held event sorts before the heap's top.
    #[inline]
    fn debug_check(&self) {
        if let (Some(first), Some(top)) = (&self.first, self.heap.peek()) {
            debug_assert!(
                first.before(top),
                "held event ({}, {}) after the heap's top ({}, {})",
                first.time,
                first.seq,
                top.time,
                top.seq
            );
        }
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len() + usize::from(self.first.is_some())
    }

    /// True when no events are pending.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, 3);
        q.push(10, 1);
        q.push(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventQueue::new();
        q.push(7, 0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(10, 10);
        q.push(5, 5);
        assert_eq!(q.pop(), Some((5, 5)));
        q.push(7, 7);
        q.push(20, 20);
        assert_eq!(q.pop(), Some((7, 7)));
        assert_eq!(q.pop(), Some((10, 10)));
        assert_eq!(q.pop(), Some((20, 20)));
    }

    #[test]
    fn far_future_events_round_trip() {
        let mut q = EventQueue::new();
        // Seconds to eons ahead, pushed out of order around a near event.
        q.push(10_000_000, 1);
        q.push(3_000_000, 2);
        q.push(500, 3);
        q.push(u64::MAX / 2, 4);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((500, 3)));
        assert_eq!(q.pop(), Some((3_000_000, 2)));
        assert_eq!(q.pop(), Some((10_000_000, 1)));
        assert_eq!(q.pop(), Some((u64::MAX / 2, 4)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pushes_at_the_popped_instant_keep_order() {
        let mut q = EventQueue::new();
        q.push(100, 0);
        q.push(101, 1);
        assert_eq!(q.pop(), Some((100, 0)));
        q.push(101, 9); // after (101, seq=1) by seq
        q.push(100, 8); // same instant as the popped event
        assert_eq!(q.pop(), Some((100, 8)));
        assert_eq!(q.pop(), Some((101, 1)));
        assert_eq!(q.pop(), Some((101, 9)));
    }

    #[test]
    fn sparse_times_pop_in_order() {
        let mut q = EventQueue::new();
        // A minute apart each.
        for i in 0..50u64 {
            q.push(i * 60_000_000, i as i32);
        }
        for i in 0..50u64 {
            assert_eq!(q.pop(), Some((i * 60_000_000, i as i32)));
        }
    }

    /// The held event's `(time, seq)`, and the heap's length.
    fn held(q: &EventQueue<i32>) -> (Option<(SimTime, u64)>, usize) {
        (q.first.as_ref().map(|e| (e.time, e.seq)), q.heap.len())
    }

    #[test]
    fn an_earlier_push_demotes_the_held_event() {
        let mut q = EventQueue::new();
        q.push(10, 1);
        assert_eq!(held(&q), (Some((10, 0)), 0));
        q.push(5, 2);
        assert_eq!(held(&q), (Some((5, 1)), 1));
        q.push(7, 3);
        assert_eq!(held(&q), (Some((5, 1)), 2));
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(held(&q), (None, 2));
        // Earlier than the heap's top: held, not heaped.
        q.push(6, 4);
        assert_eq!(held(&q), (Some((6, 3)), 2));
        assert_eq!(q.pop(), Some((6, 4)));
        assert_eq!(q.pop(), Some((7, 3)));
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(held(&q), (None, 0));
    }

    #[test]
    fn a_same_instant_later_seq_goes_behind_the_held_event() {
        let mut q = EventQueue::new();
        q.push(10, 1);
        q.push(10, 2);
        assert_eq!(held(&q), (Some((10, 0)), 1));
        assert_eq!(q.pop(), Some((10, 1)));
        // The heap's top ties on time and wins on seq.
        q.push(10, 3);
        assert_eq!(held(&q), (None, 2));
        assert_eq!(q.pop(), Some((10, 2)));
        assert_eq!(q.pop(), Some((10, 3)));
    }

    #[test]
    fn an_earlier_reserved_seq_pops_first() {
        let mut q = EventQueue::new();
        let reserved = q.reserve_seq();
        q.push(10, 1);
        assert_eq!(held(&q), (Some((10, 1)), 0));
        q.push_seq(10, reserved, 2);
        assert_eq!(held(&q), (Some((10, reserved)), 1));
        assert_eq!(q.pop_seq(), Some((10, reserved, 2)));
        assert_eq!(q.pop_seq(), Some((10, 1, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pushed behind the popped (10, 1)")]
    fn a_push_behind_the_popped_event_panics_in_debug_builds() {
        let mut q = EventQueue::new();
        let reserved = q.reserve_seq();
        q.push(10, 1);
        assert_eq!(q.pop(), Some((10, 1)));
        // Same instant, but reserved before the popped event's number.
        q.push_seq(10, reserved, 2);
    }

    #[test]
    fn far_events_interleave_with_later_near_pushes() {
        let mut q = EventQueue::new();
        q.push(2_000_000, 1);
        q.push(100, 2);
        assert_eq!(q.pop(), Some((100, 2)));
        // New events on either side of the far one, pushed after a pop.
        q.push(1_999_999, 3);
        q.push(2_000_001, 4);
        assert_eq!(q.pop(), Some((1_999_999, 3)));
        assert_eq!(q.pop(), Some((2_000_000, 1)));
        assert_eq!(q.pop(), Some((2_000_001, 4)));
    }
}
