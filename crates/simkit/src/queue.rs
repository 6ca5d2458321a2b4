//! The event queue: a binary min-heap ordered by `(time, sequence)`.
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

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
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

/// A time-ordered queue of simulation events: a binary heap dispatching in
/// the total `(time, seq)` order, where `seq` is the insertion count.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Sequence number the next pushed event gets.
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue. It allocates nothing until the first push.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `time`.
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
        self.heap.push(Entry { time, seq, event });
    }

    /// Remove and return the earliest event, with its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_seq().map(|(time, _, event)| (time, event))
    }

    /// [`EventQueue::pop`] that also returns the event's sequence number.
    pub(crate) fn pop_seq(&mut self) -> Option<(SimTime, u64, E)> {
        self.heap.pop().map(|e| (e.time, e.seq, e.event))
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        q.push(1, 1);
        q.push(20, 20);
        assert_eq!(q.pop(), Some((1, 1)));
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
