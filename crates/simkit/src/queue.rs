//! The event queue: a bucketed calendar queue ordered by `(time, sequence)`.
//!
//! The sequence number makes dispatch order total and deterministic: two
//! events scheduled for the same instant fire in the order they were
//! scheduled, independent of container internals. The pop order is exactly
//! that of a binary heap on `(time, seq)`; `tests/queue_equivalence.rs`
//! keeps such a heap as the differential oracle.
//!
//! # Why a calendar queue
//!
//! A discrete-event simulation pops every event it pushes, in near-time
//! order. A binary heap pays `O(log n)` comparisons *and* `O(log n)`
//! whole-payload moves per operation (event payloads here are fat enums of
//! 50–150 bytes, so each sift level is a memcpy). The calendar queue
//! instead hashes each event to a time bucket in O(1); only the single
//! bucket at the cursor is kept sorted, and buckets hold a handful of
//! events each at realistic pending counts, so pushes are appends and pops
//! are pops-from-the-end almost always.
//!
//! Layout: a power-of-two ring of `BUCKETS` buckets, each `1 << shift`
//! microseconds wide, covering a rotating window of `BUCKETS << shift`
//! microseconds from the cursor. Events beyond the window land in a
//! far-future overflow lane (a min-heap on `(time, seq)`) and migrate into
//! the wheel when the window reaches them. Events inside the window go
//! straight to their bucket, unsorted; a bucket is sorted lazily when the
//! cursor reaches it, and same-bucket pushes after that point insert in
//! order (binary search).
//!
//! The bucket width adapts to event density, following Brown's classic
//! calendar-queue design: when the cursor bucket comes up fat the wheel
//! narrows (so pushes spread across many cheap unsorted buckets instead of
//! binary-inserting into one huge sorted one), and when the cursor keeps
//! crossing empty buckets it widens (so sparse schedules don't pay a long
//! walk per event). Rebuilds redistribute in O(pending) and are triggered
//! geometrically, so their cost amortizes away; they change only the
//! internal layout, never the `(time, seq)` pop order.

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

/// Initial log2 of the bucket width: 256 µs buckets, sized for the cluster
/// models' typical follow-up delays. The wheel adapts from here.
const INIT_SHIFT: u32 = 8;
/// Widest bucket the wheel will adapt to: 2^22 µs ≈ 4.2 s per bucket
/// (window ≈ 4.8 h), enough for fault plans and GC-pause cadences.
const MAX_SHIFT: u32 = 22;
/// Bucket count (power of two). At the initial width the window is
/// 4096 × 256 µs ≈ 1.05 s, and it shrinks as the wheel narrows under a
/// loaded schedule, so anything scheduled seconds ahead — GC pause
/// intervals, fault plans, and a 2 s RPC timeout — takes the overflow lane.
/// That is why the per-op timeouts are [`crate::Sim`] timers, of which only
/// the earliest is ever queued here, and not plain events.
const BUCKETS: usize = 4096;
const BUCKET_MASK: u64 = (BUCKETS as u64) - 1;
/// A cursor bucket fatter than this at sort time triggers narrowing
/// (unless already at 1 µs buckets, where ties simply pile up).
const NARROW_LIMIT: usize = 64;
/// Target cursor-bucket population a narrow aims for.
const NARROW_TARGET: usize = 8;
/// This many consecutive empty-bucket advances trigger widening.
const WIDEN_LIMIT: u32 = 256;

/// A time-ordered queue of simulation events: a bucketed calendar queue
/// (time wheel with a sorted-overflow far-future lane) dispatching in the
/// total `(time, seq)` order, where `seq` is the insertion count.
pub struct EventQueue<E> {
    /// The ring of buckets. Bucket index of an in-window event is
    /// `(time >> shift) & BUCKET_MASK`.
    buckets: Vec<Vec<Entry<E>>>,
    /// Log2 of the current bucket width in µs (adaptive).
    shift: u32,
    /// Inclusive low edge of the cursor's bucket. Every queued in-wheel
    /// event has `time >= wheel_start` and `time < wheel_start + window`.
    wheel_start: SimTime,
    /// Events stored in wheel buckets.
    wheel_len: usize,
    /// True once the cursor bucket has been sorted (descending, so the
    /// earliest entry pops from the end). Pushes into the sorted cursor
    /// bucket insert in place to keep the invariant.
    cursor_sorted: bool,
    /// Consecutive empty-bucket cursor advances since the last pop; the
    /// widen trigger's counter.
    empty_steps: u32,
    /// Far-future lane: a min-heap on `(time, seq)` of events at or beyond
    /// `wheel_start + window`. An event migrates into the wheel when the
    /// window reaches it (at most once per wheel geometry).
    overflow: BinaryHeap<Entry<E>>,
    /// Sequence number the next pushed event gets.
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(BUCKETS);
        buckets.resize_with(BUCKETS, Vec::new);
        Self {
            buckets,
            shift: INIT_SHIFT,
            wheel_start: 0,
            wheel_len: 0,
            cursor_sorted: false,
            empty_steps: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Current bucket width in µs.
    #[inline]
    fn width(&self) -> u64 {
        1 << self.shift
    }

    /// Exclusive high edge of the wheel window.
    #[inline]
    fn window_end(&self) -> SimTime {
        self.wheel_start + ((BUCKETS as u64) << self.shift)
    }

    #[inline]
    fn bucket_of(&self, time: SimTime) -> usize {
        ((time >> self.shift) & BUCKET_MASK) as usize
    }

    #[inline]
    fn cursor(&self) -> usize {
        self.bucket_of(self.wheel_start)
    }

    /// Re-key every wheel event into a new bucket geometry. O(pending);
    /// triggered geometrically, so the cost amortizes to O(1) per event.
    /// Pop order is untouched: only the layout changes.
    fn rebuild(&mut self, new_shift: u32) {
        let mut scratch: Vec<Entry<E>> = Vec::with_capacity(self.wheel_len);
        for b in &mut self.buckets {
            scratch.append(b);
        }
        self.shift = new_shift;
        // Align the anchor down to the new width; every wheel event's time
        // is >= wheel_start, so rounding down keeps that invariant.
        self.wheel_start &= !(self.width() - 1);
        self.wheel_len = 0;
        self.cursor_sorted = false;
        let end = self.window_end();
        // Narrowing can spill most of the wheel into the overflow lane in
        // one burst; reserving the exact count avoids the BinaryHeap's
        // doubling transient (old + new buffer live at once) while `scratch`
        // still holds every entry — that coincidence is what sets the
        // process RSS high-water mark at large pending populations.
        let spill = scratch.iter().filter(|e| e.time >= end).count();
        self.overflow.reserve(spill);
        for e in scratch {
            if e.time >= end {
                // Narrowing shrank the window below this event; it waits
                // in the overflow lane like any far-future event.
                self.overflow.push(e);
            } else {
                let idx = self.bucket_of(e.time);
                self.buckets[idx].push(e);
                self.wheel_len += 1;
            }
        }
        // Widening may have grown the window over overflow events.
        self.migrate_overflow();
    }

    /// Schedule `event` to fire at absolute time `time`. `time` may be below
    /// `wheel_start` only before the first pop (the wheel re-anchors then).
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
        if time >= self.window_end() || time < self.wheel_start {
            // Far future — or, before the first pop, behind the initial
            // anchor: both take the ordered overflow lane. Pops migrate
            // and re-anchor as needed.
            self.overflow.push(Entry { time, seq, event });
            return;
        }
        let idx = self.bucket_of(time);
        let cursor = self.cursor();
        let bucket = &mut self.buckets[idx];
        if self.cursor_sorted && idx == cursor {
            // The cursor bucket is kept sorted descending; insert in place.
            let pos = bucket.partition_point(|e| (e.time, e.seq) > (time, seq));
            bucket.insert(pos, Entry { time, seq, event });
        } else {
            bucket.push(Entry { time, seq, event });
        }
        self.wheel_len += 1;
    }

    /// Remove and return the earliest event, with its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_seq().map(|(time, _, event)| (time, event))
    }

    /// [`EventQueue::pop`] that also returns the event's sequence number.
    pub fn pop_seq(&mut self) -> Option<(SimTime, u64, E)> {
        loop {
            if self.wheel_len == 0 {
                // Wheel drained: fast-forward to the overflow minimum.
                let head = self.overflow.peek()?;
                let anchor = head.time & !(self.width() - 1);
                self.wheel_start = anchor;
                self.cursor_sorted = false;
                self.empty_steps = 0;
                self.migrate_overflow();
                continue;
            }
            let cursor = self.cursor();
            if self.buckets[cursor].is_empty() {
                // Advance one bucket; pull any overflow events the moving
                // window has just reached.
                self.wheel_start += self.width();
                self.cursor_sorted = false;
                self.empty_steps += 1;
                if self.empty_steps >= WIDEN_LIMIT && self.shift < MAX_SHIFT {
                    // The schedule is sparse at this width: widen so a pop
                    // costs a few bucket steps, not hundreds.
                    self.empty_steps = 0;
                    self.rebuild((self.shift + 2).min(MAX_SHIFT));
                    continue;
                }
                self.migrate_overflow();
                continue;
            }
            if !self.cursor_sorted {
                let len = self.buckets[cursor].len();
                if len > NARROW_LIMIT && self.shift > 0 {
                    // The schedule is dense at this width: narrow so this
                    // population spreads over ~len/NARROW_TARGET unsorted
                    // buckets instead of one huge sorted one. Same-instant
                    // ties cannot split, so the delta caps at shift 0.
                    let mut delta = 0;
                    while (len >> delta) > NARROW_TARGET && delta < self.shift {
                        delta += 1;
                    }
                    if delta > 0 {
                        self.rebuild(self.shift - delta);
                        continue;
                    }
                }
                // Sort descending so the earliest entry is at the end.
                // Buckets usually fill already ascending — same-tick events
                // arrive in seq order, migrations append in heap order — so
                // detect that case and reverse in O(len) instead.
                let bucket = &mut self.buckets[cursor];
                let ascending = bucket
                    .windows(2)
                    .all(|w| (w[0].time, w[0].seq) <= (w[1].time, w[1].seq));
                if ascending {
                    bucket.reverse();
                } else {
                    bucket.sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
                }
                self.cursor_sorted = true;
            }
            // Checked non-empty above; an empty one is the loop's to advance.
            let Some(e) = self.buckets[cursor].pop() else {
                continue;
            };
            self.wheel_len -= 1;
            self.empty_steps = 0;
            return Some((e.time, e.seq, e.event));
        }
    }

    /// Move overflow events that now fall inside the window into their
    /// buckets. Amortized O(1) per event over a run: each migrates once.
    fn migrate_overflow(&mut self) {
        let end = self.window_end();
        while let Some(head) = self.overflow.peek() {
            if head.time >= end {
                break;
            }
            let Some(e) = self.overflow.pop() else {
                break;
            };
            debug_assert!(e.time >= self.wheel_start);
            let idx = self.bucket_of(e.time);
            if self.cursor_sorted && idx == self.cursor() {
                let key = (e.time, e.seq);
                let pos = self.buckets[idx].partition_point(|x| (x.time, x.seq) > key);
                self.buckets[idx].insert(pos, e);
            } else {
                self.buckets[idx].push(e);
            }
            self.wheel_len += 1;
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
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
        q.push(1, 1);
        q.push(20, 20);
        assert_eq!(q.pop(), Some((1, 1)));
        assert_eq!(q.pop(), Some((10, 10)));
        assert_eq!(q.pop(), Some((20, 20)));
    }

    #[test]
    fn far_future_overflow_lane_round_trips() {
        let mut q = EventQueue::new();
        // Beyond the ~1s wheel window: multi-second and far-future times.
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
    fn push_into_sorted_cursor_bucket_keeps_order() {
        let mut q = EventQueue::new();
        q.push(100, 0);
        q.push(101, 1);
        assert_eq!(q.pop(), Some((100, 0)));
        // The cursor bucket is now sorted; these land inside it.
        q.push(101, 9); // after (101, seq=1) by seq
        q.push(100, 8); // same instant as the popped event
        assert_eq!(q.pop(), Some((100, 8)));
        assert_eq!(q.pop(), Some((101, 1)));
        assert_eq!(q.pop(), Some((101, 9)));
    }

    #[test]
    fn sparse_times_fast_forward() {
        let mut q = EventQueue::new();
        // Each pop must fast-forward across an empty wheel, not walk it.
        for i in 0..50u64 {
            q.push(i * 60_000_000, i as i32);
        }
        for i in 0..50u64 {
            assert_eq!(q.pop(), Some((i * 60_000_000, i as i32)));
        }
    }

    #[test]
    fn overflow_migration_interleaves_with_window_events() {
        let mut q = EventQueue::new();
        q.push(2_000_000, 1); // overflow at anchor 0
        q.push(100, 2);
        assert_eq!(q.pop(), Some((100, 2)));
        // New events around the migrated one, pushed after the wheel moved.
        q.push(1_999_999, 3);
        q.push(2_000_001, 4);
        assert_eq!(q.pop(), Some((1_999_999, 3)));
        assert_eq!(q.pop(), Some((2_000_000, 1)));
        assert_eq!(q.pop(), Some((2_000_001, 4)));
    }
}
