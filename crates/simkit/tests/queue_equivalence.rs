//! Differential property tests: the calendar queue must pop the exact
//! `(time, seq)` total order of the reference binary heap under arbitrary
//! push/pop interleavings. Since every simulation result is a pure
//! function of dispatch order, this equivalence is what makes the queue
//! swap invisible to every experiment.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use simkit::EventQueue;

/// The reference: a binary min-heap on `(time, insertion seq)` — the
/// queue the simulator originally ran on, kept here as the oracle.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    seq: u64,
}

/// What a schedule replays against.
trait Queue {
    fn push(&mut self, time: u64, event: u64);
    fn pop(&mut self) -> Option<(u64, u64)>;
}

impl Queue for HeapQueue {
    fn push(&mut self, time: u64, event: u64) {
        self.heap.push(Reverse((time, self.seq, event)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse((t, _, ev))| (t, ev))
    }
}

impl Queue for EventQueue<u64> {
    fn push(&mut self, time: u64, event: u64) {
        EventQueue::push(self, time, event);
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        EventQueue::pop(self)
    }
}

/// One step of an interleaved schedule.
#[derive(Debug, Clone)]
enum Step {
    /// Push at `last_popped_time + offset` (queues forbid the past once
    /// popping starts; offsets keep schedules valid by construction).
    Push(u64),
    /// Pop once and record the result.
    Pop,
}

/// Decode a raw `(selector, value)` pair into a schedule step, weighting
/// the regimes the wheel must handle: near-future pushes (its fast path),
/// same-instant ties (insertion order is the only order left), far-future
/// pushes (the overflow lane), and pops.
fn decode(sel: u8, raw: u64) -> Step {
    match sel {
        // Mostly near-future pushes: the regime the wheel optimizes.
        0..=3 => Step::Push(raw % 2_000),
        // Same-instant pushes: tie-break order must match exactly.
        4 => Step::Push(0),
        // Far-future pushes: exercise the overflow lane and migration.
        5 => Step::Push(2_000_000 + raw % 4_000_000_000),
        _ => Step::Pop,
    }
}

/// A pop log: the `(time, event)` sequence one queue produced.
type PopLog = Vec<(u64, u64)>;

/// Replay one schedule against `q` and return the pop log.
fn replay(steps: &[Step], mut q: impl Queue) -> PopLog {
    let mut log = Vec::new();
    let mut clock = 0u64; // last popped time: the sim's `now`
    let mut id = 0u64;
    for step in steps {
        match step {
            Step::Push(offset) => {
                q.push(clock + offset, id);
                id += 1;
            }
            Step::Pop => {
                if let Some((t, ev)) = q.pop() {
                    assert!(t >= clock, "time went backwards");
                    clock = t;
                    log.push((t, ev));
                }
            }
        }
    }
    // Drain what's left: the full order must agree, not just a prefix.
    while let Some((t, ev)) = q.pop() {
        assert!(t >= clock);
        clock = t;
        log.push((t, ev));
    }
    log
}

/// Run one schedule against the calendar queue and the heap oracle.
fn run_both(steps: &[Step]) -> (PopLog, PopLog) {
    (
        replay(steps, EventQueue::new()),
        replay(steps, HeapQueue::default()),
    )
}

/// One step of a schedule that also queues events late, under sequence
/// numbers reserved earlier — what `Sim`'s timer lane does.
#[derive(Debug, Clone)]
enum ReservedStep {
    /// An ordinary push or pop.
    Plain(Step),
    /// Reserve the next sequence number for an event at
    /// `last_popped_time + offset` and hold the event back.
    Reserve(u64),
    /// Queue the `n % held`-th held event now, ahead of need.
    Release(usize),
}

/// A schedule with held-back events replayed against the calendar queue and
/// the heap at once. The heap gets every event when its number is reserved;
/// the calendar queue gets a held one through `push_seq` at a `Release`
/// step, or at the latest just before the pop that is due to return it — so
/// held events go in out of reservation order, into buckets the cursor has
/// already sorted, and behind later numbers at the same instant.
#[derive(Default)]
struct ReservedReplay {
    calendar: EventQueue<u64>,
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    /// `(time, seq, event)` reserved and not yet given to the calendar queue.
    held: Vec<(u64, u64, u64)>,
    next_seq: u64,
    clock: u64,
    calendar_log: PopLog,
    heap_log: PopLog,
}

impl ReservedReplay {
    fn step(&mut self, step: &ReservedStep, id: u64) {
        match *step {
            ReservedStep::Plain(Step::Push(offset)) => {
                self.calendar.push(self.clock + offset, id);
                self.heap
                    .push(Reverse((self.clock + offset, self.next_seq, id)));
                self.next_seq += 1;
            }
            ReservedStep::Reserve(offset) => {
                let seq = self.calendar.reserve_seq();
                assert_eq!(seq, self.next_seq, "reserving draws on the push counter");
                self.next_seq += 1;
                self.held.push((self.clock + offset, seq, id));
                self.heap.push(Reverse((self.clock + offset, seq, id)));
            }
            ReservedStep::Release(n) => {
                if !self.held.is_empty() {
                    let (time, seq, event) = self.held.swap_remove(n % self.held.len());
                    self.calendar.push_seq(time, seq, event);
                }
            }
            ReservedStep::Plain(Step::Pop) => {
                self.pop();
            }
        }
    }

    /// Pop both queues once; false when the heap is empty.
    fn pop(&mut self) -> bool {
        let Some(Reverse(due)) = self.heap.pop() else {
            assert_eq!(self.calendar.pop(), None);
            return false;
        };
        if let Some(i) = self.held.iter().position(|&h| h == due) {
            self.held.swap_remove(i);
            self.calendar.push_seq(due.0, due.1, due.2);
        }
        self.heap_log.push((due.0, due.2));
        self.calendar_log.extend(self.calendar.pop());
        self.clock = due.0;
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Events queued late under reserved sequence numbers, in any order,
    /// pop exactly where an eager push at reservation time would have put
    /// them.
    #[test]
    fn reserved_seqs_pushed_out_of_order_match_heap(
        raw in prop::collection::vec((0u8..14, 0u64..u64::MAX / 2), 0..400)
    ) {
        let steps: Vec<ReservedStep> = raw
            .iter()
            .map(|&(s, v)| match s {
                9 | 10 => ReservedStep::Reserve(v % 2_000),
                11 => ReservedStep::Reserve(0),
                12 => ReservedStep::Reserve(2_000_000 + v % 4_000_000_000),
                13 => ReservedStep::Release(v as usize),
                _ => ReservedStep::Plain(decode(s, v)),
            })
            .collect();
        let mut replay = ReservedReplay::default();
        for (id, step) in steps.iter().enumerate() {
            replay.step(step, id as u64);
        }
        while replay.pop() {}
        prop_assert_eq!(replay.calendar_log, replay.heap_log);
    }

    /// Arbitrary interleavings: identical pop sequences, event for event.
    #[test]
    fn calendar_matches_heap(
        raw in prop::collection::vec((0u8..9, 0u64..u64::MAX / 2), 0..400)
    ) {
        let steps: Vec<Step> = raw.iter().map(|&(s, v)| decode(s, v)).collect();
        let (calendar, heap) = run_both(&steps);
        prop_assert_eq!(calendar, heap);
    }

    /// All-ties stress: every event at the same instant; insertion order
    /// is the only order left and both queues must honour it.
    #[test]
    fn same_instant_ties_preserve_insertion_order(n in 0usize..300) {
        let steps: Vec<Step> = vec![Step::Push(0); n];
        let (calendar, heap) = run_both(&steps);
        prop_assert_eq!(calendar.clone(), heap);
        for (i, &(t, ev)) in calendar.iter().enumerate() {
            prop_assert_eq!(t, 0);
            prop_assert_eq!(ev, i as u64);
        }
    }

    /// Far-future-only schedules live entirely in the overflow lane and
    /// still match the heap through migration and wheel fast-forwards.
    #[test]
    fn overflow_lane_matches_heap(
        offsets in prop::collection::vec(1_000_000u64..1 << 40, 1..100)
    ) {
        let steps: Vec<Step> = offsets
            .iter()
            .flat_map(|&o| [Step::Push(o), Step::Pop])
            .collect();
        let (calendar, heap) = run_both(&steps);
        prop_assert_eq!(calendar, heap);
    }
}
