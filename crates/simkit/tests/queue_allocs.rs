//! What the event queue allocates, counted by a global allocator (alone in
//! this test binary): nothing while empty or while one event is pending,
//! then one buffer that grows by doubling, so filling it with `n` events
//! allocates O(log n) times and a hold model at a steady population
//! allocates nothing at all.

use bytes::counting::{tally, Counting};
use simkit::{splitmix64, EventQueue};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// An event as fat as the cluster event enums.
type Event = [u64; 12];

#[test]
fn an_empty_queue_allocates_nothing() {
    let (mut q, made) = tally(EventQueue::<Event>::new);
    assert_eq!(made.allocs, 0, "new");
    let (_, made) = tally(EventQueue::<Event>::default);
    assert_eq!(made.allocs, 0, "default");
    let (popped, made) = tally(|| q.pop());
    assert!(popped.is_none());
    assert_eq!(made.allocs, 0, "pop from empty");
}

#[test]
fn one_pending_event_pushed_as_the_earliest_allocates_nothing() {
    let (q, made) = tally(|| {
        let mut q: EventQueue<Event> = EventQueue::new();
        q.push(0, [0; 12]);
        for i in 1..1_000 {
            let (t, ev) = q.pop().expect("one event is pending");
            q.push(t + splitmix64(i) % 512, ev);
        }
        q
    });
    assert_eq!(made.allocs, 0, "1000 pushes of the only pending event");
    drop(q);
}

#[test]
fn a_ten_thousand_event_hold_model_allocates_once_per_doubling() {
    const PENDING: u64 = 10_000;
    const HOLDS: u64 = 100_000;
    let mut q: EventQueue<Event> = EventQueue::new();

    let ((), filled) = tally(|| {
        for i in 0..PENDING {
            q.push(splitmix64(i) % 1_000_000, [i; 12]);
        }
    });
    // One buffer, grown by doubling: at most one allocation per bit of the
    // population, however the events spread over time.
    let doublings = (u64::BITS - PENDING.leading_zeros()) as usize;
    assert!(
        filled.allocs <= doublings,
        "{} allocations to queue {PENDING} events (bound {doublings})",
        filled.allocs
    );

    // Pop one, push one a near-future increment later: the population and
    // so the buffer stay put.
    let ((), held) = tally(|| {
        for i in PENDING..PENDING + HOLDS {
            let (t, ev) = q.pop().expect("the population is steady");
            q.push(t + 1 + splitmix64(i) % 512, ev);
        }
    });
    assert_eq!(held.allocs, 0, "{HOLDS} hold steps at {PENDING} pending");
}
