//! Differential property tests for the cancellable-timer lane: a `Sim` whose
//! timers go through `timer_at` / `cancel_timer` must dispatch the same
//! `(time, payload)` sequence of live events as an oracle `Sim` that
//! schedules every timer as a plain event and throws cancelled ones away
//! when they pop. Every simulation result is a function of that sequence,
//! so this is what makes moving the RPC timeouts onto the lane invisible to
//! the models.

use std::collections::HashSet;

use proptest::prelude::*;
use simkit::{Sim, TimerId};

/// One step of an interleaved schedule. Offsets are from the later of the
/// two simulations' clocks, so a step is valid on both.
#[derive(Debug, Clone)]
enum Step {
    /// `schedule_at(base + offset)`.
    Schedule(u64),
    /// `timer_at(base + offset)`.
    Timer(u64),
    /// Cancel the `n % armed`-th timer armed so far, whatever became of it:
    /// parked, moved into the queue, fired, or cancelled before.
    Cancel(usize),
    /// Dispatch the next live event.
    Next,
}

/// Decode a raw `(selector, value)` pair, weighting what the lane must get
/// right: deadlines behind a busy near future (the RPC-timeout shape),
/// timers armed out of deadline order, same-instant ties between timers and
/// plain events, far-future deadlines, and cancels of every kind.
fn decode(sel: u8, raw: u64) -> Step {
    match sel {
        0 | 1 => Step::Schedule(raw % 300),
        2 => Step::Schedule(0),
        3 => Step::Timer(2_000 + raw % 50),
        4 => Step::Timer(raw % 3_000),
        5 => Step::Timer(0),
        6 => Step::Timer(2_000_000 + raw % 4_000_000_000),
        7 | 8 => Step::Cancel(raw as usize),
        _ => Step::Next,
    }
}

/// The two ways to run a schedule's timers.
enum Timers {
    /// Through the lane; the handles are what `Cancel` cancels.
    Lane(Vec<TimerId>),
    /// As plain events, never cancelled.
    Eager,
}

/// One side of the comparison. Payloads are arm-order ids; `dead` holds the
/// ids of cancelled timers, which the receiver of an event ignores — as the
/// stores' timeout handlers ignore a timeout whose op is gone.
struct Side {
    sim: Sim<u64>,
    timers: Timers,
    /// Payload id of every timer, in arm order.
    timer_ids: Vec<u64>,
    dead: HashSet<u64>,
    /// Dispatched events that turned out to be cancelled timers.
    dead_dispatches: u64,
    log: Vec<(u64, u64)>,
}

impl Side {
    fn new(timers: Timers) -> Self {
        Side {
            sim: Sim::new(0),
            timers,
            timer_ids: Vec::new(),
            dead: HashSet::new(),
            dead_dispatches: 0,
            log: Vec::new(),
        }
    }

    fn apply(&mut self, step: &Step, base: u64, id: u64) {
        match *step {
            Step::Schedule(offset) => self.sim.schedule_at(base + offset, id),
            Step::Timer(offset) => {
                self.timer_ids.push(id);
                match &mut self.timers {
                    Timers::Lane(handles) => handles.push(self.sim.timer_at(base + offset, id)),
                    Timers::Eager => self.sim.schedule_at(base + offset, id),
                }
            }
            Step::Cancel(n) => {
                if self.timer_ids.is_empty() {
                    return;
                }
                let n = n % self.timer_ids.len();
                // Cancelling a timer that already fired changes nothing on
                // either side: its id never comes up again.
                self.dead.insert(self.timer_ids[n]);
                if let Timers::Lane(handles) = &self.timers {
                    self.sim.cancel_timer(handles[n]);
                }
            }
            Step::Next => {
                self.next_live();
            }
        }
    }

    /// Dispatch up to and including the next live event.
    fn next_live(&mut self) -> bool {
        while let Some(ev) = self.sim.next() {
            if self.dead.contains(&ev) {
                self.dead_dispatches += 1;
                continue;
            }
            self.log.push((self.sim.now(), ev));
            return true;
        }
        false
    }
}

/// Replay one schedule on the lane and on the oracle, then drain both.
fn run_both(steps: &[Step]) -> (Side, Side) {
    let mut lane = Side::new(Timers::Lane(Vec::new()));
    let mut oracle = Side::new(Timers::Eager);
    for (id, step) in steps.iter().enumerate() {
        // The oracle's clock runs ahead whenever it pops a dead timer.
        let base = lane.sim.now().max(oracle.sim.now());
        lane.apply(step, base, id as u64);
        oracle.apply(step, base, id as u64);
    }
    while lane.next_live() {}
    while oracle.next_live() {}
    (lane, oracle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary interleavings: the same live events at the same times in
    /// the same order, nothing left behind, and never more dead dispatches
    /// than arming every timer eagerly costs.
    #[test]
    fn timer_lane_matches_eager_timers(
        raw in prop::collection::vec((0u8..12, 0u64..u64::MAX / 2), 0..400)
    ) {
        let steps: Vec<Step> = raw.iter().map(|&(s, v)| decode(s, v)).collect();
        let (lane, oracle) = run_both(&steps);
        prop_assert_eq!(&lane.log, &oracle.log);
        prop_assert_eq!(lane.sim.pending(), 0);
        prop_assert!(lane.dead_dispatches <= oracle.dead_dispatches);
        prop_assert!(lane.sim.dispatched() <= oracle.sim.dispatched());
    }
}
