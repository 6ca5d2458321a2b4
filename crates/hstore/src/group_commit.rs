//! A region server's WAL group commit as a pure state machine: writers queue
//! while one group is in flight, then leave together as the next one, and
//! the log's block rolls once full. The cluster charges the round trips.

use simkit::{OpKey, SimTime};

/// A queued writer: `(slab key, driver token, enqueue time)`; the time
/// marks where the op's WAL-queue stage starts.
pub(crate) type Writer = (OpKey, u64, SimTime);

#[derive(Debug, Clone, Default)]
pub(crate) struct GroupCommit {
    inflight: bool,
    waiting: Vec<Writer>,
    waiting_bytes: u64,
    block_bytes: u64,
    /// The last landed group's op list, emptied, for the next group.
    spare: Vec<OpKey>,
}

impl GroupCommit {
    /// Queue a writer of `bytes` log bytes; true when no group is in
    /// flight, so one starts now.
    pub(crate) fn enqueue(&mut self, writer: Writer, bytes: u64) -> bool {
        self.waiting.push(writer);
        self.waiting_bytes += bytes;
        !self.inflight
    }

    /// Send all queued writers as one group of their bytes plus `overhead`.
    /// Returns them, the bytes, and the block's length if the group fills it
    /// (`block_size` bytes): then the log rolls to a new block.
    pub(crate) fn start(
        &mut self,
        overhead: u64,
        block_size: u64,
    ) -> (Vec<Writer>, u64, Option<u64>) {
        debug_assert!(!self.inflight && !self.waiting.is_empty());
        self.inflight = true;
        let bytes = std::mem::take(&mut self.waiting_bytes) + overhead;
        self.block_bytes += bytes;
        let roll = (self.block_bytes >= block_size).then(|| std::mem::take(&mut self.block_bytes));
        (std::mem::take(&mut self.waiting), bytes, roll)
    }

    /// The group's op list, once its `writers` are traced and given back.
    pub(crate) fn sent(&mut self, mut writers: Vec<Writer>) -> Vec<OpKey> {
        debug_assert!(self.inflight && self.waiting.is_empty());
        let mut ops = std::mem::take(&mut self.spare);
        ops.extend(writers.iter().map(|w| w.0));
        writers.clear();
        self.waiting = writers;
        ops
    }

    /// The group in flight landed with its `ops`; true when more queued.
    pub(crate) fn finish(&mut self, mut ops: Vec<OpKey>) -> bool {
        debug_assert!(self.inflight);
        self.inflight = false;
        ops.clear();
        self.spare = ops;
        !self.waiting.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OVERHEAD: u64 = 5;
    const BLOCK: u64 = 60;
    const WRITERS: u64 = 5;

    /// What happens next to one server's log.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// The next writer arrives.
        Enqueue,
        /// The group in flight lands on a live server (the next group
        /// starts at once) or a dead one (queued writers wait for the next
        /// arrival).
        Finish { up: bool },
    }

    /// The log as the cluster drives it, with what it has seen so far.
    #[derive(Debug, Clone, Default)]
    struct Model {
        commit: GroupCommit,
        enqueued: u64,
        in_flight: Option<Vec<OpKey>>,
        groups: Vec<Vec<OpKey>>,
        block: u64,
    }

    /// Writer `i` logs `10 * (i + 1)` bytes.
    fn bytes(op: OpKey) -> u64 {
        10 * (op.0 + 1)
    }

    impl Model {
        fn start(&mut self) {
            assert!(
                self.in_flight.is_none(),
                "a group started while one was in flight"
            );
            let (writers, group_bytes, roll) = self.commit.start(OVERHEAD, BLOCK);
            let ops: Vec<OpKey> = writers.iter().map(|w| w.0).collect();
            assert!(!ops.is_empty(), "an empty group");
            let entries: u64 = ops.iter().map(|&op| bytes(op)).sum();
            assert_eq!(group_bytes, entries + OVERHEAD);
            self.block += group_bytes;
            let full = self.block >= BLOCK;
            assert_eq!(
                roll,
                full.then_some(self.block),
                "the block rolls once full"
            );
            if full {
                self.block = 0;
            }
            assert_eq!(self.commit.sent(writers), ops);
            self.groups.push(ops.clone());
            self.in_flight = Some(ops);
        }

        fn step(&mut self, step: Step) {
            match step {
                Step::Enqueue => {
                    let op = OpKey(self.enqueued);
                    self.enqueued += 1;
                    if self.commit.enqueue((op, 0, 0), bytes(op)) {
                        self.start();
                    }
                }
                Step::Finish { up } => {
                    let ops = self.in_flight.take().expect("a group in flight");
                    if self.commit.finish(ops) && up {
                        self.start();
                    }
                }
            }
        }
    }

    /// Run every interleaving of the remaining arrivals with the landings
    /// of the groups they form, from `m`; returns how many ran.
    fn explore(m: &Model, schedule: &mut Vec<Step>) -> usize {
        let mut steps = Vec::new();
        if m.enqueued < WRITERS {
            steps.push(Step::Enqueue);
        }
        if m.in_flight.is_some() {
            steps.extend([true, false].map(|up| Step::Finish { up }));
        }
        if steps.is_empty() {
            // Every writer arrived and no group is in flight: each one
            // landed, or still queues behind a dead server, in order.
            let queued = m.commit.waiting.iter().map(|w| w.0);
            let seen: Vec<OpKey> = m.groups.concat().into_iter().chain(queued).collect();
            let arrived: Vec<OpKey> = (0..WRITERS).map(OpKey).collect();
            assert_eq!(seen, arrived, "FIFO, each writer once: {schedule:?}");
            return 1;
        }
        let mut runs = 0;
        for step in steps {
            let mut next = m.clone();
            next.step(step);
            schedule.push(step);
            runs += explore(&next, schedule);
            schedule.pop();
        }
        runs
    }

    #[test]
    fn every_writer_lands_once_in_order_with_one_group_in_flight() {
        let runs = explore(&Model::default(), &mut Vec::new());
        assert_eq!(runs, 362, "schedules of five writers");
    }
}
