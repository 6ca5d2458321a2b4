//! A Wing&Gong-style linearizability checker for per-key register
//! histories, bounded and budget-capped.
//!
//! Each key is modelled as a last-writer-wins register whose state is the
//! version timestamp of the current value (`None` before any write — the
//! preload initializes keys at a known timestamp, passed as `init_ts`).
//! The checker searches for a linearization: a total order of the key's
//! operations that (a) respects real time — an operation invoked after
//! another's response must follow it — and (b) is legal for a register:
//! every read returns the timestamp of the latest preceding write.
//!
//! The search is the classic one: repeatedly pick a *minimal* pending
//! operation (one invoked before every pending response) as the next
//! linearization point, apply it to the register, and backtrack on
//! illegality, memoizing visited (linearized-set, state) configurations.
//! Two bounds keep it tractable and honest:
//!
//! * a node budget — exhausting it reports [`Verdict::Inconclusive`], never
//!   a false verdict either way;
//! * a 128-op concurrency window — histories with more than 128
//!   operations concurrently pending are reported inconclusive rather
//!   than searched unboundedly.
//!
//! Failed (timed-out) writes are *indeterminate*: the store may or may not
//! have applied them, at a timestamp the client never learned. The checker
//! handles them soundly: an observed timestamp no successful write
//! produced (an "unknown value") must have come from some failed write, so
//! failed writes are assigned to unknown values (every assignment in a
//! deterministic order, capped); failed writes left unassigned are dropped
//! — sound *and* complete for a register, because a write whose value no
//! read observed can always be removed from a valid linearization (only
//! reads between it and the next write could have seen it, and there are
//! none).

use simkit::{FastHashMap, FastHashSet, SimTime};
use storage::OpKind;

use crate::history::{Fate, History};

/// The checker's answer for one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A linearization exists.
    Linearizable,
    /// No linearization exists: a real-time-respecting legal total order
    /// is impossible (exhaustively verified within the model).
    Violation,
    /// The search budget, the concurrency window, or a model limit
    /// (deletes, too many failed-write assignments) was hit before a
    /// definitive answer.
    Inconclusive,
}

impl Verdict {
    /// Short display label ("yes" / "violation" / "inconclusive").
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Linearizable => "yes",
            Verdict::Violation => "violation",
            Verdict::Inconclusive => "inconclusive",
        }
    }
}

/// What one operation on the key did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// A successful write that was assigned version timestamp `ts`.
    Write {
        /// The assigned version timestamp.
        ts: u64,
    },
    /// A write that failed client-side: indeterminate, unknown timestamp.
    FailedWrite,
    /// A successful read observing a version (`None` = not found).
    Read {
        /// The observed version timestamp.
        observed: Option<u64>,
    },
}

/// One operation on the key: an invocation/response interval plus its
/// action. A failed write's response is [`SimTime::MAX`] — the client
/// never saw it complete, so it stays concurrent with everything after
/// its invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyOp {
    /// Invocation time, virtual µs.
    pub inv: SimTime,
    /// Response time, virtual µs.
    pub res: SimTime,
    /// What the operation did.
    pub action: Action,
}

/// Extract the register history of record `id`'s key from a recorded
/// run. Returns `None` when the key saw operations the register model
/// cannot express (deletes — a tombstone's timestamp is invisible to
/// reads), in which case the caller should report
/// [`Verdict::Inconclusive`].
pub fn key_ops(history: &History, id: &u64) -> Option<Vec<KeyOp>> {
    let mut ops = Vec::new();
    for r in history.records() {
        if r.id != *id || matches!(r.kind, OpKind::Scan) {
            continue;
        }
        if matches!(r.kind, OpKind::Delete) {
            return None;
        }
        let action = match r.fate {
            Fate::Write { ts } => Action::Write { ts },
            Fate::Read { observed_ts, .. } => Action::Read {
                observed: observed_ts,
            },
            Fate::Failed if r.is_write_kind() => Action::FailedWrite,
            // A failed read observed nothing: no constraint.
            Fate::Failed | Fate::Scanned => continue,
        };
        ops.push(KeyOp {
            inv: r.issued,
            res: match action {
                Action::FailedWrite => SimTime::MAX,
                _ => r.settled,
            },
            action,
        });
    }
    Some(ops)
}

/// Most operations concurrently pending the search will track exactly.
const WINDOW: usize = 128;
/// Most failed-write-to-unknown-value assignments tried before giving up.
const MAX_ASSIGNMENTS: usize = 64;

/// Check one key's history for linearizability against a register
/// initialized to `init_ts` (`Some(1)` for the driver's preload; `None`
/// for a key created during the run). `budget` caps search nodes across
/// all failed-write assignments.
pub fn check_key(ops: &[KeyOp], init_ts: Option<u64>, budget: u64) -> Verdict {
    // Split and validate the model.
    let mut known: Vec<u64> = init_ts.into_iter().collect();
    let mut failed: Vec<KeyOp> = Vec::new();
    let mut observed: Vec<u64> = Vec::new();
    for op in ops {
        match op.action {
            Action::Write { ts } => known.push(ts),
            Action::FailedWrite => failed.push(*op),
            Action::Read { observed: Some(v) } => observed.push(v),
            Action::Read { observed: None } => {}
        }
    }
    known.sort_unstable();
    // Two writes may carry the same version timestamp (virtual-time
    // collisions on a hot key): they wrote the same *value*, so the
    // interner collapses them to one state and a read of that value
    // legally follows either write. No precision is lost for a register.
    known.dedup();
    // Values some read observed that no successful write (or the preload)
    // produced: each must be explained by a distinct failed write.
    let mut unknowns: Vec<u64> = observed
        .iter()
        .copied()
        .filter(|v| known.binary_search(v).is_err())
        .collect();
    unknowns.sort_unstable();
    unknowns.dedup();
    if unknowns.len() > failed.len() {
        // An observed value nothing wrote: immediately non-linearizable.
        return Verdict::Violation;
    }

    // Enumerate assignments of distinct failed writes to the unknown
    // values (deterministic order, capped), dropping the unassigned rest.
    let mut assignments: Vec<Vec<usize>> = Vec::new();
    let mut current = Vec::new();
    enumerate_assignments(unknowns.len(), failed.len(), &mut current, &mut assignments);
    let truncated = assignments.len() > MAX_ASSIGNMENTS;
    assignments.truncate(MAX_ASSIGNMENTS);

    let mut search = Search {
        ops: Vec::new(),
        suffix_min_res: Vec::new(),
        value_id: FastHashMap::default(),
        memo: FastHashSet::default(),
        budget,
        exhausted: false,
    };
    let base: Vec<KeyOp> = ops
        .iter()
        .filter(|o| !matches!(o.action, Action::FailedWrite))
        .copied()
        .collect();
    let mut any_exhausted = truncated;
    for assignment in &assignments {
        let mut candidate = base.clone();
        for (u, &f) in unknowns.iter().zip(assignment) {
            candidate.push(KeyOp {
                action: Action::Write { ts: *u },
                ..failed[f]
            });
        }
        match search.run(candidate, init_ts) {
            Ok(true) => return Verdict::Linearizable,
            Ok(false) => {}
            Err(Exhausted) => any_exhausted = true,
        }
    }
    if any_exhausted {
        Verdict::Inconclusive
    } else {
        Verdict::Violation
    }
}

/// All ways to pick `n` distinct indices out of `0..m`, in lexicographic
/// order, stopping early once well past the enumeration cap.
fn enumerate_assignments(n: usize, m: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if out.len() > MAX_ASSIGNMENTS {
        return;
    }
    if current.len() == n {
        out.push(current.clone());
        return;
    }
    for i in 0..m {
        if current.contains(&i) {
            continue;
        }
        current.push(i);
        enumerate_assignments(n, m, current, out);
        current.pop();
    }
}

/// The search ran out of budget (or concurrency window) before deciding.
struct Exhausted;

/// One DFS over the linearization space of a fixed operation list.
struct Search {
    /// Operations sorted by invocation time.
    ops: Vec<KeyOp>,
    /// `suffix_min_res[i]` = min response time over `ops[i..]`.
    suffix_min_res: Vec<SimTime>,
    /// Version timestamp -> dense state id (0 is the `None` state).
    value_id: FastHashMap<u64, u32>,
    /// Visited-and-failed (first_pending, window mask, state) configs.
    memo: FastHashSet<(u32, u128, u32)>,
    budget: u64,
    exhausted: bool,
}

impl Search {
    fn state_of(&self, ts: Option<u64>) -> Option<u32> {
        match ts {
            None => Some(0),
            Some(v) => self.value_id.get(&v).copied(),
        }
    }

    fn run(&mut self, mut ops: Vec<KeyOp>, init_ts: Option<u64>) -> Result<bool, Exhausted> {
        ops.sort_by_key(|o| (o.inv, o.res, action_rank(o.action)));
        self.value_id.clear();
        self.memo.clear();
        self.exhausted = false;
        if let Some(init) = init_ts {
            let next = self.value_id.len() as u32 + 1;
            self.value_id.entry(init).or_insert(next);
        }
        for op in &ops {
            if let Action::Write { ts } = op.action {
                let next = self.value_id.len() as u32 + 1;
                self.value_id.entry(ts).or_insert(next);
            }
        }
        let mut suffix = vec![SimTime::MAX; ops.len() + 1];
        for i in (0..ops.len()).rev() {
            suffix[i] = suffix[i + 1].min(ops[i].res);
        }
        self.suffix_min_res = suffix;
        self.ops = ops;
        let Some(init_state) = self.state_of(init_ts) else {
            return Ok(false); // unreachable: init was interned above
        };
        let linearizable = self.dfs(0, 0, init_state)?;
        if !linearizable && self.exhausted {
            // Some subtree was cut short: a "no" is not trustworthy.
            return Err(Exhausted);
        }
        Ok(linearizable)
    }

    fn dfs(&mut self, mut first: usize, mut mask: u128, state: u32) -> Result<bool, Exhausted> {
        // Normalize: slide the window past already-linearized ops.
        while first < self.ops.len() && mask & 1 == 1 {
            mask >>= 1;
            first += 1;
        }
        if first == self.ops.len() {
            return Ok(true);
        }
        if self.budget == 0 {
            self.exhausted = true;
            return Err(Exhausted);
        }
        self.budget -= 1;
        if !self.memo.insert((first as u32, mask, state)) {
            return Ok(false);
        }
        let window_end = (first + WINDOW).min(self.ops.len());
        // Minimum response over pending ops: everything at/after the
        // window end is pending by construction, plus unlinearized ops
        // inside the window.
        let mut min_res = self.suffix_min_res[window_end];
        for i in first..window_end {
            if mask >> (i - first) & 1 == 0 {
                min_res = min_res.min(self.ops[i].res);
            }
        }
        if first + WINDOW < self.ops.len() && self.ops[first + WINDOW].inv <= min_res {
            // An op outside the tracked window is a legal candidate: more
            // than WINDOW ops concurrently pending. Give up soundly.
            self.exhausted = true;
            return Err(Exhausted);
        }
        let mut saw_exhausted = false;
        for i in first..window_end {
            if mask >> (i - first) & 1 == 1 {
                continue;
            }
            let op = self.ops[i];
            // Minimality: an op invoked after some pending response must
            // come after that op in any linearization.
            if op.inv > min_res {
                break; // ops are inv-sorted: later ones only get worse
            }
            let next_state = match op.action {
                Action::Write { ts } => match self.state_of(Some(ts)) {
                    Some(s) => s,
                    None => continue, // unreachable: writes were interned
                },
                Action::Read { observed } => {
                    if self.state_of(observed) != Some(state) {
                        continue; // illegal here
                    }
                    state
                }
                Action::FailedWrite => continue, // unreachable: pre-dropped
            };
            match self.dfs(first, mask | 1 << (i - first), next_state) {
                Ok(true) => return Ok(true),
                Ok(false) => {}
                Err(Exhausted) => saw_exhausted = true,
            }
        }
        if saw_exhausted {
            return Err(Exhausted);
        }
        Ok(false)
    }
}

fn action_rank(a: Action) -> u8 {
    match a {
        Action::Write { .. } => 0,
        Action::Read { .. } => 1,
        Action::FailedWrite => 2,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn w(inv: SimTime, res: SimTime, ts: u64) -> KeyOp {
        KeyOp {
            inv,
            res,
            action: Action::Write { ts },
        }
    }

    fn r(inv: SimTime, res: SimTime, observed: Option<u64>) -> KeyOp {
        KeyOp {
            inv,
            res,
            action: Action::Read { observed },
        }
    }

    fn fw(inv: SimTime) -> KeyOp {
        KeyOp {
            inv,
            res: SimTime::MAX,
            action: Action::FailedWrite,
        }
    }

    const BUDGET: u64 = 100_000;

    #[test]
    fn empty_and_sequential_histories_are_linearizable() {
        assert_eq!(check_key(&[], Some(1), BUDGET), Verdict::Linearizable);
        let ops = [
            r(0, 10, Some(1)),
            w(20, 30, 7),
            r(40, 50, Some(7)),
            w(60, 70, 9),
            r(80, 90, Some(9)),
        ];
        assert_eq!(check_key(&ops, Some(1), BUDGET), Verdict::Linearizable);
    }

    #[test]
    fn stale_read_after_write_response_is_a_violation() {
        // The write completed at 30; a read invoked at 40 returning the
        // initial value cannot be ordered before it.
        let ops = [w(20, 30, 7), r(40, 50, Some(1))];
        assert_eq!(check_key(&ops, Some(1), BUDGET), Verdict::Violation);
    }

    #[test]
    fn concurrent_read_may_land_on_either_side() {
        // The read overlaps the write: both old and new values are legal.
        let old = [w(20, 60, 7), r(30, 40, Some(1))];
        let new = [w(20, 60, 7), r(30, 40, Some(7))];
        assert_eq!(check_key(&old, Some(1), BUDGET), Verdict::Linearizable);
        assert_eq!(check_key(&new, Some(1), BUDGET), Verdict::Linearizable);
    }

    #[test]
    fn non_monotonic_reads_violate() {
        // Two sequential reads observe new-then-old: no register order.
        let ops = [w(0, 100, 7), r(10, 20, Some(7)), r(30, 40, Some(1))];
        assert_eq!(check_key(&ops, Some(1), BUDGET), Verdict::Violation);
    }

    #[test]
    fn unknown_value_requires_a_failed_write() {
        // A read observes ts=9 which no successful write produced.
        let with_fw = [fw(5), r(40, 50, Some(9))];
        assert_eq!(check_key(&with_fw, Some(1), BUDGET), Verdict::Linearizable);
        // Without a failed write to pin it on: a value from nowhere.
        let without = [r(40, 50, Some(9))];
        assert_eq!(check_key(&without, Some(1), BUDGET), Verdict::Violation);
    }

    #[test]
    fn failed_write_cannot_time_travel() {
        // The failed write is invoked at 100, after the read responded at
        // 50 — it cannot explain the read's unknown value.
        let ops = [r(40, 50, Some(9)), fw(100)];
        assert_eq!(check_key(&ops, Some(1), BUDGET), Verdict::Violation);
    }

    #[test]
    fn unassigned_failed_writes_are_dropped_harmlessly() {
        let ops = [fw(5), w(20, 30, 7), r(40, 50, Some(7)), fw(60)];
        assert_eq!(check_key(&ops, Some(1), BUDGET), Verdict::Linearizable);
    }

    #[test]
    fn not_found_on_an_initialized_register_violates() {
        let ops = [r(10, 20, None)];
        assert_eq!(check_key(&ops, Some(1), BUDGET), Verdict::Violation);
        // On an uninitialized register it is the legal initial state.
        assert_eq!(check_key(&ops, None, BUDGET), Verdict::Linearizable);
    }

    #[test]
    fn duplicate_write_timestamps_collapse_to_one_value() {
        // Virtual-time collisions: two writes of the same version. Reads
        // of that value follow either write; the register still judges.
        let ops = [w(0, 10, 7), w(20, 30, 7), r(40, 50, Some(7))];
        assert_eq!(check_key(&ops, Some(1), BUDGET), Verdict::Linearizable);
        // And a stale read after both responded is still caught.
        let bad = [w(0, 10, 7), w(20, 30, 7), r(40, 50, Some(1))];
        assert_eq!(check_key(&bad, Some(1), BUDGET), Verdict::Violation);
    }

    #[test]
    fn zero_budget_is_inconclusive_not_a_verdict() {
        let ops = [w(0, 10, 7), r(20, 30, Some(7))];
        assert_eq!(check_key(&ops, Some(1), 0), Verdict::Inconclusive);
    }

    #[test]
    fn long_sequential_history_stays_cheap() {
        // 2000 alternating write/read pairs: the greedy path succeeds with
        // ~one node per op, far under budget.
        let mut ops = Vec::new();
        let mut t = 10;
        for i in 0..2_000u64 {
            ops.push(w(t, t + 5, i + 2));
            ops.push(r(t + 10, t + 15, Some(i + 2)));
            t += 20;
        }
        assert_eq!(check_key(&ops, Some(1), 10_000), Verdict::Linearizable);
    }

    #[test]
    fn interleaved_concurrent_clients_linearize() {
        // Two overlapping writers and readers that are consistent with
        // *some* order, though not the invocation order.
        let ops = [
            w(0, 100, 7),
            w(10, 90, 8),
            r(20, 30, Some(8)),
            r(40, 60, Some(7)),
            r(110, 120, Some(7)),
        ];
        assert_eq!(check_key(&ops, Some(1), BUDGET), Verdict::Linearizable);
    }
}
