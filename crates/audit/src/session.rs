//! Session-guarantee checkers: read-your-writes, monotonic reads,
//! monotonic writes, writes-follow-reads — replayed per client from a
//! recorded history and bucketed into fault-phase windows.
//!
//! The four guarantees (Terry et al.'s session guarantees) are the
//! client-visible contract weak consistency levels trade away. Each is
//! checked against the client's *program order*: an operation is ordered
//! after every own operation that settled at or before it was issued
//! (in-flight own operations are concurrent and impose no order — the
//! same convention the staleness tracker uses for foreign writes).

use simkit::{FastHashMap, SimTime};

use crate::history::{Fate, History};

/// One labelled fault-phase window `[start_us, end_us)` of virtual time.
/// Operations are bucketed by their settle time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseWindow {
    /// Display label ("healthy", "crash", "recovery").
    pub label: &'static str,
    /// Window start, inclusive, virtual µs.
    pub start_us: SimTime,
    /// Window end, exclusive, virtual µs.
    pub end_us: SimTime,
}

impl PhaseWindow {
    /// True when `at` falls inside the window.
    pub(crate) fn contains(&self, at: SimTime) -> bool {
        at >= self.start_us && at < self.end_us
    }
}

/// Session-guarantee accounting for one phase window. A *check* is an
/// operation with at least one prior same-client operation to be ordered
/// against; a *violation* is a check that observed the guarantee broken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounts {
    /// Successful point reads settling in the window.
    pub reads: u64,
    /// Successful writes settling in the window.
    pub writes: u64,
    /// Stale reads (observed version older than the issue-time
    /// expectation; same definition as the staleness tracker).
    pub stale: u64,
    /// Of the stale reads, those that found no value at all.
    pub missing: u64,
    /// Reads with a prior own write on the key.
    pub ryw_checked: u64,
    /// Read-your-writes violations: a read that missed the client's own
    /// latest acknowledged write on the key.
    pub ryw_violations: u64,
    /// Reads with a prior own read on the key.
    pub mr_checked: u64,
    /// Monotonic-reads violations: a read that observed an older version
    /// than a previous own read of the key.
    pub mr_violations: u64,
    /// Writes with a prior own write on the key.
    pub mw_checked: u64,
    /// Monotonic-writes violations: a write serialized (by assigned
    /// version timestamp) before a previous own write of the key.
    pub mw_violations: u64,
    /// Writes with a prior own read on the key.
    pub wfr_checked: u64,
    /// Writes-follow-reads violations: a write serialized before a
    /// version a previous own read of the key had observed.
    pub wfr_violations: u64,
}

impl SessionCounts {
    /// All session-guarantee violations in the window.
    pub fn total_violations(&self) -> u64 {
        self.ryw_violations + self.mr_violations + self.mw_violations + self.wfr_violations
    }

    /// Read-your-writes violation rate over checked reads (0 when none).
    pub fn ryw_rate(&self) -> f64 {
        rate(self.ryw_violations, self.ryw_checked)
    }

    /// Monotonic-reads violation rate over checked reads (0 when none).
    pub fn mr_rate(&self) -> f64 {
        rate(self.mr_violations, self.mr_checked)
    }

    /// Stale fraction over the window's reads (0 when none).
    pub fn stale_rate(&self) -> f64 {
        rate(self.stale, self.reads)
    }
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-(client, record id) tape of settled events as `(settled, prefix-max)`
/// pairs, append-only in settle order, queried by "max value among
/// entries settled at or before t". The prefix-max makes the query a
/// binary search; settle order keeps the vector sorted by construction.
#[derive(Debug, Default)]
struct Tape {
    entries: FastHashMap<(u32, u64), Vec<(SimTime, u64)>>,
}

impl Tape {
    fn push(&mut self, client: u32, id: u64, settled: SimTime, value: u64) {
        let v = self.entries.entry((client, id)).or_default();
        let running = v.last().map_or(0, |&(_, m)| m).max(value);
        v.push((settled, running));
    }

    /// Max recorded value among entries settled at or before `at`;
    /// `None` when the client has no such entry for the record.
    fn max_through(&self, client: u32, id: u64, at: SimTime) -> Option<u64> {
        let v = self.entries.get(&(client, id))?;
        let idx = v.partition_point(|&(t, _)| t <= at);
        if idx == 0 {
            None
        } else {
            Some(v[idx - 1].1)
        }
    }
}

/// Replay a history through the four session-guarantee checkers,
/// bucketing counts into the given phase windows by settle time.
/// Operations settling outside every window still advance the per-client
/// session state (the session spans the whole run) but are not counted.
///
/// Pure: deterministic in `(history, windows)` alone.
pub fn check_sessions(history: &History, windows: &[PhaseWindow]) -> Vec<SessionCounts> {
    let mut out = vec![SessionCounts::default(); windows.len()];
    // Own acked writes (value = assigned ts) and own reads (value =
    // observed ts, not-found as 0) per (client, record id).
    let mut writes = Tape::default();
    let mut reads = Tape::default();
    for r in history.records() {
        let slot = windows
            .iter()
            .position(|w| w.contains(r.settled))
            .map(|i| &mut out[i]);
        match r.fate {
            Fate::Read {
                expected_ts,
                observed_ts,
            } => {
                let observed = observed_ts.unwrap_or(0);
                let own_write = writes.max_through(r.client, r.id, r.issued);
                let own_read = reads.max_through(r.client, r.id, r.issued);
                if let Some(c) = slot {
                    c.reads += 1;
                    if observed < expected_ts {
                        c.stale += 1;
                    }
                    if observed_ts.is_none() && expected_ts > 0 {
                        c.missing += 1;
                    }
                    if let Some(w) = own_write {
                        c.ryw_checked += 1;
                        if observed < w {
                            c.ryw_violations += 1;
                        }
                    }
                    if let Some(prev) = own_read {
                        c.mr_checked += 1;
                        if observed < prev {
                            c.mr_violations += 1;
                        }
                    }
                }
                reads.push(r.client, r.id, r.settled, observed);
            }
            Fate::Write { ts } => {
                let own_write = writes.max_through(r.client, r.id, r.issued);
                let own_read = reads.max_through(r.client, r.id, r.issued);
                if let Some(c) = slot {
                    c.writes += 1;
                    if let Some(w) = own_write {
                        c.mw_checked += 1;
                        if ts < w {
                            c.mw_violations += 1;
                        }
                    }
                    if let Some(seen) = own_read {
                        c.wfr_checked += 1;
                        if ts < seen {
                            c.wfr_violations += 1;
                        }
                    }
                }
                writes.push(r.client, r.id, r.settled, ts);
            }
            Fate::Scanned | Fate::Failed => {}
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::history::OpRecord;
    use storage::OpKind;

    const A: u64 = 1;
    const B: u64 = 2;

    fn read(client: u32, id: u64, issued: SimTime, settled: SimTime, obs: Option<u64>) -> OpRecord {
        OpRecord {
            client,
            kind: OpKind::Read,
            id,
            issued,
            settled,
            measured: true,
            fate: Fate::Read {
                expected_ts: 0,
                observed_ts: obs,
            },
        }
    }

    fn write(client: u32, id: u64, issued: SimTime, settled: SimTime, ts: u64) -> OpRecord {
        OpRecord {
            client,
            kind: OpKind::Update,
            id,
            issued,
            settled,
            measured: true,
            fate: Fate::Write { ts },
        }
    }

    fn whole_run() -> Vec<PhaseWindow> {
        vec![PhaseWindow {
            label: "all",
            start_us: 0,
            end_us: SimTime::MAX,
        }]
    }

    #[test]
    fn clean_session_has_no_violations() {
        let h = History::from_records(vec![
            write(0, A, 0, 10, 100),
            read(0, A, 20, 30, Some(100)),
            read(0, A, 40, 50, Some(100)),
            write(0, A, 60, 70, 200),
        ]);
        let c = check_sessions(&h, &whole_run())[0];
        assert_eq!(c.reads, 2);
        assert_eq!(c.writes, 2);
        assert_eq!((c.ryw_checked, c.ryw_violations), (2, 0));
        assert_eq!((c.mr_checked, c.mr_violations), (1, 0));
        assert_eq!((c.mw_checked, c.mw_violations), (1, 0));
        assert_eq!((c.wfr_checked, c.wfr_violations), (1, 0));
        assert_eq!(c.total_violations(), 0);
    }

    #[test]
    fn ryw_violation_when_own_write_is_missed() {
        let h = History::from_records(vec![
            write(0, A, 0, 10, 100),
            read(0, A, 20, 30, Some(50)), // older than own write
            read(0, A, 40, 50, None),     // not-found after own write
        ]);
        let c = check_sessions(&h, &whole_run())[0];
        assert_eq!((c.ryw_checked, c.ryw_violations), (2, 2));
    }

    #[test]
    fn mr_violation_when_read_goes_backwards() {
        let h = History::from_records(vec![
            read(0, A, 0, 10, Some(200)),
            read(0, A, 20, 30, Some(100)), // backwards
            read(0, A, 40, 50, Some(200)),
        ]);
        let c = check_sessions(&h, &whole_run())[0];
        assert_eq!((c.mr_checked, c.mr_violations), (2, 1));
        assert!((c.mr_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sessions_are_per_client_and_per_key() {
        let h = History::from_records(vec![
            write(0, A, 0, 10, 100),
            read(1, A, 20, 30, Some(50)), // other client: no RYW check
            read(0, B, 20, 30, None),     // other key: no RYW check
        ]);
        let c = check_sessions(&h, &whole_run())[0];
        assert_eq!(c.ryw_checked, 0);
        assert_eq!(c.total_violations(), 0);
    }

    #[test]
    fn concurrent_own_ops_impose_no_order() {
        // The write settles while the read is in flight (issued before the
        // write settled): concurrent, so no RYW obligation.
        let h = History::from_records(vec![write(0, A, 0, 25, 100), read(0, A, 20, 30, None)]);
        let c = check_sessions(&h, &whole_run())[0];
        assert_eq!(c.ryw_checked, 0);
    }

    #[test]
    fn mw_and_wfr_catch_version_order_inversions() {
        let h = History::from_records(vec![
            write(0, A, 0, 10, 200),
            write(0, A, 20, 30, 100), // serialized before the prior write
            read(1, B, 0, 10, Some(500)),
            write(1, B, 20, 30, 400), // serialized before what it read
        ]);
        let c = check_sessions(&h, &whole_run())[0];
        assert_eq!((c.mw_checked, c.mw_violations), (1, 1));
        assert_eq!((c.wfr_checked, c.wfr_violations), (1, 1));
    }

    #[test]
    fn windows_bucket_by_settle_time_but_state_spans_the_run() {
        let windows = vec![
            PhaseWindow {
                label: "early",
                start_us: 0,
                end_us: 100,
            },
            PhaseWindow {
                label: "late",
                start_us: 100,
                end_us: SimTime::MAX,
            },
        ];
        let h = History::from_records(vec![
            write(0, A, 0, 10, 100),        // early
            read(0, A, 150, 160, Some(50)), // late; RYW state from early
        ]);
        let out = check_sessions(&h, &windows);
        assert_eq!(out[0].writes, 1);
        assert_eq!(out[1].reads, 1);
        assert_eq!((out[1].ryw_checked, out[1].ryw_violations), (1, 1));
        // Pure: replay gives identical counts.
        assert_eq!(check_sessions(&h, &windows), out);
    }
}
