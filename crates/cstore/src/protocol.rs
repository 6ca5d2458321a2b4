//! The coordinator's consistency decisions as pure state machines: quota
//! and fan-out, when to answer, the newest answer, the stale replicas and
//! where a scan round leads. The cluster applies each step (CPU, spans,
//! counters, sends); nothing here sees time or randomness, so the tests
//! below try every answer order.

use simkit::{NodeId, SimTime};
use storage::{Cell, Key, Reconciler, Rows};

use crate::config::Consistency;
use crate::ring::Ring;

/// The replica quota a consistency level sets for one op: which answers
/// settle it. [`Quota::new`] sizes it from the *configured* replica set,
/// live or not, as in Cassandra's blockFor computation.
#[derive(Debug, Clone)]
pub(crate) enum Quota {
    /// Any `n` replicas: ONE/QUORUM/ALL, every level on a single-DC
    /// cluster, and LOCAL_QUORUM when the coordinator's DC holds no
    /// replica.
    Any(u32),
    /// `needed` replicas of the coordinator's datacenter `dc`
    /// (LOCAL_QUORUM, so no WAN hop sits on the settle path); `acks` counts
    /// that datacenter's acks so far.
    Local { dc: u32, needed: u32, acks: u32 },
    /// A majority in every datacenter holding replicas (EACH_QUORUM, so the
    /// settle path waits on the slowest one): `(region, needed, acks)` per
    /// datacenter, in ring order of its first replica.
    PerDc(Vec<(u32, u32, u32)>),
}

impl Quota {
    /// The quota `cl` sets over the placed `replicas` of a range with
    /// replication factor `rf`, for a coordinator in datacenter `home`:
    /// `None` on a single-DC cluster, where the datacenter-aware levels are
    /// a plain majority. `region` gives a replica's datacenter.
    pub(crate) fn new(
        cl: Consistency,
        rf: u32,
        home: Option<u32>,
        replicas: &[NodeId],
        region: impl Fn(NodeId) -> u32,
    ) -> Self {
        let in_dc = |dc: u32| replicas.iter().filter(|&&r| region(r) == dc).count() as u32;
        match (cl, home) {
            // With no replica in the coordinator's DC, LOCAL_QUORUM degrades
            // to a plain majority rather than never settling.
            (Consistency::LocalQuorum, Some(dc)) if in_dc(dc) > 0 => Quota::Local {
                dc,
                needed: in_dc(dc) / 2 + 1,
                acks: 0,
            },
            (Consistency::EachQuorum, Some(_)) => {
                let mut dcs: Vec<(u32, u32, u32)> = Vec::new();
                for dc in replicas.iter().map(|&r| region(r)) {
                    if !dcs.iter().any(|q| q.0 == dc) {
                        dcs.push((dc, in_dc(dc) / 2 + 1, 0));
                    }
                }
                Quota::PerDc(dcs)
            }
            _ => Quota::Any(cl.required(rf)),
        }
    }

    /// Replica answers the quota needs in all.
    pub(crate) fn needed(&self) -> u32 {
        match self {
            Quota::Any(n) | Quota::Local { needed: n, .. } => *n,
            Quota::PerDc(dcs) => dcs.iter().map(|q| q.1).sum(),
        }
    }

    /// Record the op's `total`th ack, from a node in `region`; true once
    /// the quota is met.
    pub(crate) fn ack(&mut self, region: u32, total: u32) -> bool {
        match self {
            Quota::Any(n) => total >= *n,
            Quota::Local { dc, needed, acks } => {
                *acks += u32::from(region == *dc);
                *acks >= *needed
            }
            Quota::PerDc(dcs) => {
                if let Some(q) = dcs.iter_mut().find(|q| q.0 == region) {
                    q.2 += 1;
                }
                dcs.iter().all(|q| q.2 >= q.1)
            }
        }
    }
}

/// One fan-out's replica lists, reused from op to op so that none
/// allocates: `replicas` is the placed set, which the caller fills in ring
/// order, and `targets` the live replicas the quota asks for.
#[derive(Debug, Clone, Default)]
pub(crate) struct FanOut {
    pub(crate) replicas: Vec<NodeId>,
    pub(crate) targets: Vec<NodeId>,
}

impl FanOut {
    /// Pick the live replicas `quota` asks for into `targets`, in ring order
    /// from the main replica (the paper's fixed-order selection), grouped by
    /// datacenter for EACH_QUORUM. False when too few are live to meet it.
    pub(crate) fn pick(
        &mut self,
        quota: &Quota,
        region: impl Fn(NodeId) -> u32,
        up: impl Fn(NodeId) -> bool,
    ) -> bool {
        let (region, up, replicas) = (&region, &up, &self.replicas);
        let live_in = |dc: Option<u32>, n: u32| {
            replicas
                .iter()
                .copied()
                .filter(move |&r| up(r) && dc.is_none_or(|dc| region(r) == dc))
                .take(n as usize)
        };
        self.targets.clear();
        match quota {
            Quota::Any(n) => self.targets.extend(live_in(None, *n)),
            Quota::Local { dc, needed, .. } => self.targets.extend(live_in(Some(*dc), *needed)),
            Quota::PerDc(dcs) => {
                for &(dc, needed, _) in dcs {
                    self.targets.extend(live_in(Some(dc), needed));
                }
            }
        }
        self.targets.len() as u32 >= quota.needed()
    }

    /// Keep only the live replicas, then decide the read repair fan-out:
    /// with more live than the quota's `needed`, `coin()` (drawn only then)
    /// probes every live one, for scans too (Cassandra's range slice
    /// resolver: what couples scan cost to the replication factor). Returns
    /// whether it fans out and whom to ask, in send order: a read's probe in
    /// ring order, a scan's after its targets, which alone settle a round.
    pub(crate) fn repair(
        &mut self,
        needed: u32,
        scan: bool,
        up: impl Fn(NodeId) -> bool,
        coin: impl FnOnce() -> bool,
    ) -> (bool, &[NodeId]) {
        self.replicas.retain(|&r| up(r));
        if self.replicas.len() as u32 <= needed || !coin() {
            return (false, &self.targets);
        }
        if !scan {
            return (true, &self.replicas);
        }
        for &r in &self.replicas {
            if !self.targets.contains(&r) {
                self.targets.push(r);
            }
        }
        (true, &self.targets)
    }
}

/// A write in flight to every live replica; the quota gates the answer.
#[derive(Debug, Clone)]
pub(crate) struct WriteState {
    expected: u32,
    acks: u32,
    responded: bool,
    /// When the replica fan-out left the coordinator (quorum-wait start),
    /// which is also the write's timestamp.
    pub(crate) fanout_at: SimTime,
    quota: Quota,
}

impl WriteState {
    /// A write sent to `expected` replicas at `fanout_at`.
    pub(crate) fn new(quota: Quota, expected: u32, fanout_at: SimTime) -> Self {
        let (acks, responded) = (0, false);
        Self {
            expected,
            acks,
            responded,
            fanout_at,
            quota,
        }
    }

    /// Count an ack from a replica in `region`. Returns whether the quota
    /// was just met, so the client is answered now, and whether all acked.
    pub(crate) fn ack(&mut self, region: u32) -> (bool, bool) {
        self.acks += 1;
        debug_assert!(self.acks <= self.expected, "more acks than replicas");
        let settled = self.quota.ack(region, self.acks);
        let respond = settled && !self.responded;
        self.responded |= settled;
        (respond, self.acks >= self.expected)
    }
}

/// A read in flight, collecting its replicas' answers.
#[derive(Debug, Clone)]
pub(crate) struct ReadState {
    /// The read key, for the repair writes.
    pub(crate) key: Key,
    needed: u32,
    expected: u32,
    /// A repair fan-out: every live replica was asked.
    fanout: bool,
    responded: bool,
    /// The answers in arrival order; an emptied buffer once the read ends.
    pub(crate) results: Vec<(NodeId, Option<Cell>)>,
    /// When the replica fan-out left the coordinator (quorum-wait start).
    pub(crate) fanout_at: SimTime,
}

/// What one replica answer does to a read.
#[derive(Debug)]
pub(crate) struct ReadStep {
    /// `Some(answer)` when the client is answered now: the newest cell,
    /// `None` for no version or a tombstone.
    pub(crate) respond: Option<Option<Cell>>,
    /// Every asked replica has answered: the read ends.
    pub(crate) finished: bool,
    /// Once finished, the replicas that lack the newest cell, and that cell
    /// to repair them with.
    pub(crate) stale: Vec<NodeId>,
    pub(crate) repair: Option<Cell>,
    /// Once finished, whether the first `needed` answers disagreed.
    pub(crate) digest_mismatch: bool,
}

impl ReadState {
    /// A read of `key` asking `expected` replicas at `fanout_at`, settled by
    /// `needed` of them, or all with a repair `fanout`; `results` is empty.
    pub(crate) fn new(
        key: Key,
        needed: u32,
        expected: u32,
        fanout: bool,
        results: Vec<(NodeId, Option<Cell>)>,
        fanout_at: SimTime,
    ) -> Self {
        Self {
            key,
            needed,
            expected,
            fanout,
            responded: false,
            results,
            fanout_at,
        }
    }

    /// Take `node`'s answer.
    pub(crate) fn answer(&mut self, node: NodeId, cell: Option<Cell>) -> ReadStep {
        let r = &mut self.results;
        r.push((node, cell));
        let received = r.len() as u32;
        debug_assert!(received <= self.expected, "more answers than asked");
        // A repair fan-out blocks the response until every contacted
        // replica answers (Cassandra 2.0's ReadCallback raises blockfor
        // when read repair is active); otherwise the consistency quota
        // releases the client.
        let release_at = if self.fanout {
            self.expected
        } else {
            self.needed
        };
        let respond = !self.responded && received >= release_at;
        self.responded |= respond;
        let finished = received >= self.expected;
        let winner = newest(r).filter(|_| respond || finished).cloned();
        let (mut stale, mut digest_mismatch) = (Vec::new(), false);
        if finished {
            // The replicas that lack the winner: an older version, none, or
            // another cell of the same timestamp.
            if let Some(w) = &winner {
                stale = (r.iter().filter(|(_, c)| c.as_ref() != Some(w)))
                    .map(|(n, _)| *n)
                    .collect();
            }
            // Mismatch within the answering quota = a digest mismatch.
            let version = |c: &Option<Cell>| c.as_ref().map_or(0, |c| c.ts);
            digest_mismatch = r[..self.needed.min(received) as usize]
                .windows(2)
                .any(|w| version(&w[0].1) != version(&w[1].1));
        }
        let respond = respond.then(|| winner.clone().filter(|c| !c.is_tombstone()));
        let repair = winner.filter(|_| !stale.is_empty());
        ReadStep {
            respond,
            finished,
            stale,
            repair,
            digest_mismatch,
        }
    }
}

/// The last-write-wins winner among replica answers.
fn newest(results: &[(NodeId, Option<Cell>)]) -> Option<&Cell> {
    results
        .iter()
        .filter_map(|(_, c)| c.as_ref())
        .reduce(Cell::newer)
}

/// A scan walking ring ranges, one round of replica pages per range.
#[derive(Debug, Clone, Default)]
pub(crate) struct ScanState {
    limit: usize,
    needed_this_round: u32,
    received_this_round: u32,
    /// This round's pages; an emptied buffer once the scan ends.
    pub(crate) partials: Vec<Rows>,
    collected: Rows,
    /// A ring position, as `u32`: with the rows collected a piece wide, it
    /// keeps the state, and so every in-flight op's slot, at 88 bytes.
    current_primary: u32,
    rounds: u32,
    /// When the current round's fan-out left the coordinator.
    pub(crate) round_started: SimTime,
}

/// What a scan does after one replica's page.
#[derive(Debug)]
pub(crate) enum Page {
    /// Wait for the rest of the round's pages.
    Wait,
    /// Read the range whose primary is ring position `.0`, from key `.1`,
    /// for up to `.2` more rows.
    Round(usize, Key, usize),
    /// Answer the client with these rows.
    Done(Rows),
}

impl ScanState {
    /// A scan for up to `limit` rows from the range whose primary is ring
    /// position `current_primary`; `partials` is an empty page buffer.
    pub(crate) fn new(limit: usize, current_primary: usize, partials: Vec<Rows>) -> Self {
        Self {
            limit,
            partials,
            current_primary: current_primary as u32,
            ..Self::default()
        }
    }

    /// Start a round, sent at `at`, that `needed` pages settle.
    pub(crate) fn round(&mut self, needed: u32, at: SimTime) {
        self.needed_this_round = needed;
        self.received_this_round = 0;
        self.partials.clear();
        self.round_started = at;
    }

    /// Take one replica's page of the current range; the round's last one
    /// reconciles them with `reconciler`.
    pub(crate) fn page(&mut self, rows: Rows, ring: &Ring, reconciler: &mut Reconciler) -> Page {
        self.partials.push(rows);
        self.received_this_round += 1;
        if self.received_this_round < self.needed_this_round {
            return Page::Wait;
        }
        // Round complete: reconcile this range across its replicas.
        let remaining = self.limit - self.collected.len();
        let (mut merged, resume) = reconciler.reconcile(&mut self.partials, remaining);
        merged.truncate(remaining);
        self.collected.append(merged);
        let left = self.limit - self.collected.len();
        let mut primary = self.current_primary as usize;
        let start = if left == 0 {
            None
        } else if resume.is_some() {
            // Short-read protection: a full page stopped before the rest of
            // the range, and tombstones ate into the rows it returned, so
            // the range is read again past what every replica covered.
            resume
        } else if self.rounds + 1 < ring.len() as u32 && ring.range_end(primary).is_some() {
            // On to the next range unless the ring ends (a range with no
            // start is the end of the ring too).
            primary = ring.successor(primary);
            self.current_primary = primary as u32;
            self.rounds += 1;
            ring.range_start(primary).cloned()
        } else {
            None
        };
        match start {
            Some(start) => Page::Round(primary, start, left),
            None => Page::Done(std::mem::take(&mut self.collected)),
        }
    }
}

#[cfg(test)]
mod tests {
    //! Bounded-exhaustive order tests: every delivery order of the replica
    //! answers an op can get, checked against oracles written apart from
    //! the code above. Replica `i` lives in datacenter `i / 3`: one
    //! datacenter of three replicas, or two of three each.

    use super::*;
    use crate::ring::{Partitioner, Strategy};
    use bytes::Bytes;
    use storage::{LsmConfig, LsmTree};

    const LEVELS: [Consistency; 5] = [
        Consistency::One,
        Consistency::Quorum,
        Consistency::LocalQuorum,
        Consistency::EachQuorum,
        Consistency::All,
    ];

    fn region(r: NodeId) -> u32 {
        r.0 / 3
    }

    /// `(datacenters, the coordinator's datacenter when there are two)`.
    const SETUPS: [(u32, Option<u32>); 2] = [(1, None), (2, Some(0))];

    /// Every order of `0..n`.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for rest in permutations(n - 1) {
            for at in 0..=rest.len() {
                let mut p = rest.clone();
                p.insert(at, n - 1);
                out.push(p);
            }
        }
        out
    }

    /// Whether the acks of `acked` meet `cl` over `dcs` datacenters of
    /// three replicas each, with the coordinator in datacenter 0.
    fn met(cl: Consistency, dcs: u32, acked: &[NodeId]) -> bool {
        let in_dc = |dc| acked.iter().filter(|&&r| region(r) == dc).count();
        let n = acked.len();
        match cl {
            Consistency::One => n >= 1,
            Consistency::Quorum => n as u32 > 3 * dcs / 2,
            Consistency::All => n as u32 == 3 * dcs,
            Consistency::LocalQuorum => in_dc(0) >= 2,
            Consistency::EachQuorum => (0..dcs).all(|dc| in_dc(dc) >= 2),
        }
    }

    fn plan(cl: Consistency, dcs: u32, home: Option<u32>) -> (FanOut, Quota) {
        let replicas: Vec<NodeId> = (0..3 * dcs).map(NodeId).collect();
        let quota = Quota::new(cl, 3 * dcs, home, &replicas, region);
        let mut f = FanOut {
            replicas,
            targets: Vec::new(),
        };
        assert!(
            f.pick(&quota, region, |_| true),
            "{cl}: all replicas are up"
        );
        (f, quota)
    }

    #[test]
    fn a_write_answers_once_when_its_level_is_first_met() {
        for (dcs, home) in SETUPS {
            for cl in LEVELS {
                let (f, quota) = plan(cl, dcs, home);
                let sent = f.replicas;
                for order in permutations(sent.len()) {
                    let acked: Vec<NodeId> = order.iter().map(|&i| sent[i]).collect();
                    let mut w = WriteState::new(quota.clone(), sent.len() as u32, 7);
                    let mut responses = 0;
                    for (i, &r) in acked.iter().enumerate() {
                        let (respond, done) = w.ack(region(r));
                        let first = met(cl, dcs, &acked[..=i]) && !met(cl, dcs, &acked[..i]);
                        assert_eq!(respond, first, "{cl}, {dcs} DCs, acks {acked:?}");
                        assert_eq!(done, i + 1 == acked.len());
                        responses += usize::from(respond);
                    }
                    assert_eq!(responses, 1, "{cl}, {dcs} DCs, acks {acked:?}");
                }
            }
        }
    }

    fn k(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// What replica `i` holds in each scenario: the newest cell on most,
    /// one older cell, one replica with nothing, and one equal-timestamp
    /// cell that loses the tie-break (or a newest tombstone).
    fn scenarios() -> Vec<Vec<Option<Cell>>> {
        let (new, old) = (Cell::live(k("new"), 20), Cell::live(k("old"), 10));
        let (tie, dead) = (Cell::live(k("lost"), 20), Cell::tombstone(20));
        vec![
            vec![
                Some(new.clone()),
                Some(old.clone()),
                None,
                Some(new.clone()),
                None,
                Some(old),
            ],
            vec![
                None,
                Some(new.clone()),
                Some(tie.clone()),
                Some(tie),
                Some(new.clone()),
                None,
            ],
            vec![
                Some(dead.clone()),
                None,
                Some(new.clone()),
                Some(new),
                Some(dead),
                None,
            ],
        ]
    }

    #[test]
    fn a_read_answers_once_with_the_newest_and_repairs_exactly_the_rest() {
        for (dcs, home) in SETUPS {
            for cl in LEVELS {
                for coin in [false, true] {
                    for held in scenarios() {
                        check_read(cl, dcs, home, coin, &held);
                    }
                }
            }
        }
    }

    fn check_read(cl: Consistency, dcs: u32, home: Option<u32>, coin: bool, held: &[Option<Cell>]) {
        let (mut f, quota) = plan(cl, dcs, home);
        let needed = quota.needed();
        let (fanout, asked) = f.repair(needed, false, |_| true, || coin);
        assert_eq!(fanout, coin && 3 * dcs > needed, "{cl}, {dcs} DCs");
        if fanout {
            let ring_order: Vec<NodeId> = (0..3 * dcs).map(NodeId).collect();
            assert_eq!(
                asked, ring_order,
                "a read repair asks every replica in ring order"
            );
        }
        let asked = asked.to_vec();
        let release = if fanout { asked.len() } else { needed as usize };
        let holding = |r: NodeId| held[r.index()].clone();
        let newest = |answered: &[NodeId]| {
            answered
                .iter()
                .filter_map(|&r| holding(r))
                .reduce(Cell::reconcile)
        };
        for order in permutations(asked.len()) {
            let answered: Vec<NodeId> = order.iter().map(|&i| asked[i]).collect();
            let case = format!("{cl}, {dcs} DCs, fan-out {fanout}, answers {answered:?}");
            let mut r = ReadState::new(k("key"), needed, asked.len() as u32, fanout, Vec::new(), 0);
            let mut responses = 0;
            for (i, &node) in answered.iter().enumerate() {
                let step = r.answer(node, holding(node));
                let received = &answered[..=i];
                if let Some(answer) = step.respond {
                    assert_eq!(received.len(), release, "answered early or late: {case}");
                    let winner = newest(received).filter(|c| !c.is_tombstone());
                    assert_eq!(answer, winner, "not the newest answer: {case}");
                    responses += 1;
                }
                assert_eq!(step.finished, received.len() == asked.len(), "{case}");
                if !step.finished {
                    assert!(step.stale.is_empty() && step.repair.is_none(), "{case}");
                    continue;
                }
                let winner = newest(received);
                let stale: Vec<NodeId> = match &winner {
                    Some(w) => received
                        .iter()
                        .copied()
                        .filter(|&r| holding(r).as_ref() != Some(w))
                        .collect(),
                    None => Vec::new(),
                };
                assert_eq!(step.stale, stale, "stale set: {case}");
                assert_eq!(step.repair, winner.filter(|_| !stale.is_empty()), "{case}");
                let first: Vec<u64> = received[..needed as usize]
                    .iter()
                    .map(|&r| holding(r).map_or(0, |c| c.ts))
                    .collect();
                let mismatch = first.windows(2).any(|w| w[0] != w[1]);
                assert_eq!(step.digest_mismatch, mismatch, "digest mismatch: {case}");
            }
            assert_eq!(responses, 1, "{case}");
        }
    }

    #[test]
    fn a_scan_repair_asks_its_targets_first() {
        let (mut f, quota) = plan(Consistency::LocalQuorum, 2, Some(1));
        let targets = f.targets.clone();
        let (fanout, asked) = f.repair(quota.needed(), true, |_| true, || true);
        assert!(fanout);
        assert_eq!(&asked[..2], &targets, "the local quorum leads");
        let mut rest = asked[2..].to_vec();
        rest.sort();
        assert_eq!(rest, [0, 1, 2, 5].map(NodeId), "then every other replica");
    }

    #[test]
    fn a_down_replica_is_never_asked() {
        for (dcs, home) in SETUPS {
            for cl in LEVELS {
                let (mut f, quota) = plan(cl, dcs, home);
                let up = |r: NodeId| r.0 != 1;
                let available = f.pick(&quota, region, up);
                assert_eq!(available, cl != Consistency::All, "{cl}, {dcs} DCs");
                assert!(!f.targets.contains(&NodeId(1)), "{cl}, {dcs} DCs");
                let (_, asked) = f.repair(quota.needed(), false, up, || true);
                assert!(!asked.contains(&NodeId(1)), "{cl}, {dcs} DCs");
            }
        }
    }

    /// A four-node ordered ring: node `i`'s range starts at `TOKENS[i]`.
    const TOKENS: [&str; 4] = ["a", "g", "m", "s"];

    fn ring() -> Ring {
        let tokens = TOKENS.iter().map(|t| k(t)).collect();
        Ring::new(4, Partitioner::order_preserving(tokens), Strategy::Simple)
    }

    /// A replica's page of the range whose primary is `primary`, read from
    /// `start` for `limit` rows, holding `rows` (`None` = a tombstone).
    fn page(rows: &[(&str, Option<&str>, u64)], primary: usize, start: &str, limit: usize) -> Rows {
        let mut lsm = LsmTree::new(LsmConfig::default());
        for &(key, value, ts) in rows {
            let cell = value.map_or(Cell::tombstone(ts), |v| Cell::live(k(v), ts));
            lsm.put(k(key), cell);
        }
        let mut page = lsm.scan_page(start.as_bytes(), limit).rows;
        if let Some(end) = ring().range_end(primary) {
            page.clamp(end);
        }
        page
    }

    /// Feed one round's `pages` in every order; every order must end the
    /// same way. Returns that ending.
    fn settle(limit: usize, primary: usize, pages: &[Rows]) -> String {
        let ring = ring();
        // One reconciler for every order, as a coordinator keeps one.
        let mut reconciler = Reconciler::default();
        let mut endings = permutations(pages.len()).into_iter().map(|order| {
            let mut s = ScanState::new(limit, primary, Vec::new());
            s.round(pages.len() as u32, 0);
            let mut last = Page::Wait;
            for (i, &p) in order.iter().enumerate() {
                last = s.page(pages[p].clone(), &ring, &mut reconciler);
                assert_eq!(matches!(last, Page::Wait), i + 1 < pages.len());
            }
            format!("{last:?}")
        });
        let first = endings.next().expect("one order at least");
        endings.for_each(|e| assert_eq!(e, first, "page order changed the outcome"));
        first
    }

    #[test]
    fn scan_rounds_end_alike_under_every_page_order() {
        let rows = [
            ("b", Some("1"), 1),
            ("c", Some("1"), 1),
            ("d", Some("1"), 1),
        ];
        let behind = [
            ("b", Some("1"), 1),
            ("c", None, 2),
            ("d", Some("1"), 1),
            ("e", None, 2),
        ];
        // Enough live rows: the scan is done.
        let full = [
            page(&rows, 0, "a", 2),
            page(&rows, 0, "a", 2),
            page(&[], 0, "a", 2),
        ];
        let done = settle(2, 0, &full);
        assert!(done.starts_with("Done"), "{done}");
        // A full page whose tail another replica deleted: read the range
        // again past it.
        let cut = [
            page(&rows, 0, "a", 2),
            page(&behind, 0, "a", 2),
            page(&rows, 0, "a", 2),
        ];
        let again = settle(2, 0, &cut);
        assert!(again.starts_with("Round(0, "), "{again}");
        // A short range: on to the next one, for the rows still missing.
        let short = [
            page(&rows, 0, "a", 5),
            page(&behind, 0, "a", 5),
            page(&[], 0, "a", 5),
        ];
        let next = settle(5, 0, &short);
        assert!(
            next.starts_with("Round(1, ") && next.ends_with(", 3)"),
            "{next}"
        );
        // The ring's last range: nothing follows.
        let last = [
            page(&[("t", Some("1"), 1)], 3, "s", 5),
            page(&[], 3, "s", 5),
        ];
        let end = settle(5, 3, &last);
        assert!(end.starts_with("Done"), "{end}");
    }
}
