//! Integration tests pinning the consistency *semantics* (not performance)
//! of the two stores across failure and repair scenarios.

use bytes::Bytes;
use cloudserve::bench_core::setup::{build_cstore, build_cstore_with, Scale};
use cloudserve::bench_core::{DriverEvent, SimStore};
use cloudserve::cstore::{Cluster, Consistency, Event};
use cloudserve::faults::FaultTarget;
use cloudserve::simkit::Sim;
use cloudserve::storage::{OpError, OpResult, StoreOp};
use cloudserve::ycsb::encode_key;

type Dsim = Sim<DriverEvent<Event>>;

struct H {
    c: Cluster,
    sim: Dsim,
    next: u64,
}

impl H {
    fn new(c: Cluster) -> Self {
        Self {
            c,
            sim: Sim::new(99),
            next: 1,
        }
    }

    fn op(&mut self, op: StoreOp) -> OpResult {
        let t = self.next;
        self.next += 1;
        self.c.submit(&mut self.sim, t, op);
        while let Some(ev) = self.sim.next() {
            if let DriverEvent::Store(ev) = ev {
                self.c.handle(&mut self.sim, ev);
            }
            if let Some(done) = self
                .c
                .drain_completions()
                .into_iter()
                .find(|c| c.token == t)
            {
                // Drain remaining events so background repair settles.
                while let Some(ev) = self.sim.next() {
                    if let DriverEvent::Store(ev) = ev {
                        self.c.handle(&mut self.sim, ev);
                    }
                    self.c.drain_completions();
                }
                return done.result;
            }
        }
        panic!("op never completed");
    }

    fn write(&mut self, id: u64, val: &str) -> OpResult {
        self.op(StoreOp::Update {
            key: encode_key(id),
            value: Bytes::copy_from_slice(val.as_bytes()),
        })
    }

    fn read(&mut self, id: u64) -> Option<Vec<u8>> {
        match self.op(StoreOp::Read {
            key: encode_key(id),
        }) {
            OpResult::Value(v) => v.and_then(|c| c.value.map(|b| b.to_vec())),
            other => panic!("read failed: {other:?}"),
        }
    }
}

fn cluster(read: Consistency, write: Consistency) -> Cluster {
    build_cstore(&Scale::tiny(), 3, read, write)
}

#[test]
fn quorum_survives_any_single_failure_with_read_your_writes() {
    for victim_idx in 0..3 {
        let mut h = H::new(cluster(Consistency::Quorum, Consistency::Quorum));
        h.write(5, "before");
        let reps = h.c.replicas(&encode_key(5));
        h.c.apply_crash(&mut h.sim, reps[victim_idx]);
        assert!(matches!(h.write(5, "after"), OpResult::Written { .. }));
        assert_eq!(
            h.read(5).as_deref(),
            Some(&b"after"[..]),
            "read-your-writes must hold with replica {victim_idx} down"
        );
    }
}

#[test]
fn write_all_fails_but_quorum_succeeds_under_one_failure() {
    let mut h = H::new(cluster(Consistency::One, Consistency::All));
    let reps = h.c.replicas(&encode_key(9));
    h.c.apply_crash(&mut h.sim, reps[1]);
    assert_eq!(
        h.op(StoreOp::Update {
            key: encode_key(9),
            value: Bytes::from_static(b"x"),
        }),
        OpResult::Error(OpError::Unavailable),
        "ALL requires every replica"
    );
    let mut h = H::new(cluster(Consistency::Quorum, Consistency::Quorum));
    let reps = h.c.replicas(&encode_key(9));
    h.c.apply_crash(&mut h.sim, reps[1]);
    assert!(matches!(h.write(9, "x"), OpResult::Written { .. }));
}

#[test]
fn two_failures_break_quorum_but_not_one() {
    let mut h = H::new(cluster(Consistency::Quorum, Consistency::Quorum));
    let reps = h.c.replicas(&encode_key(1));
    h.c.apply_crash(&mut h.sim, reps[1]);
    h.c.apply_crash(&mut h.sim, reps[2]);
    assert_eq!(
        h.op(StoreOp::Update {
            key: encode_key(1),
            value: Bytes::from_static(b"x"),
        }),
        OpResult::Error(OpError::Unavailable)
    );
    let mut h = H::new(cluster(Consistency::One, Consistency::One));
    let reps = h.c.replicas(&encode_key(1));
    h.c.apply_crash(&mut h.sim, reps[1]);
    h.c.apply_crash(&mut h.sim, reps[2]);
    assert!(matches!(h.write(1, "x"), OpResult::Written { .. }));
    assert_eq!(h.read(1).as_deref(), Some(&b"x"[..]));
}

#[test]
fn hinted_handoff_converges_all_replicas_after_recovery() {
    let mut h = H::new(cluster(Consistency::One, Consistency::One));
    let reps = h.c.replicas(&encode_key(7));
    let victim = reps[2];
    h.write(7, "v1");
    h.c.apply_crash(&mut h.sim, victim);
    h.write(7, "v2");
    assert!(h.c.metrics().hints_stored >= 1);
    // Recover; hints replay through the event loop.
    h.c.apply_recover(&mut h.sim, victim);
    let mut sim = std::mem::replace(&mut h.sim, Sim::new(0));
    while let Some(ev) = sim.next() {
        if let DriverEvent::Store(ev) = ev {
            h.c.handle(&mut sim, ev);
        }
        h.c.drain_completions();
    }
    h.sim = sim;
    let cell =
        h.c.read_local(victim, &encode_key(7))
            .expect("hint applied");
    assert_eq!(cell.value.as_deref(), Some(&b"v2"[..]));
    assert!(h.c.metrics().hints_replayed >= 1);
}

#[test]
fn read_repair_converges_all_replicas_under_full_fanout() {
    let mut h = H::new(build_cstore_with(
        &Scale::tiny(),
        3,
        Consistency::One,
        Consistency::One,
        |c| {
            c.read_repair_chance = 1.0;
            c.hinted_handoff = false;
        },
    ));
    let reps = h.c.replicas(&encode_key(3));
    h.write(3, "old");
    h.c.apply_crash(&mut h.sim, reps[2]);
    h.write(3, "new");
    h.c.hw_mut(reps[2]).recover();
    // One read with guaranteed fan-out repairs the lagging replica.
    let _ = h.read(3);
    for &r in &reps {
        let cell = h.c.read_local(r, &encode_key(3)).expect("present");
        assert_eq!(
            cell.value.as_deref(),
            Some(&b"new"[..]),
            "replica {r} not converged"
        );
    }
}

#[test]
fn deletes_propagate_as_tombstones_across_replicas() {
    let mut h = H::new(cluster(Consistency::Quorum, Consistency::Quorum));
    h.write(11, "soon gone");
    assert!(matches!(
        h.op(StoreOp::Delete {
            key: encode_key(11)
        }),
        OpResult::Written { .. }
    ));
    assert_eq!(h.read(11), None);
    // Every replica holds the tombstone, not the value.
    for r in h.c.replicas(&encode_key(11)) {
        let cell = h.c.read_local(r, &encode_key(11)).expect("tombstone");
        assert!(cell.is_tombstone());
    }
}

#[test]
fn timestamps_resolve_write_races_identically_everywhere() {
    // Two racing writes through different coordinators: all replicas must
    // converge on the same winner (the one with the later coordinator
    // timestamp), and a quorum read returns it.
    let mut h = H::new(cluster(Consistency::Quorum, Consistency::Quorum));
    h.write(20, "first");
    h.write(20, "second");
    assert_eq!(h.read(20).as_deref(), Some(&b"second"[..]));
    let reps = h.c.replicas(&encode_key(20));
    let versions: Vec<_> = reps
        .iter()
        .map(|&r| h.c.read_local(r, &encode_key(20)).expect("present"))
        .collect();
    assert!(
        versions.windows(2).all(|w| w[0] == w[1]),
        "replicas diverged: {versions:?}"
    );
}
