//! The event queue under the hold model: a fixed pending population,
//! pop-one/push-one with a near-future increment — the access pattern a
//! discrete-event simulation actually generates. The calendar queue's O(1)
//! bucket hashing keeps the per-event cost flat as the population grows.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use simkit::EventQueue;

/// Payload sized like the cluster models' fat event enums.
type FatEvent = [u64; 12];

/// Deterministic splitmix64 increment stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn filled(pending: usize) -> EventQueue<FatEvent> {
    let mut q = EventQueue::new();
    let mut s = 1u64;
    for i in 0..pending as u64 {
        q.push(splitmix(&mut s) % 1_000_000, [i; 12]);
    }
    q
}

fn bench_churn(c: &mut Criterion) {
    for pending in [1_000usize, 100_000, 1_000_000] {
        let mut q = filled(pending);
        let mut s = 2u64;
        c.bench_function(&format!("queue_churn/calendar/pending_{pending}"), |b| {
            b.iter(|| {
                let (t, ev) = q.pop().expect("population never drains");
                q.push(t + 1 + splitmix(&mut s) % 512, ev);
                black_box(t)
            });
        });
    }
}

criterion_group!(benches, bench_churn);
criterion_main!(benches);
