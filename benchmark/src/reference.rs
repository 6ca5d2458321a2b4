//! The reference kernel: how fast is the box *right now*?
//!
//! The sandbox is a 2-vCPU VM on a shared host. Its memory system slows
//! down and speeds up in phases that last tens of seconds (the same
//! deterministic repetition took 0.47 s to 0.88 s, 1.5 s at worst, CPU time
//! equal to wall time, an ALU-only loop unaffected), so no estimator over a
//! ten-second window of raw host time — fastest, median, any quantile —
//! repeats between runs as well as the same estimator divided by a fixed
//! piece of work with a similar memory profile, timed right after every
//! repetition (`README.md` has both tables).
//!
//! One pass is pointer-heavy `std` code over a working set of tens of MB,
//! like the simulator: ordered-map lookups by byte-string key, hash-map
//! lookups, a hold-model priority-queue churn, and scattered
//! read-modify-writes over a slab. It calls nothing in `crates/` and
//! allocates nothing after [`Reference::new`], so neither the program under
//! test nor the heap state it leaves behind is on its path; what the two
//! still share is the machine (caches, TLB, memory bandwidth), which is the
//! point. It is the same on the two commits a comparison runs.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::workloads::Size;

/// Work per full-size pass, in units of a thousand operations.
const FULL_KILO_OPS: u64 = 60;
/// Host seconds of one full-size pass on this box when it is quiet. Only a
/// scale: it makes calibrated throughput read as ops per host second.
const NOMINAL_PASS_S: f64 = 0.052;

/// Seed of the stream the hash map's keys are drawn from.
const MAP_STREAM: u64 = 11;
/// Events the hold model keeps pending.
const PENDING: u64 = 1_000;

/// splitmix64: cheap, deterministic, dependency-free.
pub fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The state one pass reads and writes: built once per process.
pub struct Reference {
    keys: Vec<Vec<u8>>,
    tree: BTreeMap<Vec<u8>, Vec<u8>>,
    map: HashMap<u64, u64>,
    heap: BinaryHeap<Reverse<(u64, [u64; 8])>>,
    slab: Vec<u64>,
    /// Work per pass, in units of a thousand operations.
    kilo_ops: u64,
}

impl Reference {
    /// Build the state (≈35 MB at full size).
    pub fn new(size: Size) -> Self {
        let kilo_ops = match size {
            Size::Full => FULL_KILO_OPS,
            Size::Smoke => 2,
        };
        let mut x = 7u64;
        let keys: Vec<Vec<u8>> = (0..kilo_ops * 1_000)
            .map(|_| format!("user{:020}", mix(&mut x)).into_bytes())
            .collect();
        let tree = keys.iter().map(|k| (k.clone(), vec![7u8; 100])).collect();
        let mut m = MAP_STREAM;
        let map = (0..kilo_ops * 5_000).map(|i| (mix(&mut m), i)).collect();
        Self {
            keys,
            tree,
            map,
            heap: BinaryHeap::with_capacity(PENDING as usize),
            // Written, not zero-allocated: every page is resident from here on.
            slab: (0..kilo_ops * 20_000).collect(),
            kilo_ops,
        }
    }

    /// Host seconds of one pass of this size on the quiet box.
    pub fn nominal_pass_s(&self) -> f64 {
        NOMINAL_PASS_S * self.kilo_ops as f64 / FULL_KILO_OPS as f64
    }

    /// One pass; returns the host seconds it took.
    pub fn pass(&mut self) -> f64 {
        let n = self.kilo_ops * 1_000;
        let start = Instant::now();
        let mut x = 99u64;
        let mut acc = 0u64;
        for _ in 0..n / 2 {
            let key = &self.keys[(mix(&mut x) % self.keys.len() as u64) as usize];
            acc += self.tree.get(key).map_or(0, |v| v.len() as u64);
        }
        // Replays the stream the map's keys were drawn from: every one hits.
        let mut y = MAP_STREAM;
        for _ in 0..n * 4 {
            acc += self.map.get(&mix(&mut y)).copied().unwrap_or(0) & 1;
        }
        // The heap never holds more than it was allocated for.
        self.heap.clear();
        for i in 0..PENDING {
            self.heap.push(Reverse((mix(&mut x) % 1_000_000, [i; 8])));
        }
        for _ in 0..n * 3 {
            if let Some(Reverse((t, payload))) = self.heap.pop() {
                acc += payload[0] & 1;
                self.heap.push(Reverse((t + 1 + mix(&mut x) % 512, [7; 8])));
            }
        }
        let slots = self.slab.len() as u64;
        for _ in 0..n * 4 {
            let slot = &mut self.slab[(mix(&mut x) % slots) as usize];
            *slot = slot.wrapping_add(acc | 1);
        }
        black_box((acc, self.slab[0]));
        start.elapsed().as_secs_f64()
    }
}
