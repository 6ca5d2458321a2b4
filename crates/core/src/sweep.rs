//! The shared parallel experiment engine.
//!
//! Every figure in the paper is a *grid* of independent cells — (store,
//! replication factor, operation/workload/consistency-level, target) — and
//! every cell is one deterministic simulated run. This module is the
//! scheduling half of that procedure (`experiment` is the other):
//!
//! * **self-scheduling executor**: worker threads pull the next unclaimed
//!   cell index from a shared atomic counter, so long cells (high RF,
//!   scan-heavy) never leave workers idle behind a static partition;
//! * **ordered collection**: results are returned in cell order no matter
//!   which worker ran them, so output is bit-identical at any worker count;
//! * **telemetry**: per-worker busy time, pool utilization, and base-state
//!   load accounting.
//!
//! Cells obtain their data from a `BasePool`: each group of cells whose
//! stores would load the same data is bulk-loaded exactly once, and every
//! cell of the group holds an O(metadata) copy-on-write snapshot of it —
//! the load phase that used to dominate grid wall time is paid once per
//! group, not once per cell.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// What one sweep cost: per-worker wall time plus base-state load
/// accounting (filled in by the experiment via `Telemetry::record_pool`).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Cells run.
    pub cell_count: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock microseconds for the whole sweep.
    pub wall_us: u64,
    /// Busy microseconds per worker.
    pub busy_us: Vec<u64>,
    /// Base states built and bulk-loaded.
    pub base_loads: u64,
    /// Distinct base states (groups of cells that load alike) across the
    /// experiment's pools.
    pub base_states: u64,
    /// Worker microseconds spent building and loading base states.
    pub base_load_us: u64,
    /// Worker microseconds spent blocked on a base state another worker
    /// was loading.
    pub base_wait_us: u64,
}

impl Telemetry {
    /// Fraction of worker wall time spent running cells (1.0 = perfectly
    /// packed); time a cell spent waiting for another worker's base load
    /// does not count.
    pub(crate) fn utilization(&self) -> f64 {
        let busy: u64 = self.busy_us.iter().sum();
        let busy = busy.saturating_sub(self.base_wait_us);
        let denom = self.wall_us.saturating_mul(self.workers as u64);
        if denom == 0 {
            0.0
        } else {
            busy as f64 / denom as f64
        }
    }

    /// Fold a pool's load accounting into the telemetry.
    pub(crate) fn record_pool<S>(&mut self, pool: &BasePool<S>) {
        self.base_loads += pool.loads();
        self.base_states += pool.len() as u64;
        self.base_load_us += pool.load_us.load(Ordering::Relaxed);
        self.base_wait_us += pool.wait_us.load(Ordering::Relaxed);
    }

    /// One-line human summary for the figure binaries' stderr.
    pub fn summary(&self) -> String {
        format!(
            "sweep: {} cells on {} workers in {:.2}s, utilization {:.0}%, {} base loads for {} base states ({:.2}s loading, {:.2}s waiting)",
            self.cell_count,
            self.workers,
            self.wall_us as f64 / 1e6,
            self.utilization() * 100.0,
            self.base_loads,
            self.base_states,
            self.base_load_us as f64 / 1e6,
            self.base_wait_us as f64 / 1e6,
        )
    }
}

/// A sweep's results (in cell order) and its cost accounting.
#[derive(Debug, Clone)]
pub struct SweepOutcome<R> {
    /// One result per cell, in the order the cells were specified.
    pub results: Vec<R>,
    /// Wall-time and load accounting.
    pub telemetry: Telemetry,
}

/// A pool of lazily-built base states, one per group of cells. Each
/// group's state is built **exactly once**, even under concurrent access
/// from many sweep workers; cells take O(metadata) copy-on-write snapshots
/// of it.
pub(crate) struct BasePool<S> {
    slots: Vec<OnceLock<S>>,
    loads: AtomicU64,
    /// Microseconds spent in `load` closures.
    load_us: AtomicU64,
    /// Microseconds callers spent blocked on another caller's `load`.
    wait_us: AtomicU64,
}

impl<S> BasePool<S> {
    /// A pool serving `groups` base states.
    pub(crate) fn new(groups: usize) -> Self {
        Self {
            slots: (0..groups).map(|_| OnceLock::new()).collect(),
            loads: AtomicU64::new(0),
            load_us: AtomicU64::new(0),
            wait_us: AtomicU64::new(0),
        }
    }

    /// The base state of `group`, building it with `load` on first access.
    /// A call that finds the state built costs nothing; otherwise its time
    /// counts as loading if this call ran `load`, and as waiting if it
    /// blocked on another caller that did.
    ///
    /// # Panics
    /// If the pool serves no more than `group` states.
    pub(crate) fn get_or_load(&self, group: usize, load: impl FnOnce() -> S) -> &S {
        let slot = &self.slots[group];
        if let Some(state) = slot.get() {
            return state;
        }
        let started = Instant::now();
        let mut loaded = false;
        let state = slot.get_or_init(|| {
            loaded = true;
            self.loads.fetch_add(1, Ordering::Relaxed);
            load()
        });
        let spent = if loaded { &self.load_us } else { &self.wait_us };
        spent.fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        state
    }

    /// How many base states have actually been built and loaded.
    pub(crate) fn loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// How many base states the pool serves.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

/// `SWEEP_THREADS` held something other than a positive integer (the value
/// is carried for the message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadSweepThreads(pub String);

impl std::fmt::Display for BadSweepThreads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SWEEP_THREADS must be a positive integer, got {:?}",
            self.0
        )
    }
}

impl std::error::Error for BadSweepThreads {}

/// The engine: how many scoped worker threads run the cells. One worker is
/// the reference schedule that every other worker count must match
/// bit-for-bit.
#[derive(Debug, Clone)]
pub struct Sweep {
    threads: usize,
}

impl Default for Sweep {
    fn default() -> Self {
        Self::new()
    }
}

impl Sweep {
    /// A parallel sweep sized to the machine.
    pub fn new() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(4, usize::from),
        }
    }

    /// Like [`Sweep::new`], honouring the `SWEEP_THREADS` environment
    /// variable (worker count, a positive integer) — the `fig` binary's
    /// scheduling knob.
    pub fn from_env() -> Result<Self, BadSweepThreads> {
        let mut s = Self::new();
        if let Some(raw) = std::env::var_os("SWEEP_THREADS") {
            let raw = raw.to_string_lossy().into_owned();
            match raw.parse::<usize>() {
                Ok(n) if n > 0 => s = s.with_threads(n),
                _ => return Err(BadSweepThreads(raw)),
            }
        }
        Ok(s)
    }

    /// Set the worker count (at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Run one cell closure over every spec in `cells`, returning results
    /// in spec order plus telemetry.
    pub fn run<T, R, F>(&self, cells: &[T], f: F) -> SweepOutcome<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = cells.len();
        let workers = self.threads.min(n.max(1));
        let started = Instant::now();

        // One entry per worker: its total busy time plus every
        // `(cell index, result)` it produced.
        type WorkerOut<R> = Vec<(u64, Vec<(usize, R)>)>;
        let next = AtomicUsize::new(0);
        let f = &f;
        let per_worker: WorkerOut<R> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    s.spawn(move || {
                        let mut out: Vec<(usize, R)> = Vec::new();
                        let mut busy = 0u64;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let t0 = Instant::now();
                            out.push((i, f(&cells[i])));
                            busy += t0.elapsed().as_micros() as u64;
                        }
                        (busy, out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });

        // Ordered collection: place every result at its cell index.
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut busy_us = Vec::with_capacity(workers);
        for (busy, items) in per_worker {
            busy_us.push(busy);
            for (index, r) in items {
                slots[index] = Some(r);
            }
        }
        let results: Vec<R> = slots.into_iter().flatten().collect();
        debug_assert_eq!(results.len(), n, "every cell ran exactly once");

        SweepOutcome {
            results,
            telemetry: Telemetry {
                cell_count: n,
                workers,
                wall_us: started.elapsed().as_micros() as u64,
                busy_us,
                base_loads: 0,
                base_states: 0,
                base_load_us: 0,
                base_wait_us: 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_cell_order() {
        let cells: Vec<u64> = (0..57).collect();
        let out = Sweep::new().with_threads(7).run(&cells, |&c| {
            // Uneven work so workers finish out of order.
            let spin = (c % 5) * 40;
            let mut acc = c;
            for _ in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(c);
            }
            (c, c * 2, acc)
        });
        assert_eq!(out.results.len(), 57);
        for (i, (idx, doubled, _)) in out.results.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*doubled, cells[i] * 2);
        }
        assert_eq!(out.telemetry.cell_count, 57);
        assert!(out.telemetry.workers <= 7);
    }

    #[test]
    fn base_pool_loads_each_group_exactly_once() {
        let pool: BasePool<Vec<u32>> = BasePool::new(3);
        let cells: Vec<usize> = (0..20).flat_map(|_| [0, 1, 2]).collect();
        let out = Sweep::new().with_threads(8).run(&cells, |&group| {
            let base = pool.get_or_load(group, || vec![group as u32; 4]);
            base.len() + group
        });
        assert_eq!(pool.loads(), 3, "each base state must load exactly once");
        assert!(out.results.iter().zip(&cells).all(|(r, g)| *r == g + 4));
        let mut telemetry = out.telemetry;
        telemetry.record_pool(&pool);
        assert_eq!(telemetry.base_loads, 3);
        assert_eq!(telemetry.base_states, 3);
        assert!(telemetry.summary().contains("3 base loads"));
    }

    #[test]
    fn waiting_for_another_workers_load_is_not_busy() {
        // Both workers ask for one base at once; one loads it for 50 ms
        // while the other blocks.
        let pool: BasePool<u32> = BasePool::new(1);
        let meet = std::sync::Barrier::new(2);
        let out = Sweep::new().with_threads(2).run(&[0u8, 1], |_| {
            meet.wait();
            *pool.get_or_load(0, || {
                std::thread::sleep(std::time::Duration::from_millis(50));
                7
            })
        });
        assert_eq!(out.results, vec![7, 7]);
        let mut telemetry = out.telemetry;
        telemetry.record_pool(&pool);
        assert_eq!(telemetry.base_loads, 1);
        assert!(telemetry.base_load_us >= 50_000, "{telemetry:?}");
        assert!(telemetry.base_wait_us >= 10_000, "{telemetry:?}");
        assert!(telemetry.utilization() < 1.0, "{telemetry:?}");
        assert!(telemetry.summary().contains("s waiting"));
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        // A cheap stand-in for a simulated run: a deterministic function of
        // the cell spec.
        let cells: Vec<u64> = (0..40).map(|i| i * 31).collect();
        let run = |sweep: Sweep| {
            let out = sweep.run(&cells, |&c| {
                let mut acc = 7 ^ c;
                for _ in 0..(c % 11) {
                    acc = acc.rotate_left(13).wrapping_mul(0x2545F4914F6CDD1D);
                }
                acc
            });
            (out.results, out.telemetry)
        };
        let (reference, one) = run(Sweep::new().with_threads(1));
        assert_eq!(run(Sweep::new().with_threads(6)).0, reference);
        assert_eq!(one.workers, 1);
    }

    #[test]
    fn empty_sweep_is_harmless() {
        let out = Sweep::new().run(&[] as &[u8], |_| 0u8);
        assert!(out.results.is_empty());
        assert_eq!(out.telemetry.utilization(), 0.0);
    }
}
