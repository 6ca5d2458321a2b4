//! Analytic FIFO queueing resources.
//!
//! These model contended hardware (a disk head, a NIC, CPU cores) without a
//! per-request event pair. The contract: `acquire(now, service)` must be
//! called at the simulated instant the request *arrives* at the resource —
//! which holds naturally when calls happen inside event handlers, because the
//! event loop dispatches in time order. Under that contract the returned
//! completion times are exactly those of a FIFO queue.

use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A single-server FIFO queue (e.g. one disk spindle).
#[derive(Debug, Clone, Default)]
pub struct FifoResource {
    next_free: SimTime,
    busy_us: u64,
    ops: u64,
}

impl FifoResource {
    /// Create an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue work arriving at `now` requiring `service` microseconds;
    /// returns the completion time.
    #[inline]
    pub fn acquire(&mut self, now: SimTime, service: u64) -> SimTime {
        let start = self.next_free.max(now);
        let done = start + service;
        self.next_free = done;
        self.busy_us += service;
        self.ops += 1;
        done
    }

    /// Total service time accumulated.
    pub fn busy_us(&self) -> u64 {
        self.busy_us
    }

    /// Number of requests served.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Fraction of `elapsed` microseconds this resource was busy. Values
    /// above 1.0 indicate an over-committed (saturated) resource.
    pub fn utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.busy_us as f64 / elapsed as f64
        }
    }
}

/// A `k`-server FIFO queue (e.g. a CPU with `k` cores). Work is assigned to
/// the earliest-free server.
#[derive(Debug, Clone)]
pub struct MultiServer {
    // Min-heap over free times via Reverse ordering.
    free: BinaryHeap<std::cmp::Reverse<SimTime>>,
    servers: u32,
    busy_us: u64,
    ops: u64,
}

impl MultiServer {
    /// Create a resource with `servers` parallel servers.
    pub fn new(servers: u32) -> Self {
        assert!(servers > 0, "need at least one server");
        let mut free = BinaryHeap::with_capacity(servers as usize);
        for _ in 0..servers {
            free.push(std::cmp::Reverse(0));
        }
        Self {
            free,
            servers,
            busy_us: 0,
            ops: 0,
        }
    }

    /// Number of servers.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Enqueue work arriving at `now` requiring `service` microseconds;
    /// returns the completion time on the earliest-free server.
    #[inline]
    pub fn acquire(&mut self, now: SimTime, service: u64) -> SimTime {
        // Replace the earliest free time in place: one sift-down, where a
        // pop and a push sift twice. Free times carry no identity, so the
        // heap holds the same multiset either way.
        let Some(mut earliest) = self.free.peek_mut() else {
            unreachable!("`new` puts `servers` >= 1 free times in the heap; none leaves it")
        };
        let done = earliest.0.max(now) + service;
        *earliest = std::cmp::Reverse(done);
        self.busy_us += service;
        self.ops += 1;
        done
    }

    /// Total service time accumulated across all servers.
    pub fn busy_us(&self) -> u64 {
        self.busy_us
    }

    /// Number of requests served.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Mean per-server utilization over `elapsed` microseconds.
    pub fn utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.busy_us as f64 / (elapsed as f64 * self.servers as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_idle_resource_serves_immediately() {
        let mut r = FifoResource::new();
        assert_eq!(r.acquire(100, 10), 110);
    }

    #[test]
    fn fifo_queues_back_to_back_work() {
        let mut r = FifoResource::new();
        assert_eq!(r.acquire(0, 10), 10);
        assert_eq!(r.acquire(0, 10), 20);
        assert_eq!(r.acquire(5, 10), 30);
        assert_eq!(r.next_free, 30);
    }

    #[test]
    fn fifo_idles_between_sparse_arrivals() {
        let mut r = FifoResource::new();
        assert_eq!(r.acquire(0, 10), 10);
        assert_eq!(r.acquire(100, 10), 110);
        assert_eq!(r.busy_us(), 20);
        assert_eq!(r.ops(), 2);
        // 20us busy over 110us elapsed.
        assert!((r.utilization(110) - 20.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn multiserver_runs_k_jobs_in_parallel() {
        let mut c = MultiServer::new(2);
        assert_eq!(c.acquire(0, 10), 10);
        assert_eq!(c.acquire(0, 10), 10);
        // Third job waits for a core.
        assert_eq!(c.acquire(0, 10), 20);
    }

    #[test]
    fn multiserver_picks_earliest_free_server() {
        let mut c = MultiServer::new(2);
        c.acquire(0, 100); // server A busy until 100
        c.acquire(0, 10); // server B busy until 10
        assert_eq!(c.acquire(20, 5), 25); // lands on B, idle since 10
    }

    #[test]
    fn multiserver_utilization_accounts_for_server_count() {
        let mut c = MultiServer::new(4);
        c.acquire(0, 100);
        // One of four servers busy for the whole window.
        assert!((c.utilization(100) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn multiserver_zero_cost_work_waits_only_when_every_server_is_busy() {
        let mut c = MultiServer::new(2);
        c.acquire(0, 100);
        assert_eq!(c.acquire(0, 0), 0);
        c.acquire(0, 100);
        assert_eq!(c.acquire(0, 0), 100);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn multiserver_rejects_zero_servers() {
        let _ = MultiServer::new(0);
    }

    #[test]
    fn multiserver_replace_top_matches_pop_then_push() {
        // The pre-`peek_mut` acquire, as the reference.
        fn pop_push(
            free: &mut BinaryHeap<std::cmp::Reverse<SimTime>>,
            now: SimTime,
            service: u64,
        ) -> SimTime {
            let std::cmp::Reverse(earliest) = free.pop().expect("non-empty");
            let done = earliest.max(now) + service;
            free.push(std::cmp::Reverse(done));
            done
        }
        let mut rng = crate::SimRng::new(7);
        for servers in [1u32, 2, 3, 8] {
            let mut fast = MultiServer::new(servers);
            let mut reference: BinaryHeap<_> = (0..servers).map(|_| std::cmp::Reverse(0)).collect();
            let mut now = 0;
            for _ in 0..2_000 {
                now += rng.below(20);
                let service = rng.below(100);
                assert_eq!(
                    fast.acquire(now, service),
                    pop_push(&mut reference, now, service)
                );
            }
        }
    }

    #[test]
    fn fifo_completion_times_match_mm1_style_walkthrough() {
        // Arrivals at t=0,1,2 with 5us service each: completions 5,10,15.
        let mut r = FifoResource::new();
        let done: Vec<_> = [0u64, 1, 2].iter().map(|&t| r.acquire(t, 5)).collect();
        assert_eq!(done, vec![5, 10, 15]);
    }
}
