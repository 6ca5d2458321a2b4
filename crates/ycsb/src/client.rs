//! Closed-loop client-thread pacing.
//!
//! YCSB clients are closed loops: a thread does not issue its next operation
//! until the previous response arrives — the paper leans on this to explain
//! why runtime throughput and latency are inversely related in the stress
//! tests. A target throughput (`-target` in YCSB) adds a lower bound on
//! inter-arrival spacing; the achieved ("runtime") throughput is then
//! `min(target, closed-loop capacity)`.

/// Pacing state for one client thread.
#[derive(Debug, Clone)]
pub struct Throttle {
    /// Minimum microseconds between issues; `0` = unthrottled.
    interval_us: u64,
    /// Next instant the schedule permits an issue.
    next_slot: u64,
}

impl Throttle {
    /// A throttle targeting `ops_per_sec` for this thread; `None` or zero
    /// means unthrottled.
    pub fn per_thread(ops_per_sec: f64) -> Self {
        let interval_us = if ops_per_sec > 0.0 {
            (1_000_000.0 / ops_per_sec).round() as u64
        } else {
            0
        };
        Self {
            interval_us,
            next_slot: 0,
        }
    }

    /// Split a cluster-wide target evenly over `threads` threads.
    pub fn for_target(total_ops_per_sec: f64, threads: usize) -> Self {
        if total_ops_per_sec <= 0.0 {
            Self::per_thread(0.0)
        } else {
            Self::per_thread(total_ops_per_sec / threads.max(1) as f64)
        }
    }

    /// Given that the previous operation completed at `completed_at`, return
    /// when this thread should issue its next operation, and advance the
    /// schedule.
    ///
    /// The schedule is absolute (slots every `interval_us`), matching YCSB's
    /// behaviour of *catching up* after a slow operation rather than
    /// permanently losing slots — but it never issues before the completion
    /// itself (closed loop).
    pub fn next_issue(&mut self, completed_at: u64) -> u64 {
        if self.interval_us == 0 {
            return completed_at;
        }
        let due = self.next_slot.max(completed_at);
        self.next_slot = due + self.interval_us;
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unthrottled_issues_immediately() {
        let mut t = Throttle::per_thread(0.0);
        assert_eq!(t.next_issue(123), 123);
        assert_eq!(t.next_issue(456), 456);
        assert_eq!(t.interval_us, 0);
    }

    #[test]
    fn throttled_spaces_issues() {
        // 1000 ops/s => 1000us interval.
        let mut t = Throttle::per_thread(1000.0);
        assert_eq!(t.interval_us, 1000);
        let first = t.next_issue(0);
        assert_eq!(first, 0);
        // Fast completion at t=10: next slot is 1000.
        assert_eq!(t.next_issue(10), 1000);
        assert_eq!(t.next_issue(1010), 2000);
    }

    #[test]
    fn closed_loop_never_issues_before_completion() {
        let mut t = Throttle::per_thread(1000.0);
        t.next_issue(0);
        // A very slow op completing at t=10_000 pushes the issue time.
        let due = t.next_issue(10_000);
        assert_eq!(due, 10_000);
        // Schedule continues from there.
        assert_eq!(t.next_issue(10_000), 11_000);
    }

    #[test]
    fn target_split_across_threads() {
        let t = Throttle::for_target(10_000.0, 10);
        // 1000 ops/s/thread.
        assert_eq!(t.interval_us, 1000);
        let unlimited = Throttle::for_target(0.0, 10);
        assert_eq!(unlimited.interval_us, 0);
    }

    #[test]
    fn achieved_rate_tracks_target_when_capacity_allows() {
        // Simulate fast ops (100us) against a 1000us interval: one op per
        // slot, so over 1s we issue ~1000 ops.
        let mut t = Throttle::per_thread(1000.0);
        let mut now = 0;
        let mut issues = 0;
        while now < 1_000_000 {
            let due = t.next_issue(now);
            now = due + 100; // op latency
            issues += 1;
        }
        assert!((990..=1010).contains(&issues), "issues={issues}");
    }
}
