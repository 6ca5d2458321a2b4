//! Client-side resilience policy: retries, backoff, deadlines, hedging.
//!
//! Real serving-store clients (the YCSB DB bindings, the DataStax driver,
//! HBase's `HTable`) are not fair-weather: they retry transient failures
//! with exponential backoff, bound each operation by a deadline budget, and
//! — for tail-latency-sensitive reads — hedge, issuing a speculative second
//! attempt after a p99-ish delay and taking whichever completes first. This
//! module is the *policy* half of that layer: pure decision logic with no
//! simulator state, driven by the driver's event loop so every retry and
//! hedge lands at a deterministic virtual instant. Backoff jitter draws
//! from the run's [`SimRng`], keeping runs bit-identical for a fixed seed —
//! and since a [`RetryPolicy::none`] policy never reaches a jitter draw, it
//! leaves the RNG stream (and therefore the whole run) untouched.
//!
//! This module is a retry path: swallowing a failure here turns into a
//! silently hung client, so unwraps are banned (crate-wide, outside tests).

use simkit::{SimRng, SimTime};
use storage::OpError;

/// Retry/backoff/deadline/hedging policy applied by the driver to every
/// logical client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per operation phase, counting the first (`1` =
    /// never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry, µs; doubles per retry.
    pub base_backoff_us: u64,
    /// Ceiling on a single backoff, µs.
    pub max_backoff_us: u64,
    /// Per-operation deadline budget measured from first issue, µs; `0` =
    /// unbounded. Once a retry would land past the budget the operation
    /// fails with [`OpError::Deadline`] instead of retrying.
    pub deadline_us: u64,
    /// Issue a speculative second attempt for point reads still incomplete
    /// this long after issue, µs; `0` disables hedging.
    pub hedge_after_us: u64,
}

/// What the policy decides after a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryDecision {
    /// Re-submit the attempt at this absolute virtual time.
    RetryAt(SimTime),
    /// Surface the failure to the client.
    GiveUp(GiveUpReason),
}

/// Why the policy stopped retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GiveUpReason {
    /// The error is terminal; retrying cannot help.
    Terminal,
    /// The attempt budget ([`RetryPolicy::max_attempts`]) is spent.
    AttemptsExhausted,
    /// The next retry would land past the operation's deadline.
    DeadlineExceeded,
}

impl RetryPolicy {
    /// The fair-weather client: one attempt, no hedging, no deadline. A
    /// driver run under this policy is bit-identical to one predating the
    /// resilience layer.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_backoff_us: 0,
            max_backoff_us: 0,
            deadline_us: 0,
            hedge_after_us: 0,
        }
    }

    /// A retrying client: up to `max_attempts` attempts with exponential
    /// backoff from `base_backoff_us` (capped at 16× base) under a
    /// `deadline_us` budget. No hedging.
    pub fn retrying(max_attempts: u32, base_backoff_us: u64, deadline_us: u64) -> Self {
        assert!(max_attempts >= 1, "a policy needs at least one attempt");
        Self {
            max_attempts,
            base_backoff_us,
            max_backoff_us: base_backoff_us.saturating_mul(16),
            deadline_us,
            hedge_after_us: 0,
        }
    }

    /// This policy plus hedged reads after `hedge_after_us`.
    pub fn with_hedge(mut self, hedge_after_us: u64) -> Self {
        self.hedge_after_us = hedge_after_us;
        self
    }

    /// True when the policy hedges reads.
    pub fn hedges(&self) -> bool {
        self.hedge_after_us > 0
    }

    /// The absolute deadline of an operation first issued at `issued`
    /// (`SimTime::MAX` when unbounded).
    pub fn deadline_at(&self, issued: SimTime) -> SimTime {
        if self.deadline_us == 0 {
            SimTime::MAX
        } else {
            issued.saturating_add(self.deadline_us)
        }
    }

    /// The backoff before retry number `retries_done + 1`: exponential from
    /// the base, capped.
    pub fn backoff_us(&self, retries_done: u32) -> u64 {
        let doubled = self
            .base_backoff_us
            .saturating_mul(1u64 << retries_done.min(32));
        doubled.min(self.max_backoff_us)
    }

    /// Decide what to do about a failed attempt: `retries_done` retries
    /// have already been spent on this phase, the failure surfaced at
    /// `now`, and the operation dies at `deadline`. Jitter (up to half the
    /// backoff) draws from `rng` *only* on the retry path, so give-ups —
    /// including every decision a [`RetryPolicy::none`] policy makes —
    /// leave the RNG stream untouched.
    pub fn on_error(
        &self,
        error: OpError,
        retries_done: u32,
        now: SimTime,
        deadline: SimTime,
        rng: &mut SimRng,
    ) -> RetryDecision {
        if !error.is_retryable() {
            return RetryDecision::GiveUp(GiveUpReason::Terminal);
        }
        if retries_done + 1 >= self.max_attempts {
            return RetryDecision::GiveUp(GiveUpReason::AttemptsExhausted);
        }
        if now >= deadline {
            return RetryDecision::GiveUp(GiveUpReason::DeadlineExceeded);
        }
        let backoff = self.backoff_us(retries_done);
        let jitter = if backoff == 0 {
            0
        } else {
            rng.below(backoff / 2 + 1)
        };
        let at = now.saturating_add(backoff + jitter);
        if at >= deadline {
            // The backoff schedule outruns the budget: surface one error
            // now rather than parking the thread past its deadline.
            return RetryDecision::GiveUp(GiveUpReason::DeadlineExceeded);
        }
        RetryDecision::RetryAt(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_policy_gives_up_without_touching_the_rng() {
        let p = RetryPolicy::none();
        let mut rng = SimRng::new(7);
        let mut probe = SimRng::new(7);
        let d = p.on_error(OpError::Timeout, 0, 100, SimTime::MAX, &mut rng);
        assert_eq!(d, RetryDecision::GiveUp(GiveUpReason::AttemptsExhausted));
        // The stream is untouched: the next draw matches a fresh clone's.
        assert_eq!(rng.below(1 << 30), probe.below(1 << 30));
    }

    #[test]
    fn terminal_errors_never_retry() {
        let p = RetryPolicy::retrying(5, 1_000, 0);
        let mut rng = SimRng::new(1);
        let d = p.on_error(OpError::Deadline, 0, 0, SimTime::MAX, &mut rng);
        assert_eq!(d, RetryDecision::GiveUp(GiveUpReason::Terminal));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::retrying(10, 100, 0);
        assert_eq!(p.backoff_us(0), 100);
        assert_eq!(p.backoff_us(1), 200);
        assert_eq!(p.backoff_us(2), 400);
        assert_eq!(p.backoff_us(4), 1_600);
        assert_eq!(p.backoff_us(20), 1_600, "capped at 16x base");
    }

    #[test]
    fn retry_lands_between_backoff_and_backoff_plus_jitter() {
        let p = RetryPolicy::retrying(3, 1_000, 0);
        let mut rng = SimRng::new(3);
        match p.on_error(OpError::Unavailable, 0, 5_000, SimTime::MAX, &mut rng) {
            RetryDecision::RetryAt(at) => {
                assert!((6_000..=6_500).contains(&at), "at={at}");
            }
            other => panic!("expected retry, got {other:?}"),
        }
    }

    #[test]
    fn attempts_budget_is_enforced() {
        let p = RetryPolicy::retrying(3, 10, 0);
        let mut rng = SimRng::new(1);
        assert!(matches!(
            p.on_error(OpError::Timeout, 1, 0, SimTime::MAX, &mut rng),
            RetryDecision::RetryAt(_)
        ));
        assert_eq!(
            p.on_error(OpError::Timeout, 2, 0, SimTime::MAX, &mut rng),
            RetryDecision::GiveUp(GiveUpReason::AttemptsExhausted)
        );
    }

    #[test]
    fn backoff_past_the_deadline_gives_up_immediately() {
        let p = RetryPolicy::retrying(10, 1_000, 0);
        let mut rng = SimRng::new(1);
        // now=900, deadline=1000: even a zero-jitter retry at 1900 is late.
        assert_eq!(
            p.on_error(OpError::Timeout, 0, 900, 1_000, &mut rng),
            RetryDecision::GiveUp(GiveUpReason::DeadlineExceeded)
        );
        // Already past the deadline: same verdict, no jitter drawn.
        assert_eq!(
            p.on_error(OpError::Timeout, 0, 1_500, 1_000, &mut rng),
            RetryDecision::GiveUp(GiveUpReason::DeadlineExceeded)
        );
    }

    #[test]
    fn deadline_at_handles_unbounded_and_bounded() {
        assert_eq!(RetryPolicy::none().deadline_at(500), SimTime::MAX);
        let p = RetryPolicy::retrying(2, 10, 2_000);
        assert_eq!(p.deadline_at(500), 2_500);
    }

    #[test]
    fn hedging_is_opt_in() {
        assert!(!RetryPolicy::retrying(4, 100, 0).hedges());
        assert!(RetryPolicy::retrying(4, 100, 0).with_hedge(750).hedges());
    }

    #[test]
    fn decisions_are_deterministic_for_a_fixed_seed() {
        let p = RetryPolicy::retrying(5, 500, 0);
        let run = || {
            let mut rng = SimRng::new(99);
            (0..4)
                .map(|r| p.on_error(OpError::Timeout, r, 10_000, SimTime::MAX, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
