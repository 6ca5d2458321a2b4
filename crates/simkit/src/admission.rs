//! Admission control: bounded server-entry queues with load shedding.
//!
//! Production stores bound the work they accept — HBase caps RPC handler
//! call queues, Cassandra sheds via `native_transport_max_concurrent_requests`
//! and dropped-mutation thresholds — so that saturation degrades into
//! fast-fail rejections instead of unbounded queueing collapse. This module
//! is the store-agnostic decision kernel both analogs consult at their front
//! door (cstore coordinator, hstore regionserver).
//!
//! The decision is a *pure function* of (config, current in-flight count,
//! the op's [`OpTag`], the clock): no RNG draws, no events. A disabled
//! config ([`AdmissionConfig::off`]) admits everything, so feature-off runs
//! are byte-identical to builds without this layer at all.
//!
//! The admit decision sits on every op's hot path at both stores' front
//! doors, so unwraps are banned (crate-wide, outside tests).

use crate::time::SimTime;

/// Client-provided scheduling metadata carried alongside an operation.
///
/// The driver stamps each submission with the issuing tenant's priority and
/// the op's absolute deadline; stores consult it only when admission control
/// is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTag {
    /// Scheduling priority: `0` is highest (shed last). Strict-priority
    /// shedding reserves queue headroom for lower values.
    pub priority: u8,
    /// Absolute deadline of the op (`SimTime::MAX` = unbounded). Used by
    /// deadline-aware early drop: ops whose remaining budget cannot cover
    /// estimated service are shed before consuming server resources.
    pub deadline: SimTime,
}

impl Default for OpTag {
    fn default() -> Self {
        Self {
            priority: 0,
            deadline: SimTime::MAX,
        }
    }
}

/// What the admission controller does when the entry queue is at bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Reject-on-full fast-fail: admit while in-flight < bound, shed
    /// everything past it regardless of priority or deadline.
    RejectNewest,
    /// Reject-on-full plus early drop of ops whose remaining deadline
    /// budget is smaller than the estimated service time — they would
    /// time out anyway, so shedding them at the door frees capacity for
    /// ops that can still make their deadline.
    DeadlineAware,
    /// Strict-priority shedding: each priority level `p` sees an effective
    /// bound of `max_in_flight >> p`, so low-priority (high `p`) tenants
    /// lose their headroom first as the queue fills and priority-0 traffic
    /// keeps the full bound.
    StrictPriority,
}

/// Bounded-admission configuration for a store's front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// In-flight op bound; `0` disables admission control entirely (every
    /// op admitted, zero extra work — the byte-identical off state).
    pub max_in_flight: usize,
    /// Shedding policy applied when the bound binds.
    pub policy: AdmissionPolicy,
    /// Estimated per-op service time, µs, for deadline-aware early drop.
    pub est_service_us: u64,
}

impl AdmissionConfig {
    /// Admission control disabled: admit everything.
    pub fn off() -> Self {
        Self {
            max_in_flight: 0,
            policy: AdmissionPolicy::RejectNewest,
            est_service_us: 0,
        }
    }

    /// True when the controller is active.
    pub fn enabled(&self) -> bool {
        self.max_in_flight > 0
    }

    /// The admission decision for one op: `true` = admit, `false` = shed.
    ///
    /// Pure: no RNG, no side effects. `in_flight` is the store's current
    /// pending-op count *before* this op.
    pub fn admits(&self, in_flight: usize, tag: OpTag, now: SimTime) -> bool {
        if !self.enabled() {
            return true;
        }
        if self.policy == AdmissionPolicy::DeadlineAware
            && tag.deadline != SimTime::MAX
            && tag.deadline.saturating_sub(now) < self.est_service_us
        {
            return false;
        }
        let bound = match self.policy {
            AdmissionPolicy::StrictPriority => {
                self.max_in_flight >> u32::from(tag.priority).min(usize::BITS - 1)
            }
            AdmissionPolicy::RejectNewest | AdmissionPolicy::DeadlineAware => self.max_in_flight,
        };
        in_flight < bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_admits_everything() {
        let cfg = AdmissionConfig::off();
        assert!(!cfg.enabled());
        let tag = OpTag {
            priority: 7,
            deadline: 0,
        };
        assert!(cfg.admits(usize::MAX - 1, tag, 1_000_000));
    }

    #[test]
    fn reject_newest_binds_at_depth() {
        let cfg = AdmissionConfig {
            max_in_flight: 8,
            policy: AdmissionPolicy::RejectNewest,
            est_service_us: 0,
        };
        assert!(cfg.admits(7, OpTag::default(), 0));
        assert!(!cfg.admits(8, OpTag::default(), 0));
        // Priority is ignored under RejectNewest.
        let low = OpTag {
            priority: 3,
            deadline: SimTime::MAX,
        };
        assert!(cfg.admits(7, low, 0));
    }

    #[test]
    fn deadline_aware_drops_doomed_ops_early() {
        let cfg = AdmissionConfig {
            max_in_flight: 100,
            policy: AdmissionPolicy::DeadlineAware,
            est_service_us: 5_000,
        };
        let doomed = OpTag {
            priority: 0,
            deadline: 10_000,
        };
        // 4 ms of budget left < 5 ms estimated service: shed even though
        // the queue is empty.
        assert!(!cfg.admits(0, doomed, 6_000));
        // 6 ms of budget left: admit.
        assert!(cfg.admits(0, doomed, 4_000));
        // Unbounded deadline is never early-dropped.
        assert!(cfg.admits(0, OpTag::default(), 6_000));
        // The depth bound still applies to admissible ops.
        assert!(!cfg.admits(100, doomed, 0));
    }

    #[test]
    fn strict_priority_sheds_low_priority_first() {
        let cfg = AdmissionConfig {
            max_in_flight: 64,
            policy: AdmissionPolicy::StrictPriority,
            est_service_us: 0,
        };
        let hi = OpTag::default();
        let lo = OpTag {
            priority: 2,
            deadline: SimTime::MAX,
        };
        // At 20 in flight, priority 2's bound (64 >> 2 = 16) already binds
        // while priority 0 still has headroom.
        assert!(cfg.admits(20, hi, 0));
        assert!(!cfg.admits(20, lo, 0));
        assert!(!cfg.admits(64, hi, 0));
        // Absurd priorities shift to a zero bound instead of overflowing.
        let floor = OpTag {
            priority: 255,
            deadline: SimTime::MAX,
        };
        assert!(!cfg.admits(0, floor, 0));
    }
}
