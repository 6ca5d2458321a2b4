//! Admission control: bounded server-entry queues with load shedding.
//!
//! Production stores bound the work they accept — HBase caps RPC handler
//! call queues, Cassandra sheds via `native_transport_max_concurrent_requests`
//! and dropped-mutation thresholds — so that saturation degrades into
//! fast-fail rejections instead of unbounded queueing collapse. This module
//! is the store-agnostic decision kernel both analogs consult at their front
//! door (cstore coordinator, hstore regionserver).
//!
//! The rule is strict priority: an op of priority `p` is admitted while the
//! store's in-flight count is below `max_in_flight >> p`, so low-priority
//! (high `p`) tenants lose their headroom first as the queue fills and
//! priority-0 traffic keeps the full bound.
//!
//! The decision is a *pure function* of (config, current in-flight count,
//! the op's [`OpTag`]): no RNG draws, no events. A disabled config
//! ([`AdmissionConfig::off`]) admits everything, so feature-off runs are
//! byte-identical to builds without this layer at all.
//!
//! The admit decision sits on every op's hot path at both stores' front
//! doors, so unwraps are banned (crate-wide, outside tests).

/// Client-provided scheduling metadata carried alongside an operation.
///
/// The driver stamps each submission with the issuing tenant's priority;
/// stores consult it only when admission control is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTag {
    /// Scheduling priority: `0` is highest (shed last). Strict-priority
    /// shedding reserves queue headroom for lower values.
    pub priority: u8,
}

/// Bounded-admission configuration for a store's front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// In-flight op bound for priority 0; `0` disables admission control
    /// entirely (every op admitted, zero extra work — the byte-identical
    /// off state).
    pub max_in_flight: usize,
}

impl AdmissionConfig {
    /// Admission control disabled: admit everything.
    pub fn off() -> Self {
        Self { max_in_flight: 0 }
    }

    /// The admission decision for one op: `true` = admit, `false` = shed.
    ///
    /// Pure: no RNG, no side effects. `in_flight` is the store's current
    /// pending-op count *before* this op.
    pub fn admits(&self, in_flight: usize, tag: OpTag) -> bool {
        if self.max_in_flight == 0 {
            return true;
        }
        in_flight < self.max_in_flight >> u32::from(tag.priority).min(usize::BITS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_admits_everything() {
        let cfg = AdmissionConfig::off();
        assert!(cfg.admits(usize::MAX - 1, OpTag { priority: 7 }));
    }

    #[test]
    fn strict_priority_sheds_low_priority_first() {
        let cfg = AdmissionConfig { max_in_flight: 64 };
        let hi = OpTag::default();
        let lo = OpTag { priority: 2 };
        // At 20 in flight, priority 2's bound (64 >> 2 = 16) already binds
        // while priority 0 still has headroom.
        assert!(cfg.admits(20, hi));
        assert!(!cfg.admits(20, lo));
        assert!(cfg.admits(63, hi));
        assert!(!cfg.admits(64, hi));
        // Absurd priorities shift to a zero bound instead of overflowing.
        assert!(!cfg.admits(0, OpTag { priority: 255 }));
    }
}
