//! Virtual time. The whole simulation runs on a `u64` microsecond clock.

/// A point in virtual time, in microseconds since simulation start.
pub type SimTime = u64;

/// Microseconds per second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// Time taken to move `bytes` through a channel of `bytes_per_sec` bandwidth,
/// rounded up to at least one microsecond for any non-empty transfer.
#[inline]
pub fn transfer_time(bytes: u64, bytes_per_sec: u64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    debug_assert!(bytes_per_sec > 0, "bandwidth must be positive");
    // A u64 division, several times cheaper than a u128 one. Every
    // simulated transfer is far below the 18 TB at which `bytes * 10^6`
    // stops fitting; past it the product saturates, so the time stops
    // growing instead of wrapping.
    bytes
        .saturating_mul(MICROS_PER_SEC)
        .div_ceil(bytes_per_sec)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_basics() {
        // 1 MiB at 1 MiB/s is one second.
        assert_eq!(transfer_time(1 << 20, 1 << 20), MICROS_PER_SEC);
        // Zero bytes take zero time.
        assert_eq!(transfer_time(0, 125_000_000), 0);
        // Tiny transfers round up to 1us.
        assert_eq!(transfer_time(1, 125_000_000), 1);
    }

    #[test]
    fn transfer_time_gige_frame() {
        // A 1500-byte frame on 1 GbE (125 MB/s) is 12us.
        assert_eq!(transfer_time(1_500, 125_000_000), 12);
    }

    #[test]
    fn transfer_time_no_overflow_on_large_inputs() {
        // `bytes * 10^6` overflows a u64 here: the product saturates
        // rather than wrapping to a small time.
        let t = transfer_time(u64::MAX / 2, 1);
        assert_eq!(t, u64::MAX);
    }
}
