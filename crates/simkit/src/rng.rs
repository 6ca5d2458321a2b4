//! Deterministic, platform-stable random number generation.
//!
//! Experiments must reproduce bit-for-bit from a seed, so we avoid RNGs whose
//! output is allowed to change between library versions and implement
//! xoshiro256** seeded through splitmix64 (the reference seeding procedure).
//! Every draw of the workspace goes through [`SimRng::next_u64`]: the
//! uniform integer ([`SimRng::below`]), unit-interval ([`SimRng::unit`]) and
//! Bernoulli ([`SimRng::chance`]) draws are built on it.

/// The splitmix64 mixer: adds the golden-ratio increment to `x`, then
/// applies the finalizer. Called with `seed`, `seed + γ`, `seed + 2γ`, …
/// (γ = `0x9E37_79B9_7F4A_7C15`) it yields the splitmix64 sequence of
/// `seed`; called once it decorrelates a value from its neighbours.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** — fast, high-quality, and stable across platforms and
/// versions of this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(sm);
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
        // All-zero state would be a fixed point; splitmix64 cannot produce
        // four zeros from any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Self { s }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Next value in `[0, bound)`. Uses Lemire's multiply-shift reduction;
    /// the tiny modulo bias is irrelevant for simulation purposes.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        // 53 high bits -> [0,1) double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_outputs_are_pinned() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(42), 0xbdd7_3226_2feb_6e95);
        assert_eq!(splitmix64(u64::MAX), 0xe4d9_7177_1b65_2c20);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_answer_vector() {
        // Pin the output so accidental algorithm changes are caught: these
        // values were produced by this implementation and must never change.
        let mut r = SimRng::new(0);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            [
                0x99ec_5f36_cb75_f2b4,
                0xbf6e_1f78_4956_452a,
                0x1a5f_849d_4933_e6e0,
                0x6aa5_94f1_262d_2d2c,
            ]
        );
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn unit_in_half_open_interval() {
        let mut r = SimRng::new(9);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn unit_mean_is_roughly_half() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.unit()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = SimRng::new(13);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.1)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate={rate}");
    }
}
