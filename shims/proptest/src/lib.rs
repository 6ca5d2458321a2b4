//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to a crates registry, so the
//! workspace vendors the strategy/macro subset its property tests use:
//! range, `any`, tuple, `prop::bool::ANY`, `prop::collection::{vec,
//! btree_set}` strategies, the `proptest!` / `prop_assert*` /
//! `prop_assume!` macros, and `ProptestConfig::with_cases`.
//!
//! Deliberate simplifications vs the real crate:
//!
//! * **No shrinking.** A failing case panics with the drawn inputs via the
//!   assert message; it is not minimized.
//! * **Deterministic seeding.** Each test's RNG is seeded from a hash of
//!   the test name, so CI failures reproduce locally without a persistence
//!   file. The default case count is 64 (the workspace's common setting)
//!   rather than 256, bounding suite wall time.

#![warn(missing_docs)]

use std::ops::Range;

/// Configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Test-runner internals used by the `proptest!` macro expansion.
pub mod test_runner {
    /// Deterministic xoshiro256** generator driving value creation.
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// Seed deterministically from a test's name so each property gets
        /// a distinct but reproducible stream.
        pub fn from_name(name: &str) -> Self {
            // FNV-1a over the name, then splitmix64 to fill the state.
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            let mut s = [0u64; 4];
            for w in &mut s {
                h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = h;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *w = z ^ (z >> 31);
            }
            Self { s }
        }

        /// Next 64 uniformly random bits: every drawn value is made from
        /// these.
        pub fn next_u64(&mut self) -> u64 {
            let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            r
        }
    }
}

use test_runner::TestRng;

/// A recipe for producing random values of `Value`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draw one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Derive a strategy by passing drawn values through `map`
    /// (proptest's `prop_map`; no shrinking here, as with the rest of the
    /// shim).
    fn prop_map<T, F>(self, map: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { source: self, map }
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    map: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;

    fn new_value(&self, rng: &mut TestRng) -> T {
        (self.map)(self.source.new_value(rng))
    }
}

/// Types a `lo..hi` range strategy draws uniformly.
pub trait SampleUniform: Copy {
    /// Draw one value from `[lo, hi)`.
    fn sample(rng: &mut TestRng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(rng: &mut TestRng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range");
                // Lemire multiply-shift; the bias is negligible here.
                lo + ((rng.next_u64() as u128 * (hi - lo) as u128) >> 64) as $t
            }
        }
    )*};
}

impl_sample_uniform_uint!(u8, u16, u32, u64, usize);

impl SampleUniform for f64 {
    fn sample(rng: &mut TestRng, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty range");
        // 53 high bits -> [0, 1) double.
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }
}

impl<T: SampleUniform> Strategy for Range<T> {
    type Value = T;

    fn new_value(&self, rng: &mut TestRng) -> T {
        T::sample(rng, self.start, self.end)
    }
}

/// Types drawable over their whole domain via [`any`].
pub trait Arbitrary: Sized {
    /// Draw one value spanning the full domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy over the full domain of `T` (see [`any`]).
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy producing any value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_strategy_tuple {
    ($(($($s:ident . $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.new_value(rng),)+)
            }
        }
    )*};
}

impl_strategy_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Boolean strategies, mirroring `proptest::bool`.
pub mod bool {
    use super::{Arbitrary, Strategy, TestRng};

    /// Strategy producing either boolean with equal probability.
    pub struct BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;

        fn new_value(&self, rng: &mut TestRng) -> bool {
            bool::arbitrary(rng)
        }
    }

    /// Any boolean.
    pub const ANY: BoolAny = BoolAny;
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use std::collections::BTreeSet;
    use std::ops::Range;

    use super::{Strategy, TestRng};

    /// Strategy for `Vec<S::Value>` with length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A vector of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.new_value(rng);
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<S::Value>` with target size drawn from a range.
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A set of roughly `size` distinct elements drawn from `element`.
    pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.new_value(rng);
            let mut set = BTreeSet::new();
            // Retry duplicates, bounded so tiny domains can't spin forever.
            let mut attempts = 0usize;
            while set.len() < target && attempts < target * 10 + 100 {
                set.insert(self.element.new_value(rng));
                attempts += 1;
            }
            set
        }
    }
}

/// Everything the workspace's property tests import.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy,
    };

    /// Namespaced strategy modules, mirroring `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
    }
}

/// Define property tests: each `fn name(pat in strategy, ..) { body }`
/// becomes a `#[test]` running `cases` random draws of its inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: expands one fn per recursion.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (
        ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng =
                $crate::test_runner::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                $(let $pat = $crate::Strategy::new_value(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// Assert a condition inside a property (panics like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Assert equality inside a property (panics like `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// Assert inequality inside a property (panics like `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($arg:tt)*) => { assert_ne!($($arg)*) };
}

/// Skip the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($arg:tt)*)?) => {
        if !($cond) {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_are_bounded(a in 3u64..9, b in 0usize..4, f in 1.0f64..2.0) {
            prop_assert!((3..9).contains(&a));
            prop_assert!(b < 4);
            prop_assert!((1.0..2.0).contains(&f));
        }

        #[test]
        fn tuples_vecs_and_sets(
            mut xs in prop::collection::vec((0u64..10, prop::collection::vec(any::<u8>(), 0..4)), 1..20),
            set in prop::collection::btree_set(0u64..1_000, 2..8),
            flag in prop::bool::ANY,
        ) {
            prop_assert!(!xs.is_empty() && xs.len() < 20);
            xs.push((0, vec![]));
            for (k, v) in &xs {
                prop_assert!(*k < 10);
                prop_assert!(v.len() < 4);
            }
            prop_assert!(set.len() >= 2 && set.len() < 8);
            prop_assume!(flag);
            prop_assert!(flag);
        }
    }

    #[test]
    fn named_rng_is_deterministic() {
        let mut a = crate::test_runner::TestRng::from_name("x");
        let mut b = crate::test_runner::TestRng::from_name("x");
        let mut c = crate::test_runner::TestRng::from_name("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn the_first_draws_of_a_named_rng_are_pinned() {
        // The inputs every property test draws: a change here moves them.
        let mut rng = crate::test_runner::TestRng::from_name("x");
        assert_eq!((0u64..100).new_value(&mut rng), 11);
        assert_eq!((0usize..4).new_value(&mut rng), 0);
        assert_eq!((0.0f64..1.0).new_value(&mut rng), 0.011899441497638663);
        assert_eq!(any::<u8>().new_value(&mut rng), 23);
    }
}
