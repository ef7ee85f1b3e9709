//! Offline drop-in replacement for the subset of `proptest` this workspace
//! uses: the `proptest!` macro with per-block `ProptestConfig`, range and
//! `any::<T>()` strategies, `prop::collection::vec`, and the `prop_assert*`
//! macros. Cases are generated deterministically (seeded from the test name)
//! and failures panic immediately — there is no shrinking pass, so a failing
//! case reports the exact inputs that produced it instead of a minimised one.

#![deny(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod prelude {
    /// Upstream's `prelude::prop` module alias (for `prop::collection::vec`).
    pub use crate as prop;
    pub use crate::{any, Arbitrary, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

pub mod collection {
    use super::*;

    /// Strategy for a `Vec` whose length is drawn from `size` and whose
    /// elements are drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    pub struct VecStrategy<S> {
        elem: S,
        size: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let len = rng.gen_range(self.size.clone());
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// Per-block test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// A source of random test values. Unlike upstream there is no value tree or
/// shrinking — `sample` draws one concrete value.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// Constant strategy (upstream `Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical full-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.gen::<$t>()
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

/// The full-domain strategy for `T` (uniform over all values).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Deterministic per-test seed: FNV-1a over the test path so each test gets
/// an independent, stable stream.
pub fn seed_for(test_name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Builds the RNG driving one `proptest!` test function.
pub fn test_rng(test_name: &str) -> StdRng {
    StdRng::seed_from_u64(seed_for(test_name))
}

/// Property assertion; panics with the failing expression (no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Property inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { .. }` becomes
/// a `#[test]` that samples its arguments `cases` times.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_body! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (
        ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__config.cases {
                    let _ = __case;
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)*
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn ranges_respect_bounds(a in 3usize..9, x in -1.5f32..2.5, b in 0u8..4) {
            prop_assert!((3..9).contains(&a));
            prop_assert!((-1.5..2.5).contains(&x));
            prop_assert!(b < 4);
        }

        #[test]
        fn vec_strategy_sizes(v in prop::collection::vec(0i32..10, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| (0..10).contains(&x)));
        }

        #[test]
        fn any_covers_domain(x in any::<i32>(), _y in any::<bool>()) {
            // Smoke: the sample is a valid i32 by construction.
            prop_assert_eq!(x, x);
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = super::test_rng("same::name");
        let mut b = super::test_rng("same::name");
        let mut c = super::test_rng("other::name");
        use rand::RngCore;
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
