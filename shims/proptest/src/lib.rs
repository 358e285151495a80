//! Offline stand-in for the `proptest` crate.
//!
//! Implements the API subset this workspace uses: the
//! [`strategy::Strategy`] trait with `prop_map`/`prop_flat_map`,
//! integer-range and tuple strategies, `collection::vec`, `bool::ANY`,
//! [`strategy::Just`], the `proptest!`, `prop_oneof!` and `prop_assert*`
//! macros, and `ProptestConfig`.
//!
//! Differences from upstream, deliberate for an offline shim:
//! - cases are generated from a fixed per-case ChaCha8 seed, so runs are
//!   fully deterministic (no `PROPTEST_` env handling);
//! - there is **no shrinking** — a failure reports the case index so it
//!   can be replayed, not a minimized input;
//! - integer ranges sample uniformly rather than biasing toward bounds.

#![forbid(unsafe_code)]

pub mod strategy {
    //! Core [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value` from a seeded RNG.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` returns.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        /// Type-erases this strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(move |rng| self.generate(rng)))
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Type-erased strategy produced by [`Strategy::boxed`].
    pub struct BoxedStrategy<T>(Box<dyn Fn(&mut TestRng) -> T>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Uniform choice among alternatives (backs `prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union; panics if `options` is empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let k = rng.random_range(0..self.options.len());
            self.options[k].generate(rng)
        }
    }

    impl<T> Strategy for Range<T>
    where
        T: rand::UniformInt,
        Range<T>: Clone + rand::SampleRange<T>,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            rng.random_range(self.clone())
        }
    }

    impl<T> Strategy for RangeInclusive<T>
    where
        T: rand::UniformInt,
        RangeInclusive<T>: Clone + rand::SampleRange<T>,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            rng.random_range(self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$v:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($v,)+) = self;
                    ($($v.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A / a);
    impl_tuple_strategy!(A / a, B / b);
    impl_tuple_strategy!(A / a, B / b, C / c);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d);
}

pub mod collection {
    //! Collection strategies (`vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// Anything usable as the size argument of [`vec()`]: an exact `usize`
    /// or a half-open `Range<usize>`.
    pub trait IntoSizeRange {
        /// Picks a length for this draw.
        fn pick_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn pick_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn pick_len(&self, rng: &mut TestRng) -> usize {
            if self.start >= self.end {
                self.start
            } else {
                rng.random_range(self.clone())
            }
        }
    }

    /// Strategy for `Vec`s of values drawn from `elem`.
    pub struct VecStrategy<S, R> {
        elem: S,
        size: R,
    }

    /// `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy, R: IntoSizeRange>(elem: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy, R: IntoSizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.pick_len(rng);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod bool {
    //! Boolean strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy yielding `true`/`false` with equal probability.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// The any-bool strategy (upstream `proptest::bool::ANY`).
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.random()
        }
    }
}

pub mod test_runner {
    //! Case-count configuration and the per-test driver.

    use rand::SeedableRng;

    /// RNG handed to strategies; deterministic per (test, case index).
    pub type TestRng = rand_chacha::ChaCha8Rng;

    /// Subset of upstream's run configuration: just the case count.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` generated inputs per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Failed property check, carrying the formatted assertion message.
    #[derive(Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Wraps an assertion failure message.
        pub fn fail(msg: String) -> Self {
            TestCaseError(msg)
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Drives one property: yields a fresh deterministic RNG per case.
    pub struct TestRunner {
        config: ProptestConfig,
    }

    impl TestRunner {
        /// Runner executing `config.cases` cases.
        pub fn new(config: ProptestConfig) -> Self {
            TestRunner { config }
        }

        /// Number of cases to run.
        pub fn cases(&self) -> u32 {
            self.config.cases
        }

        /// Deterministic RNG for case `case` (stable across runs, so a
        /// reported case index can be replayed).
        pub fn rng_for(&self, case: u32) -> TestRng {
            TestRng::seed_from_u64(
                0x7072_6F70_7465_u64 ^ (case as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
            )
        }
    }
}

pub mod prelude {
    //! `use proptest::prelude::*;` — the names tests expect in scope.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRunner};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Each listed function runs `ProptestConfig::cases` times with inputs
/// generated from the `pat in strategy` bindings. `prop_assert*` failures
/// abort the case with its index (no shrinking).
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let runner = $crate::test_runner::TestRunner::new($config);
                for case in 0..runner.cases() {
                    let mut prop_rng = runner.rng_for(case);
                    $(
                        let $pat = $crate::strategy::Strategy::generate(
                            &($strat), &mut prop_rng);
                    )+
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!("property {} failed at case #{}: {}",
                            stringify!($name), case, e);
                    }
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::ProptestConfig::default())]
            $( $(#[$meta])* fn $name($($pat in $strat),+) $body )*
        }
    };
}

/// Uniform choice among the listed strategies (all must share one value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($s)),+
        ])
    };
}

/// `assert!` that fails the current proptest case instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` variant of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let lhs = $a;
        let rhs = $b;
        $crate::prop_assert!(lhs == rhs,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($a), stringify!($b), lhs, rhs);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let lhs = $a;
        let rhs = $b;
        $crate::prop_assert!(lhs == rhs,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n{}",
            stringify!($a), stringify!($b), lhs, rhs, format!($($fmt)+));
    }};
}

/// `assert_ne!` variant of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let lhs = $a;
        let rhs = $b;
        $crate::prop_assert!(
            lhs != rhs,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            lhs
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_vec_generate_in_bounds() {
        let runner = TestRunner::new(ProptestConfig::with_cases(16));
        for case in 0..runner.cases() {
            let mut rng = runner.rng_for(case);
            let n = (2usize..60).generate(&mut rng);
            assert!((2..60).contains(&n));
            let v = crate::collection::vec((0..n, 0..n), 0..150).generate(&mut rng);
            assert!(v.len() < 150);
            assert!(v.iter().all(|&(a, b)| a < n && b < n));
        }
    }

    #[test]
    fn flat_map_threads_values() {
        let runner = TestRunner::new(ProptestConfig::default());
        let mut rng = runner.rng_for(3);
        let s = (1usize..10).prop_flat_map(|n| (Just(n), crate::collection::vec(0..n, n)));
        for _ in 0..50 {
            let (n, v) = s.generate(&mut rng);
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|&x| x < n));
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let runner = TestRunner::new(ProptestConfig::default());
        let mut rng = runner.rng_for(0);
        let s = prop_oneof![Just(1usize), Just(4), Just(9), Just(16)];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(s.generate(&mut rng));
        }
        assert_eq!(seen.len(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_binds_multiple_params(
            a in 0usize..10,
            (b, c) in (0u64..5, crate::bool::ANY),
        ) {
            prop_assert!(a < 10);
            prop_assert!(b < 5);
            let _ = c;
            prop_assert_eq!(a + 1, a + 1);
            prop_assert_ne!(a, a + 1);
        }
    }
}
