//! Offline stand-in for the subset of the `proptest` 1.x API this
//! workspace uses.
//!
//! The build environment cannot reach crates.io, so this crate
//! reimplements the property-testing surface the workspace's tests are
//! written against:
//!
//! * the [`proptest!`] macro (with optional
//!   `#![proptest_config(...)]` header),
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`],
//!   [`prop_assume!`],
//! * range strategies (`0usize..10`, `-5.0f64..5.0`, `1usize..=16`),
//!   [`arbitrary::any`], [`collection::vec`], [`strategy::Just`] and
//!   [`strategy::Strategy::prop_map`].
//!
//! Design differences from upstream proptest, chosen deliberately:
//!
//! * **No shrinking.** On failure the exact failing inputs are printed
//!   (all strategies used in-repo produce `Debug` values) but not
//!   minimized.
//! * **Deterministic cases.** Case `i` of test `t` is generated from a
//!   seed derived by hashing `t`'s fully qualified name with `i`, so
//!   runs are reproducible across machines and invocations — which is
//!   exactly what a differential test suite wants from CI.

pub mod test_runner {
    //! Runner configuration, case errors and the per-case RNG.

    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Runner configuration. Only `cases` is consulted by the shim.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
        /// Accepted for API compatibility; unused (no shrinking).
        pub max_shrink_iters: u32,
    }

    impl Config {
        /// A configuration running `cases` cases.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Self {
                cases,
                ..Self::default()
            }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self {
                // Upstream defaults to 256; 64 keeps the (much larger)
                // in-repo suites fast while still exercising plenty of
                // the input space. Tests needing more pass an explicit
                // `ProptestConfig::with_cases(n)`.
                cases: 64,
                max_shrink_iters: 0,
            }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// An assertion failed: the property does not hold.
        Fail(String),
        /// `prop_assume!` rejected the inputs; the case is retried.
        Reject(String),
    }

    /// Deterministic per-case random source.
    #[derive(Debug, Clone)]
    pub struct TestRng(StdRng);

    impl TestRng {
        /// RNG for case number `case` of the test named `name`.
        #[must_use]
        pub fn for_case(name: &str, case: u32) -> Self {
            // FNV-1a over the test name, mixed with the case index.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            Self(StdRng::seed_from_u64(
                h ^ (u64::from(case)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ))
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and basic combinators.

    use crate::test_runner::TestRng;
    use rand::{Rng, SampleUniform};
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generate one value from `rng`.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy produced by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
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

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    impl<T: SampleUniform> Strategy for Range<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    impl<T: SampleUniform> Strategy for RangeInclusive<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
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
    impl_tuple_strategy!(A / a, B / b);
    impl_tuple_strategy!(A / a, B / b, C / c);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f);
}

pub mod arbitrary {
    //! `any::<T>()` for primitive types.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::{Rng, Standard};
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Generate an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl<T: Standard> Arbitrary for T {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen::<T>()
        }
    }

    /// Strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<fn() -> T>);

    /// The canonical strategy for `T` (full domain for primitives).
    #[must_use]
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod collection {
    //! Collection strategies (`vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on a generated collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            let (lo, hi) = r.into_inner();
            assert!(lo <= hi, "empty size range");
            Self {
                lo,
                hi_inclusive: hi,
            }
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A `Vec` whose length is drawn from `size` and whose elements are
    /// drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Define property tests.
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///     #[test]
///     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[allow(clippy::test_attr_in_doctest)] // the example necessarily shows #[test]
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { @cfg($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (@cfg($cfg:expr)) => {};
    (@cfg($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            let __cases = __config.cases;
            let mut __passed = 0u32;
            let mut __rejected = 0u32;
            let mut __case = 0u32;
            while __passed < __cases {
                assert!(
                    __rejected <= __cases.saturating_mul(16) + 256,
                    "proptest '{}': too many rejected cases ({})",
                    stringify!($name),
                    __rejected,
                );
                let mut __rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                __case += 1;
                $(
                    let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                )+
                let __inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; ",)+),
                    $(&$arg,)+
                );
                let __outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                match __outcome {
                    ::core::result::Result::Ok(()) => __passed += 1,
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {
                        __rejected += 1;
                    }
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(__msg)) => {
                        // lint:allow(r1-panic): this macro expands into the caller's
                        // #[test]; the panic is how a failed property fails that test.
                        panic!(
                            "proptest '{}' failed at case {}:\n  {}\n  inputs: {}",
                            stringify!($name),
                            __case - 1,
                            __msg,
                            __inputs,
                        );
                    }
                }
            }
        }
        $crate::__proptest_items! { @cfg($cfg) $($rest)* }
    };
}

/// Fallible assertion inside [`proptest!`] bodies.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fallible equality assertion inside [`proptest!`] bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let __l = &$left;
        let __r = &$right;
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!(
                    "assertion failed: `{} == {}`\n    left: {:?}\n   right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    __l,
                    __r
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let __l = &$left;
        let __r = &$right;
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    }};
}

/// Fallible inequality assertion inside [`proptest!`] bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let __l = &$left;
        let __r = &$right;
        if *__l == *__r {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: `{} != {}`\n    both: {:?}",
                stringify!($left),
                stringify!($right),
                __l
            )));
        }
    }};
}

/// Reject the current case (retried with fresh inputs, not a failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, y in -2.0f64..2.0, w in 1usize..=16) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
            prop_assert!((1..=16).contains(&w));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn vec_strategy_sizes(v in crate::collection::vec(any::<bool>(), 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9);
        }

        #[test]
        fn nested_vec_and_assume(rows in crate::collection::vec(crate::collection::vec(0u64..10, 3), 1..4)) {
            prop_assume!(!rows.is_empty());
            prop_assert!(rows.iter().all(|r| r.len() == 3));
            prop_assert_ne!(rows.len(), 0);
        }
    }

    #[test]
    fn deterministic_generation() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let s = crate::collection::vec(any::<u64>(), 5);
        let a = s.generate(&mut TestRng::for_case("t", 3));
        let b = s.generate(&mut TestRng::for_case("t", 3));
        let c = s.generate(&mut TestRng::for_case("t", 4));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn prop_map_and_just() {
        use crate::strategy::{Just, Strategy};
        use crate::test_runner::TestRng;
        let s = (0u64..10).prop_map(|v| v * 2);
        let v = s.generate(&mut TestRng::for_case("m", 0));
        assert!(v % 2 == 0 && v < 20);
        assert_eq!(Just(7u8).generate(&mut TestRng::for_case("j", 0)), 7);
    }
}
