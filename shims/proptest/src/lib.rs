//! Offline shim for the `proptest` crate.
//!
//! Deterministic property testing with proptest's API shape: the
//! `proptest!` macro, composable strategies (ranges, tuples, `prop_map`,
//! `prop_oneof!`, `collection::vec`, `any::<T>()`), and the
//! `prop_assert*` macros. Cases are generated from a seed derived from
//! the test's module path, so failures reproduce exactly on re-run.
//! Unlike real proptest there is **no shrinking**: a failing case is
//! reported with its case index and the values are re-derivable from
//! the deterministic stream.

pub mod test_runner {
    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
        /// Accepted for API compatibility; the shim never shrinks.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig {
                cases: 256,
                max_shrink_iters: 0,
            }
        }
    }

    /// A failed property case (carries the assertion message).
    #[derive(Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Builds a failure from an assertion message.
        pub fn fail(message: impl Into<String>) -> TestCaseError {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Result type the generated property bodies return.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Deterministic generator feeding every strategy (SplitMix64).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Builds the generator from a fixed seed.
        pub fn from_seed(seed: u64) -> TestRng {
            TestRng { state: seed }
        }

        /// Next 64 uniformly distributed bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[lo, hi)` in `u128` space.
        pub fn below(&mut self, lo: u128, hi: u128) -> u128 {
            assert!(lo < hi, "cannot sample empty range");
            lo + u128::from(self.next_u64()) % (hi - lo)
        }
    }

    /// FNV-1a hash of the test's identity: a stable per-test seed.
    pub fn seed_for(name: &str) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for byte in name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value from `rng`.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Post-processes generated values with `map`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, map: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, map }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        map: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.map)(self.source.new_value(rng))
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.below(self.start as u128, self.end as u128) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.below(*self.start() as u128, *self.end() as u128 + 1) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)+) = self;
                    ($($name.new_value(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);

    /// Object-safe strategy view, used by [`Union`] arms.
    pub trait DynStrategy<T> {
        /// Draws one value from `rng`.
        fn new_value_dyn(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn new_value_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.new_value(rng)
        }
    }

    /// Boxes one weighted `prop_oneof!` arm (monomorphization helper).
    pub fn dyn_arm<S: Strategy + 'static>(
        weight: u32,
        strategy: S,
    ) -> (u32, Box<dyn DynStrategy<S::Value>>) {
        (weight, Box::new(strategy))
    }

    /// Weighted choice between strategies of one value type.
    pub struct Union<T> {
        arms: Vec<(u32, Box<dyn DynStrategy<T>>)>,
        total_weight: u64,
    }

    impl<T> Union<T> {
        /// Builds the union; weights must not all be zero.
        pub fn new_weighted(arms: Vec<(u32, Box<dyn DynStrategy<T>>)>) -> Union<T> {
            let total_weight = arms.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total_weight > 0, "prop_oneof! needs a positive weight");
            Union { arms, total_weight }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn new_value(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.next_u64() % self.total_weight;
            for (weight, arm) in &self.arms {
                let weight = u64::from(*weight);
                if pick < weight {
                    return arm.new_value_dyn(rng);
                }
                pick -= weight;
            }
            unreachable!("weights sum covered above")
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T> {
        _marker: PhantomData<fn() -> T>,
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: PhantomData,
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates a `Vec` whose length is uniform in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.below(self.size.start as u128, self.size.end as u128) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The strategy type behind [`ANY`].
    #[derive(Clone, Copy, Debug)]
    pub struct AnyBool;

    /// Uniform boolean strategy.
    pub const ANY: AnyBool = AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;

        fn new_value(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Fails the enclosing property when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the enclosing property when the operands differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "{}: `{:?}` != `{:?}`",
            format!($($fmt)*),
            left,
            right
        );
    }};
}

/// Fails the enclosing property when the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "{}: `{:?}` == `{:?}`",
            format!($($fmt)*),
            left,
            right
        );
    }};
}

/// Weighted (or uniform) choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $($crate::strategy::dyn_arm($weight as u32, $strategy)),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $($crate::strategy::dyn_arm(1u32, $strategy)),+
        ])
    };
}

/// Declares property tests: each `fn name(arg in strategy, ..) { .. }`
/// becomes a test running `config.cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_each! { @config($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_each! {
            @config($crate::test_runner::ProptestConfig::default())
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_each {
    (@config($config:expr)) => {};
    (@config($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let seed = $crate::test_runner::seed_for(concat!(
                module_path!(), "::", stringify!($name)
            ));
            let mut rng = $crate::test_runner::TestRng::from_seed(seed);
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::new_value(&($strategy), &mut rng);)+
                // Some bodies mutate their generated bindings, some do
                // not; the macro cannot tell which.
                #[allow(unused_mut)]
                let mut run = move || -> $crate::test_runner::TestCaseResult {
                    $body
                    ::core::result::Result::Ok(())
                };
                if let ::core::result::Result::Err(err) = run() {
                    panic!(
                        "proptest {} failed at case {}/{} (seed {:#x}): {}",
                        stringify!($name), case, config.cases, seed, err,
                    );
                }
            }
        }
        $crate::__proptest_each! { @config($config) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Pair {
        a: u32,
        b: usize,
    }

    fn pair_gen() -> impl crate::strategy::Strategy<Value = Pair> {
        (
            0u32..10,
            prop_oneof![3 => 0usize..100, 1 => 1_000usize..2_000],
        )
            .prop_map(|(a, b)| Pair { a, b })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

        #[test]
        fn ranges_stay_in_bounds(x in 5u32..9, y in 1usize..=3) {
            prop_assert!((5..9).contains(&x));
            prop_assert!((1..=3).contains(&y));
        }

        #[test]
        fn composed_strategies_generate_valid_values(
            pairs in crate::collection::vec(pair_gen(), 0..8),
            flag in crate::bool::ANY,
        ) {
            for p in &pairs {
                prop_assert!(p.a < 10);
                prop_assert!(p.b < 100 || (1_000..2_000).contains(&p.b), "weighted arm: {}", p.b);
            }
            prop_assert!([false, true].contains(&flag));
            prop_assert_ne!(1, 2);
        }

        #[test]
        fn any_covers_integers(v in crate::collection::vec(any::<u8>(), 0..32)) {
            prop_assert_eq!(v.len(), v.clone().len(), "length is stable");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy as _;
        let mut rng1 = crate::test_runner::TestRng::from_seed(9);
        let mut rng2 = crate::test_runner::TestRng::from_seed(9);
        let strat = pair_gen();
        for _ in 0..100 {
            assert_eq!(strat.new_value(&mut rng1), strat.new_value(&mut rng2));
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_case_info() {
        proptest! {
            #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
