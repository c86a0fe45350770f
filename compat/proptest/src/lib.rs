//! Offline stand-in for `proptest`: deterministic random testing without
//! shrinking. See `compat/README.md` for why this exists.
//!
//! The subset implemented is exactly what this workspace uses:
//!
//! * the [`proptest!`] macro (with an optional
//!   `#![proptest_config(...)]` header),
//! * [`strategy::Strategy`] with `prop_map` / `prop_flat_map`,
//! * strategies for integer/float ranges, tuples, `Vec<impl Strategy>`,
//!   [`collection::vec`], [`sample::select`], and [`arbitrary::any`],
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!`.
//!
//! Cases are generated from a seed derived from the test's module path and
//! case index, so every run explores the same inputs and failures are
//! reproducible. Counterexamples are not shrunk; the panic message carries
//! the case index instead.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! The per-test configuration and deterministic RNG.

    /// Mirror of `proptest::test_runner::Config` with the fields this
    /// workspace sets (upstream has many more, which is why call sites
    /// spread `..ProptestConfig::default()`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
        /// Accepted for source compatibility; this stub does not shrink.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 256,
                max_shrink_iters: 0,
            }
        }
    }

    /// splitmix64 finalizer used to advance and mix the test RNG state.
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Deterministic RNG driving strategy generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates the RNG for one case of one property, keyed by the
        /// property's path so distinct tests explore distinct sequences.
        pub fn deterministic(test_path: &str, case: u32) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a
            for b in test_path.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
            TestRng {
                state: splitmix64(h ^ u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            splitmix64(self.state)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn uniform(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform integer in `[0, n)`; panics if `n == 0`.
        pub fn below(&mut self, n: u128) -> u128 {
            assert!(n > 0, "empty range in strategy");
            u128::from(self.next_u64()) % n
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike real proptest there is no value tree and no shrinking: a
    /// strategy simply draws a value from the deterministic [`TestRng`].
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, builds a second strategy from it, and draws
        /// from that.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy returned by [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let span = (self.end as i128) - (self.start as i128);
                    assert!(span > 0, "empty range {}..{}", self.start, self.end);
                    ((self.start as i128) + rng.below(span as u128) as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(
                self.start < self.end,
                "empty range {}..{}",
                self.start,
                self.end
            );
            self.start + rng.uniform() * (self.end - self.start)
        }
    }

    impl Strategy for core::ops::Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            assert!(
                self.start < self.end,
                "empty range {}..{}",
                self.start,
                self.end
            );
            self.start + (rng.uniform() as f32) * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
    tuple_strategy!(A, B, C, D, E, F, G);
    tuple_strategy!(A, B, C, D, E, F, G, H);

    impl<S: Strategy> Strategy for Vec<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            self.iter().map(|s| s.generate(rng)).collect()
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Vec`s with lengths drawn from `size` and elements
    /// drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy drawing a uniformly random element of `items`.
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select requires a non-empty list");
        Select { items }
    }

    /// Strategy returned by [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        items: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.items[rng.below(self.items.len() as u128) as usize].clone()
        }
    }
}

pub mod arbitrary {
    //! The [`any`] entry point for types with a canonical strategy.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value of `Self`.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                #[allow(clippy::cast_possible_truncation)]
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Canonical strategy for `T`, mirroring `proptest::arbitrary::any`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    /// Strategy returned by [`any`].
    #[derive(Debug, Clone)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a property (plain `assert!` here: failing
/// cases abort the run instead of shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// expands to a `#[test]` running `body` over `config.cases` generated
/// inputs. An optional `#![proptest_config(expr)]` header sets the config.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($config:expr) ) => {};
    ( ($config:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            for __case in 0..config.cases {
                let mut __rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(
                    let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                )+
                // The case index stands in for shrinking: re-run with the
                // same build to reproduce a failure.
                $body
            }
        }
        $crate::__proptest_impl!{ ($config) $($rest)* }
    };
}
