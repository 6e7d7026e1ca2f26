#![forbid(unsafe_code)]
//! Offline shim for the subset of the `proptest` API used by this
//! workspace.
//!
//! The build environment has no crates.io access, so the property tests
//! run on this deterministic re-implementation instead of the real
//! `proptest`. Differences from upstream, by design:
//!
//! - **Greedy shrinking, not value trees.** A failing case is shrunk by
//!   repeatedly asking each strategy for smaller candidates (halving
//!   scalars toward their lower bound, truncating vectors toward their
//!   minimum length) and keeping any candidate that still fails; the
//!   test then re-runs the body on the shrunk inputs so the panic
//!   message describes the small case. Strategies without a natural
//!   order (`prop_map`, `prop_oneof!`, `Just`) do not shrink.
//! - **Deterministic seeding.** Each property derives its RNG seed from
//!   the test function's name, so failures reproduce exactly across runs
//!   and machines — there is no persistence file, and no
//!   `PROPTEST_CASES`-style environment dependence.
//! - Only the combinators this workspace uses exist: ranges,
//!   [`any`], [`Just`], tuples, [`collection::vec`], `prop_map`,
//!   `prop_oneof!`, and `BoxedStrategy`.

pub mod test_runner {
    /// Run-time configuration for one `proptest!` block.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to execute per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Upstream defaults to 256; 64 keeps the suite fast while
            // still exploring each property's space every run.
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic SplitMix64 generator driving all strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from a property name (FNV-1a hashed), so
        /// each property gets a stable, independent stream.
        pub fn deterministic(name: &str) -> Self {
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in name.as_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng { state: hash }
        }

        /// Returns the next 64-bit output.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, bound)` by widening multiply.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "empty sampling bound");
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }

        /// Uniform draw over `[0, 1)` with 53 bits of precision.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike upstream there is no value tree: sampling is direct, and
    /// shrinking asks the strategy for smaller candidates after the
    /// fact.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Proposes strictly "smaller" candidates for a failing value,
        /// ordered most-aggressive first. The default is no shrinking
        /// (correct for strategies with no usable order, like `prop_map`
        /// outputs). Candidates must stay inside the strategy's domain.
        fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
            Vec::new()
        }

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: std::rc::Rc::new(self),
            }
        }
    }

    trait DynStrategy {
        type Value;
        fn sample_dyn(&self, rng: &mut TestRng) -> Self::Value;
        fn shrink_dyn(&self, value: &Self::Value) -> Vec<Self::Value>;
    }

    impl<S: Strategy> DynStrategy for S {
        type Value = S::Value;
        fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.sample(rng)
        }
        fn shrink_dyn(&self, value: &S::Value) -> Vec<S::Value> {
            self.shrink(value)
        }
    }

    /// A type-erased strategy (cheaply clonable).
    pub struct BoxedStrategy<T> {
        inner: std::rc::Rc<dyn DynStrategy<Value = T>>,
    }

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> std::fmt::Debug for BoxedStrategy<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("BoxedStrategy")
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.inner.sample_dyn(rng)
        }
        fn shrink(&self, value: &T) -> Vec<T> {
            self.inner.shrink_dyn(value)
        }
    }

    /// Output of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice among same-typed strategies (`prop_oneof!`).
    pub struct Union<T> {
        branches: Vec<BoxedStrategy<T>>,
    }

    impl<T> std::fmt::Debug for Union<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Union({} branches)", self.branches.len())
        }
    }

    impl<T> Union<T> {
        /// Builds a union from its branches.
        pub fn new(branches: Vec<BoxedStrategy<T>>) -> Self {
            assert!(
                !branches.is_empty(),
                "prop_oneof! needs at least one branch"
            );
            Union { branches }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.branches.len() as u64) as usize;
            self.branches[i].sample(rng)
        }
    }

    /// Halving candidates for an ordered value: the lower bound itself,
    /// the midpoint toward it, and one small step down. Greedy re-shrink
    /// rounds turn the midpoint into a binary search.
    macro_rules! int_shrink {
        ($lo:expr, $v:expr) => {{
            let (lo, v) = ($lo, *$v);
            let mut out = Vec::new();
            if v > lo {
                out.push(lo);
                let mid = lo + (v - lo) / 2;
                if mid != lo && mid != v {
                    out.push(mid);
                }
                if v - 1 != lo && v - 1 != mid {
                    out.push(v - 1);
                }
            }
            out
        }};
    }

    macro_rules! impl_int_range {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128 - self.start as u128) as u64;
                    self.start.wrapping_add(rng.below(span) as $t)
                }
                fn shrink(&self, value: &$t) -> Vec<$t> {
                    int_shrink!(self.start, value)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u128 - lo as u128 + 1) as u64;
                    if span == 0 {
                        // Full-width u64 inclusive range.
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(rng.below(span) as $t)
                }
                fn shrink(&self, value: &$t) -> Vec<$t> {
                    int_shrink!(*self.start(), value)
                }
            }
        )*};
    }

    impl_int_range!(u8, u16, u32, u64, usize);

    macro_rules! impl_signed_range {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
                fn shrink(&self, value: &$t) -> Vec<$t> {
                    int_shrink!(self.start, value)
                }
            }
        )*};
    }

    impl_signed_range!(i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
        fn shrink(&self, value: &f64) -> Vec<f64> {
            let (lo, v) = (self.start, *value);
            let mut out = Vec::new();
            if v > lo {
                out.push(lo);
                let mid = lo + (v - lo) / 2.0;
                if mid > lo && mid < v {
                    out.push(mid);
                }
            }
            out
        }
    }

    macro_rules! impl_tuple {
        ($(($($name:ident : $idx:tt),+)),* $(,)?) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+)
            where
                $($name::Value: Clone),+
            {
                type Value = ($($name::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
                fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                    // One component shrunk at a time, the rest held.
                    let mut out = Vec::new();
                    $(
                        for cand in self.$idx.shrink(&value.$idx) {
                            let mut w = value.clone();
                            w.$idx = cand;
                            out.push(w);
                        }
                    )+
                    out
                }
            }
        )*};
    }

    impl_tuple!(
        (A: 0),
        (A: 0, B: 1),
        (A: 0, B: 1, C: 2),
        (A: 0, B: 1, C: 2, D: 3),
        (A: 0, B: 1, C: 2, D: 3, E: 4)
    );

    /// Strategy returned by [`crate::arbitrary::any`].
    pub struct Any<T> {
        _marker: PhantomData<T>,
    }

    impl<T> std::fmt::Debug for Any<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Any")
        }
    }

    impl<T> Any<T> {
        pub(crate) fn new() -> Self {
            Any {
                _marker: PhantomData,
            }
        }
    }

    impl<T: crate::arbitrary::Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
        fn shrink(&self, value: &T) -> Vec<T> {
            T::shrink(value)
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Any;
    use crate::test_runner::TestRng;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one value from the type's whole domain.
        fn arbitrary(rng: &mut TestRng) -> Self;

        /// Smaller candidates for a failing value (see
        /// [`Strategy::shrink`](crate::strategy::Strategy::shrink)).
        fn shrink(_value: &Self) -> Vec<Self> {
            Vec::new()
        }
    }

    macro_rules! impl_arbitrary_uint {
        ($($t:ty),* $(,)?) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
                fn shrink(value: &Self) -> Vec<Self> {
                    // Halve toward zero (the domain minimum for unsigned
                    // and the natural "simplest" signed value).
                    let v = *value;
                    let mut out = Vec::new();
                    if v != 0 {
                        out.push(0);
                        let mid = v / 2;
                        if mid != 0 && mid != v {
                            out.push(mid);
                        }
                    }
                    out
                }
            }
        )*};
    }

    impl_arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
        fn shrink(value: &Self) -> Vec<Self> {
            if *value {
                vec![false]
            } else {
                Vec::new()
            }
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.unit_f64()
        }
        fn shrink(value: &Self) -> Vec<Self> {
            let v = *value;
            if v != 0.0 {
                vec![0.0, v / 2.0]
            } else {
                Vec::new()
            }
        }
    }

    /// The canonical strategy for `T`'s whole domain.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any::new()
    }
}

pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy picking uniformly from a fixed list of values.
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        values: Vec<T>,
    }

    /// Uniform choice from `values` (upstream's `sample::select`).
    pub fn select<T: Clone>(values: Vec<T>) -> Select<T> {
        assert!(
            !values.is_empty(),
            "sample::select needs at least one value"
        );
        Select { values }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.values.len() as u64) as usize;
            self.values[i].clone()
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S> std::fmt::Debug for VecStrategy<S> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "VecStrategy(len in {:?})", self.size)
        }
    }

    /// Generates vectors whose length lies in `size` (half-open, like
    /// upstream's range-based `SizeRange`).
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let min = self.size.start;
            let mut out = Vec::new();
            // Truncation first (most aggressive): down to the minimum
            // length, then halfway there, then one element shorter.
            if value.len() > min {
                out.push(value[..min].to_vec());
                let half = min + (value.len() - min) / 2;
                if half != min && half != value.len() {
                    out.push(value[..half].to_vec());
                }
                if value.len() - 1 != min && value.len() - 1 != half {
                    out.push(value[..value.len() - 1].to_vec());
                }
                // Also drop from the front, so a failing element near
                // the tail can surface past passing leading elements.
                out.push(value[1..].to_vec());
            }
            // Then element-wise shrinking at the same length.
            for (i, v) in value.iter().enumerate() {
                for cand in self.element.shrink(v) {
                    let mut w = value.clone();
                    w[i] = cand;
                    out.push(w);
                }
            }
            out
        }
    }
}

/// Everything the test files import.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines property test functions.
///
/// Each generated test runs `cases` deterministic random cases. On a
/// failure the inputs are greedily shrunk (each strategy proposing
/// halved/truncated candidates, keeping any that still fails), then the
/// body re-runs on the shrunk inputs so the panic message describes the
/// small case. Generated values must be `Clone` (they are re-used across
/// shrink probes).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
            // All bindings sample through one tuple strategy so the
            // shrinker can shrink them jointly (one component at a time,
            // the rest held). Component order matches declaration order,
            // so the RNG stream is the same as sequential sampling.
            let strat = ($( ($strat), )+);
            for case in 0..config.cases {
                let vals = $crate::strategy::Strategy::sample(&strat, &mut rng);
                let passed = {
                    let ($($arg,)+) = ::std::clone::Clone::clone(&vals);
                    ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                        $body
                    }))
                    .is_ok()
                };
                if passed {
                    continue;
                }
                // Greedy shrink: take the first candidate that still
                // fails, restart from it, stop when none fails (or at a
                // generous round cap against non-converging predicates).
                let mut failing = vals;
                let mut rounds = 0usize;
                while rounds < 10_000 {
                    rounds += 1;
                    let cand = $crate::strategy::Strategy::shrink(&strat, &failing)
                        .into_iter()
                        .find(|c| {
                            let ($($arg,)+) = ::std::clone::Clone::clone(c);
                            ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                                $body
                            }))
                            .is_err()
                        });
                    match cand {
                        Some(c) => failing = c,
                        None => break,
                    }
                }
                let ($($arg,)+) = failing;
                let mut inputs = String::new();
                $(inputs.push_str(&format!("  {} = {:?}\n", stringify!($arg), &$arg));)+
                eprintln!(
                    "proptest shim: property {} failed at case {}/{}; shrunk over {} round(s) to:\n{}",
                    stringify!($name),
                    case + 1,
                    config.cases,
                    rounds,
                    inputs
                );
                // Re-run un-caught so the test fails with the shrunk
                // case's own panic message.
                $body
                panic!(
                    "property {} failed during sampling but passed on the shrunk re-run",
                    stringify!($name)
                );
            }
        }
    )*};
}

/// Asserts a condition inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = TestRng::deterministic("ranges");
        for _ in 0..10_000 {
            let v = Strategy::sample(&(5u64..17), &mut rng);
            assert!((5..17).contains(&v));
        }
    }

    #[test]
    fn vec_lengths_respect_size_range() {
        let mut rng = TestRng::deterministic("vec");
        for _ in 0..1_000 {
            let v = Strategy::sample(&crate::collection::vec(0u64..10, 2..6), &mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn oneof_hits_every_branch() {
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut rng = TestRng::deterministic("oneof");
        let mut seen = [false; 4];
        for _ in 0..256 {
            seen[Strategy::sample(&s, &mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn prop_map_composes() {
        let s = (0u64..10).prop_map(|x| x * 2);
        let mut rng = TestRng::deterministic("map");
        for _ in 0..100 {
            let v = Strategy::sample(&s, &mut rng);
            assert_eq!(v % 2, 0);
            assert!(v < 20);
        }
    }

    proptest! {
        #[test]
        fn the_macro_itself_works(a in 0u64..100, b in any::<bool>()) {
            prop_assert!(a < 100);
            prop_assert_eq!(u64::from(b) <= 1, true);
        }

        // Exercises the macro's whole failure path: sample → fail →
        // shrink → re-run → panic with the shrunk case.
        #[test]
        #[should_panic]
        fn failing_properties_panic_after_shrinking(v in crate::collection::vec(0u64..1_000, 0..20)) {
            prop_assert!(v.iter().sum::<u64>() < 100);
        }
    }

    #[test]
    fn seeded_failure_shrinks_below_a_size_bound() {
        // The property "sum < 100" fails on large random vectors; the
        // shrinker must walk any seeded failure down to a near-minimal
        // counterexample via truncation + element halving.
        let strat = crate::collection::vec(0u64..1_000, 0..20);
        let fails = |v: &Vec<u64>| v.iter().sum::<u64>() >= 100;
        let mut rng = TestRng::deterministic("shrink_bound");
        let mut found = 0;
        for _ in 0..1_000 {
            let v = Strategy::sample(&strat, &mut rng);
            if !fails(&v) {
                continue;
            }
            found += 1;
            let mut cur = v;
            while let Some(smaller) = Strategy::shrink(&strat, &cur).into_iter().find(&fails) {
                cur = smaller;
            }
            assert!(fails(&cur), "shrinking must preserve the failure");
            // Minimal counterexamples have one just-big-enough element
            // or a couple summing barely past the bound.
            assert!(cur.len() <= 2, "did not truncate: {cur:?}");
            assert!(
                cur.iter().sum::<u64>() < 200,
                "did not halve elements: {cur:?}"
            );
        }
        assert!(found > 10, "seed never produced a failing case");
    }

    #[test]
    fn scalar_shrink_halves_toward_the_lower_bound() {
        let strat = 5u64..1_000;
        // Failing predicate: v >= 40. Minimal counterexample is 40.
        let mut cur = 777u64;
        while let Some(c) = Strategy::shrink(&strat, &cur)
            .into_iter()
            .find(|&c| c >= 40)
        {
            cur = c;
        }
        assert_eq!(cur, 40);
    }

    #[test]
    fn deterministic_rng_is_stable_across_instances() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
