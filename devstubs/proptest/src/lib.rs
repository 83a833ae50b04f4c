//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no registry access, so the workspace vendors a
//! minimal, API-compatible subset of `proptest 1.x` as a path dependency
//! (see README.md "Offline builds"). It covers the surface used by this
//! repo's tests: the `Strategy` trait with `prop_map` / `prop_flat_map` /
//! `prop_recursive` / `boxed` / `new_tree`, `BoxedStrategy`, `Just`,
//! `TestRunner::deterministic`, integer-range and tuple strategies,
//! `any::<T>()`, `collection::vec`, `sample::select`, `prop_oneof!`, the
//! `proptest!` test macro with `ProptestConfig::with_cases`, and the
//! `prop_assert*` macros.
//!
//! Differences from real proptest, by design: generation is driven by a
//! fixed-seed deterministic RNG (reproducible across runs), and failing
//! cases are reported without shrinking. Both are acceptable for an
//! offline CI gate; rerun with upstream proptest for shrunk minimal
//! counterexamples when the registry is reachable.

pub mod test_runner {
    /// Deterministic RNG driving all generation (SplitMix64).
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn deterministic() -> Self {
            TestRng {
                state: 0x5EED_CAFE_F00D_D00D,
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }
    }

    /// Draws cases outside the `proptest!` macro. `deterministic()`
    /// starts from the seed every `proptest!` test starts from, so a
    /// one-argument property and a runner loop over the same strategy
    /// see the same cases.
    pub struct TestRunner {
        pub(crate) rng: TestRng,
    }

    impl TestRunner {
        pub fn deterministic() -> Self {
            TestRunner {
                rng: TestRng::deterministic(),
            }
        }
    }

    /// A failed property assertion (no shrinking in the offline stub).
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }
}

pub mod strategy {
    use super::test_runner::{TestRng, TestRunner};
    use std::rc::Rc;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            BoxedStrategy::new(self)
        }

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Draws a value, then a value of the strategy built from it.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        /// Draws one value from the runner's RNG; the stub's tree is the
        /// value itself (it never shrinks).
        fn new_tree(&self, runner: &mut TestRunner) -> Result<Generated<Self::Value>, String> {
            Ok(Generated(self.generate(&mut runner.rng)))
        }

        /// Recursive strategies: at each of `depth` levels, pick either a
        /// leaf (the receiver) or one level of `recurse` applied to the
        /// strategy built so far. `_desired_size` / `_expected_branch` are
        /// accepted for API compatibility but unused — depth alone bounds
        /// the stub's recursion.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let leaf = self.boxed();
            let mut cur = leaf.clone();
            for _ in 0..depth {
                let deeper = recurse(cur).boxed();
                cur = Union::new(vec![leaf.clone(), deeper]).boxed();
            }
            cur
        }
    }

    /// Type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T: 'static> BoxedStrategy<T> {
        pub fn new<S: Strategy<Value = T> + 'static>(s: S) -> Self {
            BoxedStrategy(Rc::new(move |rng| s.generate(rng)))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
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

    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            let outer = self.inner.generate(rng);
            (self.f)(outer).generate(rng)
        }
    }

    /// A generated value, as [`Strategy::new_tree`] returns it.
    pub struct Generated<T>(T);

    /// Upstream's shrinkable value; the stub's only state is the value.
    pub trait ValueTree {
        type Value;
        fn current(&self) -> Self::Value;
    }

    impl<T: Clone> ValueTree for Generated<T> {
        type Value = T;
        fn current(&self) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice among boxed alternatives (backs `prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.arms.len() as u64) as usize;
            self.arms[idx].generate(rng)
        }
    }

    /// String strategies from a small regex subset: a single character
    /// class with a counted repetition, `"[class]{lo,hi}"`. That is the
    /// only shape the workspace's tests use; anything else panics with a
    /// clear message rather than silently generating the wrong language.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (chars, lo, hi) = parse_class_repeat(self).unwrap_or_else(|| {
                panic!(
                    "offline proptest stub supports only \"[class]{{lo,hi}}\" string \
                     strategies, got: {self:?}"
                )
            });
            let len = lo + rng.below((hi - lo + 1) as u64) as usize;
            (0..len)
                .map(|_| chars[rng.below(chars.len() as u64) as usize])
                .collect()
        }
    }

    /// Parse `[class]{lo,hi}` where class supports literal chars, `a-b`
    /// ranges, and `\n`/`\t`/`\r`/`\\`/`\-`/`\]` escapes.
    fn parse_class_repeat(pat: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pat.strip_prefix('[')?;
        let close = {
            let mut idx = None;
            let mut escaped = false;
            for (i, c) in rest.char_indices() {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == ']' {
                    idx = Some(i);
                    break;
                }
            }
            idx?
        };
        let class = &rest[..close];
        let counts = rest[close + 1..]
            .strip_prefix('{')?
            .strip_suffix('}')?
            .split_once(',')?;
        let lo: usize = counts.0.trim().parse().ok()?;
        let hi: usize = counts.1.trim().parse().ok()?;
        if lo > hi {
            return None;
        }

        let mut chars = Vec::new();
        let mut iter = class.chars().peekable();
        while let Some(c) = iter.next() {
            let c = if c == '\\' {
                match iter.next()? {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    other => other,
                }
            } else {
                c
            };
            if iter.peek() == Some(&'-') {
                let mut ahead = iter.clone();
                ahead.next(); // consume '-'
                if let Some(&end) = ahead.peek() {
                    if end != ']' {
                        iter = ahead;
                        let end = if end == '\\' {
                            iter.next();
                            match iter.next()? {
                                'n' => '\n',
                                't' => '\t',
                                'r' => '\r',
                                other => other,
                            }
                        } else {
                            iter.next();
                            end
                        };
                        for code in (c as u32)..=(end as u32) {
                            chars.push(char::from_u32(code)?);
                        }
                        continue;
                    }
                }
            }
            chars.push(c);
        }
        if chars.is_empty() {
            return None;
        }
        Some((chars, lo, hi))
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {
            $(impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let lo = self.start as i128;
                    let hi = self.end as i128;
                    assert!(lo < hi, "empty range strategy");
                    let span = (hi - lo) as u128;
                    (lo + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let lo = *self.start() as i128;
                    let hi = *self.end() as i128;
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u128 + 1;
                    (lo + (rng.next_u64() as u128 % span) as i128) as $t
                }
            })*
        };
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident),+))*) => {
            $(
                #[allow(non_snake_case)]
                impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                    type Value = ($($s::Value,)+);
                    fn generate(&self, rng: &mut TestRng) -> Self::Value {
                        let ($($s,)+) = self;
                        ($($s.generate(rng),)+)
                    }
                }
            )*
        };
    }
    impl_tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {
            $(impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            })*
        };
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> u128 {
            ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
        }
    }

    impl Arbitrary for i128 {
        fn arbitrary(rng: &mut TestRng) -> i128 {
            u128::arbitrary(rng) as i128
        }
    }

    impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
        fn arbitrary(rng: &mut TestRng) -> [T; N] {
            std::array::from_fn(|_| T::arbitrary(rng))
        }
    }

    pub struct Any<T>(PhantomData<fn() -> T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Anything usable as a length specification for `collection::vec`.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    pub struct Select<T> {
        items: Vec<T>,
    }

    /// Uniform choice from a fixed list.
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "sample::select needs at least one item");
        Select { items }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.items.len() as u64) as usize;
            self.items[idx].clone()
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Mirrors real proptest's `prelude::prop` namespace module.
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Uniform choice between strategy alternatives that share a `Value` type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *lhs == *rhs,
            "assertion failed: `{} == {}`\n  left: `{:?}`\n right: `{:?}`",
            stringify!($lhs), stringify!($rhs), lhs, rhs
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if !(*lhs == *rhs) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "{}\n  left: `{:?}`\n right: `{:?}`",
                    format!($($fmt)+), lhs, rhs
                ),
            ));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *lhs != *rhs,
            "assertion failed: `{} != {}`\n  both: `{:?}`",
            stringify!($lhs),
            stringify!($rhs),
            lhs
        );
    }};
}

/// The property-test harness macro. Each generated `#[test]` runs
/// `config.cases` deterministic cases; the first failing case panics with
/// the case index and assertion message (no shrinking in the stub).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr;
     $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic();
                for case in 0..config.cases {
                    $(
                        let $arg = {
                            let strat = $strat;
                            $crate::strategy::Strategy::generate(&strat, &mut rng)
                        };
                    )+
                    #[allow(unreachable_code)]
                    let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            ::core::result::Result::Ok(())
                        })();
                    if let ::core::result::Result::Err(e) = outcome {
                        panic!("proptest case {}/{} failed: {}", case + 1, config.cases, e);
                    }
                }
            }
        )*
    };
}
