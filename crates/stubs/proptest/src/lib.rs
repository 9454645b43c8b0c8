//! Offline stand-in for `proptest` (API-compatible subset).
//!
//! Supports what the workspace's property tests use: the [`proptest!`]
//! macro with a `#![proptest_config(...)]` header, integer-range
//! strategies (`0u64..5000`, `6usize..40`, …), and the `prop_assert*`
//! macros. Each property runs `cases` deterministic iterations seeded
//! from the property's name — no shrinking, but failures print the drawn
//! values via the assertion message. See `crates/stubs/README.md`.

use std::ops::Range;

/// Per-block configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` iterations.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// The deterministic case generator handed to strategies.
#[derive(Clone, Debug)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        TestRng(seed)
    }

    /// Next 64 pseudo-random bits (splitmix64 stream).
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// FNV-1a hash of a string — stable per-property seeds.
pub fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A value source for one macro argument.
pub trait Strategy {
    /// The produced value type.
    type Value;

    /// Draws the value for one case.
    fn pick(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn pick(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

/// Property-test macro: runs each body for `cases` deterministic draws.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)]
     $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::new($crate::fnv(stringify!($name)));
                for _case in 0..config.cases {
                    $(let $arg = $crate::Strategy::pick(&($strat), &mut rng);)+
                    $body
                }
            }
        )*
    };
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $($(#[$meta])* fn $name($($arg in $strat),+) $body)*
        }
    };
}

/// `prop_assert!` — panics like `assert!` (no shrinking here).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `prop_assert_eq!` — panics like `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `prop_assert_ne!` — panics like `assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::{
        fnv, prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
        TestRng,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(a in 3u64..19, b in 1usize..5) {
            prop_assert!((3..19).contains(&a));
            prop_assert!((1..5).contains(&b));
        }
    }

    proptest! {
        #[test]
        fn default_config_arm_works(x in 0u32..10) {
            prop_assert_ne!(x, 10);
            prop_assert_eq!(x, x);
        }
    }

    #[test]
    fn draws_are_deterministic_per_name() {
        let mut a = TestRng::new(fnv("some_property"));
        let mut b = TestRng::new(fnv("some_property"));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn draws_vary_across_cases() {
        let mut rng = TestRng::new(fnv("p"));
        let s = 0u64..1000;
        let vals: Vec<u64> = (0..20).map(|_| Strategy::pick(&s, &mut rng)).collect();
        assert!(vals.windows(2).any(|w| w[0] != w[1]));
    }
}
