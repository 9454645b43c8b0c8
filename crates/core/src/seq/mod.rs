//! Sequential algorithms: exact oracles (Stoer–Wagner, brute force), the
//! 1- and 2-respecting dynamic programs, greedy tree packing, Karger
//! skeleton sampling, and the Matula-style `(2+ε)` estimator.
//!
//! Everything here exists for two reasons: (1) as verification oracles for
//! the distributed pipeline, and (2) as the sequential baselines the
//! experiment suite compares against.

pub mod brute_force;
pub mod karger_dp;
pub mod nagamochi_ibaraki;
pub mod sampling;
pub mod stoer_wagner;
pub mod tree_packing;
pub mod two_respect;

pub use brute_force::mincut_brute;
pub use karger_dp::{min_one_respecting, one_respecting_cuts};
pub use nagamochi_ibaraki::matula_estimate;
pub use sampling::{binomial, skeleton, splitmix64};
pub use stoer_wagner::stoer_wagner;
pub use tree_packing::{greedy_packing, packing_mincut, PackingConfig, PackingSize};
pub use two_respect::{min_two_respecting, packing_mincut_two_respect};
