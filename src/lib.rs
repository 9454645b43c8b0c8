//! Umbrella crate for the distributed minimum-cut reproduction.
//!
//! Re-exports the workspace crates so examples and downstream users can
//! depend on a single package:
//!
//! * [`graphs`] — weighted undirected graphs and generators,
//! * [`trees`] — rooted trees, LCA, sequential MSTs,
//! * [`congest`] — the CONGEST-model simulator,
//! * [`mincut`] — the paper's algorithms (distributed and sequential).

#![forbid(unsafe_code)]

pub use congest;
pub use graphs;
pub use mincut;
pub use trees;
