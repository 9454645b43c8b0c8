//! Rooted trees, Euler tours, lowest common ancestors, union-find, and
//! sequential minimum spanning trees.
//!
//! These are the sequential tree algorithms the reproduction relies on:
//!
//! * [`RootedTree`] — parent/children/depth arrays built from a parent map
//!   or a set of tree edges;
//! * [`euler`] — Euler tours of rooted trees;
//! * [`lca`] — sparse-table LCA over the Euler tour, the sequential oracle
//!   for the distributed LCA of the paper's Step 5;
//! * [`subtree`] — entry/exit times, ancestor tests, subtree sums (the
//!   sequential counterpart of the paper's `δ↓`/`ρ↓` aggregation);
//! * [`dsu`] — union-find;
//! * [`mst`] — Kruskal with a pluggable key (the packing algorithm orders
//!   edges by `(load, weight, id)`);
//! * [`spanning`] — random spanning trees and edge sets to rooted trees;
//! * [`decompose`] — sequential fragment decomposition of a tree into
//!   `O(n/s)` connected subtrees of diameter `O(s)` (the sequential mirror
//!   of Kutten–Peleg's partition, used as a test oracle).

#![warn(missing_docs)]

pub mod decompose;
pub mod dsu;
pub mod euler;
pub mod lca;
pub mod mst;
mod rooted;
pub mod spanning;
pub mod subtree;

pub use dsu::DisjointSets;
pub use rooted::{RootedTree, TreeError};
