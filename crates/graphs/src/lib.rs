//! Weighted undirected graphs for the distributed minimum-cut reproduction.
//!
//! This crate provides the graph substrate used by every other crate in the
//! workspace:
//!
//! * [`WeightedGraph`] — a compact CSR (compressed sparse row) representation
//!   of a simple, undirected, integer-weighted graph, built through
//!   [`GraphBuilder`];
//! * [`generators`] — the graph families used by the experiment suite
//!   (random connected, tori, expanders, planted-cut instances,
//!   lower-bound instances, …);
//! * [`traversal`] — BFS, connectivity, diameter;
//! * [`cut`] — evaluating the value of a cut given one side;
//! * [`ops`] — reweighting and contraction helpers.
//!
//! # Example
//!
//! ```
//! use graphs::{GraphBuilder, NodeId};
//!
//! # fn main() -> Result<(), graphs::GraphError> {
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 3);
//! b.add_edge(1, 2, 1);
//! b.add_edge(2, 3, 2);
//! b.add_edge(3, 0, 1);
//! let g = b.build()?;
//! assert_eq!(g.node_count(), 4);
//! assert_eq!(g.edge_count(), 4);
//! assert_eq!(g.weighted_degree(NodeId::new(0)), 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cut;
pub mod generators;
mod graph;
pub mod ops;
pub mod traversal;

pub use cut::{cut_of_side, CutResult};
pub use graph::{AdjEntry, GraphBuilder, GraphError, WeightedGraph};

use std::fmt;

/// Edge weights are unsigned 64-bit integers.
///
/// The CONGEST model assumes weights are polynomial in `n` so they fit in
/// `O(log n)`-bit messages; we do not enforce that bound here, but the
/// simulator's bit accounting charges for the actual magnitude.
pub type Weight = u64;

/// Identifier of a node: a dense index in `0..n`.
///
/// In the CONGEST model every node has a unique `O(log n)`-bit identifier;
/// we use the dense index itself, which is the standard choice for
/// simulators (the algorithms only compare identifiers).
#[derive(
    Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier from a raw index.
    pub const fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// Creates a node identifier from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` exceeds `u32::MAX`.
    pub fn from_index(idx: usize) -> Self {
        NodeId(u32::try_from(idx).expect("node index exceeds u32::MAX"))
    }

    /// Returns the raw `u32` value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the index as `usize`, suitable for indexing per-node arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(raw: u32) -> Self {
        NodeId(raw)
    }
}

/// Identifier of an undirected edge: a dense index in `0..m`.
#[derive(
    Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge identifier from a raw index.
    pub const fn new(raw: u32) -> Self {
        EdgeId(raw)
    }

    /// Creates an edge identifier from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` exceeds `u32::MAX`.
    pub fn from_index(idx: usize) -> Self {
        EdgeId(u32::try_from(idx).expect("edge index exceeds u32::MAX"))
    }

    /// Returns the raw `u32` value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the index as `usize`, suitable for indexing per-edge arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for EdgeId {
    fn from(raw: u32) -> Self {
        EdgeId(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let v = NodeId::from_index(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v.raw(), 42);
        assert_eq!(NodeId::new(42), v);
        assert_eq!(format!("{v}"), "42");
        assert_eq!(format!("{v:?}"), "n42");
    }

    #[test]
    fn edge_id_roundtrip() {
        let e = EdgeId::from_index(7);
        assert_eq!(e.index(), 7);
        assert_eq!(format!("{e}"), "7");
        assert_eq!(format!("{e:?}"), "e7");
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(EdgeId::new(3) > EdgeId::new(1));
    }
}
