//! The core graph type: a simple, undirected, integer-weighted graph in CSR
//! form, plus the builder that constructs and validates it.

use crate::{EdgeId, NodeId, Weight};
use std::error::Error;
use std::fmt;

/// Errors produced while building or validating a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge had both endpoints equal; simple graphs have no self loops.
    SelfLoop {
        /// The offending node.
        node: NodeId,
    },
    /// An endpoint index was not smaller than the declared node count.
    NodeOutOfRange {
        /// The offending endpoint index.
        node: u32,
        /// The declared node count.
        node_count: usize,
    },
    /// An edge was given weight zero; zero-weight edges are disallowed
    /// because they make "minimum cut" degenerate (a zero cut would always
    /// win) and carry no information.
    ZeroWeight {
        /// First endpoint of the offending edge.
        u: NodeId,
        /// Second endpoint of the offending edge.
        v: NodeId,
    },
    /// The graph would have more than `u32::MAX` edges after merging.
    TooManyEdges,
    /// A label map for [`crate::ops::contract_by_labels`] did not have
    /// one entry per node.
    LabelCount {
        /// Entries in the label map.
        labels: usize,
        /// Nodes in the graph.
        nodes: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop { node } => write!(f, "self loop at node {node}"),
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(f, "node index {node} out of range for {node_count} nodes")
            }
            GraphError::ZeroWeight { u, v } => {
                write!(f, "zero-weight edge between {u} and {v}")
            }
            GraphError::TooManyEdges => write!(f, "graph exceeds u32::MAX edges"),
            GraphError::LabelCount { labels, nodes } => {
                write!(f, "label map has {labels} entries for {nodes} nodes")
            }
        }
    }
}

impl Error for GraphError {}

/// One entry of a node's adjacency list.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AdjEntry {
    /// The neighbor on the other side of the edge.
    pub neighbor: NodeId,
    /// The identifier of the connecting edge.
    pub edge: EdgeId,
    /// The weight of the connecting edge.
    pub weight: Weight,
}

/// A simple, undirected, integer-weighted graph in CSR form.
///
/// Nodes are `0..node_count()`, edges are `0..edge_count()`. Parallel edges
/// supplied to the builder are merged by summing their weights (for cuts,
/// parallel edges and summed weights are interchangeable); self loops are
/// rejected.
///
/// Adjacency lists are sorted by neighbor index, which makes
/// [`WeightedGraph::edge_between`] a binary search and iteration
/// deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedGraph {
    node_count: usize,
    /// Canonicalised edges: `endpoints[e] = (u, v)` with `u < v`.
    endpoints: Vec<(NodeId, NodeId)>,
    weights: Vec<Weight>,
    /// CSR offsets: adjacency of node `v` is `adj[offsets[v]..offsets[v+1]]`.
    offsets: Vec<u32>,
    adj: Vec<AdjEntry>,
    weighted_degrees: Vec<Weight>,
}

impl WeightedGraph {
    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of (merged, undirected) edges `m`.
    pub fn edge_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Iterator over all node identifiers in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count as u32).map(NodeId::new)
    }

    /// Iterator over all edge identifiers in increasing order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.endpoints.len() as u32).map(EdgeId::new)
    }

    /// Endpoints `(u, v)` of edge `e`, with `u < v`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.endpoints[e.index()]
    }

    /// Weight of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn weight(&self, e: EdgeId) -> Weight {
        self.weights[e.index()]
    }

    /// The adjacency list of `v`, sorted by neighbor index.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> &[AdjEntry] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Every adjacency list back to back, in node order (the CSR array):
    /// node `v`'s list, [`WeightedGraph::neighbors`], is the slice after
    /// the degrees of nodes `0..v`.
    pub fn adjacency(&self) -> &[AdjEntry] {
        &self.adj
    }

    /// The CSR offsets, `n + 1` of them: node `v`'s adjacency list is
    /// `adjacency()[offsets()[v]..offsets()[v + 1]]`, and the last entry
    /// is the number of directed edges. Any per-port array laid out like
    /// the adjacency holds node `v`'s port `p` at `offsets()[v] + p`.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Unweighted degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Weighted degree `δ(v) = Σ_u w(u, v)` of `v`.
    pub fn weighted_degree(&self, v: NodeId) -> Weight {
        self.weighted_degrees[v.index()]
    }

    /// Total weight `Σ_e w(e)` over all edges.
    pub fn total_weight(&self) -> Weight {
        self.weights.iter().sum()
    }

    /// Looks up the edge between `u` and `v`, if any (binary search).
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let list = self.neighbors(u);
        list.binary_search_by_key(&v, |a| a.neighbor)
            .ok()
            .map(|i| list[i].edge)
    }

    /// Iterator over `(EdgeId, u, v, w)` for all edges.
    pub fn edge_tuples(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, Weight)> + '_ {
        self.endpoints
            .iter()
            .zip(self.weights.iter())
            .enumerate()
            .map(|(i, (&(u, v), &w))| (EdgeId::from_index(i), u, v, w))
    }

    /// Minimum weighted degree over all nodes; an upper bound on the minimum
    /// cut (a singleton is always a cut). Returns `None` for the empty graph.
    pub fn min_weighted_degree(&self) -> Option<Weight> {
        self.weighted_degrees.iter().copied().min()
    }
}

/// Incremental builder for [`WeightedGraph`].
///
/// Edges may be added in any order; parallel edges are merged by summing
/// weights at [`GraphBuilder::build`] time.
///
/// # Example
///
/// ```
/// use graphs::GraphBuilder;
///
/// # fn main() -> Result<(), graphs::GraphError> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 1);
/// b.add_edge(1, 0, 2); // parallel: merged into weight 3
/// b.add_edge(1, 2, 5);
/// let g = b.build()?;
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.weight(graphs::EdgeId::new(0)), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    node_count: usize,
    raw_edges: Vec<(u32, u32, Weight)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `node_count` nodes and no edges yet.
    pub fn new(node_count: usize) -> Self {
        GraphBuilder {
            node_count,
            raw_edges: Vec::new(),
        }
    }

    /// Number of nodes the graph will have.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Adds an undirected edge `{u, v}` with weight `w`.
    ///
    /// Validation (range checks, self loops, zero weights) happens in
    /// [`GraphBuilder::build`], so this never fails and is cheap.
    pub fn add_edge(&mut self, u: u32, v: u32, w: Weight) -> &mut Self {
        self.raw_edges.push((u, v, w));
        self
    }

    /// Adds every edge from an iterator of `(u, v, w)` triples.
    pub fn extend_edges<I: IntoIterator<Item = (u32, u32, Weight)>>(&mut self, it: I) -> &mut Self {
        self.raw_edges.extend(it);
        self
    }

    /// Validates and constructs the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if any endpoint is out of range, any edge is a
    /// self loop or has weight zero, or the merged edge count overflows.
    pub fn build(&self) -> Result<WeightedGraph, GraphError> {
        let n = self.node_count;
        let mut canon: Vec<(u32, u32, Weight)> = Vec::with_capacity(self.raw_edges.len());
        for &(u, v, w) in &self.raw_edges {
            if u as usize >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: u,
                    node_count: n,
                });
            }
            if v as usize >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: v,
                    node_count: n,
                });
            }
            if u == v {
                return Err(GraphError::SelfLoop {
                    node: NodeId::new(u),
                });
            }
            if w == 0 {
                return Err(GraphError::ZeroWeight {
                    u: NodeId::new(u),
                    v: NodeId::new(v),
                });
            }
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            canon.push((a, b, w));
        }
        canon.sort_unstable_by_key(|&(a, b, _)| (a, b));

        // Merge parallel edges by summing weights.
        let mut endpoints: Vec<(NodeId, NodeId)> = Vec::new();
        let mut weights: Vec<Weight> = Vec::new();
        for (a, b, w) in canon {
            if let (Some(&(pa, pb)), Some(last_w)) = (endpoints.last(), weights.last_mut()) {
                if pa.raw() == a && pb.raw() == b {
                    *last_w = last_w.checked_add(w).ok_or(GraphError::TooManyEdges)?;
                    continue;
                }
            }
            endpoints.push((NodeId::new(a), NodeId::new(b)));
            weights.push(w);
        }
        if endpoints.len() > u32::MAX as usize {
            return Err(GraphError::TooManyEdges);
        }

        // Build CSR.
        let mut degrees = vec![0u32; n];
        for &(u, v) in &endpoints {
            degrees[u.index()] += 1;
            degrees[v.index()] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degrees[i];
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![
            AdjEntry {
                neighbor: NodeId::new(0),
                edge: EdgeId::new(0),
                weight: 0,
            };
            endpoints.len() * 2
        ];
        for (i, (&(u, v), &w)) in endpoints.iter().zip(weights.iter()).enumerate() {
            let e = EdgeId::from_index(i);
            adj[cursor[u.index()] as usize] = AdjEntry {
                neighbor: v,
                edge: e,
                weight: w,
            };
            cursor[u.index()] += 1;
            adj[cursor[v.index()] as usize] = AdjEntry {
                neighbor: u,
                edge: e,
                weight: w,
            };
            cursor[v.index()] += 1;
        }
        // Edges were sorted by (u, v); within each node's slice neighbors of
        // lower index come first for the "u" side, but the "v" side entries
        // arrive in order of u, which is also sorted. Since both passes
        // interleave, sort each slice to guarantee order.
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            adj[lo..hi].sort_unstable_by_key(|a| a.neighbor);
        }
        let weighted_degrees = (0..n)
            .map(|v| {
                adj[offsets[v] as usize..offsets[v + 1] as usize]
                    .iter()
                    .map(|a| a.weight)
                    .sum()
            })
            .collect();

        Ok(WeightedGraph {
            node_count: n,
            endpoints,
            weights,
            offsets,
            adj,
            weighted_degrees,
        })
    }
}

impl WeightedGraph {
    /// Builds a graph directly from `(u, v, w)` triples.
    ///
    /// # Errors
    ///
    /// Same as [`GraphBuilder::build`].
    pub fn from_edges<I>(node_count: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (u32, u32, Weight)>,
    {
        let mut b = GraphBuilder::new(node_count);
        b.extend_edges(edges);
        b.build()
    }

    /// Assembles a graph from raw CSR parts **without validation** — the
    /// adjacency is *not* checked for symmetry or consistency with
    /// `endpoints`. This deliberately permits malformed graphs so that
    /// consumers (e.g. the CONGEST engine's symmetry check) can test
    /// their defenses against them; every validated path goes through
    /// [`GraphBuilder::build`].
    #[doc(hidden)]
    pub fn from_raw_parts(
        node_count: usize,
        endpoints: Vec<(NodeId, NodeId)>,
        weights: Vec<Weight>,
        offsets: Vec<u32>,
        adj: Vec<AdjEntry>,
    ) -> Self {
        assert_eq!(
            offsets.len(),
            node_count + 1,
            "offsets must cover all nodes"
        );
        assert_eq!(
            *offsets.last().expect("offsets non-empty") as usize,
            adj.len(),
            "offsets must cover the adjacency"
        );
        let weighted_degrees = (0..node_count)
            .map(|v| {
                adj[offsets[v] as usize..offsets[v + 1] as usize]
                    .iter()
                    .map(|a| a.weight)
                    .sum()
            })
            .collect();
        WeightedGraph {
            node_count,
            endpoints,
            weights,
            offsets,
            adj,
            weighted_degrees,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> WeightedGraph {
        WeightedGraph::from_edges(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)]).unwrap()
    }

    #[test]
    fn builds_triangle() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.total_weight(), 6);
        assert_eq!(g.weighted_degree(NodeId::new(0)), 4);
        assert_eq!(g.weighted_degree(NodeId::new(1)), 3);
        assert_eq!(g.weighted_degree(NodeId::new(2)), 5);
        assert_eq!(g.min_weighted_degree(), Some(3));
    }

    #[test]
    fn rejects_self_loop() {
        let err = WeightedGraph::from_edges(2, [(1, 1, 1)]).unwrap_err();
        assert_eq!(
            err,
            GraphError::SelfLoop {
                node: NodeId::new(1)
            }
        );
    }

    #[test]
    fn rejects_out_of_range() {
        let err = WeightedGraph::from_edges(2, [(0, 5, 1)]).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 5, .. }));
    }

    #[test]
    fn rejects_zero_weight() {
        let err = WeightedGraph::from_edges(2, [(0, 1, 0)]).unwrap_err();
        assert!(matches!(err, GraphError::ZeroWeight { .. }));
    }

    #[test]
    fn merges_parallel_edges() {
        let g = WeightedGraph::from_edges(2, [(0, 1, 1), (1, 0, 4)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.weight(EdgeId::new(0)), 5);
    }

    #[test]
    fn adjacency_sorted_and_consistent() {
        let g = WeightedGraph::from_edges(5, [(4, 0, 1), (2, 0, 1), (0, 1, 1), (3, 0, 1)]).unwrap();
        let ns: Vec<u32> = g
            .neighbors(NodeId::new(0))
            .iter()
            .map(|a| a.neighbor.raw())
            .collect();
        assert_eq!(ns, vec![1, 2, 3, 4]);
        for v in g.nodes() {
            for a in g.neighbors(v) {
                assert_eq!(g.endpoints(a.edge), (v.min(a.neighbor), v.max(a.neighbor)));
                assert_eq!(g.weight(a.edge), a.weight);
            }
        }
    }

    #[test]
    fn edge_between_works() {
        let g = triangle();
        assert!(g.edge_between(NodeId::new(0), NodeId::new(2)).is_some());
        let g2 = WeightedGraph::from_edges(4, [(0, 1, 1), (2, 3, 1)]).unwrap();
        assert!(g2.edge_between(NodeId::new(0), NodeId::new(3)).is_none());
    }

    #[test]
    fn endpoints_are_canonical() {
        let g = WeightedGraph::from_edges(3, [(2, 1, 7)]).unwrap();
        let (u, v) = g.endpoints(EdgeId::new(0));
        assert!(u < v);
        assert_eq!((u.raw(), v.raw()), (1, 2));
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = WeightedGraph::from_edges(0, []).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.min_weighted_degree(), None);
    }
}
