//! Graph operations: edge-subset subgraphs, reweighting, and contraction.
//!
//! These are used by the sampling-based algorithms (Karger skeletons, the
//! Su-style baseline) and by the sequential contraction algorithms.

use crate::{EdgeId, GraphError, NodeId, Weight, WeightedGraph};

/// Returns the subgraph containing exactly the edges with `keep[e] == true`,
/// on the same node set (node indices are preserved).
///
/// # Panics
///
/// Panics if `keep.len() != g.edge_count()`.
pub fn edge_subgraph(g: &WeightedGraph, keep: &[bool]) -> WeightedGraph {
    assert_eq!(keep.len(), g.edge_count(), "edge mask length must equal m");
    let edges = g
        .edge_tuples()
        .filter(|(e, _, _, _)| keep[e.index()])
        .map(|(_, u, v, w)| (u.raw(), v.raw(), w));
    WeightedGraph::from_edges(g.node_count(), edges)
        .expect("subgraph of a valid graph is always valid")
}

/// Returns a graph with the same topology but weights replaced by
/// `new_weight(e)`; edges mapped to weight 0 are dropped.
pub fn reweight<F: FnMut(EdgeId, Weight) -> Weight>(
    g: &WeightedGraph,
    mut new_weight: F,
) -> WeightedGraph {
    let edges = g.edge_tuples().filter_map(|(e, u, v, w)| {
        let nw = new_weight(e, w);
        (nw > 0).then_some((u.raw(), v.raw(), nw))
    });
    WeightedGraph::from_edges(g.node_count(), edges)
        .expect("reweighted graph of a valid graph is always valid")
}

/// Result of contracting a graph by a node-label map.
#[derive(Clone, Debug)]
pub struct Contraction {
    /// The contracted multigraph (parallel edges merged, self loops dropped).
    pub graph: WeightedGraph,
    /// `super_node[v]` is the contracted node that original node `v` maps to.
    pub super_node: Vec<NodeId>,
}

/// Contracts nodes that share a label into super-nodes.
///
/// Labels may be arbitrary `u32` values; they are compacted to a dense range
/// in order of first appearance by node index. Edges inside a group vanish;
/// parallel edges between groups merge with summed weight.
///
/// # Errors
///
/// Returns an error if `labels.len() != g.node_count()`.
pub fn contract_by_labels(g: &WeightedGraph, labels: &[u32]) -> Result<Contraction, GraphError> {
    if labels.len() != g.node_count() {
        return Err(GraphError::LabelCount {
            labels: labels.len(),
            nodes: g.node_count(),
        });
    }
    let mut compact: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut super_node = Vec::with_capacity(labels.len());
    for &l in labels {
        let next = compact.len() as u32;
        let id = *compact.entry(l).or_insert(next);
        super_node.push(NodeId::new(id));
    }
    let k = compact.len();
    let edges = g.edge_tuples().filter_map(|(_, u, v, w)| {
        let (a, b) = (super_node[u.index()], super_node[v.index()]);
        (a != b).then_some((a.raw(), b.raw(), w))
    });
    let graph = WeightedGraph::from_edges(k, edges)?;
    Ok(Contraction { graph, super_node })
}

/// Keeps each edge independently with probability `p` using the supplied
/// random source; returns the edge mask. Deterministic given the RNG state.
pub fn bernoulli_edge_mask<R: rand::Rng>(g: &WeightedGraph, p: f64, rng: &mut R) -> Vec<bool> {
    g.edges().map(|_| rng.gen_bool(p.clamp(0.0, 1.0))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn k4() -> WeightedGraph {
        WeightedGraph::from_edges(
            4,
            [
                (0, 1, 1),
                (0, 2, 2),
                (0, 3, 3),
                (1, 2, 4),
                (1, 3, 5),
                (2, 3, 6),
            ],
        )
        .unwrap()
    }

    #[test]
    fn subgraph_keeps_selected_edges() {
        let g = k4();
        let mut keep = vec![false; 6];
        keep[0] = true; // (0,1)
        keep[5] = true; // (2,3)
        let s = edge_subgraph(&g, &keep);
        assert_eq!(s.node_count(), 4);
        assert_eq!(s.edge_count(), 2);
        assert!(s.edge_between(NodeId::new(0), NodeId::new(1)).is_some());
        assert!(s.edge_between(NodeId::new(2), NodeId::new(3)).is_some());
        assert!(s.edge_between(NodeId::new(0), NodeId::new(2)).is_none());
    }

    #[test]
    fn reweight_drops_zero() {
        let g = k4();
        // Canonical edge order for k4 is (0,1), (0,2), (0,3), (1,2), (1,3),
        // (2,3); keeping even ids keeps weights 1, 3, 5.
        let r = reweight(&g, |e, w| if e.index() % 2 == 0 { w * 10 } else { 0 });
        assert_eq!(r.edge_count(), 3);
        assert_eq!(r.total_weight(), (1 + 3 + 5) * 10);
    }

    #[test]
    fn contraction_merges_groups() {
        let g = k4();
        // Merge {0,1} and {2,3}.
        let c = contract_by_labels(&g, &[7, 7, 9, 9]).unwrap();
        assert_eq!(c.graph.node_count(), 2);
        assert_eq!(c.graph.edge_count(), 1);
        // Crossing edges: (0,2)=2, (0,3)=3, (1,2)=4, (1,3)=5 → 14.
        assert_eq!(c.graph.total_weight(), 14);
        assert_eq!(c.super_node[0], c.super_node[1]);
        assert_ne!(c.super_node[0], c.super_node[2]);
    }

    #[test]
    fn contraction_rejects_bad_labels() {
        let g = k4();
        assert_eq!(
            contract_by_labels(&g, &[0, 1]).err(),
            Some(GraphError::LabelCount {
                labels: 2,
                nodes: 4
            })
        );
    }

    #[test]
    fn bernoulli_mask_extremes() {
        let g = k4();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(bernoulli_edge_mask(&g, 1.0, &mut rng).iter().all(|&b| b));
        assert!(bernoulli_edge_mask(&g, 0.0, &mut rng).iter().all(|&b| !b));
    }

    #[test]
    fn contraction_to_single_node() {
        let g = k4();
        let c = contract_by_labels(&g, &[1, 1, 1, 1]).unwrap();
        assert_eq!(c.graph.node_count(), 1);
        assert_eq!(c.graph.edge_count(), 0);
    }
}
