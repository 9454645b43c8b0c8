//! Graph operations: reweighting and contraction.
//!
//! Reweighting builds the Karger skeletons of the sampling-based
//! algorithms; contraction serves the Matula-style estimator.

use crate::{EdgeId, GraphError, NodeId, Weight, WeightedGraph};

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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn contraction_to_single_node() {
        let g = k4();
        let c = contract_by_labels(&g, &[1, 1, 1, 1]).unwrap();
        assert_eq!(c.graph.node_count(), 1);
        assert_eq!(c.graph.edge_count(), 0);
    }
}
