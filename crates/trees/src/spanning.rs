//! Random spanning trees of graphs (Kruskal on shuffled edges) and the
//! conversion of a tree's edge set to a [`RootedTree`].

use crate::{RootedTree, TreeError};
use graphs::{EdgeId, NodeId, WeightedGraph};
use rand::Rng;

/// A random spanning tree via Kruskal on uniformly shuffled edges (not
/// uniform over all spanning trees, but fast and well-mixed for test
/// purposes).
pub fn random_spanning_edges<R: Rng>(g: &WeightedGraph, rng: &mut R) -> Vec<EdgeId> {
    use rand::seq::SliceRandom;
    let mut order: Vec<EdgeId> = g.edges().collect();
    order.shuffle(rng);
    let mut dsu = crate::DisjointSets::new(g.node_count());
    let mut edges = Vec::new();
    for e in order {
        let (u, v) = g.endpoints(e);
        if dsu.union(u.index(), v.index()) {
            edges.push(e);
        }
    }
    edges.sort_unstable();
    edges
}

/// Converts a set of tree edge ids into a [`RootedTree`] rooted at `root`.
///
/// # Errors
///
/// Returns [`TreeError`] if the edges do not form a spanning tree.
pub fn to_rooted(
    g: &WeightedGraph,
    tree_edges: &[EdgeId],
    root: NodeId,
) -> Result<RootedTree, TreeError> {
    let pairs: Vec<(NodeId, NodeId)> = tree_edges.iter().map(|&e| g.endpoints(e)).collect();
    RootedTree::from_edges(g.node_count(), root, &pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_spanning_is_spanning() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = generators::erdos_renyi_connected(40, 0.2, &mut rng).unwrap();
        for _ in 0..5 {
            let edges = random_spanning_edges(&g, &mut rng);
            assert_eq!(edges.len(), 39);
            assert!(to_rooted(&g, &edges, NodeId::new(0)).is_ok());
        }
    }
}
