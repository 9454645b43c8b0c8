//! Sequential minimum spanning trees/forests: Kruskal's algorithm under a
//! pluggable edge key.
//!
//! The greedy tree packing of Thorup orders edges by the lexicographic key
//! `(load, weight, edge id)`, which is a strict total order, so the minimum
//! spanning tree is unique and the distributed MST must produce the same
//! tree — the parity tests exploit that.

use crate::DisjointSets;
use graphs::{EdgeId, Weight, WeightedGraph};

/// The result of an MST/MSF computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MstResult {
    /// Chosen edges, sorted by edge id.
    pub edges: Vec<EdgeId>,
    /// Sum of the *graph* weights of the chosen edges (even when a custom
    /// key was used for comparisons).
    pub total_weight: Weight,
}

impl MstResult {
    /// Returns `true` if the result spans a connected graph on `n` nodes
    /// (i.e. it is a tree, not a forest).
    pub fn is_spanning_tree(&self, n: usize) -> bool {
        self.edges.len() + 1 == n
    }
}

/// Kruskal's algorithm under the natural key `(weight, edge id)`.
/// Returns a spanning forest if the graph is disconnected.
pub fn kruskal(g: &WeightedGraph) -> MstResult {
    kruskal_by(g, |e, w| (w, e.raw()))
}

/// Kruskal's algorithm under a custom total order on edges.
///
/// `key(e, w)` must be a strict total order for the MST to be unique.
pub fn kruskal_by<K: Ord>(g: &WeightedGraph, key: impl Fn(EdgeId, Weight) -> K) -> MstResult {
    let mut order: Vec<EdgeId> = g.edges().collect();
    order.sort_by_key(|&e| key(e, g.weight(e)));
    let mut dsu = DisjointSets::new(g.node_count());
    let mut edges = Vec::new();
    let mut total = 0;
    for e in order {
        let (u, v) = g.endpoints(e);
        if dsu.union(u.index(), v.index()) {
            edges.push(e);
            total += g.weight(e);
        }
    }
    edges.sort_unstable();
    MstResult {
        edges,
        total_weight: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{generators, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn known_mst() {
        // Square with a heavy diagonal: MST must avoid the diagonal.
        let g = graphs::WeightedGraph::from_edges(
            4,
            [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4), (0, 2, 10)],
        )
        .unwrap();
        let k = kruskal(&g);
        assert_eq!(k.total_weight, 6);
        assert!(k.is_spanning_tree(4));
    }

    #[test]
    fn kruskal_satisfies_the_cycle_property() {
        // Under the strict (w, id) order the MST is unique, and a spanning
        // tree is that MST iff every non-tree edge's key exceeds every key
        // on the tree path between its endpoints.
        let mut rng = StdRng::seed_from_u64(31);
        for n in [5usize, 20, 60] {
            let base = generators::erdos_renyi_connected(n, 0.15, &mut rng).unwrap();
            let g = generators::randomize_weights(&base, 1, 1000, &mut rng).unwrap();
            let k = kruskal(&g);
            assert!(k.is_spanning_tree(n));
            let t = crate::spanning::to_rooted(&g, &k.edges, NodeId::new(0)).unwrap();
            let key = |e: EdgeId| (g.weight(e), e.raw());
            for (e, u, v, _) in g.edge_tuples() {
                if k.edges.binary_search(&e).is_ok() {
                    continue;
                }
                let (mut a, mut b) = (u, v);
                while a != b {
                    if t.depth(a) < t.depth(b) {
                        std::mem::swap(&mut a, &mut b);
                    }
                    let p = t.parent(a).expect("a deeper node has a parent");
                    let on_path = g.edge_between(a, p).expect("tree edges are graph edges");
                    assert!(key(on_path) < key(e), "n = {n}: {e} beats {on_path}");
                    a = p;
                }
            }
        }
    }

    #[test]
    fn forest_on_disconnected_graph() {
        let g = graphs::WeightedGraph::from_edges(5, [(0, 1, 1), (2, 3, 2)]).unwrap();
        let k = kruskal(&g);
        assert_eq!(k.edges.len(), 2);
        assert!(!k.is_spanning_tree(5));
    }

    #[test]
    fn custom_key_inverts_preference() {
        // Same square; under the *inverted* weight order the "MST" is the
        // maximum spanning tree.
        let g = graphs::WeightedGraph::from_edges(
            4,
            [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4), (0, 2, 10)],
        )
        .unwrap();
        // Heaviest usable edges: 10 (0,2), 4 (3,0); 3 (2,3) would close the
        // cycle 0-2-3, so 2 (1,2) joins node 1 instead.
        let max_tree = kruskal_by(&g, |e, w| (std::cmp::Reverse(w), e.raw()));
        assert_eq!(max_tree.total_weight, 10 + 4 + 2);
    }

    #[test]
    fn single_node_and_empty() {
        let g1 = graphs::WeightedGraph::from_edges(1, []).unwrap();
        assert!(kruskal(&g1).edges.is_empty());
        assert!(kruskal(&g1).is_spanning_tree(1));
        let g0 = graphs::WeightedGraph::from_edges(0, []).unwrap();
        assert!(kruskal(&g0).edges.is_empty());
    }
}
