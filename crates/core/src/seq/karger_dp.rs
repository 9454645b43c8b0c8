//! The sequential 1-respecting minimum cut — Karger's dynamic program
//! (Lemma 5.9 of \[Kar00\], the paper's Lemma 2.2):
//!
//! > `C(v↓) = δ↓(v) − 2ρ↓(v)`
//!
//! where `δ(v)` is the weighted degree, `ρ(v)` is the total weight of edges
//! whose endpoints' LCA is `v`, and `x↓` sums `x` over the subtree of `v`.
//!
//! This module is the sequential oracle for the paper's Section 2 (the
//! distributed version) and also a building block of the sequential packing
//! pipeline. Two implementations are provided: the `O((n + m) log n)`
//! Euler/LCA version and an `O(n·m)` brute-force version used to test it.

use graphs::{NodeId, Weight, WeightedGraph};
use trees::lca::SparseTableLca;
use trees::subtree::{subtree_sums, SubtreeIntervals};
use trees::RootedTree;

/// Computes `C(v↓)` for **every** node `v` via Karger's identity.
/// `C(root↓) = 0` by definition (the whole vertex set is not a proper cut).
///
/// # Panics
///
/// Panics if `tree` is not a spanning tree of `g`'s node set (sizes
/// mismatch).
pub fn one_respecting_cuts(g: &WeightedGraph, tree: &RootedTree) -> Vec<Weight> {
    assert_eq!(
        g.node_count(),
        tree.len(),
        "tree must span the graph's nodes"
    );
    let n = g.node_count();
    // δ(v): weighted degrees.
    let delta: Vec<u64> = g.nodes().map(|v| g.weighted_degree(v)).collect();
    // ρ(v): sum of w(x, y) over edges with lca(x, y) = v.
    let lca = SparseTableLca::new(tree);
    let mut rho = vec![0u64; n];
    for (_, x, y, w) in g.edge_tuples() {
        let a = lca.lca(x, y);
        rho[a.index()] += w;
    }
    let delta_down = subtree_sums(tree, &delta);
    let rho_down = subtree_sums(tree, &rho);
    (0..n).map(|v| delta_down[v] - 2 * rho_down[v]).collect()
}

/// Brute-force `C(v↓)` for every node: for each `v`, scan all edges and sum
/// those with exactly one endpoint in `v`'s subtree. `O(n·m)` — test oracle.
///
/// # Panics
///
/// Panics if `tree` does not span `g`'s nodes.
pub fn one_respecting_cuts_brute(g: &WeightedGraph, tree: &RootedTree) -> Vec<Weight> {
    assert_eq!(g.node_count(), tree.len());
    let iv = SubtreeIntervals::new(tree);
    let mut out = vec![0u64; g.node_count()];
    for v in g.nodes() {
        let mut total = 0;
        for (_, x, y, w) in g.edge_tuples() {
            if iv.is_ancestor(v, x) != iv.is_ancestor(v, y) {
                total += w;
            }
        }
        out[v.index()] = total;
    }
    out
}

/// The minimum cut that 1-respects `tree`: `min_{v ≠ root} C(v↓)` and its
/// arg-min node (smallest id among ties).
///
/// Returns `None` for a single-node tree (no proper 1-respecting cut).
pub fn min_one_respecting(g: &WeightedGraph, tree: &RootedTree) -> Option<(Weight, NodeId)> {
    let cuts = one_respecting_cuts(g, tree);
    let root = tree.root();
    (0..g.node_count())
        .map(NodeId::from_index)
        .filter(|&v| v != root)
        .map(|v| (cuts[v.index()], v))
        .min()
}

/// The node set of the cut side `v↓`.
pub fn subtree_side(tree: &RootedTree, v: NodeId) -> Vec<bool> {
    let iv = SubtreeIntervals::new(tree);
    (0..tree.len())
        .map(|u| iv.is_ancestor(v, NodeId::from_index(u)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trees::spanning::{random_spanning_edges, to_rooted};

    fn random_instance(n: usize, p: f64, wmax: u64, seed: u64) -> (WeightedGraph, RootedTree) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = generators::erdos_renyi_connected(n, p, &mut rng).unwrap();
        let g = generators::randomize_weights(&base, 1, wmax, &mut rng).unwrap();
        let edges = random_spanning_edges(&g, &mut rng);
        let t = to_rooted(&g, &edges, NodeId::new(0)).unwrap();
        (g, t)
    }

    #[test]
    fn karger_identity_matches_brute_force() {
        for seed in 0..6 {
            let (g, t) = random_instance(40, 0.12, 9, seed);
            let fast = one_respecting_cuts(&g, &t);
            let brute = one_respecting_cuts_brute(&g, &t);
            assert_eq!(fast, brute, "seed {seed}");
        }
    }

    #[test]
    fn root_cut_is_zero_and_sides_check_out() {
        let (g, t) = random_instance(25, 0.2, 5, 42);
        let cuts = one_respecting_cuts(&g, &t);
        assert_eq!(cuts[t.root().index()], 0);
        // Every C(v↓) matches a direct evaluation of the side bitmap.
        for v in g.nodes() {
            let side = subtree_side(&t, v);
            assert_eq!(
                graphs::cut::cut_of_side(&g, &side),
                cuts[v.index()],
                "node {v}"
            );
        }
    }

    #[test]
    fn min_one_respecting_upper_bounds_mincut() {
        let (g, t) = random_instance(30, 0.15, 4, 7);
        let (val, v) = min_one_respecting(&g, &t).expect("n > 1");
        assert_ne!(v, t.root());
        let true_min = crate::seq::stoer_wagner::stoer_wagner(&g).unwrap().value;
        assert!(val >= true_min);
    }

    #[test]
    fn path_tree_on_cycle_finds_two() {
        // Cycle with its path spanning tree: every C(v↓) = 2 (two crossing
        // cycle edges) so the 1-respecting min is exactly the min cut.
        let g = generators::cycle(8).unwrap();
        let path_edges: Vec<graphs::EdgeId> = g
            .edges()
            .filter(|e| {
                let (u, v) = g.endpoints(*e);
                v.raw() == u.raw() + 1
            })
            .collect();
        let t = to_rooted(&g, &path_edges, NodeId::new(0)).unwrap();
        let cuts = one_respecting_cuts(&g, &t);
        for &c in cuts.iter().skip(1) {
            assert_eq!(c, 2);
        }
        assert_eq!(min_one_respecting(&g, &t), Some((2, NodeId::new(1))));
    }

    #[test]
    fn star_tree_gives_singleton_cuts() {
        // K4 with a star tree rooted at 0: every non-root subtree is a
        // singleton, so C(v↓) = weighted degree of v.
        let g = generators::complete(4, 2).unwrap();
        let star_edges: Vec<graphs::EdgeId> = g
            .edges()
            .filter(|e| g.endpoints(*e).0 == NodeId::new(0))
            .collect();
        let t = to_rooted(&g, &star_edges, NodeId::new(0)).unwrap();
        let cuts = one_respecting_cuts(&g, &t);
        for v in 1..4u32 {
            assert_eq!(cuts[v as usize], g.weighted_degree(NodeId::new(v)));
        }
    }

    #[test]
    fn single_node_has_no_proper_cut() {
        let g = WeightedGraph::from_edges(1, []).unwrap();
        let t = RootedTree::from_edges(1, NodeId::new(0), &[]).unwrap();
        assert_eq!(min_one_respecting(&g, &t), None);
    }
}
