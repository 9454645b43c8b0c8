//! Minimum cuts that **2-respect** a spanning tree — the extension Karger
//! \[Kar00\] uses for full exactness (and that the paper leaves implicit by
//! quoting `poly(λ)`): if a tree packing has size `≥ λ/2`, some tree shares
//! at most **two** edges with a minimum cut, so scanning 1- and 2-respecting
//! cuts of `O(log n)` greedily packed trees finds the exact minimum with
//! high probability — no `poly(λ)` tree count needed.
//!
//! A cut 2-respecting `T` is determined by an unordered pair of tree nodes
//! `{v, w}` (cutting the edges above both):
//!
//! * `v`, `w` incomparable: the side is `v↓ ∪ w↓` and
//!   `C = C(v↓) + C(w↓) − 2·W(v↓, w↓)`;
//! * `w` a proper ancestor of `v`: the side is `w↓ ∖ v↓` and
//!   `C = C(w↓) + C(v↓) − 2·W(v↓, V∖w↓)`,
//!
//! where `W(A, B)` is the total weight between the node sets. This module
//! provides an `O(n·m + n²·depth)`-style scan (cross terms accumulated per
//! edge over ancestor pairs) plus an `O(n²·m)` brute-force check, and the
//! packing driver [`packing_mincut_two_respect`]. The sub-quadratic
//! link-cut-tree version of Karger's paper (and its distributed successor,
//! Mukhopadhyay–Nanongkai 2020) are out of scope — see DESIGN.md §6.

use crate::seq::karger_dp::one_respecting_cuts;
use crate::seq::tree_packing::next_packed_tree;
use crate::MinCutError;
use graphs::{CutResult, NodeId, Weight, WeightedGraph};
use trees::spanning::to_rooted;
use trees::subtree::SubtreeIntervals;
use trees::RootedTree;

/// The pair of subtree roots defining a 2-respecting cut. `second == None`
/// means the cut 1-respects the tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RespectingPair {
    /// The (first) subtree root.
    pub first: NodeId,
    /// The second subtree root for 2-respecting cuts.
    pub second: Option<NodeId>,
}

/// The minimum 1- or 2-respecting cut of `tree`: value and defining pair.
///
/// `O(n²)` pairs, each evaluated in `O(1)` after an `O(n·m·depth)`-ish
/// cross-term accumulation (fine at oracle scale; see module docs).
///
/// # Panics
///
/// Panics if `tree` does not span `g` or has fewer than 2 nodes.
pub fn min_two_respecting(g: &WeightedGraph, tree: &RootedTree) -> (Weight, RespectingPair) {
    let n = g.node_count();
    assert_eq!(n, tree.len(), "tree must span the graph");
    assert!(n >= 2, "need at least two nodes");
    let cuts = one_respecting_cuts(g, tree);
    let iv = SubtreeIntervals::new(tree);

    // cross[v][w] accumulation is O(n²) memory; at oracle scale (n ≤ ~1500)
    // that is the pragmatic choice. cross[v][w] = W(v↓, w↓) for
    // *incomparable* v, w; and W(v↓ , ·) pieces for ancestor pairs are
    // derived from `down[v][w] = W(v↓, {w})` aggregated upward.
    // Step 1: point-to-subtree weights via per-edge ancestor walks.
    let mut sub_to_node: Vec<Vec<Weight>> = vec![vec![0; n]; n]; // [v][y] = W(v↓, {y})
    for (_, x, y, w) in g.edge_tuples() {
        for a in tree.ancestors(x) {
            sub_to_node[a.index()][y.index()] += w;
        }
        for a in tree.ancestors(y) {
            sub_to_node[a.index()][x.index()] += w;
        }
    }
    // Step 2: aggregate the node axis bottom-up: cross[v][w] = W(v↓, w↓).
    let mut cross = sub_to_node;
    for row in cross.iter_mut().take(n) {
        for u in tree.bottom_up() {
            if let Some(p) = tree.parent(u) {
                row[p.index()] += row[u.index()];
            }
        }
    }

    let root = tree.root();
    let mut best: (Weight, RespectingPair) = {
        // Seed with the best 1-respecting cut.
        let (val, v) = (0..n)
            .map(NodeId::from_index)
            .filter(|&v| v != root)
            .map(|v| (cuts[v.index()], v))
            .min()
            .expect("n ≥ 2");
        (
            val,
            RespectingPair {
                first: v,
                second: None,
            },
        )
    };
    for v in 0..n {
        let v_id = NodeId::from_index(v);
        if v_id == root {
            continue;
        }
        for w in (v + 1)..n {
            let w_id = NodeId::from_index(w);
            if w_id == root {
                continue;
            }
            let value = if iv.is_ancestor(w_id, v_id) {
                // side = w↓ ∖ v↓, so C = C(w↓) + C(v↓) − 2·W(v↓, V∖w↓)
                // with W(v↓, V∖w↓) = C(v↓) − W(v↓, w↓∖v↓) and
                // W(v↓, w↓∖v↓) = cross[v][w] − cross[v][v] (internal edges
                // of v↓ are double-counted in cross, see its construction).
                let w_vw = cross[v][w] - internal_double(&cross, v);
                cuts[w] + cuts[v] - 2 * (cuts[v] - w_vw)
            } else if iv.is_ancestor(v_id, w_id) {
                let w_wv = cross[w][v] - internal_double(&cross, w);
                cuts[v] + cuts[w] - 2 * (cuts[w] - w_wv)
            } else {
                cuts[v] + cuts[w] - 2 * cross[v][w]
            };
            // Improper pairs (side = V, e.g. the root's only two children)
            // always evaluate to 0 and must be skipped; proper cuts of a
            // connected graph are ≥ 1.
            if value < best.0 && is_proper_pair(&iv, n, v_id, w_id) {
                best = (
                    value,
                    RespectingPair {
                        first: v_id,
                        second: Some(w_id),
                    },
                );
            }
        }
    }
    best
}

/// `W(v↓, v↓)` counted twice = `cross[v][v]` (each internal edge contributes
/// once per endpoint ancestor-walk) — helper for the ancestor-pair case.
fn internal_double(cross: &[Vec<Weight>], v: usize) -> Weight {
    cross[v][v]
}

fn is_proper_pair(iv: &SubtreeIntervals, n: usize, v: NodeId, w: NodeId) -> bool {
    let size = if iv.is_ancestor(w, v) {
        iv.subtree_size(w) - iv.subtree_size(v)
    } else if iv.is_ancestor(v, w) {
        iv.subtree_size(v) - iv.subtree_size(w)
    } else {
        iv.subtree_size(v) + iv.subtree_size(w)
    };
    size > 0 && size < n
}

/// The side bitmap of a 2-respecting pair.
pub fn pair_side(tree: &RootedTree, pair: RespectingPair) -> Vec<bool> {
    let iv = SubtreeIntervals::new(tree);
    let n = tree.len();
    match pair.second {
        None => (0..n)
            .map(|u| iv.is_ancestor(pair.first, NodeId::from_index(u)))
            .collect(),
        Some(w) => {
            let (v, w) = (pair.first, w);
            if iv.is_ancestor(w, v) {
                (0..n)
                    .map(|u| {
                        let u = NodeId::from_index(u);
                        iv.is_ancestor(w, u) && !iv.is_ancestor(v, u)
                    })
                    .collect()
            } else if iv.is_ancestor(v, w) {
                (0..n)
                    .map(|u| {
                        let u = NodeId::from_index(u);
                        iv.is_ancestor(v, u) && !iv.is_ancestor(w, u)
                    })
                    .collect()
            } else {
                (0..n)
                    .map(|u| {
                        let u = NodeId::from_index(u);
                        iv.is_ancestor(v, u) || iv.is_ancestor(w, u)
                    })
                    .collect()
            }
        }
    }
}

/// Brute-force oracle: evaluates every pair's side bitmap directly.
/// `O(n²·(n + m))` — for tests only.
pub fn min_two_respecting_brute(g: &WeightedGraph, tree: &RootedTree) -> Weight {
    let n = g.node_count();
    let root = tree.root();
    let mut best = Weight::MAX;
    for v in 0..n {
        let v_id = NodeId::from_index(v);
        if v_id == root {
            continue;
        }
        let side = pair_side(
            tree,
            RespectingPair {
                first: v_id,
                second: None,
            },
        );
        best = best.min(graphs::cut::cut_of_side(g, &side));
        for w in (v + 1)..n {
            let w_id = NodeId::from_index(w);
            if w_id == root {
                continue;
            }
            let pair = RespectingPair {
                first: v_id,
                second: Some(w_id),
            };
            let side = pair_side(tree, pair);
            let k = side.iter().filter(|&&b| b).count();
            if k == 0 || k == n {
                continue;
            }
            best = best.min(graphs::cut::cut_of_side(g, &side));
        }
    }
    best
}

/// Exact minimum cut via 2-respecting scans over a **small** greedy packing
/// (`trees = ⌈c·ln n⌉` suffices per Karger's sampling theorem; no `poly(λ)`
/// factor). Returns the verified cut.
///
/// # Errors
///
/// The usual degenerate-input errors.
pub fn packing_mincut_two_respect(
    g: &WeightedGraph,
    trees: usize,
) -> Result<CutResult, MinCutError> {
    let n = g.node_count();
    if n < 2 {
        return Err(MinCutError::TooSmall { nodes: n });
    }
    if !graphs::traversal::is_connected(g) {
        return Err(MinCutError::Disconnected);
    }
    let mut loads = vec![0u64; g.edge_count()];
    let mut best: Option<(Weight, Vec<bool>)> = None;
    for _ in 0..trees.max(1) {
        let edges = next_packed_tree(g, &loads)?;
        for &e in &edges {
            loads[e.index()] += 1;
        }
        let tree = to_rooted(g, &edges, NodeId::new(0)).expect("spanning tree");
        let (value, pair) = min_two_respecting(g, &tree);
        if best.as_ref().is_none_or(|(b, _)| value < *b) {
            best = Some((value, pair_side(&tree, pair)));
        }
    }
    let (value, side) = best.expect("at least one tree");
    debug_assert_eq!(graphs::cut::cut_of_side(g, &side), value);
    Ok(CutResult { side, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::stoer_wagner::stoer_wagner;
    use graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trees::spanning::random_spanning_edges;

    fn instance(n: usize, p: f64, wmax: u64, seed: u64) -> (WeightedGraph, RootedTree) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = generators::erdos_renyi_connected(n, p, &mut rng).unwrap();
        let g = generators::randomize_weights(&base, 1, wmax, &mut rng).unwrap();
        let edges = random_spanning_edges(&g, &mut rng);
        let t = to_rooted(&g, &edges, NodeId::new(0)).unwrap();
        (g, t)
    }

    #[test]
    fn algebraic_scan_matches_brute_force() {
        for seed in 0..6 {
            let (g, t) = instance(18, 0.3, 5, seed);
            let (fast, pair) = min_two_respecting(&g, &t);
            let brute = min_two_respecting_brute(&g, &t);
            assert_eq!(fast, brute, "seed {seed}");
            // The reported pair's side evaluates to the reported value.
            let side = pair_side(&t, pair);
            assert_eq!(graphs::cut::cut_of_side(&g, &side), fast);
        }
    }

    #[test]
    fn two_respecting_never_worse_than_one_respecting() {
        for seed in 10..16 {
            let (g, t) = instance(24, 0.25, 4, seed);
            let (two, _) = min_two_respecting(&g, &t);
            let (one, _) = crate::seq::karger_dp::min_one_respecting(&g, &t).unwrap();
            assert!(two <= one);
        }
    }

    #[test]
    fn small_packing_is_exact() {
        // O(log n) trees suffice — the whole point of 2-respecting.
        let mut rng = StdRng::seed_from_u64(21);
        for n in [14usize, 22, 30] {
            let base = generators::erdos_renyi_connected(n, 0.3, &mut rng).unwrap();
            let g = generators::randomize_weights(&base, 1, 6, &mut rng).unwrap();
            let want = stoer_wagner(&g).unwrap().value;
            let trees = (2.0 * (n as f64).ln()).ceil() as usize;
            let got = packing_mincut_two_respect(&g, trees).unwrap();
            assert_eq!(got.value, want, "n = {n}");
        }
    }

    #[test]
    fn exact_on_high_lambda_with_few_trees() {
        // λ = 8 planted: the 1-respecting heuristic would pack ~60 trees;
        // 2-respecting needs ⌈2 ln n⌉ ≈ 8.
        let p = generators::clique_pair(12, 8).unwrap();
        let got = packing_mincut_two_respect(&p.graph, 8).unwrap();
        assert_eq!(got.value, 8);
    }

    #[test]
    fn cycle_pairs() {
        // On a cycle with its path tree, the best 2-respecting cut is any
        // pair of tree edges: value 2 matches λ.
        let g = generators::cycle(10).unwrap();
        let path_edges: Vec<graphs::EdgeId> = g
            .edges()
            .filter(|e| {
                let (u, v) = g.endpoints(*e);
                v.raw() == u.raw() + 1
            })
            .collect();
        let t = to_rooted(&g, &path_edges, NodeId::new(0)).unwrap();
        let (val, _) = min_two_respecting(&g, &t);
        assert_eq!(val, 2);
    }

    #[test]
    fn degenerate_inputs() {
        let tiny = WeightedGraph::from_edges(1, []).unwrap();
        assert!(packing_mincut_two_respect(&tiny, 3).is_err());
        let disc = WeightedGraph::from_edges(4, [(0, 1, 1), (2, 3, 1)]).unwrap();
        assert!(packing_mincut_two_respect(&disc, 3).is_err());
    }
}
