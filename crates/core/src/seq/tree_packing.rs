//! Thorup's greedy tree packing and the sequential end-to-end packing-based
//! minimum cut — the exact sequential mirror of the paper's distributed
//! algorithm.
//!
//! Greedy packing: tree `Tᵢ` is the minimum spanning tree with respect to
//! the **relative loads** induced by `T₁ … Tᵢ₋₁` (`load(e)/w(e)`, the number
//! of previous trees using `e` per unit of capacity). Thorup's theorem
//! [Tho07, Theorem 9] guarantees that after `Θ(λ⁷ log³ n)` trees, some tree
//! contains **exactly one** edge of some minimum cut — i.e. the minimum cut
//! 1-respects that tree, and Karger's dynamic program finds it.
//!
//! The theoretical packing size is astronomically conservative; the packing
//! size is therefore a policy ([`PackingSize`]), and experiment E1 measures
//! how many trees are needed in practice (typically a handful).

use crate::seq::karger_dp::{min_one_respecting, subtree_side};
use crate::MinCutError;
use graphs::{CutResult, EdgeId, NodeId, Weight, WeightedGraph};
use trees::mst::kruskal_by;
use trees::spanning::to_rooted;

/// Lexicographic MST key for packed trees: relative load first
/// (cross-multiplied to stay exact), then weight, then edge id. A strict
/// total order — the MST is unique, so the sequential and distributed
/// packings produce identical trees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadKey {
    /// Number of previous trees using this edge.
    pub load: u64,
    /// The edge's capacity (graph weight).
    pub weight: Weight,
    /// Tie-breaking edge id.
    pub edge: u32,
}

impl Ord for LoadKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let a = self.load as u128 * other.weight as u128;
        let b = other.load as u128 * self.weight as u128;
        a.cmp(&b)
            .then_with(|| self.weight.cmp(&other.weight))
            .then_with(|| self.edge.cmp(&other.edge))
    }
}

impl PartialOrd for LoadKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// How many trees to pack.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum PackingSize {
    /// `⌈2 · λ̂ · ln n⌉`, re-evaluated as the upper bound `λ̂` improves
    /// (the practical default; E1 validates it against Thorup's
    /// `λ̂⁷ ln³ n`).
    #[default]
    Heuristic,
    /// Exactly this many trees.
    Fixed(usize),
}

/// Packing configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct PackingConfig {
    /// Stopping policy.
    pub size: PackingSize,
    /// Hard cap on the number of trees regardless of policy.
    pub max_trees: usize,
}

impl Default for PackingConfig {
    fn default() -> Self {
        PackingConfig {
            size: PackingSize::default(),
            max_trees: 256,
        }
    }
}

impl PackingConfig {
    /// Exactly `k` trees; a zero budget still packs one.
    pub fn fixed(k: usize) -> Self {
        PackingConfig {
            size: PackingSize::Fixed(k),
            max_trees: k.max(1),
        }
    }

    /// Trees to pack given the current upper bound `λ̂` on the minimum cut.
    pub fn target_trees(&self, n: usize, lambda_hat: Weight) -> usize {
        let ln_n = (n.max(2) as f64).ln();
        let t = match self.size {
            PackingSize::Heuristic => (2.0 * lambda_hat.max(1) as f64 * ln_n).ceil(),
            PackingSize::Fixed(k) => k as f64,
        };
        (t.max(1.0) as usize).min(self.max_trees)
    }
}

/// Result of the packing-based minimum cut.
#[derive(Clone, Debug)]
pub struct PackingResult {
    /// The best cut found (verified value).
    pub cut: CutResult,
    /// Trees actually packed.
    pub trees_packed: usize,
    /// Index (1-based) of the tree that first achieved the final value.
    pub trees_to_best: usize,
    /// The 1-respecting arg-min node of the winning tree, if the winner was
    /// a 1-respecting cut (`None` if the trivial singleton won).
    pub best_node: Option<NodeId>,
}

/// Packs `k` greedy trees and returns their edge sets.
///
/// # Errors
///
/// [`MinCutError::Disconnected`] if the graph cannot be spanned.
pub fn greedy_packing(g: &WeightedGraph, k: usize) -> Result<Vec<Vec<EdgeId>>, MinCutError> {
    let mut loads: Vec<u64> = vec![0; g.edge_count()];
    let mut trees = Vec::with_capacity(k);
    for _ in 0..k {
        let t = next_packed_tree(g, &loads)?;
        for &e in &t {
            loads[e.index()] += 1;
        }
        trees.push(t);
    }
    Ok(trees)
}

/// One greedy step: MST under the current loads.
pub(crate) fn next_packed_tree(
    g: &WeightedGraph,
    loads: &[u64],
) -> Result<Vec<EdgeId>, MinCutError> {
    let mst = kruskal_by(g, |e, w| LoadKey {
        load: loads[e.index()],
        weight: w,
        edge: e.raw(),
    });
    if !mst.is_spanning_tree(g.node_count()) {
        return Err(MinCutError::Disconnected);
    }
    Ok(mst.edges)
}

/// Sequential packing-based minimum cut: pack trees greedily, run Karger's
/// 1-respecting dynamic program on each, return the best cut seen (also
/// considering the trivial minimum-degree singleton). With enough trees
/// (Thorup) this is the exact minimum cut; the returned value is always a
/// **real, verified cut value** regardless.
///
/// # Errors
///
/// [`MinCutError::TooSmall`] / [`MinCutError::Disconnected`] as usual.
pub fn packing_mincut(
    g: &WeightedGraph,
    config: &PackingConfig,
) -> Result<PackingResult, MinCutError> {
    let n = g.node_count();
    if n < 2 {
        return Err(MinCutError::TooSmall { nodes: n });
    }
    // Seed candidate: the minimum-degree singleton.
    let (best_deg_node, best_deg) = g
        .nodes()
        .map(|v| (v, g.weighted_degree(v)))
        .min_by_key(|&(v, d)| (d, v))
        .expect("n ≥ 2");
    let mut best_value = best_deg;
    let mut best_side: Vec<bool> = {
        let mut s = vec![false; n];
        s[best_deg_node.index()] = true;
        s
    };
    let mut best_node = None;
    let mut trees_to_best = 0;

    let mut loads = vec![0u64; g.edge_count()];
    let mut packed = 0;
    while packed < config.target_trees(n, best_value) {
        let tree_edges = next_packed_tree(g, &loads)?;
        for &e in &tree_edges {
            loads[e.index()] += 1;
        }
        packed += 1;
        let tree = to_rooted(g, &tree_edges, NodeId::new(0)).expect("spanning edges form a tree");
        if let Some((value, v)) = min_one_respecting(g, &tree) {
            if value < best_value {
                best_value = value;
                best_side = subtree_side(&tree, v);
                best_node = Some(v);
                trees_to_best = packed;
            }
        }
    }
    debug_assert_eq!(graphs::cut::cut_of_side(g, &best_side), best_value);
    Ok(PackingResult {
        cut: CutResult {
            side: best_side,
            value: best_value,
        },
        trees_packed: packed,
        trees_to_best,
        best_node,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::stoer_wagner::stoer_wagner;
    use graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn load_key_order_is_relative_load() {
        // load 1 weight 2 (0.5) < load 1 weight 1 (1.0)
        let a = LoadKey {
            load: 1,
            weight: 2,
            edge: 5,
        };
        let b = LoadKey {
            load: 1,
            weight: 1,
            edge: 0,
        };
        assert!(a < b);
        // Equal ratios tie-break by weight then id.
        let c = LoadKey {
            load: 2,
            weight: 4,
            edge: 1,
        };
        assert!(a < c); // same ratio 0.5, weight 2 < 4
        let d = LoadKey {
            load: 1,
            weight: 2,
            edge: 9,
        };
        assert!(a < d); // identical ratio+weight, id 5 < 9
    }

    #[test]
    fn packing_spreads_load() {
        // On a cycle, each tree omits one edge; after k trees the loads are
        // spread nearly evenly (difference ≤ 1).
        let g = generators::cycle(6).unwrap();
        let trees = greedy_packing(&g, 6).unwrap();
        assert_eq!(trees.len(), 6);
        let mut loads = vec![0u64; g.edge_count()];
        for t in &trees {
            assert_eq!(t.len(), 5);
            for e in t {
                loads[e.index()] += 1;
            }
        }
        let (mn, mx) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
        assert!(mx - mn <= 1, "loads = {loads:?}");
    }

    #[test]
    fn exact_on_planted_cliques() {
        for (h, lambda) in [(6, 1), (6, 2), (8, 4)] {
            let p = generators::clique_pair(h, lambda).unwrap();
            let r = packing_mincut(&p.graph, &PackingConfig::default()).unwrap();
            assert_eq!(r.cut.value, lambda as u64, "h={h} λ={lambda}");
            assert_eq!(graphs::cut::cut_of_side(&p.graph, &r.cut.side), r.cut.value);
        }
    }

    #[test]
    fn exact_on_structured_families() {
        let torus = generators::torus2d(4, 4).unwrap();
        let r = packing_mincut(&torus, &PackingConfig::default()).unwrap();
        assert_eq!(r.cut.value, 4);
        let cyc = generators::cycle(12).unwrap();
        let r = packing_mincut(&cyc, &PackingConfig::default()).unwrap();
        assert_eq!(r.cut.value, 2);
        let path = generators::path(9).unwrap();
        let r = packing_mincut(&path, &PackingConfig::default()).unwrap();
        assert_eq!(r.cut.value, 1);
        // The seed candidate (minimum-degree singleton) is already optimal
        // on a path, so no packed tree improves on it.
        assert_eq!(r.trees_to_best, 0);
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(101);
        let mut exact = 0;
        let total = 12;
        for i in 0..total {
            let n = 12 + (i % 3) * 8;
            let base = generators::erdos_renyi_connected(n, 0.25, &mut rng).unwrap();
            let g = generators::randomize_weights(&base, 1, 4, &mut rng).unwrap();
            let want = stoer_wagner(&g).unwrap().value;
            let got = packing_mincut(&g, &PackingConfig::default()).unwrap();
            assert!(got.cut.value >= want, "returned value below the minimum");
            if got.cut.value == want {
                exact += 1;
            }
        }
        // The heuristic packing should be exact on the great majority of
        // small instances (E1 quantifies this precisely).
        assert!(exact >= total - 1, "only {exact}/{total} exact");
    }

    #[test]
    fn fixed_and_heuristic_sizes() {
        let g = generators::cycle(5).unwrap();
        let r = packing_mincut(&g, &PackingConfig::fixed(3)).unwrap();
        assert_eq!(r.trees_packed, 3);
        assert_eq!(PackingConfig::fixed(3).target_trees(100, 1), 3);
        assert_eq!(PackingConfig::fixed(3).target_trees(10, 99), 3);
        // A zero budget still packs one tree.
        assert_eq!(PackingConfig::fixed(0).target_trees(5, 5), 1);
        // The heuristic is capped by max_trees.
        let cfg = PackingConfig {
            size: PackingSize::Heuristic,
            max_trees: 10,
        };
        assert_eq!(cfg.target_trees(5, 1_000), 10);
        let r = packing_mincut(&g, &cfg).unwrap();
        assert_eq!(r.cut.value, 2);
    }

    #[test]
    fn disconnected_is_detected() {
        let g = graphs::WeightedGraph::from_edges(4, [(0, 1, 1), (2, 3, 1)]).unwrap();
        assert!(matches!(
            packing_mincut(&g, &PackingConfig::default()),
            Err(MinCutError::Disconnected)
        ));
    }
}
