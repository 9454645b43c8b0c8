//! Phase A against the sequential oracle. The MST under the packing's
//! relative-load, weight, edge-id order is unique, so on every drawn
//! instance `exact_mincut` must pack **the same trees** as
//! `seq::tree_packing::greedy_packing` and return the cut of
//! `seq::tree_packing::packing_mincut` under the same `PackingConfig`.
//!
//! What is asserted per drawn instance:
//!  - identical MST edge sets, tree by tree (`tree_edges` against the
//!    sorted greedy trees),
//!  - identical λ, cut side, `trees_packed`, `trees_to_best`, and
//!    arg-min node,
//!  - phase A's structural postcondition: every tree's fragment count
//!    `k` (`phase_a_fragments`) satisfies `k · ⌈√n⌉ ≤ n`, so at most √n
//!    fragments reach phase B.

use mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut::dist::mst::MstConfig;
use mincut::seq::tree_packing::{greedy_packing, packing_mincut, PackingConfig, PackingSize};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random recursive tree: node `v ≥ 1` attaches to a uniform earlier
/// node. Exactly `n − 1` edges — phase A must hook every one of them.
fn random_tree(n: usize, rng: &mut StdRng) -> graphs::WeightedGraph {
    let edges: Vec<(u32, u32, u64)> = (1..n as u32).map(|v| (rng.gen_range(0..v), v, 1)).collect();
    graphs::WeightedGraph::from_edges(n, edges).expect("valid tree")
}

fn assert_parity(tag: &str, g: &graphs::WeightedGraph, trees: usize) {
    let packing = PackingConfig {
        size: PackingSize::Fixed(trees),
        max_trees: trees,
    };
    let cfg = ExactConfig {
        packing: packing.clone(),
        ..Default::default()
    };
    let got = exact_mincut(g, &cfg).expect("pipeline runs");
    let want = packing_mincut(g, &packing).expect("oracle runs");
    let mut want_trees = greedy_packing(g, want.trees_packed).expect("oracle packs");
    want_trees.iter_mut().for_each(|t| t.sort_unstable());
    assert_eq!(got.tree_edges, want_trees, "{tag}: MST edge sets");
    assert_eq!(got.cut.value, want.cut.value, "{tag}: lambda");
    assert_eq!(got.cut.side, want.cut.side, "{tag}: cut side");
    assert_eq!(got.trees_packed, want.trees_packed, "{tag}: trees");
    assert_eq!(
        got.trees_to_best, want.trees_to_best,
        "{tag}: trees_to_best"
    );
    assert_eq!(got.best_node, want.best_node, "{tag}: best_node");
    let n = g.node_count();
    let cap = MstConfig::default().effective_cap(n);
    for &k in &got.phase_a_fragments {
        assert!(
            k * cap <= n,
            "{tag}: phase A left {k} fragments of cap {cap} on n = {n}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random trees: phase A *is* the whole MST here — every edge must
    /// be hooked, nothing is cut (and λ = 1 on any tree).
    #[test]
    fn parity_on_random_trees(n in 8usize..40, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_tree(n, &mut rng);
        assert_parity(&format!("tree n={n} seed={seed}"), &g, 1);
    }

    /// Tori: the canonical benchmark family (vertex-transitive, every
    /// level of fragment growth exercised, freezes guaranteed once
    /// fragments reach the √n cap).
    #[test]
    fn parity_on_tori(rows in 4usize..8, cols in 4usize..8) {
        let g = graphs::generators::torus2d(rows, cols).expect("torus");
        assert_parity(&format!("torus{rows}x{cols}"), &g, 2);
    }

    /// Connected Erdős–Rényi graphs: irregular degrees, multi-edge-free
    /// but unstructured — the adversarial case for the deterministic
    /// mating rule (arbitrary fragment-id adjacencies).
    #[test]
    fn parity_on_er_graphs(n in 10usize..32, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = graphs::generators::erdos_renyi_connected(n, 0.2, &mut rng)
            .expect("connected ER graph");
        assert_parity(&format!("er n={n} seed={seed}"), &g, 2);
    }
}
