//! Property tests of the shared keyed-stream reducer
//! (`congest::primitives::merge::KeyedStreamReduce`), exercised through
//! its in-crate instantiation, `GroupedSum`, over random trees.
//!
//! The stream edge cases — duplicate keys, empty child streams,
//! single-node networks, and `End` markers arriving in different orders
//! across children — are all drawn here: random BFS trees mix leaf
//! children (whose `End` arrives in round one) with deep chains that
//! stream items long after, and a random subset of nodes contributes
//! nothing at all. Directed state-machine tests of the core — an
//! adversarial `End` ordering, and a dropped item that costs no round —
//! live next to it in `merge.rs`. The core's other instantiation, the
//! distributed MST's cycle-filtered upcast, has its own property test
//! against sequential Kruskal in `crates/core/tests/mstb_up_props.rs`.

use congest::primitives::leader_bfs::LeaderBfs;
use congest::primitives::GroupedSum;
use congest::{Network, NetworkConfig, TreeInfo};
use graphs::{generators, WeightedGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// A reproducible connected graph; `n == 1` is the single-node network
/// (no edges, no rounds — everything must settle locally).
fn graph_from(seed: u64, n: usize) -> WeightedGraph {
    if n == 1 {
        return WeightedGraph::from_edges(1, []).expect("single node");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    generators::erdos_renyi_connected(n, 0.25, &mut rng).expect("valid parameters")
}

/// The leader's BFS trees (node 0 wins the min-id election), or the
/// trivial forest for the single-node network.
fn bfs_trees(g: &WeightedGraph, net: &mut Network<'_>) -> Vec<TreeInfo> {
    if g.node_count() == 1 {
        return vec![TreeInfo::default()];
    }
    net.run("leader_bfs", &LeaderBfs::new(), vec![(); g.node_count()])
        .unwrap()
        .outputs
        .into_iter()
        .map(|o| o.tree)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GroupedSum equals the sequential per-key fold for every tree
    /// shape: duplicate keys merge, empty nodes only contribute `End`s,
    /// and `End` markers race items across sibling streams.
    #[test]
    fn grouped_sum_matches_oracle(seed in 0u64..5000, n in 1usize..33, spread in 1u64..9) {
        let g = graph_from(seed, n);
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let trees = bfs_trees(&g, &mut net);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        // Roughly a third of the nodes hold nothing (early-`End` streams).
        let lists: Vec<Vec<(u64, u64)>> = (0..n)
            .map(|_| {
                (0..rng.gen_range(0..4usize) * usize::from(rng.gen_range(0u32..3) > 0))
                    .map(|_| (rng.gen_range(0..spread), rng.gen_range(1..50u64)))
                    .collect()
            })
            .collect();
        let mut want: BTreeMap<u64, u64> = BTreeMap::new();
        for l in &lists {
            for &(k, v) in l {
                *want.entry(k).or_insert(0) += v;
            }
        }
        let inputs: Vec<(TreeInfo, Vec<(u64, u64)>)> =
            trees.into_iter().zip(lists).collect();
        let out = net.run("gs_prop", &GroupedSum::new(), inputs).unwrap();
        prop_assert_eq!(
            out.outputs[0].clone().expect("node 0 is the root"),
            want.into_iter().collect::<Vec<_>>()
        );
    }
}
