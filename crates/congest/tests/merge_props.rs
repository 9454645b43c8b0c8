//! Property tests of the shared keyed-stream reducer
//! (`congest::primitives::merge::KeyedStreamReduce`), exercised through
//! its two protocol instantiations over random trees.
//!
//! The edge cases that used to be untested *per copy* of the protocol —
//! duplicate keys, empty child streams, single-node networks, and `End`
//! markers arriving in different orders across children — are all drawn
//! here: random BFS trees mix leaf children (whose `End` arrives in round
//! one) with deep chains that stream items long after, and a random
//! subset of nodes contributes nothing at all. A directed adversarial
//! `End`-ordering test at the state-machine level lives next to the core
//! in `merge.rs`.

use congest::primitives::leader_bfs::LeaderBfs;
use congest::primitives::{GroupedBest, GroupedSum, KeyedMin};
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

    /// GroupedBest equals the sequential per-key argmin under a strict
    /// total order (unique tags), over the same tree/stream shapes.
    #[test]
    fn grouped_best_matches_oracle(seed in 0u64..5000, n in 1usize..33, spread in 1u64..7) {
        let g = graph_from(seed, n);
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let trees = bfs_trees(&g, &mut net);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBE57);
        let lists: Vec<Vec<KeyedMin>> = (0..n)
            .map(|v| {
                (0..rng.gen_range(0usize..4))
                    .map(|i| KeyedMin {
                        key: rng.gen_range(0..spread),
                        value: rng.gen_range(1..40u64),
                        tag: (v * 8 + i) as u64, // unique → strict order
                    })
                    .collect()
            })
            .collect();
        let mut want: BTreeMap<u64, KeyedMin> = BTreeMap::new();
        for l in &lists {
            for item in l {
                match want.get(&item.key) {
                    Some(b) if (b.value, b.tag) <= (item.value, item.tag) => {}
                    _ => {
                        want.insert(item.key, item.clone());
                    }
                }
            }
        }
        let inputs: Vec<(TreeInfo, Vec<KeyedMin>)> =
            trees.into_iter().zip(lists).collect();
        let out = net.run("gb_prop", &GroupedBest::new(), inputs).unwrap();
        prop_assert_eq!(
            out.outputs[0].clone().expect("node 0 is the root"),
            want.into_values().collect::<Vec<_>>()
        );
    }
}
