//! Property tests of the shared keyed-stream reducer
//! (`congest::primitives::merge::KeyedStreamReduce`), exercised through
//! its in-crate instantiation, `GroupedSum`, over random trees.
//!
//! The stream edge cases — duplicate keys, empty child streams,
//! single-node networks, and `End` markers arriving in different orders
//! across children — are all drawn here: random BFS trees mix leaf
//! children (whose `End` arrives in round one) with deep chains that
//! stream items long after, and a random subset of nodes contributes
//! nothing at all. Every instance runs under the model's β = 8 budget
//! (at most 64 bits here, a few items a message) and at β = 32, where
//! whole streams share a message, on the serial, parallel and faulty
//! executors. Directed state-machine tests of the core — an adversarial
//! `End` ordering, the emission rule, and a dropped item that takes no
//! room — live next to it in `merge.rs`. The core's other
//! instantiation, the distributed MST's cycle-filtered upcast, has its
//! own property test against sequential Kruskal in
//! `crates/core/tests/mstb_up_props.rs`.

use congest::primitives::leader_bfs::LeaderBfs;
use congest::primitives::GroupedSum;
use congest::sim::FaultPlan;
use congest::{ExecutorKind, Network, NetworkConfig, RunOutcome, TreeInfo};
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
    /// and `End` markers race items across sibling streams. At both
    /// budgets the serial, parallel and faulty executors agree on the
    /// outputs and counters, and no message exceeds the budget.
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
        let want: Vec<(u64, u64)> = want.into_iter().collect();
        let inputs: Vec<(TreeInfo, Vec<(u64, u64)>)> =
            trees.into_iter().zip(lists).collect();
        for factor in [8, 32] {
            let run = |executor: ExecutorKind| -> RunOutcome<Option<Vec<(u64, u64)>>> {
                let cfg = NetworkConfig::with_bandwidth_factor(factor).with_executor(executor);
                let mut net = Network::new(&g, cfg).unwrap();
                net.run("gs_prop", &GroupedSum::new(), inputs.clone()).unwrap()
            };
            let serial = run(ExecutorKind::Serial);
            prop_assert_eq!(serial.outputs[0].as_ref().expect("node 0 is the root"), &want);
            let budget = NetworkConfig::with_bandwidth_factor(factor).bandwidth_bits(n);
            prop_assert!(serial.metrics.max_message_bits <= budget);
            let counters = |o: &RunOutcome<_>| {
                let m = &o.metrics;
                (m.rounds, m.messages, m.bits, m.max_message_bits)
            };
            let plan = FaultPlan::with_drop(150, seed).delayed(2).duplicated(80);
            for executor in [ExecutorKind::Parallel { threads: 2 }, ExecutorKind::Faulty(plan)] {
                let other = run(executor);
                prop_assert_eq!(&other.outputs, &serial.outputs);
                prop_assert_eq!(counters(&other), counters(&serial));
            }
        }
    }
}
