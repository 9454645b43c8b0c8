//! Property tests of the cut stage's token routing (`s5`,
//! `mincut::dist::one_respect::TokensUp`) over random fragment forests.
//!
//! The forests are the leader's BFS tree on a random connected graph
//! with random tree edges cut, so fragments of every shape occur: single
//! nodes, paths, stars, and the whole tree. Every node originates random
//! tokens aimed at random members of its own fragment, so equal keys meet
//! often and merge in flight. Checked against sequential oracles:
//!
//! * every node's ρ is the weight of the tokens whose origin and partner
//!   have it as their LCA (`trees::lca`);
//! * every fragment root's end-wave totals are its fragment's `(Σδ, Σρ)`;
//! * the serial, parallel and faulty executors agree on outputs and
//!   counters;
//! * merging and packing never add a message: at most one end marker per
//!   tree edge plus one message per hop of every token;
//! * no message exceeds the budget.
//!
//! Every instance runs at the model's β = 8, where a message holds a
//! few tokens, and at β = 32, where a node's whole queue often fits one.

use congest::primitives::leader_bfs::LeaderBfs;
use congest::sim::FaultPlan;
use congest::{ExecutorKind, Network, NetworkConfig, RunOutcome, TreeInfo};
use graphs::{generators, NodeId, WeightedGraph};
use mincut::dist::one_respect::{
    IntervalDown, IntervalInput, SizesUp, Token, TokensInput, TokensUp,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The graph family of the keyed-stream property tests: a reproducible
/// connected graph, or the single-node network for `n == 1`.
fn graph_from(seed: u64, n: usize) -> WeightedGraph {
    if n == 1 {
        return WeightedGraph::from_edges(1, []).expect("single node");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    generators::erdos_renyi_connected(n, 0.25, &mut rng).expect("valid parameters")
}

/// The neighbor of `v` across port `p`.
fn across(g: &WeightedGraph, v: usize, p: congest::Port) -> usize {
    g.neighbors(NodeId::from_index(v))[p.index()]
        .neighbor
        .index()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tokens_up_matches_the_lca_oracle(seed in 0u64..5000, n in 1usize..33) {
        let g = graph_from(seed, n);
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let bfs: Vec<TreeInfo> = if n == 1 {
            vec![TreeInfo::default()]
        } else {
            net.run("leader_bfs", &LeaderBfs::new(), vec![(); n])
                .unwrap()
                .outputs
                .into_iter()
                .map(|o| o.tree)
                .collect()
        };
        let bfs_parent: Vec<Option<usize>> = (0..n)
            .map(|v| bfs[v].parent.map(|p| across(&g, v, p)))
            .collect();
        let rooted = trees::RootedTree::from_parents(
            NodeId::new(0),
            &bfs_parent.iter().map(|p| p.map(NodeId::from_index)).collect::<Vec<_>>(),
        )
        .unwrap();
        let lca = trees::lca::SparseTableLca::new(&rooted);

        // Cut about a quarter of the tree edges: each cut child roots a
        // fragment of its own.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7015);
        let mut forest = bfs.clone();
        for v in 0..n {
            if let (Some(u), true) = (bfs_parent[v], rng.gen_range(0..4u32) == 0) {
                forest[v].parent = None;
                forest[u].children.retain(|&c| across(&g, u, c) != v);
            }
        }
        let frag_root = |mut v: usize| {
            while let Some(p) = forest[v].parent {
                v = across(&g, v, p);
            }
            v
        };
        let frag: Vec<usize> = (0..n).map(frag_root).collect();

        // In-fragment intervals, as `s2a`/`s2b` hand them out.
        let sizes = net.run("s2a", &SizesUp, forest.clone()).unwrap().outputs;
        let inputs: Vec<IntervalInput> = forest
            .iter()
            .zip(sizes)
            .map(|(tree, (size, child_sizes))| IntervalInput {
                tree: tree.clone(),
                size,
                child_sizes,
            })
            .collect();
        let ivs = net.run("s2b", &IntervalDown, inputs).unwrap().outputs;

        // Random tokens aimed inside the origin's fragment, and the
        // sequential answers.
        let delta: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100)).collect();
        let mut tokens: Vec<Vec<Token>> = vec![Vec::new(); n];
        let mut want_rho = vec![0u64; n];
        let mut want_tot: Vec<Option<(u64, u64)>> = vec![None; n];
        let mut hops = 0u64;
        for v in 0..n {
            let members: Vec<usize> = (0..n).filter(|&u| frag[u] == frag[v]).collect();
            for _ in 0..rng.gen_range(0..5usize) {
                let u = members[rng.gen_range(0..members.len())];
                let w = rng.gen_range(1..50u64);
                tokens[v].push(Token { t_in: ivs[u].in_t, w });
                let a = lca.lca(NodeId::from_index(v), NodeId::from_index(u));
                want_rho[a.index()] += w;
                hops += u64::from(rooted.depth(NodeId::from_index(v)) - rooted.depth(a));
                want_tot[frag[v]].get_or_insert((0, 0)).1 += w;
            }
            want_tot[frag[v]].get_or_insert((0, 0)).0 += delta[v];
        }
        let inputs: Vec<TokensInput> = (0..n)
            .map(|v| TokensInput {
                tree: forest[v].clone(),
                iv: (ivs[v].in_t, ivs[v].out_t),
                delta: delta[v],
                tokens: tokens[v].clone(),
            })
            .collect();

        let roots = (0..n).filter(|&v| frag[v] == v).count() as u64;
        for factor in [8, 32] {
            let run = |executor: ExecutorKind| -> RunOutcome<(u64, Option<(u64, u64)>)> {
                let cfg = NetworkConfig::with_bandwidth_factor(factor).with_executor(executor);
                let mut net = Network::new(&g, cfg).unwrap();
                net.run("s5", &TokensUp, inputs.clone()).unwrap()
            };
            let serial = run(ExecutorKind::Serial);
            let (rho, tot): (Vec<u64>, Vec<_>) = serial.outputs.iter().copied().unzip();
            prop_assert_eq!(&rho, &want_rho);
            prop_assert_eq!(&tot, &want_tot);
            prop_assert!(
                serial.metrics.messages <= (n as u64 - roots) + hops,
                "{} messages for {} tree edges and {hops} token hops",
                serial.metrics.messages,
                n as u64 - roots
            );
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
