//! Property tests of phase B's cycle-filtered upcast (`mstB.up`,
//! `mincut::dist::mst::FilteredUpcast`) against sequential Kruskal.
//!
//! Every drawn instance is a random connected graph, the single-node and
//! two-node networks included, with a random fragment labelling, random
//! loads and packing weights, and some zero-weight edges. Each node
//! offers what the driver's nodes offer: the inter-fragment edges with
//! packing weight for which it is the lower-id endpoint. Checked:
//!
//! * the leader's output is sequential Kruskal over the fragment
//!   multigraph under `LoadKey`, edge for edge and in key order;
//! * the serial, parallel and faulty executors agree on the outputs and
//!   on rounds, messages and bits;
//! * no message exceeds the `β⌈log₂ n⌉`-bit budget, whose `⌈log₂ n⌉`
//!   the model floors at 8 bits for small `n`.
//!
//! Every instance runs at the model's β = 8, where an edge's message
//! holds one edge or a few, and at β = 32, where many share a message.

use congest::primitives::leader_bfs::{LeaderBfs, LeaderBfsOutput};
use congest::sim::FaultPlan;
use congest::{ExecutorKind, Network, NetworkConfig, RunOutcome, TreeInfo};
use graphs::{generators, NodeId, WeightedGraph};
use mincut::dist::mst::{FilteredUpcast, InterEdge};
use mincut::dist::packing::Cand;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A reproducible connected graph, or the single-node network for
/// `n == 1`.
fn graph_from(seed: u64, n: usize) -> WeightedGraph {
    if n == 1 {
        return WeightedGraph::from_edges(1, []).expect("single node");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    generators::erdos_renyi_connected(n, 0.25, &mut rng).expect("valid parameters")
}

/// One drawn instance: the graph, the upcast's per-node inputs, and the
/// sequential Kruskal answer.
struct Instance {
    g: WeightedGraph,
    inputs: Vec<(TreeInfo, Vec<InterEdge>)>,
    want: Vec<InterEdge>,
}

fn instance(seed: u64, n: usize) -> Instance {
    let g = graph_from(seed, n);
    let bfs: Vec<LeaderBfsOutput> = if n == 1 {
        vec![LeaderBfsOutput {
            leader: NodeId::new(0),
            tree: TreeInfo::default(),
            iv: Default::default(),
        }]
    } else {
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        net.run("leader_bfs", &LeaderBfs::new(), vec![(); n])
            .unwrap()
            .outputs
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF7A6);
    let fragments = rng.gen_range(1..=n as u32);
    let frag: Vec<u32> = (0..n).map(|_| rng.gen_range(0..fragments)).collect();
    // Per edge: a load, and a packing weight that is zero one time in
    // five (such an edge is never offered).
    let key: Vec<(u64, u64)> = g
        .edges()
        .map(|_| {
            let weight = if rng.gen_range(0..5u32) == 0 {
                0
            } else {
                rng.gen_range(1..20u64)
            };
            (rng.gen_range(0..4u64), weight)
        })
        .collect();
    let mut offered: Vec<InterEdge> = Vec::new();
    let inputs = (0..n)
        .map(|v| {
            let mut own = Vec::new();
            for a in g.neighbors(NodeId::from_index(v)) {
                let u = a.neighbor.index();
                let (load, weight) = key[a.edge.index()];
                if frag[v] != frag[u] && weight > 0 && v < u {
                    own.push(InterEdge {
                        cand: Cand {
                            load,
                            weight,
                            edge: a.edge.raw(),
                        },
                        frags: (frag[v], frag[u]),
                        ends: (bfs[v].iv.in_t, bfs[u].iv.in_t),
                    });
                }
            }
            offered.extend(&own);
            (bfs[v].tree.clone(), own)
        })
        .collect();
    offered.sort_by_key(|e| e.cand.key());
    let mut dsu = trees::DisjointSets::new(n);
    let want = offered
        .into_iter()
        .filter(|e| dsu.union(e.frags.0 as usize, e.frags.1 as usize))
        .collect();
    Instance { g, inputs, want }
}

fn run(
    inst: &Instance,
    factor: usize,
    executor: ExecutorKind,
) -> RunOutcome<Option<Vec<InterEdge>>> {
    let cfg = NetworkConfig::with_bandwidth_factor(factor).with_executor(executor);
    let mut net = Network::new(&inst.g, cfg).unwrap();
    net.run("mstB.up", &FilteredUpcast, inst.inputs.clone())
        .unwrap()
}

/// Runs the serial executor plus `others` at β = 8 and β = 32, and
/// checks the oracle, the agreement, and the bit budget.
fn check(seed: u64, n: usize, others: &[ExecutorKind]) {
    let inst = instance(seed, n);
    for factor in [8, 32] {
        let serial = run(&inst, factor, ExecutorKind::Serial);
        let tag = format!("seed {seed}, n = {n}, β = {factor}");
        assert_eq!(
            serial.outputs[0].as_ref().expect("node 0 leads"),
            &inst.want,
            "{tag}"
        );
        assert!(serial.outputs[1..].iter().all(Option::is_none), "{tag}");
        let budget = NetworkConfig::with_bandwidth_factor(factor).bandwidth_bits(n);
        assert!(
            serial.metrics.max_message_bits <= budget,
            "{tag}: {} bits against a budget of {budget}",
            serial.metrics.max_message_bits
        );
        let counters = |o: &RunOutcome<_>| (o.metrics.rounds, o.metrics.messages, o.metrics.bits);
        for executor in others {
            let other = run(&inst, factor, executor.clone());
            assert_eq!(other.outputs, serial.outputs, "{tag}, {executor:?}");
            assert_eq!(counters(&other), counters(&serial), "{tag}, {executor:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn filtered_upcast_is_sequential_kruskal(seed in 0u64..5000, n in 1usize..41) {
        let faulty = FaultPlan::with_drop(150, seed).delayed(2).duplicated(80);
        check(
            seed,
            n,
            &[ExecutorKind::Parallel { threads: 2 }, ExecutorKind::Faulty(faulty)],
        );
    }
}

/// The smallest networks, and a few fixed seeds under the faulty
/// executor: the α-synchronizer must reproduce the synchronous run.
#[test]
fn tiny_networks_and_the_faulty_executor() {
    for (seed, n) in [(1, 1), (2, 2), (3, 2), (4, 3), (5, 12), (6, 25), (7, 40)] {
        let faulty = FaultPlan::with_drop(150, 0xB0 + seed)
            .delayed(2)
            .duplicated(80);
        check(
            seed,
            n,
            &[
                ExecutorKind::Parallel { threads: 2 },
                ExecutorKind::Faulty(faulty),
            ],
        );
    }
}
