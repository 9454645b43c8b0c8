//! Election parity: every node's full `LeaderBfsOutput` — leader, parent
//! port, depth, children — must equal the sequential oracle
//! (`leader_bfs::oracle`: the BFS tree from node 0, parent = the
//! smallest port one level up) on every topology.
//!
//! Strict mode is on throughout, so any protocol violation the
//! radius-doubling schedule could introduce (a probe or ack reaching a
//! halted node, a front outrunning its stage) would fail the run itself,
//! not just the assertions.

use congest::primitives::leader_bfs::{self, LeaderBfs, LeaderBfsOutput};
use congest::{Network, NetworkConfig};
use graphs::{generators, WeightedGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One graph from the three stress families, keyed by `family % 3`
/// (random trees, tori, cliques).
fn make_graph(family: u8, seed: u64, size: usize) -> WeightedGraph {
    match family % 3 {
        // Random tree: node i attaches to a uniform ancestor — deep
        // BFS trees, many local minima among the leaves.
        0 => {
            let n = size.max(2);
            let mut rng = StdRng::seed_from_u64(seed);
            let edges: Vec<(u32, u32, u64)> = (1..n)
                .map(|i| {
                    let parent = rng.gen_range(0..i) as u32;
                    (parent, i as u32, 1 + (seed + i as u64) % 7)
                })
                .collect();
            WeightedGraph::from_edges(n, edges).expect("valid tree")
        }
        // Torus: uniform degree 4, wrap-around routing, one local
        // minimum under row-major ids.
        1 => {
            let side = 3 + size % 5;
            generators::torus2d(side, side).expect("valid torus")
        }
        // Clique: diameter 1, every probe is a crossing.
        _ => generators::complete(3 + size % 6, 1 + seed % 5).expect("valid clique"),
    }
}

/// Runs the election; returns the outputs, messages and rounds.
fn run_election(g: &WeightedGraph) -> (Vec<LeaderBfsOutput>, u64, u64) {
    let mut net = Network::new(g, NetworkConfig::default()).expect("valid topology");
    let out = net
        .run("leader_bfs", &LeaderBfs::new(), vec![(); g.node_count()])
        .expect("election succeeds in strict mode");
    (out.outputs, out.metrics.messages, out.metrics.rounds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Election ≡ oracle, node by node, field by field.
    #[test]
    fn election_equals_oracle_everywhere(family in 0u8..3, seed in 0u64..1000, size in 2usize..40) {
        let g = make_graph(family, seed, size);
        let (got, _, _) = run_election(&g);
        prop_assert_eq!(got, leader_bfs::oracle(&g));
    }
}

/// Random weighted graphs (not from the three families): denser, with
/// shortcut edges that give equal-depth parent candidates — the
/// tie-break territory.
#[test]
fn election_equals_oracle_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(99);
    for n in [2usize, 5, 17, 40, 90] {
        for p in [0.06, 0.2, 0.6] {
            let g = generators::erdos_renyi_connected(n, p, &mut rng).unwrap();
            let (got, _, _) = run_election(&g);
            assert_eq!(got, leader_bfs::oracle(&g), "n = {n}, p = {p}");
        }
    }
}

/// torus24x24 has one local minimum under row-major ids, so the
/// election is one wave of `2m + n − 1` messages.
#[test]
fn torus24x24_election_is_pinned() {
    let g = generators::torus2d(24, 24).unwrap();
    let (n, m) = (g.node_count() as u64, g.edge_count() as u64);
    let (got, messages, rounds) = run_election(&g);
    assert_eq!(got, leader_bfs::oracle(&g));
    assert_eq!(messages, 2 * m + n - 1);
    assert_eq!((messages, rounds), (2_879, 86));
}
