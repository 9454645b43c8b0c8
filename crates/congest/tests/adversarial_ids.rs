//! Adversarial identifier layouts for the election.
//!
//! The election floods from local minima only, so it is cheapest on
//! identifier layouts with a single local minimum (row-major grids). An
//! adversary can instead *permute* the identifiers so that many nodes
//! are local minima — every one of them a candidate flooding its own
//! probe front. The `O(log D)`-front argument says the doubling schedule
//! keeps this cheap anyway: fronts that survive to stage `k` are
//! pairwise `≥ 2^k` apart, so any node is reached by `O(log D)` fronts
//! and total probe traffic stays `O(m log D)`. This suite checks that on
//! a permuted torus24x24 and a permuted Erdős–Rényi instance: outputs
//! equal to the sequential oracle, a message budget of the `O(m log D)`
//! shape, the `O(D)` round envelope, and exact message and round pins.

use congest::primitives::leader_bfs::{self, LeaderBfs};
use congest::{Network, NetworkConfig};
use graphs::{generators, NodeId, WeightedGraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Relabels `g` by a seeded uniform permutation: node `v` becomes
/// `perm[v]`, adjacency and weights unchanged. Returns the new graph.
fn permute_ids(g: &WeightedGraph, seed: u64) -> WeightedGraph {
    let n = g.node_count();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    let edges: Vec<(u32, u32, u64)> = g
        .edge_tuples()
        .map(|(_, u, v, w)| (perm[u.index()], perm[v.index()], w))
        .collect();
    WeightedGraph::from_edges(n, edges).expect("permutation preserves validity")
}

/// Number of local-minimum identifiers — the election's candidate count.
fn local_minima(g: &WeightedGraph) -> usize {
    g.nodes()
        .filter(|&v| {
            g.neighbors(v)
                .iter()
                .all(|a| a.neighbor.index() > v.index())
        })
        .count()
}

/// Checks oracle parity and the bounds on one adversarial instance;
/// returns its `(messages, rounds)`.
fn check_instance(name: &str, g: &WeightedGraph, min_minima: usize) -> (u64, u64) {
    let minima = local_minima(g);
    assert!(
        minima >= min_minima,
        "{name}: permutation produced only {minima} local minima"
    );
    let mut net = Network::new(g, NetworkConfig::default()).expect("valid topology");
    let out = net
        .run("leader_bfs", &LeaderBfs::new(), vec![(); g.node_count()])
        .expect("election succeeds");
    let (messages, rounds) = (out.metrics.messages, out.metrics.rounds);
    assert_eq!(out.outputs, leader_bfs::oracle(g), "{name}: oracle parity");

    let dist = graphs::traversal::bfs(g, NodeId::new(0)).dist;
    let d = *dist.iter().max().expect("nonempty") as u64;
    let m2 = 2 * g.edge_count() as u64;
    let log_d = 64 - d.max(1).leading_zeros() as u64;
    // O(m log D) probes + O(n) acks/done — the front bound, with a
    // constant ≤ 2 (measured ≈ 0.6 on the torus, ≈ 0.5 on the ER
    // instance).
    assert!(
        messages <= 2 * m2 * (log_d + 2),
        "{name}: {messages} msgs vs 2m(log D + 2) = {}",
        2 * m2 * (log_d + 2)
    );
    // Rounds stay in the O(D) envelope.
    assert!(rounds <= 6 * d + 30, "{name}: {rounds} rounds on D = {d}");
    (messages, rounds)
}

/// Torus24x24 with uniformly permuted identifiers: ~n/5 local minima
/// instead of one — the layout the doubling schedule exists for. The
/// row-major layout's single wave costs 2,879 messages; here the
/// competing fronts cost 3.1–3.3× that, in the same 86 rounds.
#[test]
fn permuted_torus24x24_validates_the_log_d_front_bound() {
    let g = generators::torus2d(24, 24).unwrap();
    for (seed, messages) in [(1u64, 9_251), (42, 9_053), (1337, 9_582)] {
        let pg = permute_ids(&g, seed);
        // A uniform permutation yields ≈ n/(Δ+1) = 115 expected minima.
        let got = check_instance("torus24x24", &pg, 80);
        assert_eq!(got, (messages, 86), "seed {seed}");
    }
}

/// A connected Erdős–Rényi graph (small diameter, many minima after
/// permutation): the opposite regime from the torus.
#[test]
fn permuted_erdos_renyi_stays_parity_and_budgeted() {
    let mut rng = StdRng::seed_from_u64(99);
    let g = generators::erdos_renyi_connected(400, 0.02, &mut rng).unwrap();
    for (seed, pin) in [(7u64, (8_208, 15)), (21, (8_051, 13))] {
        let pg = permute_ids(&g, seed);
        assert_eq!(check_instance("er400", &pg, 30), pin, "seed {seed}");
    }
}
