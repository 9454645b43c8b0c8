//! Property tests of the packed streams' delivery contract, on the two
//! primitives whose items travel unchanged (the keyed merge core has its
//! own suite, `merge_props.rs`):
//!
//! * `UpcastItems` — the root collects every item exactly once, and each
//!   node's items in the order the node held them;
//! * `BroadcastItems` with routed rows — every node folds exactly the
//!   rows aimed at it (every row on `Route::All`), in stream order.
//!
//! Items and rows have random widths, so messages mix lone items and
//! batches of every size. Every instance runs at the model's β = 8 (at
//! most 64 bits here, a few items a message) and at β = 32, where whole
//! queues share a message; at both, the serial and faulty executors
//! agree on outputs and counters, and no message exceeds the budget.

use congest::primitives::broadcast::Route;
use congest::primitives::leader_bfs;
use congest::primitives::{BroadcastItems, UpcastItems};
use congest::sim::FaultPlan;
use congest::{Algorithm, ExecutorKind, Network, NetworkConfig, RunOutcome};
use graphs::{generators, WeightedGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A reproducible connected graph; `n == 1` is the single-node network.
fn graph_from(seed: u64, n: usize) -> WeightedGraph {
    if n == 1 {
        return WeightedGraph::from_edges(1, []).expect("single node");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    generators::erdos_renyi_connected(n, 0.25, &mut rng).expect("valid parameters")
}

/// A value of random width, 1 to 40 bits.
fn wide(rng: &mut StdRng) -> u64 {
    let bits = rng.gen_range(1..41u32);
    rng.gen_range(0..1u64 << bits)
}

/// Runs `alg` at β = 8 and β = 32 on the serial and faulty executors;
/// checks the agreement and the budget, and returns the serial outputs
/// per β.
fn run_everywhere<A>(
    g: &WeightedGraph,
    seed: u64,
    alg: &A,
    inputs: impl Fn() -> Vec<A::Input>,
) -> Vec<Vec<A::Output>>
where
    A: Algorithm,
    A::Output: PartialEq + std::fmt::Debug,
{
    let mut outputs = Vec::new();
    for factor in [8, 32] {
        let run = |executor: ExecutorKind| -> RunOutcome<A::Output> {
            let cfg = NetworkConfig::with_bandwidth_factor(factor).with_executor(executor);
            let mut net = Network::new(g, cfg).unwrap();
            net.run("stream_prop", alg, inputs()).unwrap()
        };
        let serial = run(ExecutorKind::Serial);
        let budget = NetworkConfig::with_bandwidth_factor(factor).bandwidth_bits(g.node_count());
        assert!(serial.metrics.max_message_bits <= budget, "β = {factor}");
        let counters = |o: &RunOutcome<A::Output>| {
            let m = &o.metrics;
            (m.rounds, m.messages, m.bits, m.max_message_bits)
        };
        let plan = FaultPlan::with_drop(150, seed).delayed(2).duplicated(80);
        let faulty = run(ExecutorKind::Faulty(plan));
        assert_eq!(faulty.outputs, serial.outputs, "β = {factor}");
        assert_eq!(counters(&faulty), counters(&serial), "β = {factor}");
        outputs.push(serial.outputs);
    }
    outputs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every item reaches the root once, each node's in its own order.
    #[test]
    fn upcast_delivers_every_item_in_its_order(seed in 0u64..5000, n in 1usize..41) {
        let g = graph_from(seed, n);
        let bfs = leader_bfs::oracle(&g);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0FC4);
        // Item = value · 2¹² + owner · 2⁶ + position: the owner and the
        // position read back off the low bits.
        let lists: Vec<Vec<u64>> = (0..n as u64)
            .map(|v| {
                (0..rng.gen_range(0..7u64))
                    .map(|i| (wide(&mut rng) << 12) | (v << 6) | i)
                    .collect()
            })
            .collect();
        let inputs = || -> Vec<_> {
            bfs.iter().zip(&lists).map(|(o, l)| (o.tree(), l.clone())).collect()
        };
        for outputs in run_everywhere(&g, seed, &UpcastItems::new(), inputs) {
            let got = outputs[0].as_ref().expect("node 0 is the root");
            prop_assert!(outputs[1..].iter().all(Option::is_none));
            prop_assert_eq!(got.len(), lists.iter().map(Vec::len).sum::<usize>());
            for (v, list) in lists.iter().enumerate() {
                let mine: Vec<u64> = got
                    .iter()
                    .copied()
                    .filter(|x| (x >> 6) & 63 == v as u64)
                    .collect();
                prop_assert_eq!(&mine, list);
            }
        }
    }

    /// Every node folds exactly the rows aimed at it, in stream order.
    #[test]
    fn routed_rows_reach_exactly_their_targets_in_order(seed in 0u64..5000, n in 1usize..41) {
        let g = graph_from(seed, n);
        let bfs = leader_bfs::oracle(&g);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB0CA);
        let any = |rng: &mut StdRng| rng.gen_range(0..n as u32);
        let rows: Vec<(Route, u64)> = (0..rng.gen_range(0..30usize))
            .map(|_| {
                let route = match rng.gen_range(0..8u32) {
                    0 | 1 => Route::All,
                    2..=4 => Route::One(any(&mut rng)),
                    _ => Route::Two(any(&mut rng), any(&mut rng)),
                };
                (route, wide(&mut rng))
            })
            .collect();
        let want: Vec<Vec<u64>> = bfs
            .iter()
            .map(|o| {
                let me = o.iv.in_t;
                rows.iter()
                    .filter(|(r, _)| match *r {
                        Route::All => true,
                        Route::One(t) => t == me,
                        Route::Two(a, b) => a == me || b == me,
                    })
                    .map(|&(_, x)| x)
                    .collect()
            })
            .collect();
        let inputs = || -> Vec<_> {
            bfs.iter()
                .enumerate()
                .map(|(v, o)| {
                    let list = if v == 0 { rows.clone() } else { Vec::new() };
                    (o.tree(), &o.iv, list, Vec::new())
                })
                .collect()
        };
        let collect = |acc: &mut Vec<u64>, x: &u64| acc.push(*x);
        for outputs in run_everywhere(&g, seed, &BroadcastItems::new(collect), inputs) {
            prop_assert_eq!(&outputs, &want);
        }
    }
}
