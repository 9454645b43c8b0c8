//! Determinism and parity of the fault-injecting executor, randomized:
//! on small random trees, tori, and cliques —
//!
//! * **determinism**: the same seed and the same [`FaultPlan`] produce a
//!   **byte-identical** [`congest::MetricsLedger`] (every phase, every
//!   payload field, every transport counter) across independent runs.
//!   The simulation is single-threaded and hash-free, so this holds
//!   regardless of `--test-threads`, test ordering, or host — CI runs
//!   this suite under the default harness parallelism;
//! * **parity**: per-node outputs and payload-level metrics equal the
//!   serial executor's, whatever the adversary does (the full-pipeline
//!   version of this property lives in `tests/sim_parity.rs` at the
//!   workspace root).
//!
//! The multi-phase session (election, then a pipelined keyed-stream
//! aggregation over the elected tree) exercises nodes halting at
//! different virtual rounds, long pipelined tails, and per-node state
//! carried across phases — the situations where a synchronizer that
//! advanced a node one round too early would corrupt downstream phases
//! rather than fail loudly.

use congest::primitives::leader_bfs::LeaderBfs;
use congest::primitives::GroupedSum;
use congest::sim::FaultPlan;
use congest::{ExecutorKind, MetricsLedger, Network, NetworkConfig, Tree};
use graphs::{generators, WeightedGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One graph from the three stress families, keyed by `family % 3` (the
/// same construction as the executor-parity suite).
fn make_graph(family: u8, seed: u64, size: usize) -> WeightedGraph {
    match family % 3 {
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
        1 => {
            let side = 3 + size % 4;
            generators::torus2d(side, side).expect("valid torus")
        }
        _ => generators::complete(3 + size % 6, 1 + seed % 5).expect("valid clique"),
    }
}

/// Per-node `(key, value)` lists with duplicate keys and empty nodes.
fn keyed_inputs(n: usize, seed: u64) -> Vec<Vec<(u64, u64)>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(0..4usize);
            (0..k)
                .map(|_| (rng.gen_range(0..10u64), rng.gen_range(1..100u64)))
                .collect()
        })
        .collect()
}

/// `GroupedSum`'s per-node output: the aggregated list at the root.
type GroupedOut = Option<Vec<(u64, u64)>>;

/// Runs the two-phase session and returns (outputs, the full ledger).
fn run_session(
    g: &WeightedGraph,
    kind: ExecutorKind,
    lists: &[Vec<(u64, u64)>],
) -> (Vec<GroupedOut>, MetricsLedger) {
    let n = g.node_count();
    let cfg = NetworkConfig::default().with_executor(kind);
    let mut net = Network::new(g, cfg).expect("valid topology");
    let bfs = net
        .run("leader_bfs", &LeaderBfs::new(), vec![(); n])
        .expect("bfs succeeds");
    let inputs: Vec<(Tree, Vec<(u64, u64)>)> = bfs
        .outputs
        .iter()
        .map(|o| o.tree())
        .zip(lists.iter().cloned())
        .collect();
    let gs = net
        .run("grouped_sum", &GroupedSum::new(), inputs)
        .expect("grouped sum succeeds");
    (gs.outputs, net.ledger().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed + same plan ⇒ byte-identical ledger; and the faulty
    /// session's outputs and payload metrics equal the serial session's.
    #[test]
    fn same_plan_same_ledger_and_serial_parity(
        family in 0u8..3,
        seed in 0u64..1000,
        size in 4usize..28,
        drop_idx in 0usize..4,
        delay in 0u8..4,
        resend_idx in 0usize..4,
    ) {
        let drop = [0u16, 50, 150, 300][drop_idx];
        // The resend timeout sizes the executor's timer wheel
        // (`timeout + 1` buckets), so every run covers one wheel size.
        let resend_after = [1u16, 2, 4, 9][resend_idx];
        let g = make_graph(family, seed, size);
        let n = g.node_count();
        let lists = keyed_inputs(n, seed);
        let plan = FaultPlan {
            resend_after,
            ..FaultPlan::with_drop(drop, seed ^ 0xDEAD).delayed(delay).duplicated(drop / 2)
        };
        let kind = ExecutorKind::Faulty(plan);

        let (out_a, ledger_a) = run_session(&g, kind.clone(), &lists);
        let (out_b, ledger_b) = run_session(&g, kind, &lists);
        // Determinism: ledgers agree field for field, sim counters
        // included.
        prop_assert_eq!(&out_a, &out_b);
        prop_assert_eq!(ledger_a.phases(), ledger_b.phases());

        // Parity: the serial run agrees on outputs and on every
        // payload-level metric.
        let (out_s, ledger_s) = run_session(&g, ExecutorKind::Serial, &lists);
        prop_assert_eq!(&out_a, &out_s);
        prop_assert_eq!(ledger_a.phases().len(), ledger_s.phases().len());
        for (f, s) in ledger_a.phases().iter().zip(ledger_s.phases()) {
            let mut payload = f.clone();
            payload.sim = s.sim;
            prop_assert_eq!(&payload, s);
        }
        prop_assert!(ledger_a.total_phys_rounds() >= ledger_a.total_rounds());
    }
}
