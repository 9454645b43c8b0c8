//! The two determinism contracts of `congest::obs`, randomized:
//!
//! * **stream determinism**: with a sink attached, the same seed and
//!   the same [`FaultPlan`] produce a **byte-identical**
//!   [`congest::ObsSink::virtual_stream`] across independent runs —
//!   the stream carries only virtual facts (events, rounds, ticks),
//!   never wall time, so this holds on any host at any load;
//! * **zero observer effect**: attaching a sink changes nothing the
//!   simulation can see — outputs and the full payload+transport
//!   [`congest::MetricsLedger`] are bit-identical to the undecorated
//!   run (obs hooks fire strictly off the simulation's state, and the
//!   disabled path does not even read a clock).
//!
//! The session is the same two-phase election + keyed aggregation as
//! `sim_determinism.rs`, under lossy and crashy plans.

use congest::primitives::leader_bfs::LeaderBfs;
use congest::primitives::GroupedSum;
use congest::sim::FaultPlan;
use congest::{ExecutorKind, MetricsLedger, Network, NetworkConfig, ObsHandle, Tree};
use graphs::{generators, WeightedGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One graph from the three stress families, keyed by `family % 3` (the
/// same construction as the determinism/parity suites).
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

/// Runs the two-phase session, optionally decorated with an obs sink,
/// and returns (outputs, ledger, the sink's virtual stream or "").
fn run_session(
    g: &WeightedGraph,
    kind: ExecutorKind,
    lists: &[Vec<(u64, u64)>],
    observe: bool,
) -> (Vec<GroupedOut>, MetricsLedger, String) {
    let n = g.node_count();
    let obs = observe.then(ObsHandle::new);
    let mut cfg = NetworkConfig::default().with_executor(kind);
    if let Some(handle) = &obs {
        cfg = cfg.with_obs(handle.clone());
    }
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
    let stream = obs.map(|h| h.sink().virtual_stream()).unwrap_or_default();
    (gs.outputs, net.ledger().clone(), stream)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed + same plan + a sink ⇒ byte-identical virtual stream;
    /// and the observed run's ledger + outputs are bit-identical to the
    /// unobserved run's.
    #[test]
    fn obs_streams_are_deterministic_and_effect_free(
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
            ..FaultPlan::with_drop(drop, seed ^ 0xDEAD)
                .delayed(delay)
                .duplicated(drop / 2)
                .corrupted(drop / 3)
        };
        let kind = ExecutorKind::Faulty(plan);

        let (out_a, ledger_a, stream_a) = run_session(&g, kind.clone(), &lists, true);
        let (out_b, ledger_b, stream_b) = run_session(&g, kind.clone(), &lists, true);
        prop_assert_eq!(&stream_a, &stream_b, "virtual streams must be byte-identical");
        prop_assert!(!stream_a.is_empty());
        prop_assert_eq!(&out_a, &out_b);
        prop_assert_eq!(ledger_a.phases(), ledger_b.phases());

        // Zero observer effect: detach the sink, nothing else changes.
        let (out_p, ledger_p, stream_p) = run_session(&g, kind, &lists, false);
        prop_assert_eq!(&stream_p, &String::new());
        prop_assert_eq!(&out_a, &out_p);
        prop_assert_eq!(ledger_a.phases(), ledger_p.phases());
    }
}

/// The crash/keepalive/suspicion event path is deterministic and
/// effect-free too (the proptest above never arms the detector). The
/// phase may or may not survive the crash — what must hold is that
/// both observed runs and the unobserved run agree on *everything*,
/// and that the crash shows up in the stream.
#[test]
fn crashy_streams_are_deterministic_and_effect_free() {
    let g = generators::torus2d(4, 4).expect("valid torus");
    let n = g.node_count();
    let run = |observe: bool| {
        let plan = FaultPlan::with_drop(60, 0xFEED)
            .delayed(2)
            .duplicated(20)
            .with_crash(5, 3)
            .continue_on_suspicion();
        let obs = observe.then(ObsHandle::new);
        let mut cfg = NetworkConfig::default().with_executor(ExecutorKind::Faulty(plan));
        if let Some(handle) = &obs {
            cfg = cfg.with_obs(handle.clone());
        }
        let mut net = Network::new(&g, cfg).expect("valid topology");
        let result = net
            .run("leader_bfs", &LeaderBfs::new(), vec![(); n])
            .map(|r| r.outputs.iter().map(|o| o.leader).collect::<Vec<_>>())
            .map_err(|e| e.to_string());
        let stream = obs.map(|h| h.sink().virtual_stream()).unwrap_or_default();
        (result, net.ledger().clone(), stream)
    };

    let (res_a, ledger_a, stream_a) = run(true);
    let (res_b, ledger_b, stream_b) = run(true);
    assert_eq!(stream_a, stream_b);
    assert!(
        stream_a.contains("event transport.crash"),
        "the scheduled crash must be traced:\n{stream_a}"
    );
    assert_eq!(res_a, res_b);
    assert_eq!(ledger_a.phases(), ledger_b.phases());

    let (res_p, ledger_p, stream_p) = run(false);
    assert_eq!(stream_p, "");
    assert_eq!(res_a, res_p);
    assert_eq!(ledger_a.phases(), ledger_p.phases());
}
