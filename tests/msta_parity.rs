//! Phase A against the sequential oracle, crossed with the executor
//! grid: `exact_mincut` under the serial and fault-injecting executors
//! packs exactly the trees of the sequential greedy packing
//! (`seq::tree_packing::greedy_packing`), returns the cut of
//! `seq::tree_packing::packing_mincut` under the same packing policy,
//! and leaves at most √n fragments per tree after phase A. The two
//! executors also agree with each other on rounds and messages, the
//! α-synchronizer's payload bit parity included. The randomized
//! per-family suite lives in `crates/core/tests/msta_parity.rs`; this
//! test pins the property on planted-cut instances end to end.

use mincut_repro::congest::sim::FaultPlan;
use mincut_repro::congest::ExecutorKind;
use mincut_repro::graphs::{generators, WeightedGraph};
use mincut_repro::mincut::dist::driver::{exact_mincut, DistMinCutResult, ExactConfig};
use mincut_repro::mincut::dist::mst::MstConfig;
use mincut_repro::mincut::seq::tree_packing::{greedy_packing, packing_mincut};

/// Asserts that `r` packed the sequential greedy trees, found the
/// sequential packing's cut, and ended phase A with at most √n
/// fragments on every tree.
fn assert_matches_oracle(tag: &str, g: &WeightedGraph, r: &DistMinCutResult) {
    let want = packing_mincut(g, &ExactConfig::default().packing).expect("oracle runs");
    assert_eq!(r.cut.value, want.cut.value, "{tag}: lambda");
    assert_eq!(r.cut.side, want.cut.side, "{tag}: side");
    assert_eq!(r.trees_packed, want.trees_packed, "{tag}: trees");
    assert_eq!(r.trees_to_best, want.trees_to_best, "{tag}: trees_to_best");
    assert_eq!(r.best_node, want.best_node, "{tag}: best_node");
    let mut trees = greedy_packing(g, r.trees_packed).expect("oracle packs");
    trees.iter_mut().for_each(|t| t.sort_unstable());
    assert_eq!(r.tree_edges, trees, "{tag}: MST edge sets");
    let n = g.node_count();
    let cap = MstConfig::default().effective_cap(n);
    for &k in &r.phase_a_fragments {
        assert!(
            k * cap <= n,
            "{tag}: phase A left {k} fragments of cap {cap} on n = {n}"
        );
    }
}

#[test]
fn phase_a_matches_the_sequential_oracle_across_executors() {
    let planted = generators::clique_pair(8, 3).unwrap();
    let cases = [
        ("clique_pair8", planted.graph),
        ("torus6x5", generators::torus2d(6, 5).unwrap()),
    ];
    let executors = [
        ("serial", ExecutorKind::Serial),
        (
            "faulty",
            ExecutorKind::Faulty(
                FaultPlan::with_drop(200, 0xA1_57)
                    .delayed(2)
                    .duplicated(100),
            ),
        ),
    ];
    for (name, g) in &cases {
        for (exec_name, executor) in &executors {
            let cfg = ExactConfig::default().with_executor(executor.clone());
            let r = exact_mincut(g, &cfg).expect("pipeline runs");
            assert_matches_oracle(&format!("{name} under {exec_name}"), g, &r);
        }
    }
}

#[test]
fn executor_grid_agrees_on_rounds_messages_and_trees() {
    // The two executors agree with each other on rounds and messages
    // too (payload bit parity), not only on the oracle-checked outputs.
    let g = generators::torus2d(6, 5).unwrap();
    let serial = exact_mincut(&g, &ExactConfig::default()).unwrap();
    let executor = ExecutorKind::Faulty(FaultPlan::with_drop(50, 0xA1_59).delayed(1));
    let faulty = exact_mincut(&g, &ExactConfig::default().with_executor(executor)).unwrap();
    assert_eq!(faulty.rounds, serial.rounds);
    assert_eq!(faulty.messages, serial.messages);
    assert_eq!(faulty.cut.value, serial.cut.value);
    assert_eq!(faulty.tree_edges, serial.tree_edges);
}
