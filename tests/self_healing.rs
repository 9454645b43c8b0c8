//! End-to-end self-healing: `recover_mincut` survives seeded fail-stop
//! schedules — including the death of the elected leader — on lossy
//! networks, and returns the **exact** minimum cut of the surviving
//! component, certified in-driver against the sequential Stoer–Wagner
//! oracle. Also pins the two bracketing properties: recovery is
//! deterministic (same plan ⇒ byte-identical merged ledger), and a
//! crash-free plan degenerates to the plain faulty pipeline (identical
//! ledger, one epoch, nobody excised). The last three scenarios cover
//! what recovery costs and when it must not fire: a checkpointed resume
//! rebuilds for at most half of a fresh run, a scheduled rejoin
//! is re-admitted, and a partition that heals inside the suspicion
//! window costs nothing. The canonical leader kill on the lossy
//! torus24x24, with its exact healing cost, is checked by the
//! `trace_export` CI bin.

use mincut_repro::congest::sim::{CrashEvent, FaultPlan};
use mincut_repro::congest::ExecutorKind;
use mincut_repro::graphs::{generators, NodeId, WeightedGraph};
use mincut_repro::mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut_repro::mincut::dist::{recover_mincut, RecoverConfig, RecoveredMinCut, Stage};
use mincut_repro::mincut::seq::stoer_wagner;
use mincut_repro::mincut::seq::tree_packing::{PackingConfig, PackingSize};

/// Runs the recovery twice and requires byte-identical merged ledgers.
fn recover_twice(g: &WeightedGraph, cfg: &RecoverConfig) -> RecoveredMinCut {
    let r = recover_mincut(g, cfg).expect("the plan is recoverable");
    let again = recover_mincut(g, cfg).expect("deterministic rerun");
    assert_eq!(
        r.ledger.phases(),
        again.ledger.phases(),
        "same plan must give a byte-identical merged ledger"
    );
    r
}

fn ids(nodes: &[NodeId]) -> Vec<usize> {
    nodes.iter().map(|v| v.index()).collect()
}

/// Leader assassination on a lossy torus: node 0 (the min-id leader)
/// dies mid-session; the driver detects it, re-elects, and certifies
/// the surviving component's λ. Deterministically.
#[test]
fn lossy_leader_kill_recovers_the_exact_survivor_cut() {
    let g = generators::torus2d(6, 6).unwrap();
    let plan = FaultPlan::with_drop(50, 0x5EA1)
        .delayed(2)
        .with_crash(0, 40);
    let cfg = RecoverConfig::default().with_plan(plan);
    let a = recover_mincut(&g, &cfg).expect("the leader kill is recoverable");
    assert_eq!(a.dead.iter().map(|v| v.index()).collect::<Vec<_>>(), [0]);
    assert_eq!(a.survivors.len(), 35);
    assert_eq!(a.epochs, 2);
    // Certification ran in-driver; re-check it from outside anyway.
    assert_eq!(a.oracle, Some(a.cut.value));
    assert_eq!(
        a.cut.value, 3,
        "a torus node's excision leaves degree-3 corners"
    );
    assert!(a.recovery_rounds > 0, "the failed attempt was accounted");
    assert!(
        a.ledger
            .phases()
            .iter()
            .filter(|p| p.name.starts_with("recover.e1."))
            .count()
            > 1,
        "aborted-attempt phases are ledgered under the recover prefix"
    );

    let b = recover_mincut(&g, &cfg).expect("deterministic rerun");
    assert_eq!(a.cut.value, b.cut.value);
    assert_eq!(a.cut.side, b.cut.side);
    assert_eq!(
        a.ledger.phases(),
        b.ledger.phases(),
        "same plan must give a byte-identical merged ledger"
    );
}

/// A correlated group crash on the planted two-community instance: both
/// victims sit in one community, so the survivors stay connected and
/// the recovered λ — certified against the oracle on the surviving
/// subgraph — reflects the damaged community structure.
#[test]
fn group_crash_on_planted_communities_matches_the_oracle() {
    let planted = generators::clique_pair(8, 3).unwrap();
    let g = &planted.graph;
    let plan = FaultPlan::with_drop(100, 0xC0DE)
        .delayed(1)
        .duplicated(50)
        .with_crash_group(&[3, 5], 25);
    let r = recover_mincut(g, &RecoverConfig::default().with_plan(plan))
        .expect("the group crash is recoverable");
    let dead: Vec<usize> = r.dead.iter().map(|v| v.index()).collect();
    assert_eq!(dead, [3, 5]);
    assert_eq!(r.survivors.len(), g.node_count() - 2);
    assert_eq!(r.oracle, Some(r.cut.value));
    // Independent re-derivation of the oracle: Stoer–Wagner on the
    // survivor-induced subgraph, built from scratch here.
    let survivors: Vec<u32> = r.survivors.iter().map(|v| v.raw()).collect();
    let idx_of = |v: u32| survivors.binary_search(&v).ok();
    let edges: Vec<(u32, u32, u64)> = g
        .edge_tuples()
        .filter_map(|(_, u, v, w)| Some((idx_of(u.raw())? as u32, idx_of(v.raw())? as u32, w)))
        .collect();
    let sub = mincut_repro::graphs::WeightedGraph::from_edges(survivors.len(), edges).unwrap();
    assert_eq!(stoer_wagner(&sub).unwrap().value, r.cut.value);
}

/// A crash-free plan is the identity: one epoch, nobody dead, zero
/// recovery spend, and the merged ledger equals the plain faulty
/// pipeline's, phase for phase and byte for byte.
#[test]
fn crash_free_recovery_is_the_plain_faulty_pipeline() {
    let planted = generators::clique_pair(6, 2).unwrap();
    let g = &planted.graph;
    let plan = FaultPlan::with_drop(80, 0xFEED).delayed(1);
    let r = recover_mincut(g, &RecoverConfig::default().with_plan(plan.clone()))
        .expect("crash-free run succeeds");
    assert_eq!(r.epochs, 1);
    assert!(r.dead.is_empty());
    assert_eq!((r.recovery_rounds, r.recovery_messages), (0, 0));
    assert_eq!(r.cut.value, planted.planted_value);

    let cfg = ExactConfig::default().with_executor(ExecutorKind::Faulty(plan));
    let direct = exact_mincut(g, &cfg).expect("direct faulty run succeeds");
    assert_eq!(r.cut.value, direct.cut.value);
    assert_eq!(r.cut.side, direct.cut.side);
    assert_eq!(
        r.ledger.phases(),
        direct.ledger.phases(),
        "no crash ⇒ the recovery driver adds nothing to the ledger"
    );
}

/// Checkpointed resume beats a fresh rebuild. Two 16-cliques
/// over 3 bridges are relabeled to ids 1..33, and node 0, the min-id
/// leader, hangs from node 1 by one edge. A degree-1 node is in every
/// spanning tree through that edge, so its death invalidates no
/// checkpointed tree, and its only edge crosses no survivor subtree
/// cut, so the finished trees' minima survive the excision and are
/// replayed as evidence. The edge is heavy (100 ≫ λ), so the
/// checkpointed argmin is a survivor edge. The leader dies inside the
/// fifth tree's MST, four trees on the books: the rebuild epoch must
/// cost at most half of the pipeline on the survivors, the clique pair
/// itself, in rounds and in messages.
#[test]
fn checkpointed_resume_rebuilds_for_at_most_half_of_a_fresh_run() {
    let cliques = generators::clique_pair(16, 3).unwrap().graph;
    let mut edges: Vec<(u32, u32, u64)> = cliques
        .edge_tuples()
        .map(|(_, u, v, w)| (u.raw() + 1, v.raw() + 1, w))
        .collect();
    edges.push((0, 1, 100));
    let g = WeightedGraph::from_edges(cliques.node_count() + 1, edges).unwrap();
    let base = ExactConfig {
        packing: PackingConfig {
            size: PackingSize::Fixed(5),
            max_trees: 5,
        },
        ..Default::default()
    };
    // Crash two rounds after the fourth tree's `s5g`, its improvement
    // broadcast, on the clean run's schedule.
    let clean = exact_mincut(&g, &base).unwrap();
    let mut crash_at = 0;
    let mut finished = 0;
    for p in clean.ledger.phases() {
        crash_at += p.rounds;
        finished += usize::from(p.name == "s5g");
        if finished == 4 {
            break;
        }
    }
    let cfg = RecoverConfig {
        base: base.clone(),
        ..Default::default()
    }
    .with_plan(FaultPlan::lossless().with_crash(0, crash_at + 2));
    let r = recover_twice(&g, &cfg);
    assert_eq!(
        (r.epochs, ids(&r.dead), r.survivors.len()),
        (2, vec![0], 32)
    );
    assert_eq!((r.cut.value, r.oracle), (3, Some(3)));
    assert!(
        matches!(r.resumed_from, Some(Stage::Packed(k)) if k >= 1),
        "resumed_from = {:?}, want Packed(k ≥ 1)",
        r.resumed_from
    );
    // The rebuild epoch is everything past epoch 1's booked waste.
    let fresh = exact_mincut(&cliques, &base).unwrap();
    assert_eq!(fresh.cut.value, 3);
    let rebuild = (
        r.rounds - r.wasted_rounds[0],
        r.messages - r.wasted_messages[0],
    );
    assert!(
        2 * rebuild.0 <= fresh.rounds && 2 * rebuild.1 <= fresh.messages,
        "rebuild {rebuild:?} against {} rounds and {} messages fresh",
        fresh.rounds,
        fresh.messages
    );
}

/// A node that dies mid-MST and comes back during the census is
/// re-admitted through the `census.e1.join` handshake: nobody is
/// excised, λ is the full graph's, and the retry resumes from a
/// checkpoint.
#[test]
fn scheduled_rejoin_during_the_census_keeps_the_full_graph() {
    let g = generators::torus2d(6, 6).unwrap();
    let clean = exact_mincut(&g, &ExactConfig::default()).unwrap();
    let crash_at = 2 + clean
        .ledger
        .phases()
        .iter()
        .take_while(|p| !p.name.starts_with("mstA"))
        .map(|p| p.rounds)
        .sum::<u64>();
    let plan = FaultPlan::lossless().with_crashes(vec![CrashEvent {
        node: 7,
        at_round: crash_at,
        rejoin: Some(crash_at + 20),
    }]);
    let r = recover_twice(&g, &RecoverConfig::default().with_plan(plan));
    assert_eq!(r.epochs, 2);
    assert!(r.dead.is_empty(), "dead {:?}", r.dead);
    assert_eq!((ids(&r.rejoined), r.survivors.len()), (vec![7], 36));
    assert_eq!(
        (r.cut.value, r.oracle),
        (clean.cut.value, Some(clean.cut.value))
    );
    assert!(r.ledger.phases_matching("census.e1.join") > 0);
    assert!(
        r.resumed_from.is_some(),
        "an unchanged participant set resumes"
    );
}

/// A partition that heals inside the suspicion window is invisible to
/// the driver: three torus edges are cut from tick 10 to tick 30, 20
/// ticks of silence against a 40-tick window. No abort fires, and the
/// blocked frames are retransmitted.
#[test]
fn partition_healed_before_suspicion_costs_no_recovery() {
    let g = generators::torus2d(6, 6).unwrap();
    let plan = FaultPlan::lossless().with_partition(vec![(0, 1), (6, 7), (12, 13)], 10, 30);
    let r = recover_twice(&g, &RecoverConfig::default().with_plan(plan));
    assert_eq!((r.epochs, r.recovery_rounds), (1, 0));
    assert!(r.dead.is_empty() && r.rejoined.is_empty());
    assert_eq!((r.cut.value, r.oracle), (4, Some(4)));
    assert!(
        r.ledger.total_partitioned() > 0,
        "the window blocked no frame"
    );
    assert_eq!(r.ledger.total_false_suspicions(), 0);
}
