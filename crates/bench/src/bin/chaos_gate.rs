//! CI chaos gate: the self-healing driver must survive the canonical
//! adversaries — deterministically, exactly, and within checked-in
//! budgets. Four gated scenarios:
//!
//! 1. **Leader assassination** (the PR 6 scenario). The adversary is the
//!    shared [`mincut_bench::chaos_plan`]: the `SMOKE_FAULTS` link
//!    faults (5% drops, 2.5% duplication, delay window 2, fixed seed)
//!    plus the `SMOKE_CRASHES` schedule, which kills node 0 — the
//!    leader under the min-id election — at virtual round 114 of the
//!    `torus24x24` pipeline, inside the first MST fragment-growth level
//!    (`mstA.l0.*`). Asserted with no tolerance: the kill lands where
//!    the schedule says (the aborted phase is an `mstA` phase), exact
//!    recovery (two epochs, dead `{0}`, 575 survivors, λ = 3 = the
//!    Stoer–Wagner oracle, zero false suspicions), byte-identical
//!    ledgers across two runs, and recovery-cost budgets.
//! 2. **Checkpointed resume beats from-scratch.** On an engineered
//!    instance whose leader is a *leaf* of every packed tree (a
//!    torus8x8 relabeled to ids 1..65 plus a degree-1 node 0 — the
//!    min-id leader, but structurally never an interior tree node), the
//!    leader is killed mid-`packing` after four of five trees finished.
//!    The retry must resume from the MST checkpoint
//!    (`resumed_from = Packed(k)`, k ≥ 1) and its rebuild epoch must
//!    cost **≤ 50%** of the from-scratch rebuild
//!    (`checkpoint: false`, the PR 6 path) in both rounds and
//!    messages, at the same certified λ.
//! 3. **Rejoin.** A non-leader node dies mid-MST and its
//!    [`CrashEvent::rejoin`] comes due during the census; the driver
//!    must re-admit it through the `census.e1.join` handshake: nobody
//!    excised, λ of the *full* graph, one abort only.
//! 4. **Partition-then-heal.** A partition window shorter than the
//!    suspicion threshold opens and heals mid-election: no abort may
//!    fire (one epoch, zero recovery rounds), the frames blocked by the
//!    window are retransmitted invisibly, and λ is exact.
//!
//! Every scenario runs twice and must produce byte-identical merged
//! ledgers.

use congest::sim::{CrashEvent, FaultPlan};
use graphs::generators;
use graphs::WeightedGraph;
use mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut::dist::{recover_mincut, RecoverConfig, RecoveredMinCut, Stage};
use mincut::seq::tree_packing::{PackingConfig, PackingSize};
use std::process::ExitCode;

/// Budget on rounds spent healing (aborted attempt + census). Measured:
/// 170 (86 `leader_bfs` + 25 `init.deg` + the `mstA.l0` stump + a
/// 56-tick census). The headroom covers benign election/census tweaks;
/// a detection regression (a second wasted attempt, a slower census)
/// blows past it.
const MAX_RECOVERY_ROUNDS: u64 = 400;

/// Budget on recovery's share of the total message bill, in tenths of a
/// percent. Measured: 0.26% — healing one crash costs a quarter of a
/// percent of the session. Gated at 2%.
const MAX_RECOVERY_MSG_PER_MILLE: u64 = 20;

fn leader_kill() -> RecoveredMinCut {
    let g = generators::torus2d(24, 24).expect("valid torus");
    let cfg = RecoverConfig::default().with_plan(mincut_bench::chaos_plan());
    recover_mincut(&g, &cfg).expect("the leader kill must be recoverable")
}

/// Scenario 1: the canonical leader assassination, exact and budgeted.
fn gate_leader_kill() -> bool {
    let r = leader_kill();
    println!(
        "chaos on torus24x24: λ = {} (oracle {:?}), epochs {}, dead {:?}, {} survivors",
        r.cut.value,
        r.oracle,
        r.epochs,
        r.dead,
        r.survivors.len()
    );
    println!(
        "recovery: {} of {} rounds, {} of {} messages ({:.2}%), {} false suspicions",
        r.recovery_rounds,
        r.rounds,
        r.recovery_messages,
        r.messages,
        100.0 * r.recovery_messages as f64 / r.messages.max(1) as f64,
        r.ledger.total_false_suspicions(),
    );
    let mut ok = true;

    // The schedule still kills mid-mstA: the phase the suspicion
    // aborted is the last recovery row of epoch 1 before the census.
    let aborted = r
        .ledger
        .phases()
        .iter()
        .map(|p| p.name.as_str())
        .take_while(|name| !name.starts_with("census.e1."))
        .last()
        .unwrap_or("<none>");
    println!("aborted phase: {aborted}");
    if !aborted.starts_with("recover.e1.mstA.") {
        eprintln!(
            "GATE FAILED: the leader kill aborted {aborted}, not an mstA phase — \
             the pipeline's phase spans drifted; retune SMOKE_CRASHES"
        );
        ok = false;
    }

    // Exact recovery of the surviving component's minimum cut.
    let dead: Vec<usize> = r.dead.iter().map(|v| v.index()).collect();
    if r.epochs != 2 || dead != [0] || r.survivors.len() != 575 {
        eprintln!(
            "GATE FAILED: expected 2 epochs, dead [0], 575 survivors; got {} epochs, dead {dead:?}, {} survivors",
            r.epochs,
            r.survivors.len()
        );
        ok = false;
    }
    if r.oracle != Some(r.cut.value) || r.cut.value != 3 {
        eprintln!(
            "GATE FAILED: recovered λ = {} (oracle {:?}); the surviving torus component has λ = 3",
            r.cut.value, r.oracle
        );
        ok = false;
    }
    if r.ledger.total_false_suspicions() != 0 {
        eprintln!(
            "GATE FAILED: {} live nodes were falsely suspected",
            r.ledger.total_false_suspicions()
        );
        ok = false;
    }

    // Same plan ⇒ byte-identical merged ledger.
    let again = leader_kill();
    if again.ledger.phases() != r.ledger.phases() {
        eprintln!("GATE FAILED: two identical chaos runs produced different ledgers");
        ok = false;
    }

    // Healing stays cheap.
    if r.recovery_rounds > MAX_RECOVERY_ROUNDS {
        eprintln!(
            "GATE FAILED: recovery took {} rounds > budget {MAX_RECOVERY_ROUNDS}",
            r.recovery_rounds
        );
        ok = false;
    }
    if r.recovery_messages * 1000 > r.messages * MAX_RECOVERY_MSG_PER_MILLE {
        eprintln!(
            "GATE FAILED: recovery moved {} of {} messages, over the {}.{}% budget",
            r.recovery_messages,
            r.messages,
            MAX_RECOVERY_MSG_PER_MILLE / 10,
            MAX_RECOVERY_MSG_PER_MILLE % 10
        );
        ok = false;
    }
    ok
}

/// A clique pair (two 16-cliques over 3 bridges) relabeled to ids
/// 1..33 plus node 0 — the min-id leader — attached by exactly one
/// edge. A degree-1 node is in *every* spanning tree exactly through
/// that edge, so the leader's death never invalidates a checkpointed
/// tree — and because a pendant node's only edge crosses no survivor
/// subtree cut, the finished trees' 1-respecting minima survive the
/// excision verbatim and the resume replays them as trusted evidence
/// instead of re-running their cut stages. The edge is heavy (100 ≫ λ)
/// so the checkpointed argmin is a survivor edge, not the pendant's
/// own cut (a dead argmin would — correctly — void the evidence).
fn leafed_cliques() -> WeightedGraph {
    let base = generators::clique_pair(16, 3)
        .expect("valid clique pair")
        .graph;
    let mut edges: Vec<(u32, u32, u64)> = base
        .edge_tuples()
        .map(|(_, u, v, w)| (u.raw() + 1, v.raw() + 1, w))
        .collect();
    edges.push((0, 1, 100));
    WeightedGraph::from_edges(base.node_count() + 1, edges).expect("valid leafed cliques")
}

/// Scenario 2: the mid-packing leader kill must resume from the MST
/// checkpoint, and the resumed rebuild must cost ≤ 50% of from-scratch
/// in rounds AND messages.
fn gate_checkpoint_halving() -> bool {
    let g = leafed_cliques();
    let base = ExactConfig {
        packing: PackingConfig {
            size: PackingSize::Fixed(5),
            max_trees: 5,
        },
        ..Default::default()
    };
    // Probe the clean phase schedule: crash two rounds after the fourth
    // tree finishes (its "s5g" improvement broadcast), inside the fifth
    // tree's MST — four checkpointed trees on the books.
    let clean = exact_mincut(&g, &base).expect("clean probe");
    let mut finished = 0;
    let mut crash_at = 0u64;
    for p in clean.ledger.phases() {
        crash_at += p.rounds;
        if p.name == "s5g" {
            finished += 1;
            if finished == 4 {
                break;
            }
        }
    }
    let plan = FaultPlan::lossless().with_crash(0, crash_at + 2);
    let cfg = RecoverConfig {
        base: base.clone(),
        ..Default::default()
    }
    .with_plan(plan);
    let run_ckpt = || recover_mincut(&g, &cfg).expect("checkpointed recovery");
    let ckpt = run_ckpt();
    let scratch =
        recover_mincut(&g, &cfg.clone().with_checkpoint(false)).expect("from-scratch recovery");

    // Both paths abort once and excise the leader; the rebuild epoch is
    // everything past epoch 1's booked waste.
    let rebuild_rounds = |r: &RecoveredMinCut| r.rounds - r.wasted_rounds[0];
    let rebuild_msgs = |r: &RecoveredMinCut| r.messages - r.wasted_messages[0];
    println!(
        "checkpoint halving on leafed clique pair: resumed_from {:?}, rebuild {} vs {} rounds, {} vs {} messages",
        ckpt.resumed_from,
        rebuild_rounds(&ckpt),
        rebuild_rounds(&scratch),
        rebuild_msgs(&ckpt),
        rebuild_msgs(&scratch),
    );
    let mut ok = true;
    for (r, label, resumed) in [
        (&ckpt, "checkpointed", true),
        (&scratch, "from-scratch", false),
    ] {
        let dead: Vec<usize> = r.dead.iter().map(|v| v.index()).collect();
        if r.epochs != 2 || dead != [0] || r.survivors.len() != 32 {
            eprintln!(
                "GATE FAILED: {label}: expected 2 epochs, dead [0], 32 survivors; got {} epochs, dead {dead:?}, {} survivors",
                r.epochs,
                r.survivors.len()
            );
            ok = false;
        }
        if r.oracle != Some(r.cut.value) || r.cut.value != 3 {
            eprintln!(
                "GATE FAILED: {label}: λ = {} (oracle {:?}); the clique-pair remnant has λ = 3",
                r.cut.value, r.oracle
            );
            ok = false;
        }
        let want_resume = if resumed {
            "Some(Packed(k ≥ 1))"
        } else {
            "None"
        };
        let got_ok = match (resumed, r.resumed_from) {
            (true, Some(Stage::Packed(k))) => k >= 1,
            (false, None) => true,
            _ => false,
        };
        if !got_ok {
            eprintln!(
                "GATE FAILED: {label}: resumed_from = {:?}, want {want_resume}",
                r.resumed_from
            );
            ok = false;
        }
    }
    if 2 * rebuild_rounds(&ckpt) > rebuild_rounds(&scratch) {
        eprintln!(
            "GATE FAILED: checkpointed rebuild took {} rounds, over 50% of the {}-round from-scratch rebuild",
            rebuild_rounds(&ckpt),
            rebuild_rounds(&scratch)
        );
        ok = false;
    }
    if 2 * rebuild_msgs(&ckpt) > rebuild_msgs(&scratch) {
        eprintln!(
            "GATE FAILED: checkpointed rebuild moved {} messages, over 50% of the {}-message from-scratch rebuild",
            rebuild_msgs(&ckpt),
            rebuild_msgs(&scratch)
        );
        ok = false;
    }
    let again = run_ckpt();
    if again.ledger.phases() != ckpt.ledger.phases() {
        eprintln!("GATE FAILED: two identical checkpointed runs produced different ledgers");
        ok = false;
    }
    ok
}

/// Scenario 3: a scheduled rejoin is re-admitted through the join
/// handshake — nobody excised, λ of the full graph unchanged.
fn gate_rejoin() -> bool {
    let g = generators::torus2d(6, 6).expect("valid torus");
    let clean = exact_mincut(&g, &ExactConfig::default()).expect("clean probe");
    let crash_at: u64 = clean
        .ledger
        .phases()
        .iter()
        .take_while(|p| !p.name.starts_with("mstA"))
        .map(|p| p.rounds)
        .sum::<u64>()
        + 2;
    let plan = FaultPlan::lossless().with_crashes(vec![CrashEvent {
        node: 7,
        at_round: crash_at,
        rejoin: Some(crash_at + 20),
    }]);
    let cfg = RecoverConfig::default().with_plan(plan);
    let run = || recover_mincut(&g, &cfg).expect("rejoin recovery");
    let r = run();
    println!(
        "rejoin on torus6x6: λ = {} (oracle {:?}), epochs {}, rejoined {:?}, resumed_from {:?}",
        r.cut.value, r.oracle, r.epochs, r.rejoined, r.resumed_from
    );
    let mut ok = true;
    let rejoined: Vec<usize> = r.rejoined.iter().map(|v| v.index()).collect();
    if r.epochs != 2 || !r.dead.is_empty() || rejoined != [7] || r.survivors.len() != 36 {
        eprintln!(
            "GATE FAILED: expected 2 epochs, no dead, rejoined [7], 36 survivors; got {} epochs, dead {:?}, rejoined {rejoined:?}, {} survivors",
            r.epochs,
            r.dead,
            r.survivors.len()
        );
        ok = false;
    }
    if r.cut.value != clean.cut.value || r.oracle != Some(r.cut.value) {
        eprintln!(
            "GATE FAILED: λ = {} (oracle {:?}) after rejoin, want the full graph's {}",
            r.cut.value, r.oracle, clean.cut.value
        );
        ok = false;
    }
    if r.ledger.phases_matching("census.e1.join") == 0 {
        eprintln!("GATE FAILED: the rejoin handshake phase never ran");
        ok = false;
    }
    if r.resumed_from.is_none() {
        eprintln!("GATE FAILED: an unchanged participant set must resume from a checkpoint");
        ok = false;
    }
    let again = run();
    if again.ledger.phases() != r.ledger.phases() {
        eprintln!("GATE FAILED: two identical rejoin runs produced different ledgers");
        ok = false;
    }
    ok
}

/// Scenario 4: a partition window healing before the suspicion
/// threshold must be invisible to the driver — no abort, no recovery
/// rounds, exact λ.
fn gate_partition_heal() -> bool {
    let g = generators::torus2d(6, 6).expect("valid torus");
    // Three torus edges cut at tick 10, healed at 30 — 20 ticks of
    // silence against a 40-tick suspicion window.
    let plan = FaultPlan::lossless().with_partition(vec![(0, 1), (6, 7), (12, 13)], 10, 30);
    let cfg = RecoverConfig::default().with_plan(plan);
    let run = || recover_mincut(&g, &cfg).expect("healed partition must not abort");
    let r = run();
    println!(
        "partition-heal on torus6x6: λ = {} (oracle {:?}), epochs {}, {} partitioned frames",
        r.cut.value,
        r.oracle,
        r.epochs,
        r.ledger.total_partitioned()
    );
    let mut ok = true;
    if r.epochs != 1 || r.recovery_rounds != 0 || !r.dead.is_empty() || !r.rejoined.is_empty() {
        eprintln!(
            "GATE FAILED: a healed partition must cost zero epochs/rounds of recovery; got {} epochs, {} recovery rounds, dead {:?}, rejoined {:?}",
            r.epochs, r.recovery_rounds, r.dead, r.rejoined
        );
        ok = false;
    }
    if r.oracle != Some(r.cut.value) || r.cut.value != 4 {
        eprintln!(
            "GATE FAILED: λ = {} (oracle {:?}), want the torus6x6's 4",
            r.cut.value, r.oracle
        );
        ok = false;
    }
    if r.ledger.total_partitioned() == 0 {
        eprintln!("GATE FAILED: the window never blocked a frame — the scenario is vacuous");
        ok = false;
    }
    if r.ledger.total_false_suspicions() != 0 {
        eprintln!(
            "GATE FAILED: {} false suspicions — the window outlived the threshold",
            r.ledger.total_false_suspicions()
        );
        ok = false;
    }
    let again = run();
    if again.ledger.phases() != r.ledger.phases() {
        eprintln!("GATE FAILED: two identical partition runs produced different ledgers");
        ok = false;
    }
    ok
}

fn main() -> ExitCode {
    let mut ok = true;
    ok &= gate_leader_kill();
    ok &= gate_checkpoint_halving();
    ok &= gate_rejoin();
    ok &= gate_partition_heal();
    if ok {
        println!(
            "chaos gate passed (leader kill ≤ {MAX_RECOVERY_ROUNDS} rounds / ≤ {}.{}% of messages, \
             checkpoint rebuild ≤ 50% of from-scratch, rejoin re-admitted, healed partition free; \
             all deterministic)",
            MAX_RECOVERY_MSG_PER_MILLE / 10,
            MAX_RECOVERY_MSG_PER_MILLE % 10
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
