//! The large-`n` regime: the pipeline above the old `n ≤ 65535` cap.
//!
//! The case-2 pair aggregation once keyed its sums by node-id pairs,
//! `lo·n + hi` packed into a `u32`, and `run_pipeline` hard-errored for
//! `n > 65535`. Its keys are now pairs of `T_F` fragment numbers,
//! `lo·k + hi < k²`, whose width depends on the fragment count `k`, not
//! on `n`. This test runs the full exact pipeline on a sparse ~70k-node
//! graph with a certified minimum cut under the default `8·⌈log₂ n⌉`-bit
//! budget, checks that the case-2 pair aggregation (`s4a`) really carried
//! keyed traffic, and pins the whole pipeline's cost.

use mincut_repro::congest::message::TAG_BITS;
use mincut_repro::congest::primitives::leader_bfs;
use mincut_repro::congest::{ExecutorKind, NetworkConfig};
use mincut_repro::graphs::generators::torus3d_with_chords;
use mincut_repro::mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut_repro::mincut::dist::one_respect::shape_row_capacity;
use mincut_repro::mincut::seq::tree_packing::PackingConfig;

#[test]
fn exact_mincut_above_the_old_u16_cap() {
    // λ = 6 by vertex-transitivity; the chords scatter the fragment
    // tree and force case-2 edges (LCA in a third fragment), whose
    // contributions travel through the pair-keyed grouped sum this test
    // is about. The same instance is `mincut_bench::large_n_graph`,
    // which perfbench runs as `large_sparse`; keep the constructors in
    // sync.
    let g = torus3d_with_chords(42, 41, 41, 300).expect("valid torus construction");
    let n = g.node_count();
    assert!(n > 65535 + 4000, "n = {n} must be ≥ 70000");

    // One packed tree suffices: the minimum cut here is a singleton, and
    // the pipeline always considers the minimum-degree singleton seed.
    let cfg = ExactConfig {
        packing: PackingConfig::fixed(1),
        ..Default::default()
    };
    assert_eq!(cfg.network.executor, ExecutorKind::Serial);
    // The default is β = 8: every message is hard-checked against the
    // 8·⌈log₂ n⌉-bit budget, so success *proves* compliance.
    assert_eq!(cfg.network.bandwidth_factor, 8);

    let res = exact_mincut(&g, &cfg).expect("pipeline must accept n > 65535");

    // The certified minimum cut of the construction.
    assert_eq!(res.cut.value, 6);
    assert!(res.cut.is_proper());

    // An over-budget message is already an error; assert the budget
    // arithmetic explicitly anyway: ⌈log₂ 70602⌉ = 17.
    assert!(res.ledger.max_message_bits() <= 8 * 17);

    // The case-2 pair aggregation really ran: `s4a` carried more bits
    // than the n − 1 end markers alone would (one tag each), i.e. actual
    // `lo·k + hi` keyed items. (Counting messages no longer shows it:
    // the end markers ride the batches.)
    let s4a = res
        .ledger
        .phases()
        .iter()
        .find(|p| p.name == "s4a")
        .expect("pair aggregation phase ran");
    let ends_only = (n as u64 - 1) * TAG_BITS as u64;
    assert!(
        s4a.bits > ends_only,
        "s4a moved only end markers ({} bits for n = {n})",
        s4a.bits
    );
    assert_eq!((s4a.rounds, s4a.bits), (47, 1_327_302));

    // The election is one wave from the single local minimum, node 0:
    // 2m + n − 1 messages, and O(D) rounds on D ≈ 33.
    let election = &res.ledger.phases()[0];
    assert_eq!(election.name, "leader_bfs");
    let m = g.edge_count() as u64;
    assert_eq!(election.messages, 2 * m + n as u64 - 1);
    assert_eq!((election.messages, election.rounds), (494_813, 102));

    // Phase A hands phase B k = 42 fragments. `orient.tf` streams T_F's
    // shape to every node over the BFS tree's n − 1 edges, in s rows of
    // as many 6-bit parent numbers as fit the edge (20 of the 40 of
    // fragments 2 to 41; fragment 1's is always 0), plus an end marker;
    // each fragment's row crosses only the BFS edges to its attachment
    // and its connector, a neighbor of the attachment and so at most
    // one level deeper. `s5d` routes each non-root fragment's subtree
    // sum to that fragment's attachment alone: at most n − 1 end
    // markers plus the BFS depth of every attachment, fewer where rows
    // share a message.
    assert_eq!(res.phase_a_fragments, [42]);
    let k = res.phase_a_fragments[0] as u64;
    let edges = n as u64 - 1;
    let attachments = &res.tf_attachments[0];
    assert_eq!(attachments.len() as u64, k - 1);
    let bfs = leader_bfs::oracle(&g);
    let paths: u64 = attachments
        .iter()
        .map(|a| u64::from(bfs[a.index()].depth))
        .sum();
    let budget = NetworkConfig::default().bandwidth_bits(n);
    let s = (k - 2).div_ceil(shape_row_capacity(k as usize, budget) as u64);
    assert_eq!(s, 2);
    let orient_tf = res.ledger.messages_matching("orient.tf");
    assert!(orient_tf <= (s + 1) * edges + 2 * paths + (k - 1));
    assert_eq!(orient_tf, 212_424);
    let s5d = res.ledger.messages_matching("s5d");
    assert!(s5d <= edges + paths);
    assert_eq!(s5d, 71_066);

    // `s5` sends each edge as many tokens per round as fit, one item per
    // distinct key: tokens of one key that meet at a node while it is
    // pending travel on as one. Its rounds are the fragment height plus
    // the heaviest edge's load in messages, and meet the paper's step-5
    // bound, 2(h + D + k): h the fragment height (`s2a` takes h + 1
    // rounds), D the BFS height. Its end wave carries the fragment
    // totals, and `s5e` sums δ and ρ in one pass of h + 1 rounds.
    let rounds_of = |name: &str| {
        res.ledger
            .phases()
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("phase {name} ran"))
            .rounds
    };
    let h = rounds_of("s2a") - 1;
    let depth = bfs.iter().map(|o| u64::from(o.depth)).max().unwrap();
    assert_eq!((h, depth, k), (83, 33, 42));
    assert!(
        rounds_of("s5") <= 2 * (h + depth + k),
        "s5 took {} rounds, 2(h + D + k) = 2({h} + {depth} + {k})",
        rounds_of("s5")
    );
    assert_eq!((rounds_of("s5"), rounds_of("s5e")), (161, 84));

    // Phase A, the capped fragment growth, exactly.
    assert_eq!(
        (
            res.ledger.rounds_matching("mstA"),
            res.ledger.messages_matching("mstA")
        ),
        (1_381, 1_657_900)
    );

    // Phase B is two fixed phases: one label exchange on every edge and
    // the cycle-filtered upcast, whose chosen edges name both fragments,
    // so the leader builds T_F from them alone. The upcast meets the
    // paper's O(k + D) bound as D + k rounds.
    let mst_b: Vec<&str> = res
        .ledger
        .phases()
        .iter()
        .map(|p| p.name.as_str())
        .filter(|name| name.starts_with("mstB"))
        .collect();
    assert_eq!(mst_b, ["mstB.exch", "mstB.up"]);
    assert_eq!(res.ledger.messages_matching("mstB.exch"), 2 * m);
    assert!(
        rounds_of("mstB.up") <= depth + k,
        "mstB.up took {} rounds, D + k = {depth} + {k}",
        rounds_of("mstB.up")
    );
    assert_eq!(
        (
            res.ledger.rounds_matching("mstB"),
            res.ledger.messages_matching("mstB")
        ),
        (69, 537_631)
    );

    // The whole pipeline, so that a saving in one stage cannot move cost
    // into another unseen.
    assert_eq!((res.rounds, res.messages), (2_567, 5_779_703));

    // The serial executor's `round` calls: every node in round 1, then
    // only the nodes that are awake, got mail or are due (`Step::Wait`).
    assert_eq!(res.ledger.total_steps(), 9_546_183);
    // Phase A's share, so that a fault in its state that wakes or skips
    // different nodes fails by name.
    assert_eq!(res.ledger.steps_of_stem("mstA"), 4_716_402);
}
