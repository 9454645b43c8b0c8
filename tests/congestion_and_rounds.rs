//! Model compliance: every phase respects the CONGEST bandwidth, and round
//! totals scale like Õ(√n + D), not like n.

use mincut_repro::congest::primitives::leader_bfs;
use mincut_repro::congest::NetworkConfig;
use mincut_repro::graphs::{generators, traversal};
use mincut_repro::mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut_repro::mincut::dist::one_respect::shape_row_capacity;
use mincut_repro::mincut::seq::tree_packing::PackingConfig;

fn run(
    g: &mincut_repro::graphs::WeightedGraph,
) -> mincut_repro::mincut::dist::driver::DistMinCutResult {
    exact_mincut(g, &ExactConfig::default()).expect("the run fits the budget")
}

#[test]
fn strict_mode_and_message_sizes() {
    // Any over-budget message would have turned into an error.
    // Additionally check the recorded maxima.
    let g = generators::torus2d(6, 6).unwrap();
    let r = run(&g);
    let budget = NetworkConfig::default().bandwidth_bits(g.node_count());
    assert!(r.ledger.max_message_bits() <= budget);
}

#[test]
fn rounds_scale_like_sqrt_n_plus_d() {
    // Torus: D = Θ(√n). Quadrupling n doubles √n + D; rounds must grow by
    // far less than the 4× a Θ(n) algorithm would show.
    let small = run(&generators::torus2d(6, 6).unwrap()); // n = 36
    let large = run(&generators::torus2d(12, 12).unwrap()); // n = 144
    let ratio = large.rounds as f64 / small.rounds as f64;
    assert!(
        ratio < 3.2,
        "rounds {} → {} (×{ratio:.2}) for n ×4",
        small.rounds,
        large.rounds
    );
}

#[test]
fn per_phase_ledger_is_complete() {
    let g = generators::grid2d(5, 5).unwrap();
    let r = run(&g);
    let phases = r.ledger.phases();
    assert!(!phases.is_empty());
    // Every recorded phase contributed rounds and the names cover the
    // pipeline stages.
    let names: String = phases
        .iter()
        .map(|p| p.name.as_str())
        .collect::<Vec<_>>()
        .join(",");
    for needle in [
        "leader_bfs",
        "mstA",
        "mstB",
        "orient",
        "s2a",
        "s2b",
        "s2c",
        "s3",
        "s4",
        "s5",
    ] {
        assert!(names.contains(needle), "missing phase {needle}");
    }
    assert_eq!(
        r.rounds,
        phases.iter().map(|p| p.rounds).sum::<u64>(),
        "total = sum of phases"
    );
}

#[test]
fn low_diameter_family_is_fast() {
    // Das-Sarma-style instance: D = O(log n) but Θ(n) path nodes — rounds
    // must track √n, not n.
    let g = generators::das_sarma_style(4, 16).unwrap();
    let n = g.node_count() as f64;
    let d = traversal::two_sweep_diameter(&g) as f64;
    let r = run(&g);
    let unit = n.sqrt() + d;
    // Total rounds = (trees packed) × per-tree cost; the paper's bound is
    // Õ(√n + D) per tree with the poly(λ) factor in the tree count.
    let per_tree = r.rounds as f64 / r.trees_packed.max(1) as f64 / unit;
    // Generous polylog envelope; E5 reports the precise trend.
    assert!(
        per_tree < 20.0 * n.log2(),
        "per-tree normalized rounds {per_tree:.1} (total {} over {} trees, √n + D = {unit:.1})",
        r.rounds,
        r.trees_packed
    );
}

#[test]
fn phase_a_fragment_counts_size_the_table_broadcasts() {
    // The `chaos_torus` benchmark instance, crash-free: three packed
    // trees, each recording the k fragments phase A handed to phase B.
    // In `orient.tf` the leader streams T_F's shape to every node, in
    // rows of as many parent numbers as fit the edge (those of fragments
    // 2 to k − 1: fragment 1's is always 0, so the k = 2 tree sends no
    // shape row), and each non-root
    // fragment's row to its attachment and its connector only; in `s5d`
    // one subtree sum per non-root fragment to that fragment's
    // attachment only. Each stream closes every BFS edge with an end
    // marker; a routed row crosses just the BFS edges from the leader
    // down to its targets (a connector neighbors its attachment, so it
    // lies at most one level deeper). Rows and end markers that share
    // an edge share its messages as far as the budget allows, so these
    // counts are bounds, and the exact values are pinned beside them.
    let g = generators::torus2d(24, 24).unwrap();
    let cfg = ExactConfig {
        packing: PackingConfig::fixed(3),
        ..Default::default()
    };
    let r = exact_mincut(&g, &cfg).unwrap();
    assert_eq!(r.phase_a_fragments, [3, 22, 2]);
    let trees = r.trees_packed as u64;
    let edges = g.node_count() as u64 - 1;
    // `orient.tf` and `s5d` carry k − 1 targeted rows per tree: the root
    // fragment hangs from no node, so the leader drops its row.
    for (rows, k) in r.tf_attachments.iter().zip(&r.phase_a_fragments) {
        assert_eq!(rows.len(), k - 1);
    }
    let bfs = leader_bfs::oracle(&g);
    let paths: u64 = r
        .tf_attachments
        .iter()
        .flatten()
        .map(|a| u64::from(bfs[a.index()].tree.depth))
        .sum();
    let budget = NetworkConfig::default().bandwidth_bits(g.node_count());
    let shape_rows: Vec<u64> = r
        .phase_a_fragments
        .iter()
        .map(|&k| (k as u64 - 2).div_ceil(shape_row_capacity(k, budget) as u64))
        .collect();
    assert_eq!(shape_rows, [1, 2, 0]);
    let routed: u64 = r.phase_a_fragments.iter().map(|&k| k as u64 - 1).sum();
    let s: u64 = shape_rows.iter().sum();
    let orient_tf = r.ledger.messages_matching("orient.tf");
    assert!(orient_tf <= (s + trees) * edges + 2 * paths + routed);
    assert_eq!(orient_tf, 2_697);
    let s5d = r.ledger.messages_matching("s5d");
    assert!(s5d <= trees * edges + paths);
    assert_eq!(s5d, 1_782);
    // Phase A, the capped fragment growth, exactly.
    assert_eq!(
        (
            r.ledger.rounds_matching("mstA"),
            r.ledger.messages_matching("mstA")
        ),
        (608, 26_046)
    );
    // Phase B is two fixed phases per tree, and its filtered upcast
    // meets the paper's O(k + D) bound as h + k rounds: h the BFS
    // height, k the tree's phase-A fragments.
    let phases = r.ledger.phases();
    let mst_b: Vec<&str> = phases
        .iter()
        .map(|p| p.name.as_str())
        .filter(|name| name.starts_with("mstB"))
        .collect();
    let per_tree = ["mstB.exch", "mstB.up"];
    assert_eq!(mst_b, per_tree.repeat(r.trees_packed));
    let h = bfs.iter().map(|o| u64::from(o.tree.depth)).max().unwrap();
    let up = phases.iter().filter(|p| p.name == "mstB.up");
    for (tree, (p, &k)) in up.zip(&r.phase_a_fragments).enumerate() {
        assert!(
            p.rounds <= h + k as u64,
            "tree {tree}: mstB.up took {} rounds, h + k = {h} + {k}",
            p.rounds
        );
    }
    // The whole pipeline, so that a saving in one stage cannot move cost
    // into another unseen.
    assert_eq!((r.rounds, r.messages), (2_021, 88_639));
}
