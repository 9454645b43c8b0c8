//! E7 — Theorem 2.1 in isolation: the 1-respecting stage costs Õ(√n + D)
//! **independent of the spanning tree's depth** — the fragment machinery is
//! what saves deep trees (a naive subtree aggregation would pay Θ(depth)).

use graphs::generators;
use mincut_bench::{
    banner, f, rounds_of_stems, scaling_unit, single_tree_run, table, CUT_STAGE_STEMS, MST_STEMS,
};

fn main() {
    banner(
        "E7",
        "the 1-respecting stage is depth-independent (fragments beat naive aggregation)",
    );
    let mut rows = Vec::new();
    let cases: Vec<(String, graphs::WeightedGraph)> = vec![
        // Path: the MST is the path itself — tree depth Θ(n).
        (
            "path(100) [depth Θ(n)]".into(),
            generators::path(100).unwrap(),
        ),
        (
            "path(225) [depth Θ(n)]".into(),
            generators::path(225).unwrap(),
        ),
        // Caterpillar: deep spine with legs.
        (
            "caterpillar(50,2)".into(),
            generators::caterpillar(50, 2).unwrap(),
        ),
        // Torus: shallow BFS but the MST tree is what matters.
        ("torus(10x10)".into(), generators::torus2d(10, 10).unwrap()),
    ];
    for (name, g) in &cases {
        let r = single_tree_run(g);
        let unit = scaling_unit(g);
        // Per-stage breakdown from the ledger.
        let steps = rounds_of_stems(&r.ledger, CUT_STAGE_STEMS);
        let mst = rounds_of_stems(&r.ledger, MST_STEMS);
        rows.push(vec![
            name.clone(),
            g.node_count().to_string(),
            f(unit, 1),
            mst.to_string(),
            steps.to_string(),
            f(steps as f64 / unit, 1),
        ]);
    }
    table(
        &[
            "instance",
            "n",
            "√n + D",
            "MST rounds",
            "steps 2–5 rounds",
            "steps/(√n+D)",
        ],
        &rows,
    );
    println!(
        "shape check: on paths the naive per-node aggregation would cost Θ(n·√n)-ish rounds; \
         the fragment pipeline keeps `steps/(√n+D)` flat across depths."
    );
}
