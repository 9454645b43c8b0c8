//! E6 — CONGEST compliance: no message ever exceeds
//! `B = 8·⌈log₂ n⌉` bits; the table reports the worst observed message and
//! the communication volume.

use graphs::generators;
use mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut_bench::{banner, table};

fn main() {
    banner("E6", "bandwidth compliance and message volumes");
    let cfg = ExactConfig::default();
    let budget_of = |n: usize| cfg.network.bandwidth_bits(n);
    let mut rows = Vec::new();
    let cases: Vec<(String, graphs::WeightedGraph)> = vec![
        ("cycle(64)".into(), generators::cycle(64).unwrap()),
        ("torus(8x8)".into(), generators::torus2d(8, 8).unwrap()),
        ("grid(8x8)".into(), generators::grid2d(8, 8).unwrap()),
        (
            "clique_pair(12,4)".into(),
            generators::clique_pair(12, 4).unwrap().graph,
        ),
        (
            "das_sarma(4,16)".into(),
            generators::das_sarma_style(4, 16).unwrap(),
        ),
    ];
    for (name, g) in &cases {
        let r = exact_mincut(g, &cfg).unwrap();
        let n = g.node_count();
        rows.push(vec![
            name.clone(),
            n.to_string(),
            budget_of(n).to_string(),
            r.ledger.max_message_bits().to_string(),
            r.messages.to_string(),
            r.ledger.total_bits().to_string(),
        ]);
    }
    table(
        &[
            "instance",
            "n",
            "budget B (bits)",
            "max message (bits)",
            "messages",
            "total bits",
        ],
        &rows,
    );
    println!("any over-budget message would have *errored*: the bound is enforced, not sampled.");
}
