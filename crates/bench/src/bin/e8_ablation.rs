//! E8 — Ablation: the fragment size cap. The paper's `√n` balances
//! intra-fragment work (∝ cap) against fragment count (∝ n/cap); both
//! extremes lose.

use graphs::generators;
use mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut::dist::mst::MstConfig;
use mincut::seq::tree_packing::PackingConfig;
use mincut_bench::{banner, f, table};

fn main() {
    banner("E8", "fragment size cap ablation: √n is the sweet spot");
    let g = generators::torus2d(12, 12).unwrap(); // n = 144
    let n = g.node_count() as f64;
    let caps: Vec<(String, usize)> = vec![
        ("n^0.25".into(), n.powf(0.25).ceil() as usize),
        ("n^0.5 (paper)".into(), n.sqrt().ceil() as usize),
        ("n^0.75".into(), n.powf(0.75).ceil() as usize),
        ("n (one fragment)".into(), n as usize),
    ];
    let mut rows = Vec::new();
    for (name, cap) in caps {
        let cfg = ExactConfig {
            mst: MstConfig { cap: Some(cap) },
            packing: PackingConfig::fixed(2),
            ..Default::default()
        };
        let r = exact_mincut(&g, &cfg).unwrap();
        rows.push(vec![
            name,
            cap.to_string(),
            r.rounds.to_string(),
            f(r.rounds as f64 / (n.sqrt() + 12.0), 1),
            r.cut.value.to_string(),
        ]);
    }
    table(
        &[
            "cap policy",
            "cap",
            "rounds (2 trees)",
            "rounds/(√n+D)",
            "value",
        ],
        &rows,
    );
    println!("shape check: rounds are minimized near cap = √n; value is identical everywhere.");
}
