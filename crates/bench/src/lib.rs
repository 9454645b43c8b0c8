//! Experiment harness: table formatting and shared runners for the
//! experiment binaries (E1–E9) that regenerate the evaluation described in
//! DESIGN.md / EXPERIMENTS.md.

#![forbid(unsafe_code)]

use graphs::WeightedGraph;
use mincut::dist::driver::{exact_mincut, DistMinCutResult, ExactConfig};
use mincut::seq::tree_packing::{PackingConfig, PackingSize};

/// The canonical deterministic fault plan of the CI harness: 5% drops,
/// 2.5% duplication, delay window 2, fixed seed. The chaos session that
/// `trace_export` gates (it bounds it by 10 transport ticks per virtual
/// round) and perfbench's `chaos_torus` workload both layer
/// [`SMOKE_CRASHES`] on these link faults through [`chaos_plan`].
pub const SMOKE_FAULTS: congest::sim::FaultPlan = congest::sim::FaultPlan {
    seed: 0xBE7C4,
    drop_per_mille: 50,
    dup_per_mille: 25,
    max_delay: 2,
    resend_after: 4,
    max_attempts: 64,
    crashes: Vec::new(),
    parked: Vec::new(),
    partitions: Vec::new(),
    corrupt_per_mille: 0,
    suspect_patience: congest::sim::DEFAULT_SUSPECT_PATIENCE,
    on_suspect: congest::sim::SuspicionPolicy::Abort,
};

/// The canonical crash schedule of the chaos harness: kill node 0 — the
/// leader under the min-id election — mid-`mstA` on the canonical chaos
/// instance. On `torus24x24` the pipeline's virtual-round schedule puts
/// `leader_bfs` at rounds 0..86, `init.deg` at 86..111, and the first
/// MST fragment-growth level `mstA.l0.*` at 111..116, so round 114 lands
/// inside `mstA.l0.hook`; `trace_export` asserts the aborted phase on
/// every CI run, so a drift in the phase spans is caught, not silently
/// tolerated. Layered on [`SMOKE_FAULTS`] by [`chaos_plan`] so the
/// benchmark and the CI gate measure the same adversary.
pub const SMOKE_CRASHES: &[congest::sim::CrashEvent] = &[congest::sim::CrashEvent {
    node: 0,
    at_round: 114,
    rejoin: None,
}];

/// [`SMOKE_FAULTS`] with the [`SMOKE_CRASHES`] schedule armed — the
/// adversary of the `trace_export` CI binary and of perfbench's
/// `chaos_torus` workload.
pub fn chaos_plan() -> congest::sim::FaultPlan {
    congest::sim::FaultPlan {
        crashes: SMOKE_CRASHES.to_vec(),
        ..SMOKE_FAULTS
    }
}

/// The canonical large-`n` instance: the 70602-node 3D torus + chords
/// with certified λ = 6 that `tests/large_n.rs` gates (the umbrella
/// crate cannot depend on this one, so that test re-states the
/// constructor — keep them in sync). perfbench runs it as
/// `large_sparse`, and that test pins its exact traffic.
pub fn large_n_graph() -> WeightedGraph {
    graphs::generators::torus3d_with_chords(42, 41, 41, 300).expect("valid torus construction")
}

/// Prints a markdown table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map(String::len).unwrap_or(0))
                .chain([h.len()])
                .max()
                .unwrap_or(h.len())
        })
        .collect();
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for r in rows {
        line(r.clone());
    }
    println!();
}

/// `√n + D` — the paper's scaling unit for a graph.
pub fn scaling_unit(g: &WeightedGraph) -> f64 {
    let d = graphs::traversal::two_sweep_diameter(g) as f64;
    (g.node_count() as f64).sqrt() + d
}

/// Runs the exact distributed algorithm with a single packed tree — the
/// cost of one MST + orientation + 1-respecting stage (Theorem 2.1 plus
/// the MST), which is what the scaling experiments measure.
pub fn single_tree_run(g: &WeightedGraph) -> DistMinCutResult {
    let cfg = ExactConfig {
        packing: PackingConfig {
            size: PackingSize::Fixed(1),
            max_trees: 1,
        },
        ..Default::default()
    };
    exact_mincut(g, &cfg).expect("single-tree run")
}

/// Formats a float with the given precision.
pub fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Experiment header banner.
pub fn banner(id: &str, claim: &str) {
    println!("## {id} — {claim}");
    println!();
}
