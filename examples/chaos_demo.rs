//! Chaos demo: kill the elected leader mid-MST on a lossy 24×24 torus
//! and watch the self-healing driver detect the crash, re-elect, and
//! certify the recovered minimum cut against the sequential oracle.
//!
//! ```text
//! cargo run --release --example chaos_demo
//! ```
//!
//! The adversary is the shared CI chaos plan (`mincut-bench`'s
//! `SMOKE_FAULTS` link faults — 5% drops, 2.5% duplication, delay
//! window 2 — plus the `SMOKE_CRASHES` leader kill); this example
//! re-states it literally so the umbrella crate needs no bench
//! dependency. The same adversary, on three packed trees, is gated by
//! the `trace_export` CI binary (exact λ, the aborted phase and the
//! exact healing cost), so what the demo narrates is what CI enforces.

use mincut_repro::congest::sim::{CrashEvent, FaultPlan};
use mincut_repro::graphs::generators;
use mincut_repro::mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut_repro::mincut::dist::{recover_mincut, RecoverConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = generators::torus2d(24, 24)?;
    println!(
        "network: torus24x24, n = {}, m = {}",
        g.node_count(),
        g.edge_count()
    );

    // The crash-free baseline, under the same link faults: where do the
    // virtual rounds go? (This is the schedule the assassin reads.)
    let link_faults = FaultPlan::with_drop(50, 0xBE7C4).delayed(2).duplicated(25);
    let clean = exact_mincut(
        &g,
        &ExactConfig::default().with_fault_plan(link_faults.clone()),
    )?;
    println!("\ncrash-free run: λ = {}", clean.cut.value);
    let mut consumed = 0u64;
    for p in clean.ledger.phases() {
        if consumed < 220 {
            println!(
                "  rounds {:>4}..{:<4} {}",
                consumed,
                consumed + p.rounds,
                p.name
            );
        }
        consumed += p.rounds;
    }
    println!(
        "  ... {} phases, {} rounds total",
        clean.ledger.phases().len(),
        consumed
    );

    // Kill node 0 — the leader under the min-id election — in the middle
    // of the first MST fragment-growth level (`mstA.l0.hook` in the
    // schedule printed above).
    let plan = FaultPlan {
        crashes: vec![CrashEvent {
            node: 0,
            at_round: 114,
            rejoin: None,
        }],
        ..link_faults
    };
    println!("\nassassin: node 0 (the elected leader) crashes at round 114");
    let r = recover_mincut(&g, &RecoverConfig::default().with_plan(plan))?;

    println!("recovered λ       : {}", r.cut.value);
    println!("oracle (survivors): {:?}", r.oracle);
    println!("epochs            : {}", r.epochs);
    println!("dead              : {:?}", r.dead);
    println!("survivors         : {} nodes", r.survivors.len());
    println!(
        "recovery overhead : {} of {} rounds, {} of {} messages",
        r.recovery_rounds, r.rounds, r.recovery_messages, r.messages
    );

    // The merged ledger, grouped by phase stem: the `recover.e1` rows
    // are the aborted first attempt plus the census; everything after
    // is the surviving 575-node re-run under the new leader.
    println!("\nper-stem accounting (rounds / messages):");
    for (stem, grp) in r.ledger.grouped_by_stem() {
        println!("  {:<24} {:>6} / {:>8}", stem, grp.rounds, grp.messages);
    }
    Ok(())
}
