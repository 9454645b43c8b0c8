//! Chaos timeline: replay a lossy, crash-ridden min-cut run on a
//! 12×12 torus with a `congest::obs` sink attached and render what the
//! adversary did — and what the stack did about it — as a textual
//! timeline.
//!
//! ```text
//! cargo run --release --example chaos_timeline
//! ```
//!
//! Where `chaos_demo` narrates the *outcome* of a leader kill (the
//! recovered cut, the epochs, the per-stem overhead), this example
//! narrates the *mechanism*: each stem row shows the transport traffic
//! the α-synchronizer moved under the adversary (sends, drops,
//! retransmissions, duplicate and corrupt arrivals), and the event
//! timeline below pins the crash, the suspicions it triggered, the
//! recovery driver's checkpoint/census/resume markers, and the rejoin
//! handshake to exact virtual rounds and physical ticks. The same data,
//! exported with `obs::export_chrome_trace`, is what the `trace_export`
//! CI gate uploads for Perfetto.

use mincut_repro::congest::obs::EventKind;
use mincut_repro::congest::phase;
use mincut_repro::congest::sim::{CrashEvent, FaultPlan};
use mincut_repro::congest::ObsHandle;
use mincut_repro::graphs::generators;
use mincut_repro::mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut_repro::mincut::dist::{recover_mincut, RecoverConfig};
use mincut_repro::mincut::seq::tree_packing::PackingConfig;
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = generators::torus2d(12, 12)?;
    println!(
        "network: torus12x12, n = {}, m = {}",
        g.node_count(),
        g.edge_count()
    );

    // A 3-tree packing keeps the session small enough that the whole
    // event history fits in the sink's ring — the point here is to
    // read a timeline end to end, not to stress the packing bound.
    let base = ExactConfig {
        packing: PackingConfig::fixed(3),
        ..Default::default()
    };

    // The link adversary: 6% drops, duplication, a delay window, and a
    // low rate of in-flight bit-flips (caught by the frame checksum).
    let link_faults = FaultPlan::with_drop(60, 0x71ACE).delayed(2).duplicated(30);

    // Probe the crash-free schedule to aim the assassin: kill node 0 —
    // the leader under the min-id election — two rounds into the first
    // MST fragment-growth level, wherever the schedule puts it.
    let clean = exact_mincut(&g, &base.clone().with_fault_plan(link_faults.clone()))?;
    let mut crash_round = 0u64;
    let mut consumed = 0u64;
    for p in clean.ledger.phases() {
        if p.name.starts_with("mstA.l0.") && crash_round == 0 {
            crash_round = consumed + 2;
        }
        consumed += p.rounds;
    }
    println!(
        "crash-free probe: λ = {}, {} rounds; assassin aims at round {crash_round}",
        clean.cut.value, consumed
    );

    // The chaos run: the link faults plus the leader kill, with a node
    // rejoin late enough that the re-run is already underway — the
    // census handshake has to take it back in.
    let plan = FaultPlan {
        crashes: vec![CrashEvent {
            node: 0,
            at_round: crash_round,
            rejoin: Some(crash_round + 40),
        }],
        ..link_faults.corrupted(10)
    };
    // A deep ring so the early events (the crash itself) survive the
    // session; whatever still overflows is reported, never silent.
    let obs = ObsHandle::with_capacity(1 << 22);
    let r = recover_mincut(
        &g,
        &RecoverConfig {
            base,
            ..Default::default()
        }
        .with_plan(plan)
        .with_obs(obs.clone()),
    )?;
    let report = obs.sink().snapshot();

    println!(
        "\nchaos run: λ = {}, epochs = {}, dead at cut time = {:?}",
        r.cut.value, r.epochs, r.dead
    );
    println!(
        "sink: {} phases, {} events retained, {} overwritten",
        report.phases.len(),
        report.events.len(),
        report.dropped
    );

    // Per-stem transport accounting, from the retained events. The
    // drop bar makes the adversary's pressure visible at a glance.
    let mut traffic: BTreeMap<&str, [u64; 5]> = BTreeMap::new();
    for e in &report.events {
        let Some(name) = report.phase_name_of(e) else {
            continue;
        };
        let row = traffic.entry(phase::stem_of(name)).or_default();
        match e.kind {
            EventKind::FrameSend => row[0] += 1,
            EventKind::FrameDrop => row[1] += 1,
            EventKind::FrameRetransmit => row[2] += 1,
            EventKind::FrameDup => row[3] += 1,
            EventKind::FrameCorrupt => row[4] += 1,
            _ => {}
        }
    }
    println!(
        "\n{:<12} {:>8} {:>7} {:>7} {:>5} {:>7}",
        "stem", "sends", "drops", "retrans", "dup", "corrupt"
    );
    let max_drops = traffic.values().map(|row| row[1]).max().unwrap_or(0).max(1);
    for (stem, [sends, drops, retrans, dups, corrupts]) in &traffic {
        let bar = "▪".repeat((drops * 30 / max_drops) as usize);
        println!("{stem:<12} {sends:>8} {drops:>7} {retrans:>7} {dups:>5} {corrupts:>7}  {bar}");
    }

    // The chaos timeline proper: the crash, the suspicions it triggers
    // (and the false ones retransmission later revokes), and the
    // recovery driver's stage markers — each pinned to the phase,
    // virtual round, and physical tick it happened at.
    println!("\nchaos timeline (tick / round / phase):");
    let mut suspicions = 0u64;
    for e in &report.events {
        let phase = report.phase_name_of(e).unwrap_or("-");
        let line = match e.kind {
            EventKind::Crash => format!("node {} fail-stops", e.a),
            EventKind::Suspect => {
                suspicions += 1;
                if suspicions > 8 {
                    continue;
                }
                format!("node {} suspects node {}", e.a, e.b)
            }
            EventKind::Clear => format!("node {} rehabilitates node {}", e.a, e.b),
            EventKind::PartitionOpen => format!("partition window {} opens", e.a),
            EventKind::PartitionHeal => format!("partition window {} heals", e.a),
            EventKind::Stage => {
                format!("stage {} = {}", report.label_of(e).unwrap_or("?"), e.round)
            }
            _ => continue,
        };
        println!("  t{:<6} r{:<5} {:<22} {}", e.tick, e.round, phase, line);
    }
    if suspicions > 8 {
        println!("  … {} further suspicions elided", suspicions - 8);
    }

    println!(
        "\nepoch overhead: {} of {} rounds, {} of {} messages spent recovering",
        r.recovery_rounds, r.rounds, r.recovery_messages, r.messages
    );
    Ok(())
}
