//! CI smoke benchmark: the round/wall-time trajectory of the exact
//! pipeline on two instance families at two sizes each — crossed with
//! the round executor (serial, parallel, and the fault-injecting
//! `congest::sim` executor under a fixed lossy plan) — emitted as
//! `BENCH_rounds.json` so the perf history of the repository stops being
//! empty. Rounds, messages, and cut values are executor-independent by
//! construction (the parity suites assert it, faults included); the
//! per-executor rows track *wall time* and — for the faulty rows — the
//! α-synchronizer's round-overhead factor (`phys_rounds / rounds`),
//! which `message_gate` budgets on torus24x24.
//!
//! Besides the per-run totals, every (instance, executor) pair emits
//! **per-phase rows** (`phase_rows`): the ledger grouped by phase-label
//! stem (`leader_bfs`, `mstA`, `s4a`, …) with rounds/messages/bits and
//! the stem's accumulated engine wall time (`wall_ms`) each, and both
//! the top-3 message-heavy and the top-3 round-heavy stems are printed
//! per instance — so the trajectory shows *where* the traffic and the
//! time go, not just how much there is. That is the accounting that
//! measured the election's and phase A's message cuts, which
//! `message_gate` now guards.
//!
//! Runs in seconds — this is a trend probe, not a full E1–E10 evaluation
//! (`run_all` remains that). Pass `--large` to append the 70602-node
//! `large_n` instance (the 3D torus + chords of `tests/large_n.rs`) in
//! both executor flavors; the release-mode CI job does, which is what
//! regression-guards the slot-arena/parallel speedup.

use congest::obs::{CostCenter, Profile};
use congest::{ExecutorKind, MetricsLedger, ObsHandle};
use graphs::generators;
use mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut::dist::{recover_mincut, RecoverConfig, Stage};
use mincut::seq::tree_packing::{PackingConfig, PackingSize};
use std::fmt::Write as _;
use std::time::Instant;

struct Sample {
    instance: String,
    executor: &'static str,
    threads: usize,
    n: usize,
    rounds: u64,
    /// Physical transport rounds (= `rounds` for fault-free executors;
    /// the α-synchronizer's ticks under the faulty one).
    phys_rounds: u64,
    messages: u64,
    cut: u64,
    wall_ms: f64,
    /// Original ids of the nodes the crash schedule killed (chaos rows;
    /// empty for every crash-free row).
    crashed: Vec<usize>,
    /// Rounds spent on failed attempts + censuses (`recover.*` phases).
    recovery_rounds: u64,
    /// Messages spent on failed attempts + censuses.
    recovery_messages: u64,
    /// Per-epoch recovery rounds (`recover.e{k}.` + `census.e{k}.`
    /// sums); empty for crash-free rows.
    wasted_rounds: Vec<u64>,
    /// Per-epoch recovery messages, same split.
    wasted_messages: Vec<u64>,
    /// Deepest checkpoint the healed attempt resumed from (`None` on
    /// crash-free rows and from-scratch recoveries).
    resumed_from: Option<Stage>,
    /// The obs cost-center/worker profile of the row (rows that attach
    /// a sink: the faulty and chaos rows carry the transport cost
    /// centers, the parallel rows the per-worker chunk utilization;
    /// `None` on the undecorated serial baseline).
    profile: Option<Profile>,
    ledger: MetricsLedger,
}

/// The executor grid every instance is measured under. The faulty rows
/// (driven by the shared deterministic [`mincut_bench::SMOKE_FAULTS`]
/// plan) track the synchronizer's overhead factor; their
/// cut/rounds/messages are bit-identical to serial by construction
/// (`tests/sim_parity.rs`).
const EXECUTORS: [(&str, ExecutorKind); 3] = [
    ("serial", ExecutorKind::Serial),
    ("parallel", ExecutorKind::Parallel { threads: 4 }),
    ("faulty", ExecutorKind::Faulty(mincut_bench::SMOKE_FAULTS)),
];

/// The large instance runs fault-free only: the transport simulation is
/// `O(ticks · edges-in-flight)` and the 70602-node instance is the wall
/// the *engine* rows regression-guard.
const LARGE_EXECUTORS: [(&str, ExecutorKind); 2] = [
    ("serial", ExecutorKind::Serial),
    ("parallel", ExecutorKind::Parallel { threads: 4 }),
];

fn run(
    instance: &str,
    g: &graphs::WeightedGraph,
    trees: usize,
    executor: (&'static str, ExecutorKind),
) -> Sample {
    // Fixed tree counts keep runs deterministic and fast; three trees is
    // enough to land the planted cut on both smoke families.
    let mut cfg = ExactConfig {
        packing: PackingConfig {
            size: PackingSize::Fixed(trees),
            max_trees: trees,
        },
        ..Default::default()
    }
    .with_executor(executor.1.clone());
    // The serial rows stay undecorated — they are the wall-time
    // baseline the other rows are compared against.
    let obs = (!matches!(executor.1, ExecutorKind::Serial)).then(ObsHandle::new);
    if let Some(handle) = &obs {
        cfg = cfg.with_obs(handle.clone());
    }
    let t = Instant::now();
    let r = exact_mincut(g, &cfg).expect("smoke instance must run");
    Sample {
        instance: instance.to_string(),
        executor: executor.0,
        threads: executor.1.effective_threads(),
        n: g.node_count(),
        rounds: r.rounds,
        phys_rounds: r.ledger.total_phys_rounds(),
        messages: r.messages,
        cut: r.cut.value,
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
        crashed: Vec::new(),
        recovery_rounds: 0,
        recovery_messages: 0,
        wasted_rounds: Vec::new(),
        wasted_messages: Vec::new(),
        resumed_from: None,
        profile: obs.map(|h| h.sink().profile()),
        ledger: r.ledger,
    }
}

/// The chaos row: the self-healing driver under [`mincut_bench::chaos_plan`]
/// (the `SMOKE_FAULTS` link adversary plus the `SMOKE_CRASHES` leader
/// kill). Its `crashed` / `recovery_*` columns are what the crash-plan
/// satellite tracks; `chaos_gate` budgets the same numbers on
/// torus24x24.
fn run_chaos(instance: &str, g: &graphs::WeightedGraph, trees: usize) -> Sample {
    let obs = ObsHandle::new();
    let cfg = RecoverConfig {
        base: ExactConfig {
            packing: PackingConfig {
                size: PackingSize::Fixed(trees),
                max_trees: trees,
            },
            ..Default::default()
        },
        ..Default::default()
    }
    .with_plan(mincut_bench::chaos_plan())
    .with_obs(obs.clone());
    let t = Instant::now();
    let r = recover_mincut(g, &cfg).expect("chaos instance must recover");
    Sample {
        instance: instance.to_string(),
        executor: "chaos",
        threads: 1,
        n: g.node_count(),
        rounds: r.rounds,
        phys_rounds: r.ledger.total_phys_rounds(),
        messages: r.messages,
        cut: r.cut.value,
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
        crashed: r.dead.iter().map(|v| v.index()).collect(),
        recovery_rounds: r.recovery_rounds,
        recovery_messages: r.recovery_messages,
        wasted_rounds: r.wasted_rounds,
        wasted_messages: r.wasted_messages,
        resumed_from: r.resumed_from,
        profile: Some(obs.sink().profile()),
        ledger: r.ledger,
    }
}

fn main() {
    let large = std::env::args().any(|a| a == "--large");
    let mut samples = Vec::new();
    for executor in &EXECUTORS {
        for side in [12usize, 24] {
            let g = generators::torus2d(side, side).unwrap();
            samples.push(run(&format!("torus{side}x{side}"), &g, 3, executor.clone()));
        }
        for h in [16usize, 32] {
            let g = generators::clique_pair(h, 3).unwrap().graph;
            samples.push(run(&format!("clique_pair{h}"), &g, 3, executor.clone()));
        }
    }
    // The chaos rows: same adversary as the faulty rows *plus* the
    // shared leader-kill schedule, healed by the recovery driver. Torus
    // family only — that is the canonical chaos instance `chaos_gate`
    // budgets, and one family keeps the trend probe in seconds.
    for side in [12usize, 24] {
        let g = generators::torus2d(side, side).unwrap();
        samples.push(run_chaos(&format!("torus{side}x{side}"), &g, 3));
    }
    if large {
        let g = mincut_bench::large_n_graph();
        for executor in LARGE_EXECUTORS {
            samples.push(run("large_n_torus3d", &g, 1, executor));
        }
    }

    // Hand-rolled JSON (the workspace's serde is an offline stub). The
    // `overhead` column is the synchronizer's round-overhead factor
    // (`phys_rounds / rounds`; 1.0 for the fault-free executors) — the
    // tracked curve for "what does asynchrony cost the paper's bound".
    // The crash-plan columns (`crashed`, `recovery_rounds`,
    // `recovery_msg_share`) are zero everywhere except the chaos rows,
    // where they track what healing the leader kill costs. The
    // checkpoint columns split that bill per epoch (`wasted_rounds` /
    // `wasted_messages`, the `recover.e{k}.` + `census.e{k}.` sums) and
    // name the deepest restored stage (`resumed_from`: `"Bfs"`,
    // `"Packed(k)"`, or `null` for from-scratch / crash-free) — the
    // measurable savings of checkpointed resume over PR 6-style
    // restart-from-zero recovery.
    let mut json = String::from("{\n  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let sep = if i + 1 == samples.len() { "" } else { "," };
        let crashed: Vec<String> = s.crashed.iter().map(|v| v.to_string()).collect();
        let per_epoch = |v: &[u64]| {
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let resumed = match s.resumed_from {
            None => "null".to_string(),
            Some(Stage::Bfs) => "\"Bfs\"".to_string(),
            Some(Stage::Packed(k)) => format!("\"Packed({k})\""),
        };
        // The transport cost centers (faulty/chaos rows: the profiler's
        // attribution of the tick loop's wall time) and the per-worker
        // chunk utilization (parallel rows) — `null` where the row's
        // executor records neither.
        let cost_centers = match &s.profile {
            Some(p) if p.total_ns > 0 => {
                let cells: Vec<String> = CostCenter::ALL
                    .iter()
                    .map(|&c| format!("\"{}\": {:.3}", c.label(), p.center_ns(c) as f64 / 1e6))
                    .collect();
                format!(
                    "{{{}, \"total_ms\": {:.3}, \"coverage\": {:.3}}}",
                    cells.join(", "),
                    p.total_ns as f64 / 1e6,
                    p.coverage()
                )
            }
            _ => "null".to_string(),
        };
        let workers = match &s.profile {
            Some(p) if !p.workers.is_empty() => {
                let cells: Vec<String> = p
                    .workers
                    .iter()
                    .map(|w| {
                        format!(
                            "{{\"sweeps\": {}, \"chunks\": {}, \"nodes\": {}, \"busy_ms\": {:.3}}}",
                            w.sweeps,
                            w.chunks,
                            w.nodes,
                            w.busy_ns as f64 / 1e6
                        )
                    })
                    .collect();
                format!("[{}]", cells.join(", "))
            }
            _ => "null".to_string(),
        };
        writeln!(
            json,
            "    {{\"instance\": \"{}\", \"executor\": \"{}\", \"threads\": {}, \"n\": {}, \"rounds\": {}, \"phys_rounds\": {}, \"overhead\": {:.3}, \"messages\": {}, \"cut\": {}, \"crashed\": [{}], \"recovery_rounds\": {}, \"recovery_msg_share\": {:.3}, \"wasted_rounds\": [{}], \"wasted_messages\": [{}], \"resumed_from\": {}, \"cost_centers\": {}, \"workers\": {}, \"wall_ms\": {:.3}}}{sep}",
            s.instance,
            s.executor,
            s.threads,
            s.n,
            s.rounds,
            s.phys_rounds,
            s.phys_rounds as f64 / s.rounds.max(1) as f64,
            s.messages,
            s.cut,
            crashed.join(", "),
            s.recovery_rounds,
            s.recovery_messages as f64 / s.messages.max(1) as f64,
            per_epoch(&s.wasted_rounds),
            per_epoch(&s.wasted_messages),
            resumed,
            cost_centers,
            workers,
            s.wall_ms
        )
        .expect("write to string");
    }
    json.push_str("  ],\n  \"phase_rows\": [\n");
    let phase_rows: Vec<String> = samples
        .iter()
        .flat_map(|s| {
            s.ledger.grouped_by_stem().into_iter().map(|(stem, g)| {
                format!(
                    "    {{\"instance\": \"{}\", \"executor\": \"{}\", \"phase\": \"{stem}\", \"phases\": {}, \"rounds\": {}, \"messages\": {}, \"bits\": {}, \"phys_rounds\": {}, \"dropped\": {}, \"retransmitted\": {}, \"wall_ms\": {:.3}}}",
                    s.instance, s.executor, g.phases, g.rounds, g.messages, g.bits,
                    g.sim.phys_rounds, g.sim.dropped, g.sim.retransmitted,
                    s.ledger.wall_ms_of_stem(&stem)
                )
            })
        })
        .collect();
    json.push_str(&phase_rows.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_rounds.json", &json).expect("write BENCH_rounds.json");
    println!("{json}");

    // Where does the traffic go: top-3 message-heavy phase stems per
    // instance (the serial rows; the parallel ones are bit-identical).
    for s in samples.iter().filter(|s| s.executor == "serial") {
        let mut groups = s.ledger.grouped_by_stem();
        groups.sort_by_key(|(_, g)| std::cmp::Reverse(g.messages));
        let top: Vec<String> = groups
            .iter()
            .take(3)
            .map(|(stem, g)| {
                format!(
                    "{stem} {:.1}% ({} msgs)",
                    100.0 * g.messages as f64 / s.messages.max(1) as f64,
                    g.messages
                )
            })
            .collect();
        println!("top phases {}: {}", s.instance, top.join(", "));
    }
    // Where does the *time* go in CONGEST terms: top-3 round-heavy phase
    // stems per instance. Message-heavy and round-heavy are different
    // phases (a flood is message-heavy in one round; a deep convergecast
    // is the opposite), so both rankings are printed.
    for s in samples.iter().filter(|s| s.executor == "serial") {
        let mut groups = s.ledger.grouped_by_stem();
        groups.sort_by_key(|(_, g)| std::cmp::Reverse(g.rounds));
        let top: Vec<String> = groups
            .iter()
            .take(3)
            .map(|(stem, g)| {
                format!(
                    "{stem} {:.1}% ({} rounds)",
                    100.0 * g.rounds as f64 / s.rounds.max(1) as f64,
                    g.rounds
                )
            })
            .collect();
        println!("top rounds {}: {}", s.instance, top.join(", "));
    }
    // What asynchrony costs: overhead factor + fault tallies per
    // faulty-executor instance.
    for s in samples.iter().filter(|s| s.executor == "faulty") {
        println!(
            "sync overhead {}: {:.2}x ({} -> {} rounds, {} dropped, {} retransmitted, {} duplicated)",
            s.instance,
            s.ledger.sim_overhead_factor(),
            s.rounds,
            s.phys_rounds,
            s.ledger.total_dropped(),
            s.ledger.total_retransmitted(),
            s.ledger.total_duplicated(),
        );
    }
    // Where the *transport's* time goes: the profiler's top cost
    // centers per faulty/chaos row, with the attributed share.
    for s in &samples {
        let Some(p) = s.profile.as_ref().filter(|p| p.total_ns > 0) else {
            continue;
        };
        let mut centers: Vec<(CostCenter, u64)> = CostCenter::ALL
            .iter()
            .map(|&c| (c, p.center_ns(c)))
            .collect();
        centers.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        let top: Vec<String> = centers
            .iter()
            .take(3)
            .map(|(c, ns)| {
                format!(
                    "{} {:.1}%",
                    c.label(),
                    100.0 * *ns as f64 / p.total_ns as f64
                )
            })
            .collect();
        println!(
            "cost centers {} ({}): {} — {:.1}% attributed",
            s.instance,
            s.executor,
            top.join(", "),
            100.0 * p.coverage()
        );
    }
    // How evenly the parallel sweep's chunk claiming spread the work.
    for s in &samples {
        let Some(p) = s.profile.as_ref().filter(|p| !p.workers.is_empty()) else {
            continue;
        };
        let total_nodes: u64 = p.workers.iter().map(|w| w.nodes).sum();
        let shares: Vec<String> = p
            .workers
            .iter()
            .map(|w| format!("{:.1}%", 100.0 * w.nodes as f64 / total_nodes.max(1) as f64))
            .collect();
        println!(
            "worker utilization {} ({}): nodes {}",
            s.instance,
            s.executor,
            shares.join("/")
        );
    }
    // What healing costs: the chaos rows' crash + recovery accounting.
    for s in samples.iter().filter(|s| s.executor == "chaos") {
        println!(
            "chaos {}: crashed {:?}, cut {}, recovery {} rounds / {:.1}% of {} msgs, per-epoch {:?}, resumed_from {:?}",
            s.instance,
            s.crashed,
            s.cut,
            s.recovery_rounds,
            100.0 * s.recovery_messages as f64 / s.messages.max(1) as f64,
            s.messages,
            s.wasted_rounds,
            s.resumed_from,
        );
    }
    println!("wrote BENCH_rounds.json ({} samples)", samples.len());
}
