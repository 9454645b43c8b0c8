//! CI trace gate + artifact: runs the self-healing chaos instance
//! (torus24x24, three packed trees, under [`mincut_bench::chaos_plan`]:
//! the lossy link adversary plus the leader kill) **twice**, first
//! undecorated and then with a `congest::obs` sink attached, and
//! enforces five hard contracts on the real pipeline:
//!
//! 1. **Exact, cheap healing** — the kill lands in
//!    `recover.e1.mstA.l0.hook`; the undecorated run ends in 2 epochs
//!    with node 0 dead and 575 survivors, λ = 3 = the Stoer–Wagner
//!    oracle, no false suspicions, and exactly [`RECOVERY`] rounds and
//!    messages spent on the aborted attempt and the census. The kill
//!    lands in the first tree, so this cost does not depend on the
//!    packing size;
//! 2. **Zero observer effect** — the decorated run's outputs and full
//!    [`congest::MetricsLedger`] (payload and transport counters
//!    alike) are bit-identical to the undecorated run's, which also
//!    makes the session deterministic across reruns;
//! 3. **Profiler coverage** — the cost-center profile attributes at
//!    least 90% of the faulty executor's wall time to named centers;
//! 4. **Pinned transport** — the ledger's transport totals and a digest
//!    of every phase's [`congest::SimPhaseStats`] equal pinned values,
//!    so a change to *when* frames move fails here on the full
//!    instance, not only on tier-1's small grids
//!    (`tests/sim_parity.rs`). They are re-captured only for
//!    deliberate changes to the pipeline's phases;
//! 5. **Synchronizer dilation** — the session's transport ticks stay
//!    within 10× its virtual rounds under the lossy plan, bounding what
//!    asynchrony costs the paper's round bound in this harness.
//!
//! It then exports the decorated run's Chrome trace, re-parses it with
//! the strict in-tree JSON parser (a malformed exporter fails here,
//! not in the Perfetto UI), checks every slice is a balanced `B`/`E`
//! pair, and writes it to `TRACE_chaos_torus24x24.json` (override with
//! `--out <path>`) — the artifact the large-n CI job uploads. Load it
//! at <https://ui.perfetto.dev> for one track per phase stem plus the
//! transport and recovery tracks.
//!
//! The trace is not the whole session. The sink keeps its events in a
//! ring of [`congest::obs::DEFAULT_CAPACITY`] = 65,536, and the session
//! records about 5.35M (the run prints how many the ring dropped), so
//! the file holds every phase slice but only the instants of the
//! session's last 65,536 events: the leader kill and most of the
//! transport and recovery instants are not in it. A complete trace
//! would be about 0.76 GB of JSON at the measured 143 bytes per event;
//! keeping the instants that matter needs a filter, not a larger ring.

use congest::obs::{export_chrome_trace, json, CostCenter};
use congest::{MetricsLedger, ObsHandle, SimPhaseStats};
use graphs::generators;
use mincut::dist::{recover_mincut, ExactConfig, RecoverConfig, RecoveredMinCut};
use mincut::seq::tree_packing::{PackingConfig, PackingSize};

fn run(obs: Option<&ObsHandle>) -> RecoveredMinCut {
    let g = generators::torus2d(24, 24).expect("valid torus");
    let mut cfg = RecoverConfig {
        base: ExactConfig {
            packing: PackingConfig {
                size: PackingSize::Fixed(3),
                max_trees: 3,
            },
            ..Default::default()
        },
        ..Default::default()
    }
    .with_plan(mincut_bench::chaos_plan());
    if let Some(handle) = obs {
        cfg = cfg.with_obs(handle.clone());
    }
    recover_mincut(&g, &cfg).expect("chaos instance must recover")
}

/// The rounds and messages the leader kill's healing costs: the aborted
/// attempt (the election, `init.deg` and the `mstA.l0` stump up to the
/// suspicion) plus the census.
const RECOVERY: (u64, u64) = (170, 4_022);

/// The canonical chaos instance's transport, as both runs must report
/// it: ledger totals, then the FNV-1a digest of [`sim_digest`].
const PINNED: [(&str, u64); 8] = [
    ("ticks", 18_387),
    ("ctrl_frames", 4_649_094),
    ("data_frames", 164_427),
    ("dropped", 239_564),
    ("duplicated", 110_845),
    ("retransmitted", 25_974),
    ("suspicions", 4),
    ("sim_digest", 0xC028_8103_85AA_D935),
];

/// Transport ticks allowed per virtual round of the chaos session.
const MAX_DILATION: u64 = 10;

/// 64-bit FNV-1a over every phase's name and [`SimPhaseStats`] fields
/// (inline: `DefaultHasher` is not stable across Rust releases). The
/// destructuring is exhaustive, so a new transport counter fails to
/// compile here instead of escaping the pin.
fn sim_digest(ledger: &MetricsLedger) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    };
    for p in ledger.phases() {
        let SimPhaseStats {
            phys_rounds,
            data_frames,
            ctrl_frames,
            retransmitted,
            dropped,
            duplicated,
            suspicions,
            false_suspicions,
            partitioned,
            corrupted,
        } = p.sim;
        eat(&(p.name.len() as u64).to_le_bytes());
        eat(p.name.as_bytes());
        for v in [
            phys_rounds,
            data_frames,
            ctrl_frames,
            retransmitted,
            dropped,
            duplicated,
            suspicions,
            false_suspicions,
            partitioned,
            corrupted,
        ] {
            eat(&v.to_le_bytes());
        }
    }
    h
}

/// The values [`PINNED`] names, read off `ledger`.
fn transport(ledger: &MetricsLedger) -> [(&'static str, u64); 8] {
    let sum = |f: fn(&SimPhaseStats) -> u64| ledger.phases().iter().map(|p| f(&p.sim)).sum();
    [
        ("ticks", ledger.total_phys_rounds()),
        ("ctrl_frames", sum(|s| s.ctrl_frames)),
        ("data_frames", sum(|s| s.data_frames)),
        ("dropped", ledger.total_dropped()),
        ("duplicated", ledger.total_duplicated()),
        ("retransmitted", ledger.total_retransmitted()),
        ("suspicions", sum(|s| s.suspicions)),
        ("sim_digest", sim_digest(ledger)),
    ]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut out = String::from("TRACE_chaos_torus24x24.json");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().expect("--out takes a path"),
            other => {
                eprintln!("unknown argument {other:?} (usage: trace_export [--out PATH])");
                std::process::exit(2);
            }
        }
    }

    // The undecorated baseline, then the observed run. The two wall
    // clocks quantify the cost of tracing on the real pipeline (the
    // docs quote them; the hard contracts below don't depend on them).
    let t = std::time::Instant::now();
    let plain = run(None);
    let plain_ms = t.elapsed().as_secs_f64() * 1e3;
    let obs = ObsHandle::new();
    let t = std::time::Instant::now();
    let observed = run(Some(&obs));
    let observed_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "wall clock: {plain_ms:.0} ms undecorated, {observed_ms:.0} ms observed ({:+.1}%)",
        100.0 * (observed_ms - plain_ms) / plain_ms
    );

    // Contract 1: the leader kill heals exactly, at its pinned cost.
    // The aborted phase is the last recovery row of epoch 1 before the
    // census.
    let ledger = &plain.ledger;
    let aborted = ledger
        .phases()
        .iter()
        .map(|p| p.name.as_str())
        .take_while(|name| !name.starts_with("census.e1."))
        .last();
    assert_eq!(
        aborted,
        Some("recover.e1.mstA.l0.hook"),
        "the leader kill drifted out of its phase; retune SMOKE_CRASHES"
    );
    let dead: Vec<usize> = plain.dead.iter().map(|v| v.index()).collect();
    assert_eq!(
        (plain.epochs, dead, plain.survivors.len()),
        (2, vec![0], 575)
    );
    assert_eq!((plain.cut.value, plain.oracle), (3, Some(3)));
    assert_eq!(ledger.total_false_suspicions(), 0);
    assert_eq!((plain.recovery_rounds, plain.recovery_messages), RECOVERY);
    println!(
        "healing: mstA.l0.hook aborted, λ = 3 over 575 survivors, {} of {} rounds and {} of {} messages",
        plain.recovery_rounds,
        plain.rounds,
        plain.recovery_messages,
        plain.messages
    );

    // Contract 2: zero observer effect, bit for bit.
    assert_eq!(
        (plain.cut.value, &plain.cut.side),
        (observed.cut.value, &observed.cut.side),
        "attaching a sink must not change the cut"
    );
    assert_eq!(
        ledger.phases(),
        observed.ledger.phases(),
        "attaching a sink must leave the ledger bit-identical"
    );
    println!(
        "observer effect: none ({} phases bit-identical)",
        ledger.phases().len()
    );

    // Contract 3: the profiler attributes >= 90% of the faulty
    // executor's wall time to named cost centers.
    let profile = obs.sink().profile();
    assert!(profile.total_ns > 0, "the faulty executor was profiled");
    assert!(
        profile.coverage() >= 0.9,
        "cost centers attribute {:.1}% of wall time, need >= 90%",
        100.0 * profile.coverage()
    );
    let mut centers: Vec<(CostCenter, u64)> = CostCenter::ALL
        .iter()
        .map(|&c| (c, profile.center_ns(c)))
        .collect();
    centers.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    println!(
        "profiler: {:.1}% of {:.1} ms attributed — {}",
        100.0 * profile.coverage(),
        profile.total_ns as f64 / 1e6,
        centers
            .iter()
            .filter(|&&(_, ns)| ns > 0)
            .map(|(c, ns)| format!(
                "{} {:.1}%",
                c.label(),
                100.0 * *ns as f64 / profile.total_ns as f64
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Contract 4: the transport schedule is the pinned one. Contract 2
    // already made the observed ledger equal the plain one.
    let got = transport(ledger);
    assert_eq!(
        got, PINNED,
        "the chaos instance's transport moved (got left, pinned right)"
    );
    println!(
        "transport: pinned ({})",
        got.iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Contract 5: the α-synchronizer's round dilation. The fault-free
    // floor is three ticks per virtual round (data → ack → safe
    // announcement); the plan's 5% drops at retransmit timeout 4 add
    // the rest, for 8.0× today. A lost piggybacking opportunity costs a
    // whole tick per round per phase and blows past the bound.
    let ticks = ledger.total_phys_rounds();
    assert!(
        ticks <= MAX_DILATION * plain.rounds,
        "{ticks} transport ticks for {} virtual rounds exceed {MAX_DILATION}x",
        plain.rounds
    );
    println!(
        "synchronizer: {ticks} ticks for {} virtual rounds ({:.2}x, bound {MAX_DILATION}x)",
        plain.rounds,
        ticks as f64 / plain.rounds as f64
    );

    // The artifact: export, strictly re-parse, check slice balance.
    let trace = export_chrome_trace(obs.sink());
    let root = json::parse(&trace).expect("exporter output must be strict JSON");
    let events = root
        .get("traceEvents")
        .and_then(json::Value::as_arr)
        .expect("traceEvents array");
    let mut depth: std::collections::BTreeMap<u64, i64> = std::collections::BTreeMap::new();
    let (mut slices, mut instants) = (0u64, 0u64);
    for e in events {
        let ph = e.get("ph").and_then(json::Value::as_str).expect("ph");
        let tid = e.get("tid").and_then(json::Value::as_f64).unwrap_or(0.0) as u64;
        match ph {
            "B" => *depth.entry(tid).or_default() += 1,
            "E" => {
                let d = depth.entry(tid).or_default();
                *d -= 1;
                assert!(*d >= 0, "E without a matching B on tid {tid}");
                slices += 1;
            }
            "i" => instants += 1,
            "M" => {}
            other => panic!("unexpected phase type {other:?}"),
        }
    }
    assert!(
        depth.values().all(|&d| d == 0),
        "unbalanced B/E pairs: {depth:?}"
    );
    let report = obs.sink().snapshot();
    std::fs::write(&out, &trace).expect("write trace artifact");
    println!(
        "wrote {out}: {} events ({slices} phase slices, {instants} instants, {} dropped from the ring)",
        events.len(),
        report.dropped
    );
}
