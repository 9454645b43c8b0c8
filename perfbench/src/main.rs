//! The repository benchmark's measuring binary.
//!
//! It runs one workload through the public pipeline entry points
//! (`mincut::dist::exact_mincut` and `recover_mincut`), certifies every
//! solve, and prints one JSON object (the last stdout line) with the
//! end-to-end metrics, the per-stem ledger totals and — with `--trace 1`
//! — the per-layer metrics of a separate traced pass. Layers are timed
//! from outside, around the calls into their public functions; no
//! library code is instrumented for the benchmark.
//!
//! ```text
//! perfbench --workload <large_sparse|packed_small|chaos_torus>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `perfbench/run.py` builds this binary, adds the machine fingerprint,
//! and reduces the object to the benchmark's result line.
//!
//! Clocks: `solve_s`, `setup_s` and the set-up layer times are on-CPU
//! seconds of the benchmark thread (see [`thread_cpu_s`]); every number
//! taken from the ledger or the obs sink — `engine.*`, `stem.*.wall_s`,
//! `driver.*`, `obs.traced_solve_s` — and `solve_wall_s` are wall-clock
//! seconds, as the library measures them.

use congest::obs::{json, CostCenter, Profile};
use congest::{ExecutorKind, MetricsLedger, Network, ObsHandle, PhaseSummary};
use graphs::{cut_of_side, generators, CutResult, WeightedGraph};
use mincut::dist::{exact_mincut, recover_mincut, ExactConfig, RecoverConfig};
use mincut::seq::{stoer_wagner, PackingConfig, PackingSize};
use std::collections::BTreeMap;
use std::time::Instant;

/// The pipeline's phase stems from `leader_bfs` through `side`, in
/// pipeline order. Fixed here (not read from the phase registry) so the
/// benchmark's metric names stay stable when the registry changes.
const STEMS: [&str; 19] = [
    "leader_bfs",
    "init",
    "mstA",
    "mstB",
    "orient",
    "s2a",
    "s2b",
    "s2c",
    "s3",
    "s4a",
    "s4b",
    "s5",
    "s5b",
    "s5c",
    "s5d",
    "s5e",
    "s5f",
    "s5g",
    "side",
];

/// Fewest set-ups per run; `setup_s` and the set-up layers report the
/// median.
const SETUP_REPEATS: usize = 5;

/// `Network::new` calls per instance in the traced pass (median kept).
const NETWORK_NEW_REPEATS: usize = 5;

/// Event-ring size of the traced pass: large enough that no workload
/// overwrites an event (the default ring drops some on `packed_small`).
const OBS_CAPACITY: usize = 1 << 23;

/// λ of `mincut_bench::large_n_graph()` by construction (Stoer–Wagner
/// takes minutes at that size; `tests/large_n.rs` certifies it).
const LARGE_LAMBDA: u64 = 6;

/// Phases with at most this many rounds count as short.
const SHORT_PHASE_ROUNDS: u64 = 2;

/// On-CPU seconds of the calling thread (`CLOCK_THREAD_CPUTIME_ID`).
/// On a virtual machine whose host steals vCPU time in bursts this
/// stays steady where wall time does not: the guest kernel charges
/// stolen time to no task. The standard library has no thread CPU
/// clock, hence the direct call into the C library it links anyway.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_s() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux); `clock_gettime` writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_s() -> Option<f64> {
    None
}

/// Wall and on-CPU time since `start`; CPU time falls back to wall
/// where the thread CPU clock is unavailable.
struct Stopwatch {
    wall: Instant,
    cpu: Option<f64>,
}

impl Stopwatch {
    fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: thread_cpu_s(),
        }
    }

    fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    fn cpu_s(&self) -> f64 {
        match (self.cpu, thread_cpu_s()) {
            (Some(a), Some(b)) => b - a,
            _ => self.wall_s(),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    LargeSparse,
    PackedSmall,
    ChaosTorus,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("large_sparse", Workload::LargeSparse),
    ("packed_small", Workload::PackedSmall),
    ("chaos_torus", Workload::ChaosTorus),
];

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
    }

    fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed")
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One graph the workload solves, with its reference λ.
struct Instance {
    name: &'static str,
    graph: WeightedGraph,
    /// Fixed packed-tree count, or `None` for the default packing.
    trees: Option<usize>,
    /// The reference λ the solve must return.
    lambda: u64,
    /// `chaos_torus` only: the graph the recovered cut lives on — the
    /// workload graph minus the killed node 0, ids shifted down by one.
    survivors: Option<WeightedGraph>,
}

/// A workload's inputs, built from the seed.
struct Inputs {
    instances: Vec<Instance>,
    plan: Option<congest::FaultPlan>,
}

/// Set-up on-CPU times of one repetition, seconds.
struct SetupTimes {
    total: f64,
    generate: f64,
    oracle: f64,
}

/// The workload's graphs and fault plan; seed 0 gives the canonical
/// chaos plan of `mincut_bench`, other seeds shift its fault seed.
fn generate_inputs(w: Workload, seed: u64) -> Inputs {
    let inst = |name, graph, trees| Instance {
        name,
        graph,
        trees,
        lambda: 0,
        survivors: None,
    };
    let instances = match w {
        Workload::LargeSparse => vec![inst("large_n", mincut_bench::large_n_graph(), Some(1))],
        Workload::PackedSmall => vec![
            inst(
                "torus32x32",
                generators::torus2d(32, 32).expect("valid torus"),
                None,
            ),
            inst(
                "clique_pair64",
                generators::clique_pair(64, 3)
                    .expect("valid clique pair")
                    .graph,
                None,
            ),
        ],
        Workload::ChaosTorus => vec![inst(
            "torus24x24",
            generators::torus2d(24, 24).expect("valid torus"),
            Some(3),
        )],
    };
    Inputs {
        instances,
        plan: (w == Workload::ChaosTorus).then(|| congest::FaultPlan {
            seed: mincut_bench::SMOKE_FAULTS.seed.wrapping_add(seed),
            ..mincut_bench::chaos_plan()
        }),
    }
}

/// The crash-free remainder of `g` after the plan kills node 0.
fn without_node_zero(g: &WeightedGraph) -> WeightedGraph {
    let edges = g
        .edge_tuples()
        .filter(|&(_, u, v, _)| u.index() != 0 && v.index() != 0)
        .map(|(_, u, v, w)| (u.raw() - 1, v.raw() - 1, w));
    WeightedGraph::from_edges(g.node_count() - 1, edges).expect("subgraph of a valid graph")
}

/// Fills in every instance's reference λ: Stoer–Wagner, except on the
/// large instance, whose λ is known by construction.
fn compute_references(w: Workload, inputs: &mut Inputs) {
    for inst in &mut inputs.instances {
        if w == Workload::LargeSparse {
            inst.lambda = LARGE_LAMBDA;
            continue;
        }
        let on = if w == Workload::ChaosTorus {
            inst.survivors.insert(without_node_zero(&inst.graph))
        } else {
            &inst.graph
        };
        inst.lambda = stoer_wagner(on).expect("connected instance").value;
    }
}

/// Generates the inputs and computes every reference λ, timing both.
fn setup(w: Workload, seed: u64) -> (Inputs, SetupTimes) {
    let t0 = Stopwatch::start();
    let mut inputs = generate_inputs(w, seed);
    let generate = t0.cpu_s();
    let t1 = Stopwatch::start();
    compute_references(w, &mut inputs);
    let oracle = t1.cpu_s();
    let times = SetupTimes {
        total: t0.cpu_s(),
        generate,
        oracle,
    };
    (inputs, times)
}

fn exact_config(inst: &Instance) -> ExactConfig {
    let packing = match inst.trees {
        Some(k) => PackingConfig {
            size: PackingSize::Fixed(k),
            max_trees: k,
        },
        None => PackingConfig::default(),
    };
    ExactConfig {
        packing,
        ..Default::default()
    }
    .with_executor(ExecutorKind::Serial)
}

fn recover_config(inst: &Instance, plan: &congest::FaultPlan) -> RecoverConfig {
    RecoverConfig {
        base: exact_config(inst),
        ..Default::default()
    }
    .with_plan(plan.clone())
}

/// The recovery accounting of one `recover_mincut` solve.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
struct RecoverStats {
    epochs: u64,
    census_rounds: u64,
    aborted_rounds: u64,
    wasted_messages: u64,
}

/// What one pass (one solve call per instance) produced.
struct Pass {
    /// Wall time inside the solve calls, seconds.
    wall_s: f64,
    /// On-CPU time inside the solve calls, seconds.
    cpu_s: f64,
    /// One ledger per successful solve.
    ledgers: Vec<MetricsLedger>,
    recover: RecoverStats,
    /// Solves attempted in the pass.
    attempted: u64,
    /// One line per failed solve (error, wrong value, or wrong side).
    failures: Vec<String>,
}

/// Checks a returned cut against the reference λ and recomputes the
/// returned side's value on `g`.
fn check_cut(name: &str, g: &WeightedGraph, cut: &CutResult, lambda: u64) -> Result<(), String> {
    if cut.value != lambda {
        return Err(format!(
            "{name}: λ = {} but the reference is {lambda}",
            cut.value
        ));
    }
    if !cut.is_proper() {
        return Err(format!("{name}: the returned side is not a proper cut"));
    }
    let recomputed = cut_of_side(g, &cut.side);
    if recomputed != cut.value {
        return Err(format!(
            "{name}: the returned side cuts {recomputed}, not the reported {}",
            cut.value
        ));
    }
    Ok(())
}

/// Runs every instance once. The traced pass passes a sink and records
/// one span per solve call.
fn solve_pass(inputs: &Inputs, obs: Option<&ObsHandle>, mut spans: Option<&mut Spans>) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        cpu_s: 0.0,
        ledgers: Vec::new(),
        recover: RecoverStats::default(),
        attempted: 0,
        failures: Vec::new(),
    };
    for inst in &inputs.instances {
        pass.attempted += 1;
        let span = spans.as_deref_mut().map(|s| s.open("solve"));
        let t = Stopwatch::start();
        let mut timed = || {
            pass.wall_s += t.wall_s();
            pass.cpu_s += t.cpu_s();
            if let (Some(s), Some(span)) = (spans.as_deref_mut(), span) {
                s.close(span);
            }
        };
        let checked = match &inputs.plan {
            None => {
                let mut cfg = exact_config(inst);
                if let Some(h) = obs {
                    cfg = cfg.with_obs(h.clone());
                }
                let r = exact_mincut(&inst.graph, &cfg);
                timed();
                r.map_err(|e| format!("{}: {e}", inst.name)).and_then(|r| {
                    check_cut(inst.name, &inst.graph, &r.cut, inst.lambda)?;
                    Ok(r.ledger)
                })
            }
            Some(plan) => {
                let mut cfg = recover_config(inst, plan);
                if let Some(h) = obs {
                    cfg = cfg.with_obs(h.clone());
                }
                let r = recover_mincut(&inst.graph, &cfg);
                timed();
                let survivors = inst.survivors.as_ref().expect("chaos set-up builds it");
                r.map_err(|e| format!("{}: {e}", inst.name)).and_then(|r| {
                    let dead: Vec<usize> = r.dead.iter().map(|v| v.index()).collect();
                    if dead != [0] {
                        return Err(format!("{}: dead = {dead:?}, expected [0]", inst.name));
                    }
                    if r.oracle != Some(inst.lambda) {
                        return Err(format!(
                            "{}: oracle {:?} disagrees with the reference {}",
                            inst.name, r.oracle, inst.lambda
                        ));
                    }
                    check_cut(inst.name, survivors, &r.cut, inst.lambda)?;
                    pass.recover = RecoverStats {
                        epochs: r.epochs as u64,
                        census_rounds: r.ledger.rounds_matching("census."),
                        aborted_rounds: r.ledger.rounds_matching("recover."),
                        wasted_messages: r.wasted_messages.iter().sum(),
                    };
                    Ok(r.ledger)
                })
            }
        };
        match checked {
            Ok(ledger) => pass.ledgers.push(ledger),
            Err(why) => pass.failures.push(why),
        }
    }
    pass
}

/// The deterministic counters of a pass: identical in every pass of a
/// run and between the traced and untraced passes.
#[derive(PartialEq, Debug)]
struct Counters {
    rounds: u64,
    messages: u64,
    bits: u64,
    ticks: u64,
    recovery_rounds: u64,
    /// (rounds, messages, bits) by phase stem.
    stems: BTreeMap<String, (u64, u64, u64)>,
}

fn counters(ledgers: &[MetricsLedger]) -> Counters {
    let sum = |f: &dyn Fn(&MetricsLedger) -> u64| ledgers.iter().map(f).sum::<u64>();
    let mut stems: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for l in ledgers {
        for (stem, g) in l.grouped_by_stem() {
            let e = stems.entry(stem).or_default();
            e.0 += g.rounds;
            e.1 += g.messages;
            e.2 += g.bits;
        }
    }
    Counters {
        rounds: sum(&MetricsLedger::total_rounds),
        messages: sum(&MetricsLedger::total_messages),
        bits: sum(&MetricsLedger::total_bits),
        ticks: sum(&MetricsLedger::total_phys_rounds),
        recovery_rounds: sum(&|l| l.rounds_matching("recover.") + l.rounds_matching("census.")),
        stems,
    }
}

/// Per-stem engine wall from the ledgers' own phase timings, seconds.
fn ledger_stem_walls(ledgers: &[MetricsLedger]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for l in ledgers {
        for (stem, _) in l.grouped_by_stem() {
            *out.entry(stem.clone()).or_insert(0.0) += l.wall_ms_of_stem(&stem) / 1e3;
        }
    }
    out
}

/// Per-stem engine wall from the traced pass's phase records, seconds,
/// attributed to the ledger's phase names. The recovery ledger renames
/// an aborted attempt's phases `recover.e{k}.<name>` while the sink
/// keeps `<name>`, and the sink also records the aborted phase itself,
/// which the ledger drops; the records are matched to ledger entries in
/// order. `None` when they cannot be matched one to one.
fn traced_stem_walls(
    ledgers: &[MetricsLedger],
    records: &[PhaseSummary],
) -> Option<BTreeMap<String, f64>> {
    let mut out = BTreeMap::new();
    let mut rec = records.iter();
    for p in ledgers.iter().flat_map(|l| l.phases()) {
        let hit = rec.find(|r| {
            r.rounds == p.rounds
                && (r.name == p.name
                    || (p.name.starts_with("recover.")
                        && p.name.ends_with(&format!(".{}", r.name))))
        })?;
        *out.entry(congest::phase::stem_of(&p.name).to_string())
            .or_insert(0.0) += hit.wall_ms / 1e3;
    }
    Some(out)
}

/// Counts the levels (or iterations) a stem ran: a new one starts
/// whenever `<stem>.<prefix><k>.*` changes `k` between consecutive
/// phases of that stem, or a phase of another stem intervenes.
fn count_levels(ledgers: &[MetricsLedger], stem: &str, prefix: char) -> u64 {
    let mut count = 0;
    for l in ledgers {
        let mut last: Option<&str> = None;
        for p in l.phases() {
            let mut parts = p.name.split('.');
            let level = (parts.next() == Some(stem))
                .then(|| parts.next())
                .flatten()
                .filter(|s| s.starts_with(prefix) && s[1..].chars().all(|c| c.is_ascii_digit()));
            if level.is_some() && level != last {
                count += 1;
            }
            last = level;
        }
    }
    count
}

/// Bench-side trace spans of the traced pass: name, start and end
/// (seconds from the pass's start) and the index of the causing span.
/// Span 0 is the whole traced pass and parents every other span; the
/// sink's phase records hang under their solve span, with durations but
/// no start times (the sink does not record them).
struct Spans {
    origin: Instant,
    spans: Vec<(&'static str, f64, f64, Option<usize>)>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: vec![("traced_pass", 0.0, 0.0, None)],
        }
    }

    fn open(&mut self, name: &'static str) -> usize {
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push((name, start, start, Some(0)));
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].2 = self.origin.elapsed().as_secs_f64();
    }

    fn json(&self, phases: &[(usize, PhaseSummary)]) -> String {
        let mut items: Vec<String> = self
            .spans
            .iter()
            .map(|(name, start, end, parent)| {
                format!(
                    "{{\"name\": {}, \"start_s\": {start}, \"end_s\": {end}, \"parent\": {}}}",
                    quote(name),
                    parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        items.extend(phases.iter().map(|(parent, p)| {
            format!(
                "{{\"name\": {}, \"dur_s\": {}, \"rounds\": {}, \"ticks\": {}, \"parent\": {parent}}}",
                quote(&p.name),
                num(p.wall_ms / 1e3),
                p.rounds,
                p.ticks
            )
        }));
        format!("[{}]", items.join(", "))
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn quote(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

/// A JSON number; non-finite values become `null` (a missing value,
/// never a fake 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// An ordered list of `name -> {value, unit}` metrics.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    num(*value),
                    quote(unit)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// Sim-layer totals over the ledgers.
fn sim_totals(ledgers: &[MetricsLedger]) -> congest::SimPhaseStats {
    let mut s = congest::SimPhaseStats::default();
    for l in ledgers {
        for p in l.phases() {
            s.data_frames += p.sim.data_frames;
            s.ctrl_frames += p.sim.ctrl_frames;
            s.retransmitted += p.sim.retransmitted;
            s.dropped += p.sim.dropped;
            s.duplicated += p.sim.duplicated;
            s.suspicions += p.sim.suspicions;
            s.false_suspicions += p.sim.false_suspicions;
        }
    }
    s
}

/// The traced pass: set-up, `Network::new` and one solve per instance
/// under spans, with an obs sink attached to the solves.
struct Traced {
    pass: Pass,
    spans: Spans,
    records: Vec<PhaseSummary>,
    /// Each phase record's solve span.
    record_parents: Vec<usize>,
    dropped: u64,
    profile: Profile,
    network_new_s: f64,
}

fn traced_pass(w: Workload, seed: u64) -> Traced {
    let mut spans = Spans::new();
    let span = spans.open("graphs.generate");
    let mut inputs = generate_inputs(w, seed);
    spans.close(span);
    let span = spans.open("seq.oracle");
    compute_references(w, &mut inputs);
    spans.close(span);
    let mut new_walls = Vec::new();
    for inst in &inputs.instances {
        let cfg = match &inputs.plan {
            None => exact_config(inst).network,
            Some(plan) => exact_config(inst).network.with_fault_plan(plan.clone()),
        };
        let mut walls = Vec::new();
        for _ in 0..NETWORK_NEW_REPEATS {
            let span = spans.open("engine.network_new");
            let t = Stopwatch::start();
            let net = Network::new(&inst.graph, cfg.clone()).expect("valid workload graph");
            walls.push(t.cpu_s());
            spans.close(span);
            drop(std::hint::black_box(net));
        }
        new_walls.push(median(&walls));
    }
    let obs = ObsHandle::with_capacity(OBS_CAPACITY);
    let first_solve = spans.spans.len();
    let pass = solve_pass(&inputs, Some(&obs), Some(&mut spans));
    spans.close(0);
    let report = obs.snapshot();
    // Each solve's records follow the previous solve's; a fresh
    // instance's first phase is its `leader_bfs`.
    let solves = first_solve..spans.spans.len();
    let mut parents = Vec::with_capacity(report.phases.len());
    let mut solve = solves.start;
    for (i, p) in report.phases.iter().enumerate() {
        if i > 0 && p.name == "leader_bfs" && solve + 1 < solves.end {
            solve += 1;
        }
        parents.push(solve);
    }
    Traced {
        pass,
        spans,
        records: report.phases,
        record_parents: parents,
        dropped: report.dropped,
        profile: report.profile,
        network_new_s: new_walls.iter().sum(),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;

    // Untraced passes for about `--seconds`: another pass starts while
    // at least half of it is expected to end inside the window, so the
    // pass count is the window over the pass time, rounded. Set-up runs
    // before every pass (each pass solves fresh inputs) and again after
    // the last until there are `SETUP_REPEATS`, so its median samples
    // the whole run rather than one moment of it.
    let mut times = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss = 0.0;
    let t = Instant::now();
    loop {
        let (inputs, times_now) = setup(w, args.seed);
        times.push(times_now);
        passes.push(solve_pass(&inputs, None, None));
        if passes.len() == 1 {
            // Later passes repeat the first one's allocations; reading the
            // peak here keeps heap fragmentation over a varying number of
            // passes out of it.
            peak_rss = peak_rss_mb();
        }
        let last = passes.last().expect("just pushed").wall_s;
        if t.elapsed().as_secs_f64() + last / 2.0 > args.seconds {
            break;
        }
    }
    while times.len() < SETUP_REPEATS {
        times.push(setup(w, args.seed).1);
    }
    let setup_s = median(&times.iter().map(|t| t.total).collect::<Vec<_>>());
    let generate_s = median(&times.iter().map(|t| t.generate).collect::<Vec<_>>());
    let oracle_s = median(&times.iter().map(|t| t.oracle).collect::<Vec<_>>());
    let traced = args.trace.then(|| traced_pass(w, args.seed));

    // Certification and determinism.
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    for p in passes.iter().chain(traced.as_ref().map(|t| &t.pass)) {
        attempted += p.attempted;
        failed += p.failures.len() as u64;
        failures.extend(p.failures.iter().cloned());
    }
    let reference = counters(&passes[0].ledgers);
    let reference_recover = passes[0].recover;
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.failures.is_empty()
            && (counters(&p.ledgers) != reference || p.recover != reference_recover)
        {
            failed += p.attempted;
            failures.push(format!("pass {i}: counters differ from pass 0"));
        }
    }
    if let Some(tr) = &traced {
        if tr.pass.failures.is_empty()
            && (counters(&tr.pass.ledgers) != reference || tr.pass.recover != reference_recover)
        {
            failed += tr.pass.attempted;
            failures.push("traced pass: counters differ from the untraced passes".to_string());
        }
    }
    let correct = failed == 0;

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    let solve_s = median(&cpus);
    let solve_wall_s = median(&walls);
    let base = &passes[0].ledgers;

    let mut e2e = Metrics::default();
    e2e.put("solve_s", solve_s, "s");
    e2e.put("setup_s", setup_s, "s");
    e2e.put("peak_rss_mb", peak_rss, "MiB");
    e2e.put("rounds", reference.rounds as f64, "count");
    e2e.put("messages", reference.messages as f64, "count");
    e2e.put("bits", reference.bits as f64, "count");
    e2e.put("ticks", reference.ticks as f64, "count");

    // Per-stem table: counters from the ledger; walls from the ledgers'
    // own timings, or — where the recovery driver leaves them at 0 —
    // from the traced pass's phase records (missing without one).
    let untraced_phase_s = (w != Workload::ChaosTorus).then(|| {
        median(
            &passes
                .iter()
                .map(|p| p.ledgers.iter().map(|l| l.total_wall_ms() / 1e3).sum())
                .collect::<Vec<f64>>(),
        )
    });
    let stem_walls: Option<BTreeMap<String, f64>> = if w != Workload::ChaosTorus {
        let per_pass: Vec<BTreeMap<String, f64>> = passes
            .iter()
            .map(|p| ledger_stem_walls(&p.ledgers))
            .collect();
        Some(
            per_pass[0]
                .keys()
                .map(|stem| {
                    let xs: Vec<f64> = per_pass
                        .iter()
                        .map(|m| m.get(stem).copied().unwrap_or(0.0))
                        .collect();
                    (stem.clone(), median(&xs))
                })
                .collect(),
        )
    } else {
        traced
            .as_ref()
            .and_then(|t| traced_stem_walls(&t.pass.ledgers, &t.records))
    };
    let totals = &reference.stems;
    // Pipeline stems in pipeline order, then the recovery stems.
    let mut ordered: Vec<(&String, &(u64, u64, u64))> = totals.iter().collect();
    ordered.sort_by_key(|(stem, _)| STEMS.iter().position(|s| s == stem).unwrap_or(STEMS.len()));
    let stems_json: Vec<String> = ordered
        .into_iter()
        .map(|(stem, (rounds, messages, bits))| {
            let wall = stem_walls
                .as_ref()
                .map_or(f64::NAN, |m| m.get(stem).copied().unwrap_or(0.0));
            format!(
                "{}: {{\"rounds\": {rounds}, \"messages\": {messages}, \"bits\": {bits}, \"wall_s\": {}}}",
                quote(stem),
                num(wall)
            )
        })
        .collect();

    let mut layers = Metrics::default();
    let mut spans_json = "null".to_string();
    if let Some(tr) = &traced {
        let traced_solve_s = tr.pass.wall_s;
        let traced_phase_s: f64 = tr.records.iter().map(|r| r.wall_ms / 1e3).sum();
        // Phases are timed by wall clock, so the glue identity
        // `driver.glue_s + engine.phase_s == <solve wall>` holds against
        // the untraced `solve_wall_s` where the ledger times phases, and
        // against the traced pass (`obs.traced_solve_s`) where it cannot.
        let (phase_s, glue_basis) = match untraced_phase_s {
            Some(p) => (p, solve_wall_s),
            None => (traced_phase_s, traced_solve_s),
        };
        let sim = sim_totals(base);
        layers.put("solve_wall_s", solve_wall_s, "s");
        layers.put("graphs.generate_s", generate_s, "s");
        layers.put("seq.oracle_s", oracle_s, "s");
        layers.put("engine.network_new_s", tr.network_new_s, "s");
        layers.put("engine.phase_s", phase_s, "s");
        layers.put(
            "engine.phases",
            base.iter().map(|l| l.phases().len()).sum::<usize>() as f64,
            "count",
        );
        layers.put(
            "engine.us_per_round",
            1e6 * ratio(phase_s, reference.rounds as f64),
            "us",
        );
        layers.put(
            "engine.ns_per_message",
            1e9 * ratio(phase_s, reference.messages as f64),
            "ns",
        );
        let short: Vec<&PhaseSummary> = tr
            .records
            .iter()
            .filter(|r| r.rounds <= SHORT_PHASE_ROUNDS)
            .collect();
        layers.put("engine.short_phases", short.len() as f64, "count");
        layers.put(
            "engine.short_phase_s",
            short.iter().map(|r| r.wall_ms / 1e3).sum(),
            "s",
        );
        layers.put("driver.glue_s", glue_basis - phase_s, "s");
        layers.put(
            "driver.glue_share",
            ratio(glue_basis - phase_s, glue_basis),
            "ratio",
        );
        for stem in STEMS {
            let (rounds, messages, _) = totals.get(stem).copied().unwrap_or_default();
            let wall = stem_walls
                .as_ref()
                .map_or(f64::NAN, |m| m.get(stem).copied().unwrap_or(0.0));
            layers.put(format!("stem.{stem}.wall_s"), wall, "s");
            layers.put(format!("stem.{stem}.messages"), messages as f64, "count");
            layers.put(format!("stem.{stem}.rounds"), rounds as f64, "count");
        }
        layers.put(
            "mst.a_levels",
            count_levels(base, "mstA", 'l') as f64,
            "count",
        );
        layers.put(
            "mst.b_iters",
            count_levels(base, "mstB", 'i') as f64,
            "count",
        );
        layers.put(
            "sim.us_per_tick",
            1e6 * ratio(phase_s, reference.ticks as f64),
            "us",
        );
        layers.put(
            "sim.overhead",
            ratio(reference.ticks as f64, reference.rounds as f64),
            "ratio",
        );
        for (name, v) in [
            ("dropped", sim.dropped),
            ("retransmitted", sim.retransmitted),
            ("duplicated", sim.duplicated),
            ("data_frames", sim.data_frames),
            ("ctrl_frames", sim.ctrl_frames),
            ("suspicions", sim.suspicions),
            ("false_suspicions", sim.false_suspicions),
        ] {
            layers.put(format!("sim.{name}"), v as f64, "count");
        }
        for c in CostCenter::ALL {
            layers.put(
                format!("sim.cc.{}_s", c.label()),
                tr.profile.center_ns(c) as f64 / 1e9,
                "s",
            );
        }
        layers.put("sim.cc.coverage", tr.profile.coverage(), "ratio");
        let r = reference_recover;
        layers.put("recover.epochs", r.epochs as f64, "count");
        layers.put("recover.census_rounds", r.census_rounds as f64, "count");
        layers.put("recover.aborted_rounds", r.aborted_rounds as f64, "count");
        layers.put("recover.wasted_messages", r.wasted_messages as f64, "count");
        layers.put("recovery_rounds", reference.recovery_rounds as f64, "count");
        layers.put("obs.traced_solve_s", traced_solve_s, "s");
        layers.put(
            "obs.overhead_share",
            ratio(tr.pass.cpu_s, solve_s) - 1.0,
            "ratio",
        );
        layers.put("obs.dropped_events", tr.dropped as f64, "count");
        let phases: Vec<(usize, PhaseSummary)> = tr
            .record_parents
            .iter()
            .copied()
            .zip(tr.records.iter().cloned())
            .collect();
        spans_json = tr.spans.json(&phases);
    }

    let list = |xs: &[f64]| xs.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", ");
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"failures\": [{}], \"passes\": {}, \"pass_walls_s\": [{}], \"pass_cpu_s\": [{}], \
         \"end_to_end\": {}, \"per_layer\": {}, \"stems\": {{{}}}, \"spans\": {}}}",
        quote(w.name()),
        args.seed,
        num(args.seconds),
        args.trace,
        failures
            .iter()
            .map(|f| quote(f))
            .collect::<Vec<_>>()
            .join(", "),
        passes.len(),
        list(&walls),
        list(&cpus),
        e2e.json(),
        if args.trace {
            layers.json()
        } else {
            "null".to_string()
        },
        stems_json.join(", "),
        spans_json,
    );
}
