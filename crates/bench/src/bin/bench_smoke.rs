//! Serial versus parallel wall time of the exact pipeline on the
//! 70,602-node instance ([`mincut_bench::large_n_graph`], one packed
//! tree, the run `tests/large_n.rs` pins), written to
//! `BENCH_rounds.json`, which the large-n CI job uploads. Rounds,
//! messages and the cut do not depend on the executor (the parity
//! suites assert it, and so does this bin), so the two rows differ in
//! wall time and in the parallel row's per-worker utilization, which
//! its observed run's [`congest::obs::Profile`] records. The counters
//! and per-stem walls of every workload are perfbench's to record, and
//! the faulty transport's `trace_export`'s.

use congest::{ExecutorKind, ObsHandle};
use mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut::seq::tree_packing::{PackingConfig, PackingSize};
use std::time::Instant;

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: bench_smoke (it takes no arguments)");
        std::process::exit(2);
    }
    let g = mincut_bench::large_n_graph();
    let mut rows = Vec::new();
    let mut counters = Vec::new();
    for (name, executor) in [
        ("serial", ExecutorKind::Serial),
        ("parallel", ExecutorKind::Parallel { threads: 4 }),
    ] {
        let threads = executor.effective_threads();
        let mut cfg = ExactConfig {
            packing: PackingConfig {
                size: PackingSize::Fixed(1),
                max_trees: 1,
            },
            ..Default::default()
        }
        .with_executor(executor);
        // The serial row stays undecorated: it is the baseline wall.
        let obs = (threads > 1).then(ObsHandle::new);
        if let Some(handle) = &obs {
            cfg = cfg.with_obs(handle.clone());
        }
        let t = Instant::now();
        let r = exact_mincut(&g, &cfg).expect("the large instance must run");
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let workers = obs.map_or_else(Vec::new, |h| h.sink().profile().workers);
        let total_nodes: u64 = workers.iter().map(|w| w.nodes).sum();
        println!(
            "{name} (threads: {threads}): {wall_ms:.0} ms, {} rounds, {} messages, cut {}, worker node shares [{}]",
            r.rounds,
            r.messages,
            r.cut.value,
            workers
                .iter()
                .map(|w| format!("{:.1}%", 100.0 * w.nodes as f64 / total_nodes.max(1) as f64))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let cells: Vec<String> = workers
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
        rows.push(format!(
            "    {{\"instance\": \"large_n_torus3d\", \"executor\": \"{name}\", \"threads\": {threads}, \"n\": {}, \"rounds\": {}, \"messages\": {}, \"cut\": {}, \"workers\": [{}], \"wall_ms\": {wall_ms:.3}}}",
            g.node_count(),
            r.rounds,
            r.messages,
            r.cut.value,
            cells.join(", ")
        ));
        counters.push((r.rounds, r.messages, r.cut.value));
    }
    assert_eq!(
        counters[0], counters[1],
        "serial and parallel runs must agree on rounds, messages and the cut"
    );
    // Hand-rolled JSON: the workspace's serde is an offline stub.
    let json = format!("{{\n  \"samples\": [\n{}\n  ]\n}}\n", rows.join(",\n"));
    std::fs::write("BENCH_rounds.json", &json).expect("write BENCH_rounds.json");
    println!("wrote BENCH_rounds.json");
}
