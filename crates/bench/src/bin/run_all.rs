//! Runs every experiment (E1–E10) in sequence — the full evaluation.
//!
//! ```text
//! cargo run --release -p mincut-bench --bin run_all | tee results.md
//! ```

use std::process::Command;

fn main() {
    let bins = [
        "e1_correctness",
        "e2_scaling",
        "e3_lambda",
        "e4_approx",
        "e5_lowerbound",
        "e6_congestion",
        "e7_onerespect",
        "e8_ablation",
        "e9_baselines",
        "e10_two_respect",
    ];
    println!("# Distributed min-cut reproduction — full evaluation\n");
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    for bin in bins {
        let path = dir.join(bin);
        let out = Command::new(&path)
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", path.display()));
        print!("{}", String::from_utf8_lossy(&out.stdout));
        if !out.status.success() {
            eprintln!("{bin} FAILED:\n{}", String::from_utf8_lossy(&out.stderr));
            std::process::exit(1);
        }
    }
}
