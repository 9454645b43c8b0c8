//! End-to-end tests for the `congest_lint` binary: clean on the real
//! workspace, and every rule firing on the seeded fixture tree.

use std::path::Path;
use std::process::Command;

fn run_lint(root: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_congest_lint"))
        .arg("--root")
        .arg(root)
        .output()
        .expect("congest_lint runs");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf8 stdout"),
    )
}

#[test]
fn the_real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let (code, stdout) = run_lint(root);
    assert_eq!(code, 0, "violations:\n{stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn the_fixture_tree_trips_every_rule() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad_ws");
    let (code, stdout) = run_lint(&root);
    assert_eq!(code, 1, "must fail on the fixture tree:\n{stdout}");

    let count = |rule: &str| {
        stdout
            .lines()
            .filter(|l| l.contains(&format!("[{rule}]")))
            .count()
    };
    assert_eq!(count("unsafe-allowlist"), 2, "{stdout}");
    assert_eq!(count("phase-registry"), 7, "{stdout}");
    assert_eq!(count("determinism"), 6, "{stdout}");
    assert_eq!(count("stub-drift"), 3, "{stdout}");
    assert!(stdout.contains("18 violation(s)"), "{stdout}");

    // Findings are sorted by (file, line) — stable output for CI diffing.
    let locs: Vec<(&str, usize)> = stdout
        .lines()
        .filter(|l| l.contains(": ["))
        .map(|l| {
            let mut parts = l.splitn(3, ':');
            let file = parts.next().unwrap();
            let line = parts.next().unwrap().parse().unwrap();
            (file, line)
        })
        .collect();
    let mut sorted = locs.clone();
    sorted.sort();
    assert_eq!(locs, sorted);
}

#[test]
fn unknown_arguments_are_usage_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_congest_lint"))
        .arg("--frobnicate")
        .output()
        .expect("congest_lint runs");
    assert_eq!(out.status.code(), Some(2));
}
