//! Every package of the workspace inherits the workspace lints, so the
//! root manifest's `unsafe_code = "forbid"` reaches every library, bin,
//! test and example, including those of a crate added later.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Does the manifest's `header` table hold the line `entry`?
fn table_has(manifest: &str, header: &str, entry: &str) -> bool {
    let mut lines = manifest.lines().map(str::trim);
    lines.any(|l| l == header)
        && lines
            .take_while(|l| !l.starts_with('['))
            .any(|l| l == entry)
}

/// The paths in the root manifest's `members = [...]` list.
fn members(root_manifest: &str) -> Vec<&str> {
    let list = &root_manifest[root_manifest.find("members = [").expect("a members list")..];
    list[list.find('[').unwrap() + 1..list.find(']').unwrap()]
        .split(',')
        .map(|m| m.trim().trim_matches('"'))
        .filter(|m| !m.is_empty())
        .collect()
}

/// Every `Cargo.toml` below `dir`: a crate placed there becomes a member
/// as soon as a member depends on it by path, listed or not.
fn manifests_under(dir: &Path, out: &mut BTreeSet<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() && !path.ends_with("target") {
            manifests_under(&path, out);
        } else if path.ends_with("Cargo.toml") {
            out.insert(path);
        }
    }
}

#[test]
fn every_workspace_package_inherits_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root_manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap();
    assert!(
        table_has(
            &root_manifest,
            "[workspace.lints.rust]",
            "unsafe_code = \"forbid\""
        ),
        "the workspace lints must forbid `unsafe`"
    );
    let mut manifests: BTreeSet<PathBuf> = members(&root_manifest)
        .into_iter()
        .map(|m| root.join(m).join("Cargo.toml"))
        .collect();
    manifests_under(&root.join("crates"), &mut manifests);
    manifests.insert(root.join("Cargo.toml"));
    for path in &manifests {
        let text = fs::read_to_string(path).unwrap();
        assert!(
            table_has(&text, "[lints]", "workspace = true"),
            "{} lacks `[lints] workspace = true`",
            path.display()
        );
    }
}
