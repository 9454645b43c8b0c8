//! The workspace invariant lints behind the `congest_lint` binary.
//!
//! Each lint enforces a convention that carries real correctness weight
//! but that `rustc` cannot check:
//!
//! * **`unsafe-allowlist`** — no file the lint walks contains the
//!   `unsafe` keyword. Every library crate root is
//!   `#![forbid(unsafe_code)]`; the lint extends that to the bins,
//!   tests and examples a crate-level attribute does not reach, and to
//!   future crates.
//! * **`phase-registry`** — every phase-name string literal in the
//!   pipeline (`crates/core/src`) and the CI gates (`crates/bench/src`)
//!   parses under the `stem.sub` grammar and carries a stem registered
//!   in [`congest::phase::REGISTERED_STEMS`]; `format!`-built names are
//!   checked with their holes substituted, and prefix matchers
//!   (`messages_matching`, `starts_with`) must prefix a registered
//!   stem. A typo'd stem silently falls out of the metrics aggregation
//!   and the message/chaos budget gates — this is the lint that makes
//!   that a build failure instead.
//! * **`determinism`** — replay-exact code paths ([`replay_exact`]:
//!   `sim/`, `dist/`, and the CONGEST primitives under
//!   `crates/congest/src/primitives/`) must not use wall-clock time,
//!   hash-order iteration, or ambient randomness
//!   ([`DETERMINISM_BANNED`]); those paths back the fault injector's
//!   byte-for-byte reproducibility claims, and the primitives' streams
//!   run inside its replays.
//! * **`stub-drift`** — the offline dependency stand-ins under
//!   `crates/stubs/` stay in sync with their README contract: every
//!   stub crate has a README row, every README-documented item exists
//!   in the stub's source, and every stub-exported item the workspace
//!   actually consumes is documented.

use crate::scan::{code_words, lex, Piece};
use congest::phase;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Identifiers banned in replay-exact paths ([`replay_exact`]):
/// hash-order iteration and wall-clock/entropy sources.
pub const DETERMINISM_BANNED: &[&str] = &[
    "HashMap",
    "HashSet",
    "Instant",
    "SystemTime",
    "thread_rng",
    "from_entropy",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Which lint fired (stable kebab-case id).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Runs every lint over the workspace rooted at `root` and returns the
/// findings sorted by file and line. Directories named `target`, `.git`,
/// or `fixtures` are skipped (the last holds this crate's deliberately
/// violating test inputs).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for top in ["src", "crates", "examples", "tests", "benches"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut sources = Vec::new();
    for path in &files {
        let rel = rel_path(root, path);
        let pieces = lex(&fs::read_to_string(path)?);
        sources.push((rel, pieces));
    }

    let mut out = Vec::new();
    for (rel, pieces) in &sources {
        unsafe_lints(rel, pieces, &mut out);
        if replay_exact(rel) {
            determinism_lints(rel, pieces, &mut out);
        }
        if rel.starts_with("crates/core/src/") || rel.starts_with("crates/bench/src/") {
            phase_lints(rel, pieces, &mut out);
        }
    }
    stub_lints(root, &sources, &mut out)?;

    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

// ---------------------------------------------------------------------
// unsafe-allowlist
// ---------------------------------------------------------------------

fn unsafe_lints(rel: &str, pieces: &[Piece], out: &mut Vec<Violation>) {
    let mut unsafe_lines: Vec<usize> = code_words(pieces)
        .into_iter()
        .filter(|w| w.text == "unsafe")
        .map(|w| w.line)
        .collect();
    unsafe_lines.dedup();
    for line in unsafe_lines {
        out.push(Violation {
            file: rel.to_string(),
            line,
            rule: "unsafe-allowlist",
            msg: "`unsafe` in the workspace: no file may use it".to_string(),
        });
    }
}

// ---------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------

/// Is the workspace-relative file `rel` on a replay-exact path: the
/// faulty executor (`sim/`), the distributed pipeline (`dist/`), or the
/// CONGEST primitives whose streams both of them replay?
pub fn replay_exact(rel: &str) -> bool {
    rel.contains("/sim/")
        || rel.contains("/dist/")
        || rel.starts_with("crates/congest/src/primitives/")
}

fn determinism_lints(rel: &str, pieces: &[Piece], out: &mut Vec<Violation>) {
    for w in code_words(pieces) {
        if DETERMINISM_BANNED.contains(&w.text.as_str()) {
            out.push(Violation {
                file: rel.to_string(),
                line: w.line,
                rule: "determinism",
                msg: format!(
                    "`{}` in a replay-exact path (sim/, dist/, primitives/): use \
                     BTree* collections, metered virtual time, and seeded RNG instead",
                    w.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// phase-registry
// ---------------------------------------------------------------------

/// Does `ctx` (whitespace-stripped code context) end with `pat` as a
/// word — i.e. not as the tail of a longer identifier? A `pat` whose
/// first character is not a letter/digit is self-bounding: `.run(`
/// cannot be the tail of a longer identifier, and `_matching(` is
/// *deliberately* an identifier-suffix pattern (matching
/// `messages_matching(`), so those skip the boundary check.
fn ends_with_word(ctx: &str, pat: &str) -> bool {
    if !ctx.ends_with(pat) {
        return false;
    }
    !pat.chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric())
        || ctx[..ctx.len() - pat.len()]
            .chars()
            .next_back()
            .is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'))
}

/// Replaces every `{…}` format hole with `x0`, `x1`, … . Escaped braces
/// (`{{`/`}}`) are left in place — they make the result grammar-invalid,
/// which correctly excludes the literal from phase checking.
fn subst_holes(s: &str) -> String {
    let mut result = String::new();
    let mut n = 0usize;
    let b = s.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'{' {
            if b.get(i + 1) == Some(&b'{') {
                result.push('{');
                i += 2;
                continue;
            }
            let mut j = i + 1;
            while j < b.len() && b[j] != b'}' {
                j += 1;
            }
            result.push_str(&format!("x{n}"));
            n += 1;
            i = j + 1;
        } else if b[i] == b'}' && b.get(i + 1) == Some(&b'}') {
            result.push('}');
            i += 2;
        } else {
            result.push(b[i] as char);
            i += 1;
        }
    }
    result
}

fn phase_lints(rel: &str, pieces: &[Piece], out: &mut Vec<Violation>) {
    let mut ctx = String::new();
    for p in pieces {
        match p {
            Piece::Comment { .. } => {}
            Piece::Code { text, .. } => {
                ctx.extend(text.chars().filter(|c| !c.is_whitespace()));
                if ctx.len() > 64 {
                    // Keep only the tail (nudged up to a char boundary
                    // for the rare non-ASCII code char).
                    let mut cut = ctx.len() - 64;
                    while !ctx.is_char_boundary(cut) {
                        cut += 1;
                    }
                    ctx.drain(..cut);
                }
            }
            Piece::Str { text, line } => {
                if ends_with_word(&ctx, ".run(") || ends_with_word(&ctx, ".run_with(") {
                    // A phase name passed directly to Network::run (the
                    // method-call form — a bare `run("…")` is some local
                    // helper whose argument is not a phase name).
                    if !phase::is_registered(text) {
                        out.push(Violation {
                            file: rel.to_string(),
                            line: *line,
                            rule: "phase-registry",
                            msg: format!(
                                "phase name {text:?} is not grammar-valid with a stem \
                                 registered in congest::phase::REGISTERED_STEMS"
                            ),
                        });
                    }
                } else if ends_with_word(&ctx, "format!(") {
                    // A format template. Only judge it when it is
                    // phase-shaped: dotted, grammar-valid after hole
                    // substitution, and with a hole-free stem (a hole in
                    // the stem position is not statically checkable).
                    let stem_text = text.split('.').next().unwrap_or(text);
                    let subst = subst_holes(text);
                    if subst.contains('.')
                        && !stem_text.contains('{')
                        && phase::is_valid_name(&subst)
                        && !phase::is_registered(&subst)
                    {
                        out.push(Violation {
                            file: rel.to_string(),
                            line: *line,
                            rule: "phase-registry",
                            msg: format!(
                                "format template {text:?} builds a phase name whose stem \
                                 {stem_text:?} is not in congest::phase::REGISTERED_STEMS"
                            ),
                        });
                    }
                } else if ends_with_word(&ctx, ".obs_emit(") {
                    // An obs stage-marker event name. Event names share
                    // the phase grammar and registry (the `transport`
                    // stem exists for the executor's own events), so a
                    // typo'd marker is caught exactly like a typo'd
                    // phase.
                    if !phase::is_registered(text) {
                        out.push(Violation {
                            file: rel.to_string(),
                            line: *line,
                            rule: "phase-registry",
                            msg: format!(
                                "obs event name {text:?} is not grammar-valid with a stem \
                                 registered in congest::phase::REGISTERED_STEMS"
                            ),
                        });
                    }
                } else if ends_with_word(&ctx, "_matching(")
                    || ends_with_word(&ctx, ".starts_with(")
                {
                    // A phase-name prefix used by the metrics gates. It
                    // must be a (possibly partial) prefix of a registered
                    // name: dot-terminated prefixes must parse, and the
                    // first segment must prefix a registered stem.
                    let trimmed = text.trim_end_matches('.');
                    let first = trimmed.split('.').next().unwrap_or(trimmed);
                    let ok = !trimmed.is_empty()
                        && phase::is_valid_name(trimmed)
                        && phase::REGISTERED_STEMS.iter().any(|s| s.starts_with(first));
                    if !ok {
                        out.push(Violation {
                            file: rel.to_string(),
                            line: *line,
                            rule: "phase-registry",
                            msg: format!(
                                "phase prefix {text:?} does not prefix any stem in \
                                 congest::phase::REGISTERED_STEMS"
                            ),
                        });
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// stub-drift
// ---------------------------------------------------------------------

/// A `pub` item exported at non-`impl` scope, or a `macro_rules!` macro.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubItem {
    /// Item kind keyword (`fn`, `struct`, `trait`, …, or `macro`).
    pub kind: String,
    /// Item name.
    pub name: String,
}

/// Extracts the exported surface of a stub source file: `pub` items
/// outside `impl` blocks (methods are reached through their types, so
/// the type name is the documented unit) plus `macro_rules!` macros.
pub fn extract_pub_items(pieces: &[Piece]) -> Vec<PubItem> {
    const ITEM_KINDS: &[&str] = &["fn", "struct", "trait", "enum", "type", "const", "static"];
    let mut items = Vec::new();
    let mut depth = 0usize;
    let mut impl_regions: Vec<usize> = Vec::new();
    let mut pending_impl = false;
    let mut pending_fn = false;
    // `Some(kind)` after `pub <kind>`, waiting for the name.
    let mut awaiting_name: Option<String> = None;
    let mut awaiting_macro_name = false;
    let mut pub_pending = false;

    for p in pieces {
        let Piece::Code { text, .. } = p else {
            continue;
        };
        let b = text.as_bytes();
        let mut i = 0;
        while i < b.len() {
            let c = b[i];
            if c.is_ascii_alphabetic() || c == b'_' {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let word = &text[start..i];
                if awaiting_macro_name {
                    items.push(PubItem {
                        kind: "macro".to_string(),
                        name: word.to_string(),
                    });
                    awaiting_macro_name = false;
                    // Suppress the macro *body* like an impl block: a
                    // `pub fn $name()` template inside it is not a real
                    // export of the enclosing module.
                    pending_impl = true;
                } else if let Some(kind) = awaiting_name.take() {
                    items.push(PubItem {
                        kind,
                        name: word.to_string(),
                    });
                } else {
                    match word {
                        "pub" => {
                            // `pub(crate)`/`pub(super)` are not exported
                            // surface; peek for the restriction.
                            let mut j = i;
                            while j < b.len() && b[j].is_ascii_whitespace() {
                                j += 1;
                            }
                            pub_pending = b.get(j) != Some(&b'(');
                        }
                        "macro_rules" => awaiting_macro_name = true,
                        "impl" if !pending_fn => pending_impl = true,
                        "fn" => {
                            if pub_pending && impl_regions.is_empty() {
                                awaiting_name = Some("fn".to_string());
                            }
                            pending_fn = true;
                            pub_pending = false;
                        }
                        k if ITEM_KINDS.contains(&k) => {
                            if pub_pending && impl_regions.is_empty() {
                                awaiting_name = Some(k.to_string());
                            }
                            pub_pending = false;
                        }
                        "use" | "mod" => pub_pending = false,
                        _ => {}
                    }
                }
            } else {
                match c {
                    b'{' => {
                        if pending_impl {
                            impl_regions.push(depth);
                            pending_impl = false;
                        }
                        pending_fn = false;
                        depth += 1;
                    }
                    b'}' => {
                        depth = depth.saturating_sub(1);
                        if impl_regions.last() == Some(&depth) {
                            impl_regions.pop();
                        }
                    }
                    b';' => {
                        pending_impl = false;
                        pending_fn = false;
                    }
                    b'!' if awaiting_macro_name => {} // macro_rules! name
                    _ => {}
                }
                i += 1;
            }
        }
    }
    items
}

/// The backticked identifier chunks of one README table row:
/// `` `SeedableRng::seed_from_u64` `` yields `SeedableRng` and
/// `seed_from_u64`; `` `prop_assert*` `` yields the prefix pattern
/// `prop_assert*`.
fn row_chunks(row: &str) -> Vec<String> {
    let mut chunks = Vec::new();
    for (idx, span) in row.split('`').enumerate() {
        if idx % 2 == 0 {
            continue; // outside backticks
        }
        let mut cur = String::new();
        for ch in span.chars() {
            if ch.is_ascii_alphanumeric() || ch == '_' || ch == '*' {
                cur.push(ch);
            } else if !cur.is_empty() {
                chunks.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            chunks.push(cur);
        }
    }
    chunks
}

/// Does `name` match any documented chunk — exactly, or via a starred
/// prefix pattern (`prop_assert*` matches `prop_assert_eq`)?
fn documented(chunks: &[String], name: &str) -> bool {
    chunks.iter().any(|c| {
        if let Some(prefix) = c.strip_suffix('*') {
            !prefix.is_empty() && name.starts_with(prefix)
        } else {
            c == name
        }
    })
}

fn stub_lints(
    root: &Path,
    sources: &[(String, Vec<Piece>)],
    out: &mut Vec<Violation>,
) -> io::Result<()> {
    let stubs_dir = root.join("crates/stubs");
    let readme_path = stubs_dir.join("README.md");
    if !stubs_dir.is_dir() || !readme_path.is_file() {
        return Ok(()); // Nothing to check (e.g. a lint-test fixture tree).
    }
    let readme_rel = rel_path(root, &readme_path);
    let readme = fs::read_to_string(&readme_path)?;

    // Table rows: `| `name` | … |`, keyed by the first backticked chunk.
    let mut rows: BTreeMap<String, (usize, Vec<String>)> = BTreeMap::new();
    for (i, line) in readme.lines().enumerate() {
        let t = line.trim();
        if !t.starts_with('|') || t.contains("---") || !t.contains('`') {
            continue;
        }
        let chunks = row_chunks(t);
        if let Some((name, rest)) = chunks.split_first() {
            if name == "stub" {
                continue; // header row
            }
            rows.insert(name.clone(), (i + 1, rest.to_vec()));
        }
    }

    // The words used anywhere in the workspace outside the stubs — the
    // consumers whose imports the README must describe.
    let mut used_words: BTreeSet<&str> = BTreeSet::new();
    for (rel, pieces) in sources {
        if rel.starts_with("crates/stubs/") {
            continue;
        }
        for p in pieces {
            if let Piece::Code { text, .. } = p {
                let bytes = text.as_bytes();
                let mut i = 0;
                while i < bytes.len() {
                    if bytes[i].is_ascii_alphabetic() || bytes[i] == b'_' {
                        let start = i;
                        while i < bytes.len()
                            && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                        {
                            i += 1;
                        }
                        used_words.insert(&text[start..i]);
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }

    let mut stub_dirs: Vec<String> = Vec::new();
    for entry in fs::read_dir(&stubs_dir)? {
        let entry = entry?;
        if entry.path().is_dir() {
            stub_dirs.push(entry.file_name().to_string_lossy().to_string());
        }
    }
    stub_dirs.sort();

    for stub in &stub_dirs {
        let Some((_, chunks)) = rows.get(stub) else {
            out.push(Violation {
                file: readme_rel.clone(),
                line: 1,
                rule: "stub-drift",
                msg: format!("stub crate `{stub}` has no row in the stubs README table"),
            });
            continue;
        };

        // Words and exported items of this stub's sources.
        let prefix = format!("crates/stubs/{stub}/");
        let mut stub_words: BTreeSet<String> = BTreeSet::new();
        let mut items: Vec<PubItem> = Vec::new();
        for (rel, pieces) in sources {
            if !rel.starts_with(&prefix) {
                continue;
            }
            for w in code_words(pieces) {
                stub_words.insert(w.text);
            }
            items.extend(extract_pub_items(pieces));
        }

        // Documented-but-absent: every README chunk must exist in the
        // stub's sources (starred chunks as prefixes).
        for c in chunks {
            if c.len() < 3 {
                continue;
            }
            let present = if let Some(p) = c.strip_suffix('*') {
                stub_words.iter().any(|w| w.starts_with(p))
            } else {
                stub_words.contains(c.as_str())
            };
            if !present {
                out.push(Violation {
                    file: readme_rel.clone(),
                    line: rows[stub].0,
                    rule: "stub-drift",
                    msg: format!(
                        "README documents `{c}` for stub `{stub}`, but no such \
                         identifier exists in its sources"
                    ),
                });
            }
        }

        // Used-but-undocumented: every exported item the workspace
        // consumes must be in the README row.
        let mut seen = BTreeSet::new();
        for item in items {
            if !seen.insert(item.name.clone()) {
                continue;
            }
            if used_words.contains(item.name.as_str()) && !documented(chunks, &item.name) {
                out.push(Violation {
                    file: readme_rel.clone(),
                    line: rows[stub].0,
                    rule: "stub-drift",
                    msg: format!(
                        "stub `{stub}` exports {} `{}`, which the workspace uses \
                         but the README row does not document",
                        item.kind, item.name
                    ),
                });
            }
        }
    }

    // Rows naming stubs that do not exist.
    for (name, (line, _)) in &rows {
        if !stub_dirs.contains(name) {
            out.push(Violation {
                file: readme_rel.clone(),
                line: *line,
                rule: "stub-drift",
                msg: format!("README table row for `{name}` has no crates/stubs/{name} crate"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::lex;

    #[test]
    fn subst_holes_replaces_format_holes() {
        assert_eq!(subst_holes("mstA.l{level}.exch"), "mstA.lx0.exch");
        assert_eq!(subst_holes("recover.e{epoch}.{}"), "recover.ex0.x1");
        assert_eq!(subst_holes("{{literal}}"), "{literal}");
        assert_eq!(subst_holes("{:.1e}"), "x0");
    }

    #[test]
    fn ends_with_word_respects_boundaries() {
        assert!(ends_with_word("net.run(", ".run("));
        assert!(!ends_with_word("overrun(", ".run("));
        assert!(!ends_with_word("run(", ".run("), "bare helper calls skip");
        assert!(ends_with_word("ledger.messages_matching(", "_matching("));
        assert!(ends_with_word("format!(", "format!("));
        assert!(!ends_with_word("my_format!(", "format!("));
    }

    #[test]
    fn phase_lint_flags_unregistered_and_accepts_registered() {
        let src = r#"
            fn f(net: &mut Network) {
                net.run("mstA.l0.exch", a, i).unwrap();
                net.run("mst_a.l0", a, i).unwrap();
                let name = format!("mstX.l{level}.exch");
                let fine = format!("recover.e{epoch}.census");
                let skip = format!("torus{side}x{side}");
                ledger.messages_matching("s2");
                ledger.messages_matching("zz.");
                net.obs_emit("recover.checkpoint", 3);
                net.obs_emit("chekpoint.resume", 3);
            }
        "#;
        let mut out = Vec::new();
        phase_lints("crates/core/src/x.rs", &lex(src), &mut out);
        let lines: Vec<usize> = out.iter().map(|v| v.line).collect();
        assert_eq!(lines, [4, 5, 9, 11], "violations: {out:#?}");
        assert!(out.iter().all(|v| v.rule == "phase-registry"));
    }

    #[test]
    fn unsafe_lint_allowlists_and_requires_safety() {
        // The allowlist is empty: the former executor core is flagged
        // like any other file, SAFETY comment or not.
        let src = "fn f() {\n    // SAFETY: g is safe here.\n    unsafe { g(); }\n}";
        for rel in [
            "crates/other/src/m.rs",
            "crates/congest/src/executor/cells.rs",
            "crates/congest/src/executor/sweep.rs",
        ] {
            let mut out = Vec::new();
            unsafe_lints(rel, &lex(src), &mut out);
            assert_eq!(out.len(), 1, "{rel}: {out:#?}");
            assert_eq!((out[0].rule, out[0].line), ("unsafe-allowlist", 3), "{rel}");
        }
    }

    #[test]
    fn determinism_lint_bans_listed_words() {
        let src = "use std::collections::HashMap;\nfn f() { let t = Instant::now(); }";
        let mut out = Vec::new();
        determinism_lints("crates/congest/src/sim/x.rs", &lex(src), &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|v| v.rule == "determinism"));
    }

    #[test]
    fn determinism_scope_covers_the_primitives() {
        for rel in [
            "crates/congest/src/sim/executor.rs",
            "crates/core/src/dist/driver.rs",
            "crates/congest/src/primitives/stream.rs",
            "crates/congest/src/primitives/merge.rs",
        ] {
            assert!(replay_exact(rel), "{rel}");
        }
        for rel in [
            "crates/congest/src/engine.rs",
            "crates/congest/tests/merge_props.rs",
            "crates/bench/src/bin/trace_export.rs",
        ] {
            assert!(!replay_exact(rel), "{rel}");
        }
    }

    #[test]
    fn pub_item_extraction_skips_impl_methods_and_restricted_vis() {
        let src = r#"
            pub struct Criterion { x: u32 }
            impl Criterion {
                pub fn benchmark_group(&mut self) -> BenchmarkGroup { todo!() }
            }
            pub(crate) struct Hidden;
            pub fn black_box<T>(t: T) -> T { t }
            pub trait Rng {
                fn gen(&mut self) -> u32;
            }
            macro_rules! criterion_group { () => {}; }
            macro_rules! gen_fn {
                ($g:ident) => { pub fn $g() { inner() } };
            }
            fn helper() -> impl Iterator<Item = u32> { std::iter::empty() }
            pub enum Kind { A }
        "#;
        let items = extract_pub_items(&lex(src));
        let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "Criterion",
                "black_box",
                "Rng",
                "criterion_group",
                "gen_fn",
                "Kind"
            ],
            "macro bodies must not leak template items: {items:#?}"
        );
    }

    #[test]
    fn readme_chunks_and_prefix_patterns() {
        let row = "| `proptest` | proptest 1 | `proptest!` over strategies, `prop_assert*`, `ProptestConfig::with_cases` |";
        let chunks = row_chunks(row);
        assert!(chunks.contains(&"proptest".to_string()));
        assert!(chunks.contains(&"prop_assert*".to_string()));
        assert!(chunks.contains(&"with_cases".to_string()));
        assert!(documented(&chunks[1..], "prop_assert_eq"));
        assert!(documented(&chunks[1..], "ProptestConfig"));
        assert!(!documented(&chunks[1..], "TestRng"));
    }
}
