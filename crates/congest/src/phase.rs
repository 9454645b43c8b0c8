//! The central phase-name registry and grammar.
//!
//! Every phase executed by [`crate::Network::run`] is identified by a
//! name recorded in the [`crate::MetricsLedger`], and the whole
//! accounting layer — `grouped_by_stem`, the `messages_matching` budget
//! gates, the bench rows — keys on the **stem**: the name up to the
//! first `'.'`. Two conventions therefore carry real weight:
//!
//! 1. **Grammar** — a phase name is `stem(.sub)*`, each segment
//!    `[A-Za-z][A-Za-z0-9_]*` (see [`is_valid_name`]). A name outside
//!    the grammar would silently fall out of the stem aggregation.
//! 2. **Registry** — the stems the min-cut pipeline (and the CI gates
//!    built on it) may emit are enumerated in [`REGISTERED_STEMS`]. A
//!    stem that drifts (a typo in a `format!`, a renamed phase that
//!    `trace_export`'s aborted-phase check no longer matches) breaks
//!    the accounting silently unless something checks it where the
//!    names are emitted: the end-to-end suites
//!    (`tests/end_to_end_exact.rs`, `tests/end_to_end_approx.rs`,
//!    `tests/self_healing.rs`) assert [`is_registered`] for every phase
//!    of every ledger they produce, and [`crate::Network::obs_emit`]
//!    debug-asserts it for every stage marker.
//!
//! [`crate::Network::run`] additionally `debug_assert!`s the grammar at
//! runtime (registry membership is *not* asserted there: unit tests and
//! downstream experiments are free to invent ad-hoc phase names, as
//! long as they parse).

/// Longest accepted phase name (generous; the longest real name today
/// is `recover.e1.mstA.l12.hook`-sized).
pub const MAX_NAME_LEN: usize = 96;

/// Longest accepted segment between dots.
pub const MAX_SEGMENT_LEN: usize = 32;

/// The phase stems the min-cut pipeline emits, in pipeline order. This
/// is the single source of truth the end-to-end tests check ledger
/// phases against — adding a new pipeline phase means registering its
/// stem here (and nowhere else).
pub const REGISTERED_STEMS: &[&str] = &[
    // Election + static-memory bootstrap.
    "leader_bfs",
    "init",
    // MST phase A (capped fragment growth, per-level sub-phases
    // `.l{level}.{exch,cd,hook}`) and phase B (the cycle-filtered upcast
    // over the BFS tree: `.exch`, `.up`). See `docs/mst.md`.
    "mstA",
    "mstB",
    // Tree orientation (reroot at the fragment leader).
    "orient",
    // The 1-respecting stage s2a–s5g and the per-edge exchange s3.
    "s2a",
    "s2b",
    "s2c",
    "s3",
    "s4a",
    "s4b",
    "s5",
    "s5c",
    "s5d",
    "s5e",
    "s5f",
    "s5g",
    // Cut-side flood + broadcast.
    "side",
    // The self-healing driver's per-epoch prefix: aborted attempts are
    // re-ledgered under `recover.e{epoch}.…`, and checkpointed resumes
    // emit `recover.e{epoch}.resume.*` validation phases.
    "recover",
    // The recovery driver's census machinery: per-epoch failure-detector
    // passes (`census.e{epoch}.r{pass}`, iterated to a fixpoint when a
    // node can die mid-census) and the rejoin handshake
    // (`census.e{epoch}.join`).
    "census",
    // The observability layer's frame-lifecycle events
    // (`transport.send`, `transport.drop`, … — see
    // `congest::obs::EventKind::wire_name`). Not a pipeline phase, but
    // event names share the phase grammar and registry, so typo'd obs
    // events are caught exactly like typo'd phases.
    "transport",
];

/// Is `segment` one grammar segment: `[A-Za-z][A-Za-z0-9_]*`, at most
/// [`MAX_SEGMENT_LEN`] bytes?
fn is_valid_segment(segment: &str) -> bool {
    if segment.is_empty() || segment.len() > MAX_SEGMENT_LEN {
        return false;
    }
    let mut chars = segment.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphabetic())
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Does `name` parse under the phase-name grammar `stem(.sub)*`?
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty() && name.len() <= MAX_NAME_LEN && name.split('.').all(is_valid_segment)
}

/// The stem of `name`: everything before the first `'.'` (the whole
/// name when there is no dot). This is the exact aggregation key of
/// [`crate::MetricsLedger::grouped_by_stem`].
pub fn stem_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Does `name` parse under the grammar *and* carry a stem registered in
/// [`REGISTERED_STEMS`]? The end-to-end tests assert it for every
/// ledger phase, and [`crate::Network::obs_emit`] for every stage
/// marker.
pub fn is_registered(name: &str) -> bool {
    is_valid_name(name) && REGISTERED_STEMS.contains(&stem_of(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_accepts_the_pipeline_shapes() {
        for name in [
            "leader_bfs",
            "init.deg",
            "mstA.l12.exch",
            "mstA.l4.cd",
            "mstB.up",
            "s2c.up",
            "orient.tf",
            "side.flood",
            "recover.e2.mstA.l0.hook",
            "recover.e1.resume.bfs",
            "census.e1.r1",
            "census.e2.join",
            "transport.retransmit",
        ] {
            assert!(is_valid_name(name), "{name} must parse");
            assert!(is_registered(name), "{name} must be registered");
        }
    }

    #[test]
    fn grammar_rejects_malformed_names() {
        for name in [
            "",
            ".",
            "a.",
            ".a",
            "a..b",
            "1abc",
            "mstA.0cand",
            "has space",
            "has-dash",
            "ünïcode",
        ] {
            assert!(!is_valid_name(name), "{name:?} must be rejected");
        }
        let long_segment = "x".repeat(MAX_SEGMENT_LEN + 1);
        assert!(!is_valid_name(&long_segment));
        let long_name = ["seg"; 40].join(".");
        assert!(long_name.len() > MAX_NAME_LEN && !is_valid_name(&long_name));
    }

    #[test]
    fn registry_gates_the_stem_not_the_subs() {
        assert!(is_registered("mstA"));
        assert!(is_registered("mstA.anything.goes_here"));
        assert!(!is_registered("mst_a"), "typo'd stem must not register");
        assert!(!is_registered("mstAx.l0"), "stem match is exact");
        assert!(!is_registered("drum"), "ad-hoc test names are unregistered");
        assert!(
            !is_registered("recover .e1"),
            "registry implies grammar too"
        );
    }

    #[test]
    fn stems_are_themselves_grammar_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for stem in REGISTERED_STEMS {
            assert!(is_valid_name(stem), "registered stem {stem} must parse");
            assert!(!stem.contains('.'), "stems are single segments");
            assert!(seen.insert(*stem), "duplicate registered stem {stem}");
        }
    }

    #[test]
    fn stem_of_matches_the_ledger_aggregation_key() {
        assert_eq!(stem_of("mstA.l3.cand"), "mstA");
        assert_eq!(stem_of("leader_bfs"), "leader_bfs");
        assert_eq!(stem_of(""), "");
    }
}
