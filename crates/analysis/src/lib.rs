//! Static analysis for the min-cut workspace.
//!
//! [`lint`] (binary `congest_lint`, run by CI) is a hand-rolled source
//! linter (the container is offline; there is no `syn`) enforcing the
//! workspace's *conventional* invariants, the ones the compiler cannot
//! see: no `unsafe` in any file it walks, phase-name literals
//! conforming to the `stem.sub` grammar and the central registry in
//! [`congest::phase`], no nondeterminism primitives in replay-exact
//! code paths, and the offline dependency stubs in sync with their
//! README contract.
//!
//! See `docs/analysis.md` for the invariant catalogue and how CI wires
//! it in.

#![forbid(unsafe_code)]

pub mod lint;
pub mod scan;
