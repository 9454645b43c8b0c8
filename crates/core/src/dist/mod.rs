//! The paper's **distributed** minimum-cut pipeline in the CONGEST model.
//!
//! This module implements Nanongkai's PODC 2014 algorithm end to end on
//! the [`congest`] simulator:
//!
//! * [`driver`] — the public entry point [`driver::exact_mincut`]: packs
//!   greedy trees (Thorup), runs the Section-2 1-respecting stage on each,
//!   and returns the best cut with full per-phase metrics;
//! * [`mst`] — the `Õ(√n + D)` distributed minimum spanning tree in the
//!   Kutten–Peleg two-phase style: capped local fragment growth, then one
//!   cycle-filtered upcast of the inter-fragment edges over the leader's
//!   BFS tree;
//! * [`packing`] — the wire/bookkeeping types of the greedy tree packing
//!   (relative-load keys, per-node load memory, packing-size policy);
//! * [`one_respect`] — Section 2: the minimum cut that 1-respects a tree
//!   via Karger's identity `C(v↓) = δ↓(v) − 2ρ↓(v)`, computed with
//!   fragment decomposition so the cost is `Õ(√n + D)` independent of the
//!   tree's depth;
//! * [`recover`] — the self-healing driver
//!   ([`recover::recover_mincut`]): runs the pipeline under a
//!   crash-scheduling fault plan, catches the transport's typed
//!   suspicion abort, diagnoses the dead via a failure-detector census,
//!   excises them, and re-runs on the surviving component until a
//!   certified cut emerges;
//! * [`approx`] — the `(1+ε)` approximation via Karger skeleton sampling
//!   ([`approx::approx_mincut`]);
//! * [`baselines`] — distributed baselines in the spirit of Ghaffari–Kuhn
//!   (`2+ε` quality class) and Su's concurrent sampling.
//!
//! # Phase naming
//!
//! Every [`congest::Network::run`] call is one metered phase; the ledger
//! entries follow the paper's step structure: `leader_bfs`, `mstA.*`
//! (fragment growth levels), `mstB.*` (the filtered upcast that joins
//! the fragments),
//! `orient.*` (rooting the tree and the fragment tree `T_F`), `s2a`–`s2c`
//! (fragment-internal structure: subtree sizes, Euler intervals,
//! attachment tables), `s3` (per-edge exchange and LCA case analysis),
//! `s4*` (merging-node resolution for case-(i) edges through the leader),
//! `s5*` (pipelined aggregation of `δ↓`/`ρ↓` and the global argmin), and
//! `side.*` (extracting the winning side).
//!
//! # Model fidelity
//!
//! All communication goes through the simulator: node code sees only its
//! local state, its incident edges, and its inbox, and every message is
//! charged against the `β·⌈log₂ n⌉`-bit budget (an over-budget message is
//! an error). The
//! sequential driver performs only per-node-local bookkeeping between
//! phases (the engine's documented "persistent local memory" convention)
//! plus loop-termination decisions that a deployment would obtain from an
//! `O(D)` convergecast.

// Replay-exact: no hash-order or wall-clock types (see `clippy.toml`).
#![deny(clippy::disallowed_types)]

pub mod approx;
pub mod baselines;
pub mod driver;
pub mod mst;
pub mod one_respect;
pub mod packing;
pub mod recover;

pub use approx::{approx_mincut, ApproxConfig};
pub use baselines::{gk_baseline, su_baseline, BaselineConfig};
pub use driver::{exact_mincut, DistMinCutResult, ExactConfig};
pub use mst::MstConfig;
pub use recover::{recover_mincut, RecoverConfig, RecoveredMinCut, Stage};
