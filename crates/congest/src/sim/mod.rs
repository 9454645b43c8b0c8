//! `congest::sim` — the asynchronous, faulty network simulation layer.
//!
//! The rest of this crate models the clean synchronous CONGEST model.
//! This module runs the *same algorithms, unmodified* over a network
//! whose links lose, duplicate, delay, and reorder messages:
//!
//! * [`FaultPlan`] is the seeded, deterministic adversary — per-frame
//!   drop/duplication probabilities (integer ‰), a bounded delay window
//!   (which induces in-window reordering), the synchronizer's
//!   retransmission timeout and budget, and a schedule of fail-stop
//!   [`CrashEvent`]s (single nodes or correlated groups, with optional
//!   rejoin rounds honored at phase boundaries);
//! * the faulty executor (select it with [`crate::ExecutorKind::Faulty`])
//!   layers an **α-synchronizer** — per-message acks, stop-and-wait
//!   retransmission, safe-round detection — over the adversarial
//!   transport, so node code still observes globally synchronous rounds
//!   and produces outputs bit-identical to the serial executor.
//!
//! When the plan schedules crashes, the executor arms a timeout-based
//! **failure detector**: a channel silent for the plan's full suspicion
//! window ([`FaultPlan::suspect_after`] physical ticks) marks its
//! sender *suspected*. Suspicion is advisory and revocable (eventually
//! accurate, never permanently wrong about a live node); what happens
//! on the first suspicion is the plan's [`SuspicionPolicy`] — abort
//! with a typed [`crate::CongestError::NodeSuspected`] (default; a
//! recovery driver catches it and re-runs on the surviving component),
//! or continue and let the algorithm read the suspected set off
//! [`crate::NodeCtx::suspected_ports`] (how
//! [`crate::primitives::failure_detector`] works).
//!
//! The cost of asynchrony is measured, not hidden: the transport's
//! ticks, frames, retransmissions, drops, and duplicates land in
//! [`crate::metrics::SimPhaseStats`] (`PhaseMetrics::sim`), and
//! `sim.phys_rounds / rounds` is the synchronizer's round-overhead
//! factor — a first-class quantity in the bench trajectory and the CI
//! overhead gate. See `docs/sim.md` for the protocol, its correctness
//! argument, and measured overheads.
//!
//! ```
//! use congest::sim::FaultPlan;
//! use congest::{ExecutorKind, Network, NetworkConfig};
//! use congest::primitives::leader_bfs::LeaderBfs;
//!
//! # fn main() -> Result<(), congest::CongestError> {
//! let g = graphs::generators::cycle(8).expect("valid cycle");
//! // 10% drops, delay window 2, fixed seed: deterministic faults.
//! let plan = FaultPlan::with_drop(100, 42).delayed(2);
//! let cfg = NetworkConfig::default().with_executor(ExecutorKind::Faulty(plan));
//! let mut net = Network::new(&g, cfg)?;
//! let out = net.run("leader_bfs", &LeaderBfs::new(), vec![(); 8])?;
//! assert_eq!(out.outputs[0].leader.raw(), 0); // same winner as fault-free
//! assert!(out.metrics.sim.phys_rounds >= out.metrics.rounds);
//! # Ok(())
//! # }
//! ```

// Replay-exact: no hash-order or wall-clock types (see `clippy.toml`).
#![deny(clippy::disallowed_types)]

mod executor;
mod plan;

pub(crate) use executor::run_faulty;
pub use plan::{CrashEvent, FaultPlan, PartitionEvent, SuspicionPolicy, DEFAULT_SUSPECT_PATIENCE};
