//! A deterministic synchronous **CONGEST**-model network simulator.
//!
//! The CONGEST model ([Peleg 2000]) is a synchronous message-passing network:
//! `n` nodes with unique IDs, one per processor, communicate over the edges
//! of a graph. Execution proceeds in rounds; in each round every node may
//! send **one message of `O(log n)` bits** to each of its neighbors. The
//! complexity measure is the number of rounds.
//!
//! This crate simulates that model faithfully:
//!
//! * node code (an [`Algorithm`]) sees only its own state, its local
//!   [`NodeCtx`] (id, `n`, incident edges and weights), and its inbox —
//!   locality is enforced by construction;
//! * every message type implements [`Message::bit_len`]; the engine enforces
//!   the per-edge, per-direction, per-round bandwidth `B = β·⌈log₂ n⌉`
//!   (an over-budget message is an error);
//! * rounds, messages, bits, and the worst per-edge load are metered per
//!   phase in a [`MetricsLedger`], which is what the experiment suite
//!   reports.
//!
//! Algorithms are composed out of *phases*: each phase is one `Algorithm`
//! run to completion by [`Network::run`], and per-node outputs of one phase
//! are handed to the next phase as per-node inputs (modelling persistent
//! local memory). An input may also *borrow* that memory from the driver
//! for the one phase: a node reads its own rows and writes them in place
//! (say, the per-port view of
//! [`primitives::exchange::PortDeltaExchange`]), so the memory is neither
//! copied in nor handed back. A phase that fails can leave such writes
//! half done; a driver that borrows must discard that memory after an
//! error, as `mincut`'s pipeline does by dropping its whole state with
//! the error. The [`primitives`] module supplies the standard building
//! blocks (leader election + BFS tree with echo termination, convergecast,
//! broadcast, pipelined upcast/downcast, grouped aggregation, neighbor
//! exchange) that the paper's algorithm is assembled from.
//!
//! # Example: weighted-degree sum via convergecast
//!
//! ```
//! use congest::{Network, NetworkConfig};
//! use congest::primitives::{leader_bfs::LeaderBfs, convergecast::{Convergecast, SumU64}};
//!
//! # fn main() -> Result<(), congest::CongestError> {
//! let g = graphs::generators::cycle(8).expect("valid cycle");
//! let mut net = Network::new(&g, NetworkConfig::default())?;
//! // Phase 0: elect a leader and build its BFS tree.
//! let bfs = net.run("leader_bfs", &LeaderBfs::new(), vec![(); 8])?;
//! // Phase 1: sum every node's weighted degree up the tree.
//! let inputs = bfs
//!     .outputs
//!     .iter()
//!     .map(|o| (o.tree.clone(), SumU64(2))) // each cycle node has degree 2
//!     .collect();
//! let sums = net.run("degree_sum", &Convergecast::new(), inputs)?;
//! let at_root = sums.outputs.iter().flatten().next().expect("root output");
//! assert_eq!(at_root.0, 16);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod algorithm;
pub mod config;
mod engine;
pub mod error;
pub mod executor;
pub mod message;
pub mod metrics;
pub mod node;
pub mod obs;
pub mod phase;
pub mod primitives;
pub mod sim;

pub use algorithm::{Algorithm, FinishResult, Outbox, ProtocolViolation, Step};
pub use config::NetworkConfig;
pub use engine::{Network, RunOutcome};
pub use error::CongestError;
pub use executor::ExecutorKind;
pub use message::{id_bits, value_bits, Message};
pub use metrics::{MetricsLedger, PhaseGroup, PhaseMetrics, SimPhaseStats};
pub use node::{Intervals, NodeCtx, Port, TreeInfo};
pub use obs::{ObsHandle, ObsReport, ObsSink, PhaseSummary};
pub use sim::{CrashEvent, FaultPlan, PartitionEvent, SuspicionPolicy};
