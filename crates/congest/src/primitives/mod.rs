//! Standard CONGEST building blocks.
//!
//! * [`leader_bfs`] — minimum-id leader election fused with BFS-tree
//!   construction and echo-based termination: `O(D)` rounds. A thin
//!   wrapper over [`staged_election`], which owns the protocol engine.
//! * [`staged_election`] — the unified election engine: legacy flood and
//!   the message-frugal staged election (local-minima candidacy +
//!   radius-doubling fronts) as two knob settings of one protocol.
//! * [`convergecast`] — aggregate one value per node up a tree/forest
//!   (`O(height)` rounds).
//! * [`broadcast`] — one item, or a pipelined stream of `k` items, from each
//!   root down its tree (`O(k + height)` rounds); stream items are folded
//!   into a per-node accumulator on arrival, never stored as a list.
//! * [`upcast`] — pipelined collection of all items at the root
//!   (`O(k + height)` rounds).
//! * [`merge`] — the shared pipelined sorted-stream merge core
//!   ([`merge::KeyedStreamReduce`]): `u64` keys, monoid reduction, one
//!   protocol implementation behind all three grouped primitives.
//! * [`grouped`] — pipelined grouped sums keyed by `u64`, merged in sorted
//!   key order on the way up (`O(k + height)` rounds).
//! * [`grouped_min`] — pipelined grouped argmin under the same pipelining
//!   bound (the Borůvka-over-BFS aggregation of the distributed MST).
//! * [`exchange`] — one-round neighbor exchange (full, delta — only
//!   changed values are announced — and per-port delta: only *selected
//!   edges* carry the announcement), and pipelined per-edge list exchange
//!   (`O(k)` rounds).
//! * [`failure_detector`] — the idle heartbeat census: under a
//!   crash-scheduling fault plan, every live node reports which
//!   neighbors the transport's timeout detector suspects (the recovery
//!   driver's view of who died).
//!
//! All tree primitives take a [`crate::TreeInfo`] per node and work on
//! *forests*: a "root" is any node with `parent == None`, and disjoint trees
//! run concurrently without interference (their edges are disjoint). That is
//! exactly how the paper runs its intra-fragment steps in parallel across
//! fragments.

pub mod broadcast;
pub mod convergecast;
pub mod exchange;
pub mod failure_detector;
pub mod grouped;
pub mod grouped_min;
pub mod leader_bfs;
pub mod merge;
pub mod staged_election;
pub mod subtree;
pub mod upcast;

pub use broadcast::{Broadcast, BroadcastItems};
pub use convergecast::{Aggregate, Convergecast, MaxU64, MinU64, SumU64};
pub use exchange::DeltaExchange;
pub use exchange::{EdgeListExchange, NeighborExchange, PortDeltaExchange};
pub use failure_detector::{FailureDetector, FdReport, JoinEcho};
pub use grouped::{GroupedSum, KeyedSum, SumMonoid};
pub use grouped_min::{BestMonoid, GroupedBest, KeyedItem, KeyedMin};
pub use leader_bfs::{Election, LeaderBfs, LeaderBfsOutput};
pub use merge::{KeyedMonoid, KeyedStreamReduce};
pub use staged_election::{Candidacy, Schedule, StagedElection};
pub use subtree::{KeyedSubtreeSum, SubtreeSums};
pub use upcast::UpcastItems;
