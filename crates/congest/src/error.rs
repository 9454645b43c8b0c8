//! Errors reported by the simulation engine.

use crate::node::Port;
use graphs::NodeId;
use std::error::Error;
use std::fmt;

/// Errors from [`crate::Network::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CongestError {
    /// A message exceeded the per-edge bandwidth budget.
    BandwidthExceeded {
        /// Phase in which it happened.
        phase: String,
        /// Sending node.
        node: NodeId,
        /// Port it was sent on.
        port: Port,
        /// The message's size in bits.
        bits: usize,
        /// The budget it exceeded.
        budget: usize,
        /// Round number.
        round: u64,
    },
    /// A node queued two messages on the same port in one round.
    DoubleSend {
        /// Phase in which it happened.
        phase: String,
        /// Sending node.
        node: NodeId,
        /// The port used twice.
        port: Port,
        /// Round number.
        round: u64,
    },
    /// A node addressed a port it does not have.
    InvalidPort {
        /// Phase in which it happened.
        phase: String,
        /// Sending node.
        node: NodeId,
        /// The bogus port.
        port: Port,
        /// The node's degree.
        degree: usize,
    },
    /// A message arrived at a node that had already halted.
    MessageToHalted {
        /// Phase in which it happened.
        phase: String,
        /// The halted recipient.
        node: NodeId,
        /// Round number.
        round: u64,
    },
    /// The phase exceeded the round cap — almost certainly a livelock.
    MaxRoundsExceeded {
        /// Phase in which it happened.
        phase: String,
        /// The cap that was hit.
        cap: u64,
    },
    /// `inputs.len()` did not match the node count.
    WrongInputCount {
        /// Phase name.
        phase: String,
        /// Inputs provided.
        got: usize,
        /// Nodes in the network.
        want: usize,
    },
    /// The input graph's adjacency is not symmetric: `node` lists
    /// `neighbor`, but not vice versa. Raised by [`crate::Network::new`]
    /// on malformed topologies instead of panicking.
    AsymmetricAdjacency {
        /// The node whose adjacency entry has no reverse.
        node: NodeId,
        /// The neighbor that does not list `node` back.
        neighbor: NodeId,
    },
    /// The α-synchronizer of the faulty executor gave up on a channel:
    /// a payload (or a safety announcement) was transmitted
    /// `attempts` times without acknowledgement — the adversary's drop
    /// rate exceeded the retransmission budget of the
    /// [`crate::sim::FaultPlan`].
    RetransmitExhausted {
        /// Phase in which it happened.
        phase: String,
        /// The sending node whose channel starved.
        node: NodeId,
        /// The destination node of the starved directed edge (`node` →
        /// `peer`) — with crash schedules in play this names the likely
        /// culprit directly.
        peer: NodeId,
        /// The port of the starved channel (`node`'s local name for the
        /// edge).
        port: Port,
        /// The virtual (algorithm) round the stuck payload belongs to.
        round: u64,
        /// Transmissions attempted before giving up.
        attempts: u32,
    },
    /// The faulty executor's failure detector suspected a crashed peer
    /// while the plan's policy is
    /// [`crate::sim::SuspicionPolicy::Abort`]: `by` heard nothing from
    /// `node` for the plan's full suspicion window
    /// ([`crate::sim::FaultPlan::suspect_after`] ticks). A recovery
    /// driver catches this, maps the surviving component, and re-runs
    /// there (`mincut::dist::recover`).
    NodeSuspected {
        /// Phase in which the suspicion fired.
        phase: String,
        /// The suspected (presumed crashed) node.
        node: NodeId,
        /// The neighbor whose detector fired.
        by: NodeId,
        /// The session-global virtual round reached when the suspicion
        /// fired (phase base + rounds executed in this phase) — the
        /// clock a recovery driver rebases the crash schedule against.
        round: u64,
    },
    /// The faulty executor's [`crate::sim::FaultPlan`] schedules more
    /// partition windows than one plan may hold. Raised before the
    /// phase's first tick, whether or not any window would open.
    TooManyPartitions {
        /// Phase that was refused.
        phase: String,
        /// Partition windows the plan schedules.
        windows: usize,
        /// The most one plan may schedule.
        limit: usize,
    },
    /// Node code reported a protocol violation from
    /// [`crate::Algorithm::finish`] (see
    /// [`crate::algorithm::ProtocolViolation`]).
    Protocol {
        /// Phase in which it happened.
        phase: String,
        /// The node that detected the violation.
        node: NodeId,
        /// The algorithm's description of what went wrong.
        reason: String,
    },
}

impl fmt::Display for CongestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CongestError::BandwidthExceeded {
                phase,
                node,
                port,
                bits,
                budget,
                round,
            } => write!(
                f,
                "phase {phase:?} round {round}: node {node} sent {bits} bits on {port}, budget {budget}"
            ),
            CongestError::DoubleSend {
                phase,
                node,
                port,
                round,
            } => write!(
                f,
                "phase {phase:?} round {round}: node {node} sent twice on {port}"
            ),
            CongestError::InvalidPort {
                phase,
                node,
                port,
                degree,
            } => write!(
                f,
                "phase {phase:?}: node {node} used {port} but has degree {degree}"
            ),
            CongestError::MessageToHalted { phase, node, round } => write!(
                f,
                "phase {phase:?} round {round}: message delivered to halted node {node}"
            ),
            CongestError::MaxRoundsExceeded { phase, cap } => {
                write!(f, "phase {phase:?} exceeded {cap} rounds (livelock?)")
            }
            CongestError::WrongInputCount { phase, got, want } => {
                write!(f, "phase {phase:?}: {got} inputs for {want} nodes")
            }
            CongestError::AsymmetricAdjacency { node, neighbor } => write!(
                f,
                "malformed graph: node {node} lists neighbor {neighbor}, but not vice versa"
            ),
            CongestError::RetransmitExhausted {
                phase,
                node,
                peer,
                port,
                round,
                attempts,
            } => write!(
                f,
                "phase {phase:?} round {round}: node {node} gave up on {port} toward node {peer} after {attempts} transmissions (retransmission budget exhausted)"
            ),
            CongestError::NodeSuspected {
                phase,
                node,
                by,
                round,
            } => write!(
                f,
                "phase {phase:?} round {round}: node {by} suspects node {node} of having crashed (silent for the full suspicion window)"
            ),
            CongestError::TooManyPartitions {
                phase,
                windows,
                limit,
            } => write!(
                f,
                "phase {phase:?}: the fault plan schedules {windows} partition windows, at most {limit} are supported"
            ),
            CongestError::Protocol {
                phase,
                node,
                reason,
            } => write!(f, "phase {phase:?}: protocol violation at node {node}: {reason}"),
        }
    }
}

impl Error for CongestError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CongestError::BandwidthExceeded {
            phase: "mst".into(),
            node: NodeId::new(3),
            port: Port(1),
            bits: 99,
            budget: 80,
            round: 7,
        };
        let s = e.to_string();
        assert!(s.contains("mst") && s.contains("99") && s.contains("80"));
    }
}
