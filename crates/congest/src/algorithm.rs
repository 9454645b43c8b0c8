//! The [`Algorithm`] trait: what one phase of node code looks like.

use crate::message::Message;
use crate::node::{NodeCtx, Port};

/// Messages a node emits in one round: at most one per port.
#[derive(Clone, Debug)]
pub struct Outbox<M> {
    pub(crate) msgs: Vec<(Port, M)>,
}

impl<M: Message> Outbox<M> {
    /// An empty outbox (sends nothing this round).
    pub fn new() -> Self {
        Outbox { msgs: Vec::new() }
    }

    /// Queues `msg` on `port`. The engine rejects two sends on the same port
    /// in the same round.
    pub fn send(&mut self, port: Port, msg: M) -> &mut Self {
        self.msgs.push((port, msg));
        self
    }

    /// Queues `msg` on every port in `ports`.
    pub fn send_all<I: IntoIterator<Item = Port>>(&mut self, ports: I, msg: M) -> &mut Self {
        for p in ports {
            self.msgs.push((p, msg.clone()));
        }
        self
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Returns `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

impl<M: Message> Default for Outbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// A protocol violation detected by node code: the phase ended in a state
/// the algorithm's contract forbids (e.g. a broadcast that never reached
/// this node). Returned from [`Algorithm::finish`]; the engine maps it to
/// [`crate::CongestError::Protocol`] with the phase and node filled in, so
/// a misbehaving algorithm surfaces as an error instead of aborting the
/// whole simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolViolation {
    /// What went wrong, in the algorithm's own words.
    pub reason: String,
}

impl ProtocolViolation {
    /// Creates a violation with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        ProtocolViolation {
            reason: reason.into(),
        }
    }
}

/// What [`Algorithm::finish`] returns: the node's output, or a
/// [`ProtocolViolation`] the engine turns into a typed error.
pub type FinishResult<O> = Result<O, ProtocolViolation>;

/// A node's decision at the end of a round.
#[derive(Clone, Debug)]
pub enum Step<M> {
    /// Keep participating; send the queued messages.
    Continue(Outbox<M>),
    /// Send the queued messages, then stop: the engine will not call this
    /// node again, and (in strict mode) it is an error for anyone to message
    /// it afterwards.
    Halt(Outbox<M>),
}

impl<M: Message> Step<M> {
    /// A `Continue` with an empty outbox (idle round).
    pub fn idle() -> Self {
        Step::Continue(Outbox::new())
    }

    /// A `Halt` with an empty outbox.
    pub fn halt() -> Self {
        Step::Halt(Outbox::new())
    }
}

/// One phase of a distributed algorithm in the CONGEST model.
///
/// The engine instantiates per-node state via [`Algorithm::boot`] (from a
/// per-node input, modelling local knowledge carried over from earlier
/// phases), then calls [`Algorithm::round`] once per round per live node
/// with that node's inbox, and finally [`Algorithm::finish`] to extract the
/// per-node output.
///
/// Node code receives only `&mut` its own state, the local [`NodeCtx`], and
/// its inbox — it cannot observe the graph or other nodes, which is what
/// makes simulated round counts meaningful.
pub trait Algorithm {
    /// Per-node input (local knowledge from previous phases).
    type Input;
    /// Per-node mutable state.
    type State;
    /// Message type for this phase.
    type Msg: Message;
    /// Per-node output.
    type Output;

    /// Initializes a node and returns the messages it sends in round 1.
    fn boot(&self, ctx: &NodeCtx<'_>, input: Self::Input) -> (Self::State, Outbox<Self::Msg>);

    /// Executes one round at one node: consume the inbox (pairs of arrival
    /// port and message, sorted by port), update state, emit messages.
    fn round(
        &self,
        state: &mut Self::State,
        ctx: &NodeCtx<'_>,
        inbox: &[(Port, Self::Msg)],
    ) -> Step<Self::Msg>;

    /// Extracts the node's output after it halted, or reports a
    /// [`ProtocolViolation`] if the phase ended in a state the
    /// algorithm's contract forbids.
    fn finish(&self, state: Self::State, ctx: &NodeCtx<'_>) -> FinishResult<Self::Output>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_collects_messages() {
        let mut o: Outbox<u64> = Outbox::new();
        assert!(o.is_empty());
        o.send(Port(0), 5).send(Port(2), 6);
        o.send_all([Port(1), Port(3)], 7);
        assert_eq!(o.len(), 4);
        assert!(!o.is_empty());
    }

    #[test]
    fn step_helpers() {
        let s: Step<u64> = Step::idle();
        assert!(matches!(s, Step::Continue(o) if o.is_empty()));
        let h: Step<u64> = Step::halt();
        assert!(matches!(h, Step::Halt(o) if o.is_empty()));
    }
}
