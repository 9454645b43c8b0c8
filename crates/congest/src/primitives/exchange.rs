//! Neighbor exchange: one-round swap of a value with every neighbor, and
//! its per-port delta variant (only *changed* values are announced, and
//! only on the edges that need them).
//!
//! The delta exchange is the echo-suppression discipline of phase A's
//! repeated fragment-label refresh (`mstA.*.exch`): a node whose label
//! did not change since its last announcement stays silent, and
//! receivers keep their stored per-port view — identical information
//! flow at a fraction of the messages once the labels start converging.

use crate::algorithm::{Algorithm, FinishResult, Outbox, Step};
use crate::message::Message;
use crate::node::{NodeCtx, Port};
use std::marker::PhantomData;

/// One-round exchange: every node sends one value to every neighbor at
/// boot and collects what its neighbors sent. Rounds: 1.
#[derive(Clone, Debug, Default)]
pub struct NeighborExchange<T> {
    // `fn() -> T` keeps the marker `Send + Sync` for any `T`: these
    // protocol structs carry no `T` values, and the parallel executor
    // shares them across workers.
    _marker: PhantomData<fn() -> T>,
}

impl<T> NeighborExchange<T> {
    /// Creates the phase object.
    pub fn new() -> Self {
        NeighborExchange {
            _marker: PhantomData,
        }
    }
}

/// Node state for [`NeighborExchange`].
#[derive(Debug)]
pub struct NxState<T> {
    received: Vec<Option<T>>,
}

impl<T: Message> Algorithm for NeighborExchange<T> {
    /// The value this node shows to all neighbors.
    type Input = T;
    type State = NxState<T>;
    type Msg = T;
    /// `output[port] = Some(neighbor's value)` for every port.
    type Output = Vec<Option<T>>;

    fn boot(&self, ctx: &NodeCtx<'_>, value: T) -> (NxState<T>, Outbox<T>) {
        let mut out = Outbox::new();
        out.send_all(ctx.ports(), value);
        (
            NxState {
                received: vec![None; ctx.degree()],
            },
            out,
        )
    }

    fn round(&self, s: &mut NxState<T>, _ctx: &NodeCtx<'_>, inbox: &[(Port, T)]) -> Step<T> {
        for (port, msg) in inbox {
            s.received[port.index()] = Some(msg.clone());
        }
        Step::halt()
    }

    fn finish(&self, s: NxState<T>, _ctx: &NodeCtx<'_>) -> FinishResult<Vec<Option<T>>> {
        Ok(s.received)
    }
}

/// Per-port delta exchange: echo suppression per edge. The input is one
/// `Option<T>` *per port*: `Some(value)` announces `value` on exactly that
/// edge, `None` keeps that edge silent. `output[port]` is `Some(value)`
/// exactly for the ports whose neighbor announced on the shared edge.
///
/// This is the wire format of the optimized `mstA.*.exch` label refresh:
/// a relabeled fragment member announces only on its *boundary* ports —
/// neighbors inside the old fragment relabel with it and reconstruct the
/// new view locally, so those edges carry nothing. Rounds: 1, messages:
/// `Σ |Some entries|`.
#[derive(Clone, Debug, Default)]
pub struct PortDeltaExchange<T> {
    // `fn() -> T` keeps the marker `Send + Sync` for any `T`: these
    // protocol structs carry no `T` values, and the parallel executor
    // shares them across workers.
    _marker: PhantomData<fn() -> T>,
}

impl<T> PortDeltaExchange<T> {
    /// Creates the phase object.
    pub fn new() -> Self {
        PortDeltaExchange {
            _marker: PhantomData,
        }
    }
}

impl<T: Message> Algorithm for PortDeltaExchange<T> {
    /// One entry per port: `Some(value)` announces on that edge only.
    type Input = Vec<Option<T>>;
    type State = NxState<T>;
    type Msg = T;
    /// `output[port] = Some(value)` for every port whose neighbor announced.
    type Output = Vec<Option<T>>;

    fn boot(&self, ctx: &NodeCtx<'_>, per_port: Vec<Option<T>>) -> (NxState<T>, Outbox<T>) {
        assert_eq!(per_port.len(), ctx.degree(), "one entry per port required");
        let mut out = Outbox::new();
        for (p, value) in ctx.ports().zip(per_port) {
            if let Some(value) = value {
                out.send(p, value);
            }
        }
        (
            NxState {
                received: vec![None; ctx.degree()],
            },
            out,
        )
    }

    fn round(&self, s: &mut NxState<T>, _ctx: &NodeCtx<'_>, inbox: &[(Port, T)]) -> Step<T> {
        for (port, msg) in inbox {
            s.received[port.index()] = Some(msg.clone());
        }
        Step::halt()
    }

    fn finish(&self, s: NxState<T>, _ctx: &NodeCtx<'_>) -> FinishResult<Vec<Option<T>>> {
        Ok(s.received)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::engine::Network;
    use graphs::generators;

    #[test]
    fn neighbor_exchange_swaps_ids() {
        let g = generators::cycle(6).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let inputs: Vec<u64> = (0..6).map(|v| v * 11).collect();
        let out = net.run("nx", &NeighborExchange::new(), inputs).unwrap();
        for v in 0..6usize {
            for (p, got) in out.outputs[v].iter().enumerate() {
                let neighbor = g.neighbors(graphs::NodeId::from_index(v))[p].neighbor;
                assert_eq!(*got, Some(neighbor.raw() as u64 * 11));
            }
        }
        assert_eq!(out.metrics.rounds, 1);
    }

    #[test]
    fn port_delta_exchange_is_per_edge() {
        let g = generators::cycle(6).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        // Node v announces v*13 only on its port 0 edge.
        let inputs: Vec<Vec<Option<u64>>> = (0..6u64).map(|v| vec![Some(v * 13), None]).collect();
        let out = net.run("pdx", &PortDeltaExchange::new(), inputs).unwrap();
        let mut total = 0usize;
        for v in 0..6usize {
            for (p, got) in out.outputs[v].iter().enumerate() {
                let u = g.neighbors(graphs::NodeId::from_index(v))[p].neighbor;
                // We hear u iff u's port toward us is u's port 0.
                let u_port_to_v = g
                    .neighbors(u)
                    .iter()
                    .position(|e| e.neighbor.index() == v)
                    .unwrap();
                let want = (u_port_to_v == 0).then_some(u.raw() as u64 * 13);
                assert_eq!(*got, want, "node {v} port {p}");
                total += got.is_some() as usize;
            }
        }
        // One edge-message per node.
        assert_eq!(total, 6);
        assert_eq!(out.metrics.messages, 6);
        assert_eq!(out.metrics.rounds, 1);
    }

    #[test]
    fn port_delta_exchange_all_silent_is_free() {
        let g = generators::path(5).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let inputs: Vec<Vec<Option<u64>>> = (0..5usize)
            .map(|v| vec![None; g.degree(graphs::NodeId::from_index(v))])
            .collect();
        let out = net.run("pdx0", &PortDeltaExchange::new(), inputs).unwrap();
        assert!(out.outputs.iter().all(|o| o.iter().all(Option::is_none)));
        assert_eq!(out.metrics.messages, 0);
    }
}
