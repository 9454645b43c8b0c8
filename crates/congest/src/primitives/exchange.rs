//! Neighbor exchange: one-round swap of a value with every neighbor, and
//! its per-port delta variant (only *changed* values are announced, and
//! only on the edges that need them).
//!
//! The delta exchange is the echo-suppression discipline of phase A's
//! repeated fragment-label refresh (`mstA.*.exch`): a node whose label
//! did not change since its last announcement stays silent, and
//! receivers keep their stored per-port view — identical information
//! flow at a fraction of the messages once the labels start converging.
//! That view is the caller's memory, not the phase's: each node's input
//! borrows its announce flags and its view, and an arriving value is
//! written into the view in place, so the phase neither copies the view
//! in nor hands one back.

use crate::algorithm::{Algorithm, FinishResult, Outbox, Step};
use crate::message::Message;
use crate::node::{NodeCtx, Port};
use std::marker::PhantomData;

/// One-round exchange: every node sends one value to every neighbor at
/// boot and collects what its neighbors sent. Rounds: 1.
#[derive(Clone, Debug, Default)]
pub struct NeighborExchange<T> {
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

/// Per-port delta exchange: echo suppression per edge. Each node shows
/// one value and announces it on exactly the ports its
/// [`DeltaInput::announce`] flags mark; the other edges stay silent. A
/// value that arrives on a port overwrites that port's entry of the
/// receiver's [`DeltaInput::view`]; a silent port's entry keeps its
/// previous value.
///
/// This is the wire format of the `mstA.*.exch` label refresh: a
/// relabeled fragment member announces only on its *boundary* ports —
/// neighbors inside the old fragment relabel with it and reconstruct the
/// new view locally, so those edges carry nothing. Rounds: 1, messages:
/// the number of set flags. The inputs borrow the caller's per-port
/// memory for the phase; if the phase fails, some views may already
/// hold their new values.
#[derive(Clone, Debug, Default)]
pub struct PortDeltaExchange<'a, T> {
    _marker: PhantomData<fn() -> (&'a (), T)>,
}

impl<T> PortDeltaExchange<'_, T> {
    /// Creates the phase object.
    pub fn new() -> Self {
        PortDeltaExchange {
            _marker: PhantomData,
        }
    }
}

/// Input of [`PortDeltaExchange`] for one node: the value it shows and,
/// borrowed from the caller, its per-port announce flags and its view of
/// its neighbors' values. Both slices have one entry per port.
#[derive(Debug)]
pub struct DeltaInput<'a, T> {
    /// The value this node announces.
    pub value: T,
    /// `announce[p]`: send `value` across port `p`.
    pub announce: &'a [bool],
    /// `view[p]`: the last value port `p`'s neighbor announced; updated in
    /// place when it announces again.
    pub view: &'a mut [T],
}

impl<'a, T: Message + 'a> Algorithm for PortDeltaExchange<'a, T> {
    type Input = DeltaInput<'a, T>;
    /// The node's view, written as values arrive.
    type State = &'a mut [T];
    type Msg = T;
    /// Nothing: what arrived is in the views.
    type Output = ();

    fn boot(&self, ctx: &NodeCtx<'_>, input: DeltaInput<'a, T>) -> (&'a mut [T], Outbox<T>) {
        assert_eq!(input.announce.len(), ctx.degree(), "one flag per port");
        assert_eq!(input.view.len(), ctx.degree(), "one view entry per port");
        let mut out = Outbox::new();
        for (p, &on) in ctx.ports().zip(input.announce) {
            if on {
                out.send(p, input.value.clone());
            }
        }
        (input.view, out)
    }

    fn round(&self, view: &mut &'a mut [T], _ctx: &NodeCtx<'_>, inbox: &[(Port, T)]) -> Step<T> {
        for (port, msg) in inbox {
            view[port.index()] = msg.clone();
        }
        Step::halt()
    }

    fn finish(&self, _view: &'a mut [T], _ctx: &NodeCtx<'_>) -> FinishResult<()> {
        Ok(())
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

    /// One view row per node, cut from `view` by the graph's CSR offsets.
    fn rows<'a>(g: &graphs::WeightedGraph, mut view: &'a mut [u64]) -> Vec<&'a mut [u64]> {
        g.nodes()
            .map(|v| {
                let (row, rest) = std::mem::take(&mut view).split_at_mut(g.degree(v));
                view = rest;
                row
            })
            .collect()
    }

    #[test]
    fn port_delta_exchange_is_per_edge() {
        let g = generators::cycle(6).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        // Every view entry starts at a value no node announces.
        const OLD: u64 = 999;
        let mut view = vec![OLD; g.adjacency().len()];
        // Node v announces v*13 only on its port 0 edge.
        let announce = [true, false];
        let inputs: Vec<DeltaInput<u64>> = (0..6u64)
            .zip(rows(&g, &mut view))
            .map(|(v, view)| DeltaInput {
                value: v * 13,
                announce: &announce,
                view,
            })
            .collect();
        let out = net.run("pdx", &PortDeltaExchange::new(), inputs).unwrap();
        let mut total = 0usize;
        for v in 0..6usize {
            let base = g.offsets()[v] as usize;
            for (p, a) in g
                .neighbors(graphs::NodeId::from_index(v))
                .iter()
                .enumerate()
            {
                let u = a.neighbor;
                // We hear u iff u's port toward us is u's port 0; a silent
                // port keeps its previous entry.
                let u_port_to_v = g
                    .neighbors(u)
                    .iter()
                    .position(|e| e.neighbor.index() == v)
                    .unwrap();
                let heard = u_port_to_v == 0;
                let want = if heard { u.raw() as u64 * 13 } else { OLD };
                assert_eq!(view[base + p], want, "node {v} port {p}");
                total += heard as usize;
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
        let before: Vec<u64> = (0..g.adjacency().len() as u64).collect();
        let mut view = before.clone();
        let announce = vec![false; g.adjacency().len()];
        let inputs: Vec<DeltaInput<u64>> = rows(&g, &mut view)
            .into_iter()
            .enumerate()
            .map(|(v, view)| DeltaInput {
                value: v as u64,
                announce: &announce[g.offsets()[v] as usize..g.offsets()[v + 1] as usize],
                view,
            })
            .collect();
        let out = net.run("pdx0", &PortDeltaExchange::new(), inputs).unwrap();
        assert_eq!(view, before, "silent ports keep their entries");
        assert_eq!(out.metrics.messages, 0);
    }
}
