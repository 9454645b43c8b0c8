//! The per-round node sweep: boot and round execution over the nodes,
//! slot-arena routing and the per-sweep stats.
//!
//! A phase owns two [`SlotArena`]s, one slot per directed edge each: a
//! round drains the half the previous round wrote and routes its own
//! sends into the other half, so a round's sends are the next round's
//! inboxes. Everything is plain data written through `&mut`.

use super::PhaseSpec;
use crate::algorithm::{Algorithm, Step};
use crate::error::CongestError;
use crate::message::Message;
use crate::node::Port;
use graphs::NodeId;

/// Per-node executor state: the algorithm state plus the halted flag.
pub(crate) struct NodeCell<S> {
    pub(crate) state: Option<S>,
    pub(crate) halted: bool,
}

/// One half of the double-buffered message arena: a fixed slot per
/// directed edge (CSR by destination: node `v`'s inbox occupies slots
/// `slot_base[v]..slot_base[v + 1]`, one per port) plus a
/// per-destination count of occupied slots, so halted and idle nodes
/// are checked in `O(1)` instead of scanning their slot range.
pub(crate) struct SlotArena<M> {
    slots: Vec<Option<M>>,
    pending: Vec<u32>,
}

impl<M> SlotArena<M> {
    /// An empty arena with `total_slots` message slots over `n` nodes.
    fn new(total_slots: usize, n: usize) -> Self {
        SlotArena {
            slots: (0..total_slots).map(|_| None).collect(),
            pending: vec![0; n],
        }
    }

    /// Index of the first node with a non-empty inbox (error reporting
    /// for undeliverable messages once every node has halted).
    pub(crate) fn first_pending(&self) -> Option<usize> {
        self.pending.iter().position(|&p| p > 0)
    }
}

/// Everything a sweep touches: the phase geometry, the algorithm,
/// per-node cells, the double-buffered slot arenas, and the cumulative
/// per-directed-edge loads.
pub(crate) struct PhaseState<'a, A: Algorithm> {
    spec: &'a PhaseSpec<'a>,
    algo: &'a A,
    pub(crate) nodes: Vec<NodeCell<A::State>>,
    pub(crate) arenas: [SlotArena<A::Msg>; 2],
    /// Cumulative bits routed over each directed edge this phase
    /// (slot-indexed).
    edge_load: Vec<u64>,
    /// The inbox handed to `round`, reused across nodes and rounds.
    scratch: Vec<(Port, A::Msg)>,
}

/// What one sweep accumulates.
#[derive(Default)]
pub(crate) struct SweepStats {
    pub(crate) messages: u64,
    pub(crate) bits: u64,
    pub(crate) max_message_bits: usize,
    pub(crate) violations: u64,
    /// Nodes that halted during this sweep.
    pub(crate) halts: usize,
    /// Messages consumed from the read arena (delivered or dropped).
    pub(crate) delivered: usize,
    /// Destinations whose inbox went non-empty this sweep (each exactly
    /// once: pushed by the sender that flipped its pending count from 0).
    /// The next round sweeps `live ∪ (touched ∩ halted)` instead of all
    /// `n` nodes, so fully-halted regions cost nothing per round.
    pub(crate) touched: Vec<u32>,
    /// The sweep's error at the smallest node index, if any. The halted
    /// segment runs after the live one, so the first error found need
    /// not be the lowest node's.
    pub(crate) err: Option<(usize, CongestError)>,
}

impl SweepStats {
    fn record_err(&mut self, node: usize, e: CongestError) {
        match &self.err {
            Some((held, _)) if *held <= node => {}
            _ => self.err = Some((node, e)),
        }
    }
}

impl<'a, A: Algorithm> PhaseState<'a, A> {
    pub(crate) fn new(spec: &'a PhaseSpec<'a>, algo: &'a A) -> Self {
        let n = spec.n;
        let total = spec.slot_base[n];
        PhaseState {
            spec,
            algo,
            nodes: (0..n)
                .map(|_| NodeCell {
                    state: None,
                    halted: false,
                })
                .collect(),
            arenas: [SlotArena::new(total, n), SlotArena::new(total, n)],
            edge_load: vec![0; total],
            scratch: Vec::with_capacity(spec.max_degree),
        }
    }

    /// The phase's `max_edge_load_bits`: the heaviest cumulative load on
    /// any single (edge, direction).
    pub(crate) fn max_edge_load_bits(&self) -> usize {
        self.edge_load.iter().copied().max().unwrap_or(0) as usize
    }

    /// Round 0: boots every node with its input and routes its outbox
    /// into arena 0.
    pub(crate) fn boot(&mut self, inputs: Vec<A::Input>) -> SweepStats {
        let (spec, algo) = (self.spec, self.algo);
        let mut stats = SweepStats::default();
        let write = &mut self.arenas[0];
        for (v, input) in inputs.into_iter().enumerate() {
            let (state, outbox) = algo.boot(&spec.ctx(v, 0), input);
            self.nodes[v].state = Some(state);
            route_outbox(
                spec,
                v,
                0,
                outbox.msgs,
                write,
                &mut self.edge_load,
                &mut stats,
            );
        }
        stats
    }

    /// Round `round ≥ 1`: delivers the inboxes the previous round wrote,
    /// steps the `live` nodes (ascending ids; entries that halted since
    /// the last compaction are skipped) and routes their outboxes into
    /// the other arena. `halted` lists the halted nodes whose inbox went
    /// non-empty; they only get the messages-to-halted check.
    ///
    /// Errors are recorded, not returned early: the round runs to its
    /// end, and the lowest node's error is the one reported.
    pub(crate) fn round(&mut self, round: u64, live: &[u32], halted: &[u32]) -> SweepStats {
        let (spec, algo) = (self.spec, self.algo);
        let mut stats = SweepStats::default();
        let [even, odd] = &mut self.arenas;
        let (read, write) = if round % 2 == 1 {
            (even, odd)
        } else {
            (odd, even)
        };
        for &v in live {
            let v = v as usize;
            let cell = &mut self.nodes[v];
            if cell.halted {
                // Stale live-list entry awaiting compaction. Its inbox,
                // if any, is handled in the halted segment.
                continue;
            }
            let inbox = &mut self.scratch;
            inbox.clear();
            if read.pending[v] > 0 {
                let base = spec.slot_base[v];
                let slots = &mut read.slots[base..spec.slot_base[v + 1]];
                for (port, slot) in slots.iter_mut().enumerate() {
                    if let Some(m) = slot.take() {
                        inbox.push((Port(port as u32), m));
                    }
                }
                read.pending[v] = 0;
                stats.delivered += inbox.len();
            }
            let state = cell.state.as_mut().expect("live node has state");
            let outbox = match algo.round(state, &spec.ctx(v, round), inbox) {
                Step::Continue(o) => o,
                Step::Halt(o) => {
                    cell.halted = true;
                    stats.halts += 1;
                    o
                }
            };
            if outbox.msgs.is_empty() {
                // Most calls send nothing: waiting nodes are stepped too.
                continue;
            }
            route_outbox(
                spec,
                v,
                round,
                outbox.msgs,
                write,
                &mut self.edge_load,
                &mut stats,
            );
        }
        for &v in halted {
            let v = v as usize;
            let pending = read.pending[v];
            if pending == 0 {
                continue;
            }
            if spec.strict {
                stats.record_err(
                    v,
                    CongestError::MessageToHalted {
                        phase: spec.name.to_string(),
                        node: NodeId::from_index(v),
                        round,
                    },
                );
                continue;
            }
            // Lax mode: drop the inbox.
            read.slots[spec.slot_base[v]..spec.slot_base[v + 1]].fill_with(|| None);
            read.pending[v] = 0;
            stats.delivered += pending as usize;
        }
        stats
    }
}

/// Validates and routes one node's outbox into the write arena. The
/// engine's invariants are enforced here, in this order per send: the
/// port must exist; a port may carry at most one message per round
/// (slot occupancy *is* the `DoubleSend` check, since the slot belongs
/// to this sender alone); strict mode rejects over-budget messages.
/// Only then is the send metered, added to the edge's load and the
/// destination's pending count, and written.
fn route_outbox<M: Message>(
    spec: &PhaseSpec<'_>,
    v: usize,
    round: u64,
    msgs: Vec<(Port, M)>,
    write: &mut SlotArena<M>,
    edge_load: &mut [u64],
    stats: &mut SweepStats,
) {
    let degree = spec.neighbors[v].len();
    let base = spec.slot_base[v];
    for (port, msg) in msgs {
        let p = port.index();
        if p >= degree {
            stats.record_err(
                v,
                CongestError::InvalidPort {
                    phase: spec.name.to_string(),
                    node: NodeId::from_index(v),
                    port,
                    degree,
                },
            );
            return;
        }
        let slot = spec.write_slot[base + p];
        if write.slots[slot].is_some() {
            stats.record_err(
                v,
                CongestError::DoubleSend {
                    phase: spec.name.to_string(),
                    node: NodeId::from_index(v),
                    port,
                    round,
                },
            );
            return;
        }
        let bits = msg.bit_len();
        if bits > spec.bandwidth_bits {
            if spec.strict {
                stats.record_err(
                    v,
                    CongestError::BandwidthExceeded {
                        phase: spec.name.to_string(),
                        node: NodeId::from_index(v),
                        port,
                        bits,
                        budget: spec.bandwidth_bits,
                        round,
                    },
                );
                return;
            }
            stats.violations += 1;
        }
        stats.messages += 1;
        stats.bits += bits as u64;
        stats.max_message_bits = stats.max_message_bits.max(bits);
        edge_load[slot] += bits as u64;
        let dest = spec.routing[v][p].0;
        let pending = &mut write.pending[dest as usize];
        if *pending == 0 {
            // First message into `dest` this round: nominate it for the
            // next round's touched set.
            stats.touched.push(dest);
        }
        *pending += 1;
        write.slots[slot] = Some(msg);
    }
}
