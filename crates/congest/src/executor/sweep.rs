//! The per-round node sweep: boot and round execution over the nodes,
//! message routing and delivery, and the per-sweep stats.
//!
//! # Who is stepped
//!
//! Boot cannot wait, so round 1 steps every node. After that a round
//! steps, in ascending ids, only the nodes that returned
//! [`Step::Continue`] last round, the waiting nodes that last round's
//! sends reached, and the sleepers whose wake round is this one. A node
//! that returned [`Step::Wait`] leaves the sweep until then; the `Wait`
//! contract — a waiting node never needs a call to make progress — is
//! what makes skipping it exact, and the faulty executor, which calls
//! every node every round, checks it in debug builds. A round with no
//! one to step costs `O(1)` and still counts. When no node is awake, no
//! message is in flight and no sleeper has a wake round ahead while some
//! node has not halted, nothing can ever happen again: the phase fails
//! at once with the `MaxRoundsExceeded` it would reach at the round cap.
//!
//! # The store
//!
//! A round's sends are the next round's inboxes. The store is double
//! buffered: a round drains the half the previous round wrote and routes
//! its own sends into the other half. Each half is a per-directed-edge
//! `u32` index into that half's vector of the round's messages, plus a
//! per-destination count of waiting messages. The indices, counts, edge
//! loads and node lists do not depend on the message type, so the
//! [`crate::Network`] keeps them across phases ([`SweepBuffers`]); a
//! phase allocates only its node cells and, per half, the vector of the
//! messages one round sends. Everything is plain data written through
//! `&mut`.

use super::PhaseSpec;
use crate::algorithm::{Algorithm, Step};
use crate::error::CongestError;
use crate::message::Message;
use crate::node::Port;
use graphs::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An index entry with no message behind it.
const EMPTY: u32 = u32::MAX;

/// The serial executor's buffers that do not depend on the message
/// type, kept by the [`crate::Network`] across phases. Between phases
/// every pending count is 0, every index entry [`EMPTY`], every edge
/// load 0 and every list empty: a phase that ends cleanly leaves them
/// so, and [`SweepBuffers::reset`] restores them after one that fails.
#[derive(Default)]
pub(crate) struct SweepBuffers {
    /// Per half: each node's count of messages waiting in that half, so
    /// idle and halted nodes are checked in `O(1)` instead of scanning
    /// their slots.
    pending: [Vec<u32>; 2],
    /// Per half: for each directed edge (its slot, CSR by destination:
    /// node `v`'s inbox is `slot_base[v]..slot_base[v + 1]`, one slot
    /// per port), the position of its message in that half's message
    /// vector, or [`EMPTY`]. A slot belongs to one sender, so a
    /// non-empty entry *is* the `DoubleSend` check.
    index: [Vec<u32>; 2],
    /// Cumulative bits routed over each directed edge this phase.
    edge_load: Vec<u64>,
    /// The slots whose load is non-zero, each once: the phase's maximum
    /// is read, and the loads zeroed, from this list.
    loaded: Vec<u32>,
    /// The nodes the next round steps because they returned `Continue`
    /// (every node after boot), in ascending id order.
    awake: Vec<u32>,
    /// The same list for the round after, built by the sweep.
    next_awake: Vec<u32>,
    /// Destinations whose inbox went non-empty in the last sweep, each
    /// once (pushed by the sender that lifted its pending count from 0).
    touched: Vec<u32>,
    /// The waiting nodes this round wakes, by mail or by the clock.
    woken: Vec<u32>,
    /// The halted destinations of last round's sends, which get only
    /// the messages-to-halted check.
    halted: Vec<u32>,
    /// The sleepers' wake rounds, earliest first. An entry goes stale
    /// when mail wakes its node sooner; it is skipped when due.
    wakes: BinaryHeap<Reverse<(u64, u32)>>,
}

impl SweepBuffers {
    /// Sizes the buffers for `n` nodes and `slots` directed edges (a
    /// no-op after the first phase of a network).
    pub(crate) fn prepare(&mut self, n: usize, slots: usize) {
        assert!(
            u32::try_from(slots).is_ok_and(|s| s < EMPTY),
            "the serial executor supports fewer than u32::MAX directed edges"
        );
        if self.edge_load.len() != slots || self.pending[0].len() != n {
            self.pending = [vec![0; n], vec![0; n]];
            self.index = [vec![EMPTY; slots], vec![EMPTY; slots]];
            self.edge_load = vec![0; slots];
        }
    }

    /// Restores the between-phases state after a phase that failed with
    /// messages still stored or loads still counted.
    pub(crate) fn reset(&mut self) {
        for half in 0..2 {
            self.pending[half].fill(0);
            self.index[half].fill(EMPTY);
        }
        self.edge_load.fill(0);
        self.loaded.clear();
        self.awake.clear();
        self.next_awake.clear();
        self.touched.clear();
        self.woken.clear();
        self.halted.clear();
        self.wakes.clear();
    }
}

/// Where a node stands between rounds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Stepped next round: booted, woken, or it returned `Continue`.
    Awake,
    /// It returned `Wait`: stepped again when mail arrives or in round
    /// `wake` (`u64::MAX`: only mail wakes it).
    Waiting {
        wake: u64,
    },
    Halted,
}

/// Per-node executor state: the algorithm state and where the node
/// stands.
pub(crate) struct NodeCell<S> {
    pub(crate) state: S,
    status: Status,
}

/// Everything a sweep touches: the phase geometry, the algorithm, the
/// kept buffers, the per-node cells and, per half, the messages of the
/// round that wrote it.
pub(crate) struct PhaseState<'a, A: Algorithm> {
    spec: &'a PhaseSpec<'a>,
    algo: &'a A,
    bufs: &'a mut SweepBuffers,
    pub(crate) nodes: Vec<NodeCell<A::State>>,
    /// Per half: the messages one round sent, in send order, at the
    /// positions `bufs.index` names. Delivery takes them; the round that
    /// read the half clears it.
    msgs: [Vec<Option<A::Msg>>; 2],
    /// The inbox handed to `round`, reused across nodes and rounds.
    scratch: Vec<(Port, A::Msg)>,
    /// [`Algorithm::round`] calls so far.
    pub(crate) steps: u64,
}

/// What one sweep accumulates.
#[derive(Default)]
pub(crate) struct SweepStats {
    pub(crate) messages: u64,
    pub(crate) bits: u64,
    pub(crate) max_message_bits: usize,
    /// Nodes that halted during this sweep.
    pub(crate) halts: usize,
    /// Messages delivered from the read half.
    pub(crate) delivered: usize,
    /// The sweep's error at the smallest node index, if any. The halted
    /// segment runs after the stepped one, so the first error found need
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

/// Where one round's sends go: the write half of the store, the edge
/// loads and the touched list.
struct Router<'b, M> {
    pending: &'b mut [u32],
    index: &'b mut [u32],
    msgs: &'b mut Vec<Option<M>>,
    edge_load: &'b mut [u64],
    loaded: &'b mut Vec<u32>,
    touched: &'b mut Vec<u32>,
}

impl<'a, A: Algorithm> PhaseState<'a, A> {
    /// Round 0: boots every node with its input, building the node cells
    /// in the same pass, and routes the outboxes into half 0.
    pub(crate) fn boot(
        spec: &'a PhaseSpec<'a>,
        algo: &'a A,
        bufs: &'a mut SweepBuffers,
        inputs: Vec<A::Input>,
    ) -> (Self, SweepStats) {
        let mut stats = SweepStats::default();
        let mut msgs = [Vec::new(), Vec::new()];
        let mut nodes = Vec::with_capacity(spec.n);
        {
            let [pending, _] = &mut bufs.pending;
            let [index, _] = &mut bufs.index;
            let mut router = Router {
                pending,
                index,
                msgs: &mut msgs[0],
                edge_load: &mut bufs.edge_load,
                loaded: &mut bufs.loaded,
                touched: &mut bufs.touched,
            };
            for (v, input) in inputs.into_iter().enumerate() {
                let (state, outbox) = algo.boot(&spec.ctx(v, 0), input);
                router.route(spec, v, 0, outbox.msgs, &mut stats);
                nodes.push(NodeCell {
                    state,
                    status: Status::Awake,
                });
            }
        }
        bufs.awake.extend(0..spec.n as u32);
        let ps = PhaseState {
            spec,
            algo,
            bufs,
            nodes,
            msgs,
            scratch: Vec::with_capacity(spec.max_degree),
            steps: 0,
        };
        (ps, stats)
    }

    /// Index of the first node with a message waiting in the half that
    /// `round` wrote (error reporting for undeliverable messages once
    /// every node has halted).
    pub(crate) fn first_pending(&self, round: u64) -> Option<usize> {
        self.bufs.pending[(round % 2) as usize]
            .iter()
            .position(|&p| p > 0)
    }

    /// The phase's `max_edge_load_bits`, the heaviest cumulative load on
    /// any single (edge, direction), zeroing the loads for the next
    /// phase.
    pub(crate) fn take_max_edge_load_bits(&mut self) -> usize {
        let SweepBuffers {
            edge_load, loaded, ..
        } = &mut *self.bufs;
        let mut max = 0;
        for &slot in loaded.iter() {
            max = max.max(std::mem::take(&mut edge_load[slot as usize]));
        }
        loaded.clear();
        max as usize
    }

    /// Can no node ever be stepped again? True when none is awake, no
    /// message is in flight and no sleeper has a wake round ahead.
    pub(crate) fn stalled(&mut self) -> bool {
        let SweepBuffers {
            awake,
            touched,
            wakes,
            ..
        } = &mut *self.bufs;
        if !awake.is_empty() || !touched.is_empty() {
            return false;
        }
        while let Some(&Reverse((wake, v))) = wakes.peek() {
            if self.nodes[v as usize].status == (Status::Waiting { wake }) {
                return false;
            }
            wakes.pop();
        }
        true
    }

    /// Round `round ≥ 1`: wakes the waiting nodes that last round's
    /// sends reached and the sleepers due now, delivers the inboxes the
    /// previous round wrote, steps the awake nodes (ascending ids) and
    /// routes their outboxes into the other half. The halted nodes whose
    /// inbox went non-empty only get the messages-to-halted check.
    ///
    /// Errors are recorded, not returned early: the round runs to its
    /// end, and the lowest node's error is the one reported.
    pub(crate) fn round(&mut self, round: u64) -> SweepStats {
        let (spec, algo) = (self.spec, self.algo);
        let mut stats = SweepStats::default();
        let SweepBuffers {
            pending,
            index,
            edge_load,
            loaded,
            awake,
            next_awake,
            touched,
            woken,
            halted,
            wakes,
        } = &mut *self.bufs;
        let nodes = &mut self.nodes;
        woken.clear();
        halted.clear();
        for &v in touched.iter() {
            let cell = &mut nodes[v as usize];
            match cell.status {
                Status::Waiting { .. } => {
                    cell.status = Status::Awake;
                    woken.push(v);
                }
                Status::Halted => halted.push(v),
                Status::Awake => {}
            }
        }
        touched.clear();
        while let Some(&Reverse((wake, v))) = wakes.peek() {
            if wake > round {
                break;
            }
            wakes.pop();
            let cell = &mut nodes[v as usize];
            if cell.status == (Status::Waiting { wake }) {
                cell.status = Status::Awake;
                woken.push(v);
            }
        }
        woken.sort_unstable();
        next_awake.clear();
        let w = (round % 2) as usize;
        let ([p0, p1], [i0, i1], [m0, m1]) = (pending, index, &mut self.msgs);
        let ((read_pending, read_index, read_msgs), (pending, index, msgs)) = if w == 1 {
            ((p0, i0, m0), (p1, i1, m1))
        } else {
            ((p1, i1, m1), (p0, i0, m0))
        };
        let mut router = Router {
            pending,
            index,
            msgs,
            edge_load,
            loaded,
            touched,
        };
        for v in ascending_union(awake, woken) {
            let v = v as usize;
            let inbox = &mut self.scratch;
            inbox.clear();
            if read_pending[v] > 0 {
                let base = spec.slot_base[v];
                let slots = &mut read_index[base..spec.slot_base[v + 1]];
                for (port, at) in slots.iter_mut().enumerate() {
                    if *at != EMPTY {
                        let m = read_msgs[*at as usize].take().expect("indexed once");
                        *at = EMPTY;
                        inbox.push((Port(port as u32), m));
                    }
                }
                read_pending[v] = 0;
                stats.delivered += inbox.len();
            }
            self.steps += 1;
            let cell = &mut nodes[v];
            let outbox = match algo.round(&mut cell.state, &spec.ctx(v, round), inbox) {
                Step::Continue(o) => {
                    next_awake.push(v as u32);
                    o
                }
                Step::Wait(o, wake) => {
                    match wake {
                        Some(wake) if wake <= round + 1 => next_awake.push(v as u32),
                        Some(wake) => {
                            cell.status = Status::Waiting { wake };
                            wakes.push(Reverse((wake, v as u32)));
                        }
                        None => cell.status = Status::Waiting { wake: u64::MAX },
                    }
                    o
                }
                Step::Halt(o) => {
                    cell.status = Status::Halted;
                    stats.halts += 1;
                    o
                }
            };
            if !outbox.msgs.is_empty() {
                router.route(spec, v, round, outbox.msgs, &mut stats);
            }
        }
        for &v in halted.iter() {
            let v = v as usize;
            if read_pending[v] > 0 {
                stats.record_err(
                    v,
                    CongestError::MessageToHalted {
                        phase: spec.name.to_string(),
                        node: NodeId::from_index(v),
                        round,
                    },
                );
            }
        }
        read_msgs.clear();
        std::mem::swap(awake, next_awake);
        stats
    }
}

/// The ascending union of two ascending, disjoint id lists.
fn ascending_union<'l>(a: &'l [u32], b: &'l [u32]) -> impl Iterator<Item = u32> + 'l {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (_, Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, None) => return None,
        };
        Some(next)
    })
}

impl<M: Message> Router<'_, M> {
    /// Validates and routes node `v`'s outbox. The engine's invariants
    /// are enforced here, in this order per send: the port must exist; a
    /// port may carry at most one message per round (an occupied index
    /// entry *is* the `DoubleSend` check, since the slot belongs to this
    /// sender alone); a message must fit the bandwidth budget. Only then
    /// is the send metered, added to the edge's load and the
    /// destination's pending count, and stored.
    fn route(
        &mut self,
        spec: &PhaseSpec<'_>,
        v: usize,
        round: u64,
        msgs: Vec<(Port, M)>,
        stats: &mut SweepStats,
    ) {
        let adj = spec.ports(v);
        let degree = adj.len();
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
            if self.index[slot] != EMPTY {
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
            stats.messages += 1;
            stats.bits += bits as u64;
            stats.max_message_bits = stats.max_message_bits.max(bits);
            let load = &mut self.edge_load[slot];
            if *load == 0 && bits > 0 {
                self.loaded.push(slot as u32);
            }
            *load += bits as u64;
            let dest = adj[p].neighbor;
            let pending = &mut self.pending[dest.index()];
            if *pending == 0 {
                // First message into `dest` this round: nominate it for
                // the next round's touched set.
                self.touched.push(dest.raw());
            }
            *pending += 1;
            self.index[slot] = self.msgs.len() as u32;
            self.msgs.push(Some(msg));
        }
    }
}
