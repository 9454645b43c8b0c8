//! The shared pipelined sorted-stream merge core.
//!
//! Every node merges its children's sorted keyed streams with its own
//! pre-sorted input, reduces equal-key runs, filters the result through
//! a per-node keep predicate, and relays it upward one item per round.
//! This module owns that protocol **once** — the child-stream buffers,
//! the readiness rule, the end-of-stream accounting, and the per-round
//! emission budget — so a protocol fix lands in one place. It has one
//! in-crate instantiation, [`GroupedSum`](crate::primitives::GroupedSum),
//! which keeps every item; the distributed MST's cycle-filtered upcast
//! (`mincut::dist::mst`) is the other, and drops every edge that closes a
//! cycle in the node's forest.
//!
//! # The monoid contract
//!
//! A [`KeyedMonoid`] names an item type, an [`Ord`] grouping key, and a
//! `combine` operation. Keys need not be integers: the MST's key is the
//! packing's relative load, a cross-multiplied ratio. `combine` must be
//! **associative** and **commutative** on items of equal key: the core
//! reduces an equal-key run in whatever order the streams deliver it,
//! and different tree shapes reduce the same multiset in different
//! orders. Under that contract the root's output is independent of the
//! tree and equals the sequential fold of all inputs, which is what the
//! per-protocol oracle tests assert. A monoid whose keys are unique
//! (every key enters the network once) never sees `combine` called.
//!
//! # The keep predicate
//!
//! [`KeyedStreamReduce::relay_round`] takes a `keep` predicate and asks
//! it about every reduced item as the item is popped, in key order. A
//! kept item is relayed (or, at a root, handed to the sink); a dropped
//! item vanishes on the spot, and the node pops the next decided item in
//! the same round — a dropped item costs no round and no message. The
//! predicate may carry per-node state: the MST's predicate is a union
//! over fragment ids that succeeds only for an edge joining two classes.
//!
//! # Invariants owned here
//!
//! * **Sorted streams** — the node's own input is sorted and pre-reduced
//!   at [`KeyedStreamReduce::new`]; each child's stream arrives sorted
//!   because the child ran the same protocol. Merging sorted streams and
//!   emitting the minimum key keeps the outgoing stream sorted, and the
//!   keep predicate sees every item in key order.
//! * **Readiness** — a key may only be emitted when *every* stream is
//!   ready (has a buffered item or has ended); otherwise a smaller key
//!   could still arrive and break the sorted-output invariant.
//! * **`End` accounting** — each child sends exactly one
//!   [`StreamMsg::End`] after its last item; the node sends its own `End`
//!   exactly once, after all streams are exhausted.
//! * **Emission budget** — a non-root relays at most **one** kept item
//!   per round, so a phase never puts more than one `StreamMsg` on an
//!   edge per round and the per-message bound is the per-round bound.
//!
//! # Bit-budget math
//!
//! With bandwidth `β·⌈log₂ n⌉` bits per edge per round (β = 8 by
//! default), one `StreamMsg::Item` must fit in that budget: `TAG_BITS`
//! (enum discriminants) plus the item's own bits. `GroupedSum`'s widest
//! key is the driver's case-2 pair of `T_F` fragment numbers,
//! `lo·k + hi < k²` for `k ≤ n` fragments, i.e. at most `2⌈log₂ n⌉` key
//! bits — within the default budget for every `n` (the old node-id pair
//! key in a `u32` capped `n` at 65535), leaving `(β − 2)⌈log₂ n⌉ − O(1)`
//! bits for the payload, enough for `poly(n)` values. The MST upcast's
//! item carries its key — load, weight, and an edge id of up to
//! `2⌈log₂ n⌉` bits — plus two fragment ids and two BFS in-times of
//! `⌈log₂ n⌉` bits each; it peaks at 65 bits on torus32x32, against an
//! 80-bit budget.

use crate::algorithm::{Outbox, Step};
use crate::message::Message;
use crate::node::{NodeCtx, Port, TreeInfo};
use crate::primitives::broadcast::StreamMsg;
use std::collections::VecDeque;

/// The reduction contract of [`KeyedStreamReduce`]: a keyed item type
/// whose equal-key items form a commutative semigroup under `combine`
/// (see the module docs for why commutativity and associativity are
/// required, and the bit-budget section for what an item may cost).
pub trait KeyedMonoid {
    /// The stream item carried on the wire.
    type Item: Message;

    /// The grouping key. Streams travel in increasing key order.
    type Key: Ord;

    /// The grouping key of an item.
    fn key(item: &Self::Item) -> Self::Key;

    /// Reduces two items of the same key into one. Must be associative
    /// and commutative for equal keys.
    fn combine(a: Self::Item, b: Self::Item) -> Self::Item;
}

/// One incoming stream: a child's, or the node's own input.
#[derive(Debug)]
struct Stream<T> {
    buf: VecDeque<T>,
    ended: bool,
}

impl<T> Stream<T> {
    /// Ready = the stream cannot later produce a smaller key than its
    /// front: something is buffered, or it has ended.
    fn ready(&self) -> bool {
        self.ended || !self.buf.is_empty()
    }
}

/// The pipelined keyed-stream reducer: merges the node's own sorted input
/// with its children's sorted streams, reducing equal keys via
/// [`KeyedMonoid::combine`], and relays the kept part of the merged
/// stream to the parent one item per round
/// ([`KeyedStreamReduce::relay_round`]).
///
/// This is per-node *state*, not an [`crate::Algorithm`]: the thin
/// protocol wrappers ([`crate::primitives::GroupedSum`] and the MST's
/// filtered upcast) embed it and differ only in what they keep and what
/// they do with decided items.
#[derive(Debug)]
pub struct KeyedStreamReduce<M: KeyedMonoid> {
    /// Port to the parent (`None` at a root).
    parent: Option<Port>,
    /// Slot 0 = the node's own input; 1.. = children in tree order.
    streams: Vec<Stream<M::Item>>,
    /// Port index → stream slot (`usize::MAX` for non-child ports).
    slot_of_port: Vec<usize>,
    /// The node's own `End` has been relayed.
    end_sent: bool,
}

impl<M: KeyedMonoid> KeyedStreamReduce<M> {
    /// Builds the reducer for one node: sorts and pre-reduces `own`
    /// (arbitrary order, duplicate keys allowed) and opens one stream per
    /// child of `tree`. `ctx` supplies the node's degree for the port
    /// map.
    pub fn new(ctx: &NodeCtx<'_>, tree: &TreeInfo, mut own: Vec<M::Item>) -> Self {
        own.sort_unstable_by_key(M::key);
        let mut merged: VecDeque<M::Item> = VecDeque::with_capacity(own.len());
        for item in own {
            match merged.back_mut() {
                Some(last) if M::key(last) == M::key(&item) => {
                    let prev = merged.pop_back().expect("back exists");
                    merged.push_back(M::combine(prev, item));
                }
                _ => merged.push_back(item),
            }
        }
        let mut streams = Vec::with_capacity(1 + tree.children.len());
        streams.push(Stream {
            buf: merged,
            ended: true, // the node's own input is complete from the start
        });
        let mut slot_of_port = vec![usize::MAX; ctx.degree()];
        for (i, &c) in tree.children.iter().enumerate() {
            slot_of_port[c.index()] = 1 + i;
            streams.push(Stream {
                buf: VecDeque::new(),
                ended: false,
            });
        }
        KeyedStreamReduce {
            parent: tree.parent,
            streams,
            slot_of_port,
            end_sent: false,
        }
    }

    /// Feeds one round's inbox into the stream buffers. Items append to
    /// the sender's stream; `End` closes it. Messages may only arrive
    /// from child ports.
    pub fn absorb(&mut self, inbox: &[(Port, StreamMsg<M::Item>)]) {
        for (port, msg) in inbox {
            let slot = self.slot_of_port[port.index()];
            debug_assert_ne!(slot, usize::MAX, "messages only arrive from children");
            match msg {
                StreamMsg::Item(p) => self.streams[slot].buf.push_back(p.clone()),
                StreamMsg::End => self.streams[slot].ended = true,
            }
        }
    }

    /// The next key that could be emitted: the minimum buffered key, but
    /// only once every stream is ready (otherwise a smaller key could
    /// still arrive).
    fn peek_key(&self) -> Option<M::Key> {
        if !self.streams.iter().all(Stream::ready) {
            return None;
        }
        self.streams
            .iter()
            .filter_map(|s| s.buf.front().map(M::key))
            .min()
    }

    /// If a key is decided ([`KeyedStreamReduce::peek_key`]), pops its
    /// whole equal-key run from every stream and reduces it to one item.
    fn pop_min(&mut self) -> Option<M::Item> {
        let k = self.peek_key()?;
        let mut acc: Option<M::Item> = None;
        for s in &mut self.streams {
            while s.buf.front().is_some_and(|f| M::key(f) == k) {
                let item = s.buf.pop_front().expect("front exists");
                acc = Some(match acc {
                    Some(a) => M::combine(a, item),
                    None => item,
                });
            }
        }
        acc
    }

    /// All streams ended and drained.
    fn exhausted(&self) -> bool {
        self.streams.iter().all(|s| s.ended && s.buf.is_empty())
    }

    /// The next decided batch that `keep` accepts; the decided batches
    /// it rejects before that are dropped.
    fn pop_kept(&mut self, keep: &mut impl FnMut(&M::Item) -> bool) -> Option<M::Item> {
        std::iter::from_fn(|| self.pop_min()).find(|item| keep(item))
    }

    /// The shared per-round emission step. Every decided batch is
    /// offered to `keep` in key order; a rejected batch is dropped
    /// without using the round (see the module docs).
    ///
    /// * **Root** (no parent): drains every kept batch into `sink`,
    ///   halting once all streams are exhausted.
    /// * **Non-root**: relays at most one kept batch to the parent (the
    ///   per-round emission budget — one `StreamMsg` per edge per
    ///   round), or the node's single `End` once exhausted; `sink` is
    ///   not called.
    ///
    /// Call [`KeyedStreamReduce::absorb`] before this.
    pub fn relay_round(
        &mut self,
        mut keep: impl FnMut(&M::Item) -> bool,
        mut sink: impl FnMut(M::Item),
    ) -> Step<StreamMsg<M::Item>> {
        match self.parent {
            None => {
                while let Some(item) = self.pop_kept(&mut keep) {
                    sink(item);
                }
                if self.exhausted() {
                    Step::halt()
                } else {
                    Step::idle()
                }
            }
            Some(parent) => {
                let mut out = Outbox::new();
                if let Some(item) = self.pop_kept(&mut keep) {
                    out.send(parent, StreamMsg::Item(item));
                    Step::Continue(out)
                } else if self.exhausted() && !self.end_sent {
                    self.end_sent = true;
                    out.send(parent, StreamMsg::End);
                    Step::Halt(out)
                } else {
                    Step::idle()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NeighborInfo;
    use crate::primitives::grouped::{KeyedSum, SumMonoid};
    use graphs::{EdgeId, NodeId};

    fn ctx_with_degree(neighbors: &[NeighborInfo]) -> NodeCtx<'_> {
        NodeCtx {
            node: NodeId::new(0),
            n: 8,
            bandwidth_bits: 64,
            round: 1,
            neighbors,
            suspected: &[],
        }
    }

    fn nbrs(degree: usize) -> Vec<NeighborInfo> {
        (0..degree)
            .map(|i| NeighborInfo {
                id: NodeId::new(i as u32 + 1),
                weight: 1,
                edge: EdgeId::new(i as u32),
            })
            .collect()
    }

    fn item(key: u64, value: u64) -> StreamMsg<KeyedSum> {
        StreamMsg::Item(KeyedSum { key, value })
    }

    /// Readiness gating: nothing is decided while a child stream is
    /// silent, even when another child already ended — and `End`s
    /// arriving in any order across streams unblock correctly.
    #[test]
    fn out_of_order_ends_do_not_unblock_early() {
        let neighbors = nbrs(3);
        let ctx = ctx_with_degree(&neighbors);
        let tree = TreeInfo {
            parent: None,
            children: vec![Port(0), Port(1), Port(2)],
            depth: 0,
        };
        let mut core: KeyedStreamReduce<SumMonoid> =
            KeyedStreamReduce::new(&ctx, &tree, vec![KeyedSum { key: 5, value: 1 }]);
        // Child 1 ends before sending anything; child 2 sends an item.
        core.absorb(&[(Port(1), StreamMsg::End), (Port(2), item(5, 2))]);
        // Child 0 is still silent: no key is decided.
        assert_eq!(core.peek_key(), None);
        assert!(core.pop_min().is_none());
        // Child 0's item arrives later, with a *smaller* key — exactly
        // what popping early would have mis-ordered.
        core.absorb(&[(Port(0), item(3, 7))]);
        assert_eq!(core.peek_key(), Some(3));
        let first = core.pop_min().expect("key 3 decided");
        assert_eq!((first.key, first.value), (3, 7));
        // Key 5 is not decided until child 0 and child 2 end too.
        assert_eq!(core.peek_key(), None);
        core.absorb(&[(Port(0), StreamMsg::End), (Port(2), StreamMsg::End)]);
        let second = core.pop_min().expect("key 5 decided");
        assert_eq!((second.key, second.value), (5, 3));
        assert!(core.exhausted());
    }

    /// The node's own duplicate keys are pre-reduced at construction.
    #[test]
    fn own_input_is_sorted_and_reduced() {
        let neighbors = nbrs(0);
        let ctx = ctx_with_degree(&neighbors);
        let mut core: KeyedStreamReduce<SumMonoid> = KeyedStreamReduce::new(
            &ctx,
            &TreeInfo::default(),
            vec![
                KeyedSum { key: 9, value: 1 },
                KeyedSum { key: 2, value: 2 },
                KeyedSum { key: 9, value: 4 },
            ],
        );
        let a = core.pop_min().unwrap();
        assert_eq!((a.key, a.value), (2, 2));
        let b = core.pop_min().unwrap();
        assert_eq!((b.key, b.value), (9, 5));
        assert!(core.pop_min().is_none() && core.exhausted());
    }

    /// A childless root with empty input halts immediately; a non-root
    /// sends exactly one `End` and halts.
    #[test]
    fn empty_streams_terminate_with_one_end() {
        let neighbors = nbrs(1);
        let ctx = ctx_with_degree(&neighbors);
        let mut root: KeyedStreamReduce<SumMonoid> =
            KeyedStreamReduce::new(&ctx, &TreeInfo::default(), vec![]);
        assert!(matches!(root.relay_round(|_| true, |_| ()), Step::Halt(o) if o.is_empty()));
        let leaf_tree = TreeInfo {
            parent: Some(Port(0)),
            children: vec![],
            depth: 1,
        };
        let mut leaf: KeyedStreamReduce<SumMonoid> =
            KeyedStreamReduce::new(&ctx, &leaf_tree, vec![]);
        match leaf.relay_round(|_| true, |_| ()) {
            Step::Halt(o) => assert_eq!(o.len(), 1), // the End marker
            Step::Continue(_) => panic!("leaf must halt after its End"),
        }
    }

    /// Non-roots emit at most one item per round (the emission budget).
    #[test]
    fn non_root_relays_one_item_per_round() {
        let neighbors = nbrs(1);
        let ctx = ctx_with_degree(&neighbors);
        let tree = TreeInfo {
            parent: Some(Port(0)),
            children: vec![],
            depth: 1,
        };
        let mut core: KeyedStreamReduce<SumMonoid> = KeyedStreamReduce::new(
            &ctx,
            &tree,
            (0..4).map(|k| KeyedSum { key: k, value: 1 }).collect(),
        );
        for _ in 0..4 {
            match core.relay_round(|_| true, |_| ()) {
                Step::Continue(o) => assert_eq!(o.len(), 1),
                Step::Halt(_) => panic!("items remain"),
            }
        }
        assert!(matches!(core.relay_round(|_| true, |_| ()), Step::Halt(o) if o.len() == 1));
    }

    /// A dropped item does not use up the round's one-item budget: the
    /// node pops on to the next kept item in the same round, and sends
    /// its `End` in the round its last item is dropped.
    #[test]
    fn dropped_items_cost_no_round() {
        let neighbors = nbrs(1);
        let ctx = ctx_with_degree(&neighbors);
        let tree = TreeInfo {
            parent: Some(Port(0)),
            children: vec![],
            depth: 1,
        };
        let mut core: KeyedStreamReduce<SumMonoid> = KeyedStreamReduce::new(
            &ctx,
            &tree,
            (0..5).map(|k| KeyedSum { key: k, value: 1 }).collect(),
        );
        let mut asked = Vec::new();
        let mut keep = |p: &KeyedSum| {
            asked.push(p.key);
            p.key == 2
        };
        // Keys 0 and 1 are dropped; key 2 goes out in the first round.
        match core.relay_round(&mut keep, |_| ()) {
            Step::Continue(o) => {
                assert!(matches!(&o.msgs[..], [(_, StreamMsg::Item(p))] if p.key == 2));
            }
            Step::Halt(_) => panic!("key 2 is kept"),
        }
        // Keys 3 and 4 are dropped; the `End` goes out in the second.
        assert!(matches!(core.relay_round(&mut keep, |_| ()), Step::Halt(o) if o.len() == 1));
        assert_eq!(asked, [0, 1, 2, 3, 4]);
    }
}
