//! The shared pipelined sorted-stream merge core.
//!
//! Every node merges its children's sorted keyed streams with its own
//! pre-sorted input, reduces equal-key runs, filters the result through
//! a per-node keep predicate, and relays it upward, as many items per
//! round as fit the edge. This module owns that protocol **once** — the
//! child-stream buffers, the readiness rule, the end-of-stream
//! accounting, and the per-round emission budget — so a protocol fix
//! lands in one place. It has one
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
//! the same round — a dropped item costs no round, no message and no
//! bit. The
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
//! * **`End` accounting** — each child sends exactly one end marker,
//!   alone or riding its last batch ([`StreamMsg::ends`]); the node
//!   sends its own exactly once, after all streams are exhausted.
//! * **Emission budget** — a non-root relays per round the kept items
//!   that fit one message under the edge's budget, in key order, by the
//!   stream rule ([`crate::primitives::stream::Fill`]), and its end
//!   marker with the last of them when it fits. A phase therefore puts
//!   at most one `StreamMsg` on an edge per round, and no message over
//!   the budget unless a lone item exceeds it. A kept item that does not
//!   fit waits, already kept, at the front of the next round's message.
//!
//! # Bit-budget math
//!
//! With bandwidth `β·⌈log₂ n⌉` bits per edge per round (β = 8 by
//! default), one lone `StreamMsg::Item` must fit in that budget:
//! `TAG_BITS` (enum discriminants) plus the item's own bits. A batch of
//! `c` items costs `TAG_BITS + value_bits(c)` plus the items' own bits,
//! so it holds about `(β⌈log₂ n⌉ − 4)/b` items of `b` bits each.
//! `GroupedSum`'s widest key is the driver's case-2 pair of `T_F`
//! fragment numbers, `lo·k + hi < k²` for `k ≤ n` fragments, i.e. at
//! most `2⌈log₂ n⌉` key bits — within the default budget for every `n`
//! (the old node-id pair key in a `u32` capped `n` at 65535), leaving
//! `(β − 2)⌈log₂ n⌉ − O(1)` bits for the payload, enough for `poly(n)`
//! values. On the 70,602-node benchmark instance the `s4a` batches fill
//! the 136-bit edge: its widest message is exactly 136 bits. The MST
//! upcast's item carries its key — load, weight, and an edge id of up
//! to `2⌈log₂ n⌉` bits — plus two fragment ids and two BFS in-times of
//! `⌈log₂ n⌉` bits each; it peaks at 65 bits on torus32x32, against an
//! 80-bit budget, so there the widest items travel alone.

use crate::algorithm::{Outbox, Step};
use crate::message::Message;
use crate::node::{NodeCtx, Port, TreeInfo};
use crate::primitives::stream::{Fill, StreamMsg};
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
/// stream to the parent, as many items per round as fit the edge
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
    /// Non-roots: the kept item that did not fit last round's message,
    /// after its entry bits; it leaves first in the next.
    held: Option<(usize, M::Item)>,
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
            held: None,
        }
    }

    /// Feeds one round's inbox into the stream buffers. Items append to
    /// the sender's stream; its end marker closes it. Messages may only
    /// arrive from child ports.
    pub fn absorb(&mut self, inbox: &[(Port, StreamMsg<M::Item>)]) {
        for (port, msg) in inbox {
            let slot = self.slot_of_port[port.index()];
            debug_assert_ne!(slot, usize::MAX, "messages only arrive from children");
            let stream = &mut self.streams[slot];
            // The lone forms skip the batch path: most messages are one.
            match msg {
                StreamMsg::Item(x) => stream.buf.push_back(x.clone()),
                StreamMsg::End => stream.ended = true,
                batch => {
                    stream.buf.extend(batch.items().iter().cloned());
                    stream.ended |= batch.ends();
                }
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
    /// * **Non-root**: relays to the parent the kept batches that fit
    ///   one message under `budget` bits, in key order, and the node's
    ///   single `End` with the last of them, or alone, once exhausted
    ///   (the per-round emission budget — one `StreamMsg` per edge per
    ///   round); `sink` is not called.
    ///
    /// Call [`KeyedStreamReduce::absorb`] before this.
    pub fn relay_round(
        &mut self,
        budget: usize,
        mut keep: impl FnMut(&M::Item) -> bool,
        mut sink: impl FnMut(M::Item),
    ) -> Step<StreamMsg<M::Item>> {
        let Some(parent) = self.parent else {
            while let Some(item) = self.pop_kept(&mut keep) {
                sink(item);
            }
            return if self.exhausted() {
                Step::halt()
            } else {
                Step::idle()
            };
        };
        // The held item goes first; then pop kept items until one does
        // not fit, which is held for the next round. A lone item
        // allocates nothing.
        let mut fill = Fill::new(budget);
        let mut first = None;
        let mut more = Vec::new();
        loop {
            let (bits, item) = match self.held.take() {
                Some(held) => held,
                None => match self.pop_kept(&mut keep) {
                    Some(item) => (item.entry_bits(), item),
                    None => break,
                },
            };
            if !fill.take(bits) {
                self.held = Some((bits, item));
                break;
            }
            match first {
                None => first = Some(item),
                Some(_) => more.push(item),
            }
        }
        let end = self.held.is_none() && self.exhausted() && fill.ends(0);
        if first.is_none() && !end {
            return Step::idle();
        }
        let msg = StreamMsg::pack(fill.count(), first.into_iter().chain(more), end)
            .expect("an item or the end marker");
        let mut out = Outbox::new();
        out.send(parent, msg);
        if end {
            Step::Halt(out)
        } else {
            Step::Continue(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::TAG_BITS;
    use crate::primitives::grouped::{KeyedSum, SumMonoid};
    use graphs::{AdjEntry, EdgeId, NodeId};

    fn ctx_with_degree(neighbors: &[AdjEntry]) -> NodeCtx<'_> {
        NodeCtx {
            node: NodeId::new(0),
            n: 8,
            bandwidth_bits: 64,
            round: 1,
            neighbors,
            suspected: &[],
        }
    }

    fn nbrs(degree: usize) -> Vec<AdjEntry> {
        (0..degree)
            .map(|i| AdjEntry {
                neighbor: NodeId::new(i as u32 + 1),
                edge: EdgeId::new(i as u32),
                weight: 1,
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
        assert!(matches!(root.relay_round(64, |_| true, |_| ()), Step::Halt(o) if o.is_empty()));
        let mut leaf: KeyedStreamReduce<SumMonoid> =
            KeyedStreamReduce::new(&ctx, &leaf_tree(), vec![]);
        match leaf.relay_round(64, |_| true, |_| ()) {
            Step::Halt(o) => assert!(matches!(&o.msgs[..], [(_, StreamMsg::End)])),
            Step::Continue(_) | Step::Wait(..) => panic!("leaf must halt after its End"),
        }
    }

    fn leaf_tree() -> TreeInfo {
        TreeInfo {
            parent: Some(Port(0)),
            children: vec![],
            depth: 1,
        }
    }

    /// A childless non-root holding `(key, 1)` for every key in `keys`.
    fn leaf_with(ctx: &NodeCtx<'_>, keys: std::ops::Range<u64>) -> KeyedStreamReduce<SumMonoid> {
        let own = keys.map(|key| KeyedSum { key, value: 1 }).collect();
        KeyedStreamReduce::new(ctx, &leaf_tree(), own)
    }

    /// Runs `core` to its halt under `budget`: every message it sends,
    /// in round order, as (keys carried, whether the stream ends there,
    /// bits).
    fn relay_all(
        core: &mut KeyedStreamReduce<SumMonoid>,
        budget: usize,
        mut keep: impl FnMut(&KeyedSum) -> bool,
    ) -> Vec<(Vec<u64>, bool, usize)> {
        let mut sent = Vec::new();
        for _ in 0..2000 {
            let (halted, out) = match core.relay_round(budget, &mut keep, |_| ()) {
                Step::Continue(o) | Step::Wait(o, _) => (false, o),
                Step::Halt(o) => (true, o),
            };
            assert!(out.len() <= 1, "one message per edge per round");
            for (_, msg) in out.msgs {
                let keys = msg.items().iter().map(|p| p.key).collect();
                sent.push((keys, msg.ends(), msg.bit_len()));
            }
            if halted {
                return sent;
            }
        }
        panic!("the stream never ended");
    }

    /// The emission budget is the stream rule: under a budget that fits
    /// one item, a non-root still relays one item per round; at 64 bits
    /// the four keys and the end marker leave in one message.
    #[test]
    fn non_root_relays_one_item_per_round() {
        let neighbors = nbrs(1);
        let ctx = ctx_with_degree(&neighbors);
        // Keys 0..4 with value 1 cost 6, 6, 7 and 7 bits; a lone item
        // costs 4 more, and two in a batch cost 4 + 2 + 12 = 18 bits.
        let one = relay_all(&mut leaf_with(&ctx, 0..4), 11, |_| true);
        let want: Vec<(Vec<u64>, bool, usize)> = vec![
            (vec![0], false, 10),
            (vec![1], false, 10),
            (vec![2], false, 11),
            (vec![3], false, 11),
            (vec![], true, TAG_BITS),
        ];
        assert_eq!(one, want);
        let all = relay_all(&mut leaf_with(&ctx, 0..4), 64, |_| true);
        assert_eq!(all, [(vec![0, 1, 2, 3], true, 4 + 3 + 26)]);
    }

    /// A dropped item takes no room: the node pops on to the next kept
    /// item in the same round, and its end marker leaves in the round its
    /// last item is dropped — riding with the kept item when it fits.
    #[test]
    fn dropped_items_cost_no_round() {
        let neighbors = nbrs(1);
        let ctx = ctx_with_degree(&neighbors);
        // Keys 0, 1, 3 and 4 are dropped: key 2 and the end marker leave
        // in the first round. Under a one-item budget key 2 leaves alone,
        // and the end marker, which would not fit beside it, in the
        // second round.
        for (budget, want) in [
            (64, vec![(vec![2], true, 4 + 1 + 7)]),
            (11, vec![(vec![2], false, 11), (vec![], true, TAG_BITS)]),
        ] {
            let mut asked = Vec::new();
            let keep = |p: &KeyedSum| {
                asked.push(p.key);
                p.key == 2
            };
            assert_eq!(relay_all(&mut leaf_with(&ctx, 0..5), budget, keep), want);
            assert_eq!(asked, [0, 1, 2, 3, 4]);
        }
    }

    /// The end marker rides only when it fits: a last item that fills
    /// the edge alone leaves the end marker to the next round, one bit
    /// more of budget lets them share the message.
    #[test]
    fn the_end_marker_rides_only_when_it_fits() {
        let neighbors = nbrs(1);
        let ctx = ctx_with_degree(&neighbors);
        let sent = relay_all(&mut leaf_with(&ctx, 3..4), 11, |_| true);
        assert_eq!(sent, [(vec![3], false, 11), (vec![], true, TAG_BITS)]);
        let sent = relay_all(&mut leaf_with(&ctx, 3..4), 12, |_| true);
        assert_eq!(sent, [(vec![3], true, 12)]);
    }

    /// Under every budget that fits a lone item, no message exceeds the
    /// budget, the keys leave in order, each once, and the end marker
    /// exactly once, last.
    #[test]
    fn the_packer_never_emits_a_message_over_budget() {
        let neighbors = nbrs(1);
        let ctx = ctx_with_degree(&neighbors);
        // Keys up to 999 cost up to 4 + 10 + 1 = 15 bits, 19 alone.
        for budget in 19..=96 {
            let sent = relay_all(&mut leaf_with(&ctx, 0..1000), budget, |p| p.key % 7 != 3);
            assert!(
                sent.iter().all(|&(_, _, bits)| bits <= budget),
                "budget {budget}"
            );
            let keys: Vec<u64> = sent.iter().flat_map(|(k, _, _)| k.clone()).collect();
            let want: Vec<u64> = (0..1000).filter(|k| k % 7 != 3).collect();
            assert_eq!(keys, want, "budget {budget}");
            let ends: Vec<bool> = sent.iter().map(|&(_, end, _)| end).collect();
            assert_eq!(ends.iter().filter(|&&e| e).count(), 1);
            assert_eq!(ends.last(), Some(&true));
        }
    }
}
