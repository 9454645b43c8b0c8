//! The wire format of the pipelined streams, and the one rule that fills
//! an edge with it.
//!
//! Every pipelined stream sends its items over an edge in a fixed order
//! and closes the edge with one end marker: the keyed merge core
//! ([`crate::primitives::merge`]: `s4a`, `mstB.up`), the upcast
//! ([`crate::primitives::UpcastItems`]: `s2c.up`, `s5c`), the routed
//! broadcast ([`crate::primitives::BroadcastItems`]: `orient.tf`,
//! `s2c.down`, `s4b`, `s5d`) and the cut stage's token routing (`s5`).
//! [`Fill`] decides how much of that order one message carries: each
//! round a sender puts on each edge as many ready items as fit the
//! edge's bandwidth budget (`ctx.bandwidth_bits`), in the order they
//! would have left one at a time, and the end marker rides in the last
//! message when it fits too. A stream therefore takes about its depth
//! plus its heaviest edge's load counted *in messages*, not in items.
//!
//! # Wire cost
//!
//! * A lone item costs [`TAG_BITS`] plus its own bits, and a lone end
//!   marker [`TAG_BITS`] plus its payload: exactly what they cost when
//!   every message carried one item. Neither allocates.
//! * A batch costs one [`TAG_BITS`], `value_bits(count)` for its item
//!   count, and each item's [`Message::entry_bits`]: its own bits, plus
//!   the 2 route-kind bits of a routed row, whose lone form names the
//!   route in the tag. A batch that carries the end marker is its own
//!   message kind, and adds the end marker's payload, if it has one.
//!   Each batch is one `Box<[T]>`, allocated once for exactly its
//!   items, so the message enum is no wider than the wider of an item
//!   and a boxed slice (16 bytes), plus the tag: items of 16 bytes or
//!   more travel in slots as wide as before.
//!
//! # Never over budget
//!
//! [`Fill`] takes the first ready item whatever its size, since a stream
//! must move, and beyond it only what fits. A message therefore exceeds
//! the budget only when a lone item or a lone end marker does; the
//! engine's bandwidth check then rejects it, as it did before packing.

use crate::message::{value_bits, Message, TAG_BITS};

/// Messages of the pipelined stream primitives: one data item, the end
/// marker, or a batch of items, with or without the end marker.
#[derive(Clone, Debug)]
pub enum StreamMsg<T> {
    /// One data item.
    Item(T),
    /// No more items will follow on this edge.
    End,
    /// Two or more items, in stream order.
    Batch(Box<[T]>),
    /// One or more items, in stream order; no more follow on this edge.
    BatchEnd(Box<[T]>),
}

impl<T> StreamMsg<T> {
    /// The message carrying the `count` items that `items` yields, in
    /// order, and the end marker after them if `end`; `None` for no item
    /// and no end. The batch forms allocate once, for exactly the items.
    pub fn pack(count: usize, items: impl IntoIterator<Item = T>, end: bool) -> Option<Self> {
        let mut items = items.into_iter();
        Some(match (count, end) {
            (0, false) => return None,
            (0, true) => StreamMsg::End,
            (1, false) => StreamMsg::Item(items.next().expect("one item")),
            (_, false) => StreamMsg::Batch(boxed(count, items)),
            (_, true) => StreamMsg::BatchEnd(boxed(count, items)),
        })
    }

    /// The items this message carries, in stream order.
    pub fn items(&self) -> &[T] {
        match self {
            StreamMsg::Item(t) => std::slice::from_ref(t),
            StreamMsg::End => &[],
            StreamMsg::Batch(b) | StreamMsg::BatchEnd(b) => b,
        }
    }

    /// Does the sender's stream end with this message?
    pub fn ends(&self) -> bool {
        matches!(self, StreamMsg::End | StreamMsg::BatchEnd(_))
    }
}

impl<T: Message> Message for StreamMsg<T> {
    fn bit_len(&self) -> usize {
        match self {
            StreamMsg::Item(t) => TAG_BITS + t.bit_len(),
            StreamMsg::End => TAG_BITS,
            StreamMsg::Batch(b) | StreamMsg::BatchEnd(b) => {
                batch_bits(b.len(), b.iter().map(Message::entry_bits).sum())
            }
        }
    }
}

/// Collects the `count` items of `items` into a boxed slice, with one
/// allocation of exactly that length.
fn boxed<T>(count: usize, items: impl Iterator<Item = T>) -> Box<[T]> {
    let mut v = Vec::with_capacity(count);
    v.extend(items);
    debug_assert_eq!(v.len(), count, "the iterator yields `count` items");
    v.into_boxed_slice()
}

/// Bits of a batch of `count` items whose entries (and end-marker
/// payload, if it rides) total `entries` bits.
pub fn batch_bits(count: usize, entries: usize) -> usize {
    TAG_BITS + value_bits(count as u64) + entries
}

/// The packing rule: one edge's message for one round, filled from the
/// front of the sender's ready items.
///
/// Offer the ready items in stream order with [`Fill::take`] until it
/// refuses one; the taken prefix is the message. Then ask
/// [`Fill::ends`] whether the end marker rides too, if the stream ends
/// after the prefix. Every loop that streams does exactly this, so the
/// rule lives here once.
#[derive(Clone, Copy, Debug)]
pub struct Fill {
    budget: usize,
    count: usize,
    bits: usize,
}

impl Fill {
    /// An empty message under a `budget`-bit edge.
    pub fn new(budget: usize) -> Self {
        Fill {
            budget,
            count: 0,
            bits: 0,
        }
    }

    /// Offers the next ready item, whose [`Message::entry_bits`] are
    /// `entry_bits`. Takes it and returns `true` if it is the first item
    /// or the batch still fits the budget with it; otherwise returns
    /// `false`, and the message is full: offer nothing more.
    pub fn take(&mut self, entry_bits: usize) -> bool {
        let fits =
            self.count == 0 || batch_bits(self.count + 1, self.bits + entry_bits) <= self.budget;
        if fits {
            self.count += 1;
            self.bits += entry_bits;
        }
        fits
    }

    /// Does the end marker, with `payload` bits, ride after the items
    /// taken? A lone end marker always goes.
    pub fn ends(&self, payload: usize) -> bool {
        self.count == 0 || batch_bits(self.count, self.bits + payload) <= self.budget
    }

    /// The number of items taken.
    pub fn count(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack(items: &[u64], end: bool) -> Option<StreamMsg<u64>> {
        StreamMsg::pack(items.len(), items.iter().copied(), end)
    }

    fn bits(msg: Option<StreamMsg<u64>>) -> usize {
        msg.expect("a message").bit_len()
    }

    /// A lone item and a lone end marker cost what they always did, and
    /// the batch forms cost one tag, the count and the entries.
    #[test]
    fn lone_forms_cost_their_old_bits_and_batches_add_only_a_count() {
        assert_eq!(bits(pack(&[200], false)), TAG_BITS + 8);
        assert_eq!(bits(pack(&[], true)), TAG_BITS);
        assert!(pack(&[], false).is_none());
        assert_eq!(bits(pack(&[200, 3], false)), TAG_BITS + 2 + 8 + 2);
        assert_eq!(bits(pack(&[200], true)), TAG_BITS + 1 + 8);
        let batch = pack(&[1, 2, 3], true).unwrap();
        assert!(matches!(&batch, StreamMsg::BatchEnd(b) if b.len() == 3));
        assert_eq!((batch.items(), batch.ends()), (&[1, 2, 3][..], true));
    }

    /// The message enum is no wider than the wider of an item and a
    /// boxed slice, plus the tag.
    #[test]
    fn the_batch_forms_do_not_widen_the_message() {
        use std::mem::size_of;
        assert_eq!(size_of::<StreamMsg<[u64; 2]>>(), 24);
        assert_eq!(size_of::<StreamMsg<[u64; 3]>>(), 32);
    }

    /// Items are taken in order until one does not fit; the first always
    /// goes, however wide.
    #[test]
    fn fill_takes_the_fitting_prefix_and_always_the_first_item() {
        // 4 + vb(c) + 10c ≤ 40 holds for c = 3 (4 + 2 + 30 = 36), not 4.
        let mut f = Fill::new(40);
        let taken = (0..6).take_while(|_| f.take(10)).count();
        assert_eq!((taken, f.count()), (3, 3));
        assert!(!f.ends(5), "4 + 2 + 30 + 5 > 40");
        assert!(f.ends(4));
        let mut wide = Fill::new(8);
        assert!(wide.take(100), "a stream must move");
        assert!(!wide.take(1));
        assert!(Fill::new(0).ends(64), "a lone end marker always goes");
    }
}
