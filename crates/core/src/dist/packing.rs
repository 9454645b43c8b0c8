//! Wire and bookkeeping types of the distributed greedy tree packing.
//!
//! Thorup's greedy packing orders edges by **relative load**
//! `load(e)/w(e)` (number of previous trees using `e` per unit of
//! capacity), tie-broken by weight then edge id — the same strict total
//! order as the sequential [`crate::seq::tree_packing::LoadKey`], so the
//! distributed MST of every packing iteration is *the* unique MST and
//! matches the sequential packing tree for tree. Loads are per-edge local
//! state: both endpoints of a tree edge learn the tree membership during
//! MST construction and bump their local counters, no communication
//! needed.

use crate::seq::tree_packing::LoadKey;
use congest::message::TAG_BITS;
use congest::{value_bits, Message};

/// A packing-MST edge candidate as carried on the wire: the relative-load
/// key fields of one incident edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cand {
    /// Trees already using this edge.
    pub load: u64,
    /// The edge's packing weight (skeleton weight for sampled runs).
    pub weight: u64,
    /// Global edge id (deterministic tie-break; both endpoints agree).
    pub edge: u32,
}

impl Cand {
    /// The strict-total-order key (relative load, weight, id).
    pub fn key(&self) -> LoadKey {
        LoadKey {
            load: self.load,
            weight: self.weight,
            edge: self.edge,
        }
    }

    /// Transmission size of the three fields.
    pub fn bits(&self) -> usize {
        value_bits(self.load) + value_bits(self.weight) + value_bits(self.edge as u64)
    }
}

impl Message for Cand {
    fn bit_len(&self) -> usize {
        TAG_BITS + self.bits()
    }
}

/// Returns the better (smaller-key) of two optional candidates.
pub fn better(a: Option<Cand>, b: Option<Cand>) -> Option<Cand> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if x.key() <= y.key() { x } else { y }),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn better_prefers_smaller_relative_load() {
        let a = Cand {
            load: 1,
            weight: 4,
            edge: 9,
        };
        let b = Cand {
            load: 1,
            weight: 2,
            edge: 0,
        };
        // 1/4 < 1/2.
        assert_eq!(better(Some(a), Some(b)), Some(a));
        assert_eq!(better(None, Some(b)), Some(b));
        assert_eq!(better(Some(a), None), Some(a));
        assert_eq!(better(None, None), None);
    }

    #[test]
    fn cand_message_is_logarithmic() {
        let c = Cand {
            load: 3,
            weight: 7,
            edge: 200,
        };
        assert!(c.bit_len() <= TAG_BITS + 2 + 3 + 8);
    }
}
