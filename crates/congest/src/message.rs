//! The [`Message`] trait and bit-size accounting helpers.
//!
//! The CONGEST model limits messages to `O(log n)` bits, so every message
//! type must report its size. The helpers here implement the standard
//! accounting: node/edge identifiers cost `⌈log₂ n⌉` bits, a value `x`
//! costs `⌈log₂(x + 1)⌉` bits (at least one), and enum discriminants cost
//! [`TAG_BITS`].

/// Bits charged for an enum discriminant (message kind tag). Algorithms in
/// this workspace use at most 16 message kinds per phase.
pub const TAG_BITS: usize = 4;

/// A CONGEST message: cloneable, debuggable, with a declared bit size.
///
/// Messages must be [`Send`]: the parallel round executor moves them
/// between worker threads through the slot arena (the sender's worker
/// writes a slot, the destination's worker consumes it next round).
pub trait Message: Clone + Send + std::fmt::Debug {
    /// The size of this message in bits, charged against the per-edge
    /// bandwidth budget.
    fn bit_len(&self) -> usize;

    /// The bits this value costs as one entry of a packed stream batch
    /// (see [`crate::primitives::stream`]). The default is
    /// [`Message::bit_len`]; a type whose lone form names its kind in
    /// the message tag (a routed row) adds the bits that name it here.
    fn entry_bits(&self) -> usize {
        self.bit_len()
    }
}

/// Bits needed to name one of `n` distinct things (`⌈log₂ n⌉`, minimum 1).
pub fn id_bits(n: usize) -> usize {
    let n = n.max(2);
    (usize::BITS - (n - 1).leading_zeros()) as usize
}

/// Bits needed to transmit the value `x` (`⌈log₂(x + 1)⌉`, minimum 1).
pub fn value_bits(x: u64) -> usize {
    ((64 - x.leading_zeros()) as usize).max(1)
}

/// The unit message (used by pure-synchronisation rounds).
impl Message for () {
    fn bit_len(&self) -> usize {
        1
    }
}

/// A raw `u64` payload charged by magnitude.
impl Message for u64 {
    fn bit_len(&self) -> usize {
        value_bits(*self)
    }
}

/// A raw `u32` payload charged by magnitude.
impl Message for u32 {
    fn bit_len(&self) -> usize {
        value_bits(*self as u64)
    }
}

/// A pair of raw `u64` payloads, each charged by magnitude like two
/// `u64` messages.
impl Message for (u64, u64) {
    fn bit_len(&self) -> usize {
        value_bits(self.0) + value_bits(self.1)
    }
}

/// A boolean flag.
impl Message for bool {
    fn bit_len(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_bits_matches_log2() {
        assert_eq!(id_bits(2), 1);
        assert_eq!(id_bits(3), 2);
        assert_eq!(id_bits(4), 2);
        assert_eq!(id_bits(5), 3);
        assert_eq!(id_bits(1024), 10);
        assert_eq!(id_bits(1025), 11);
        // Degenerate inputs still cost a bit.
        assert_eq!(id_bits(0), 1);
        assert_eq!(id_bits(1), 1);
    }

    #[test]
    fn value_bits_matches_magnitude() {
        assert_eq!(value_bits(0), 1);
        assert_eq!(value_bits(1), 1);
        assert_eq!(value_bits(2), 2);
        assert_eq!(value_bits(255), 8);
        assert_eq!(value_bits(256), 9);
        assert_eq!(value_bits(u64::MAX), 64);
    }

    #[test]
    fn primitive_messages_have_sizes() {
        assert_eq!(().bit_len(), 1);
        assert_eq!(true.bit_len(), 1);
        assert_eq!(7u64.bit_len(), 3);
        assert_eq!(7u32.bit_len(), 3);
    }
}
