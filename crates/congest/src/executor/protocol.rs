//! The executors' shared-memory protocol, extracted behind a step-wise
//! seam so the *same* logic is (a) executed by the real sweep drivers in
//! `executor::sweep` and (b) exhaustively model-checked by the
//! interleaving checker in `crates/analysis`.
//!
//! The parallel executor's soundness rests on three mechanisms:
//!
//! 1. **Chunk claiming** — workers partition a sweep's node domain by
//!    `fetch_add` on a shared monotone cursor ([`ChunkClaimer`]). The
//!    claimed ranges are disjoint and cover the domain, which is what
//!    makes per-node cell access exclusive.
//! 2. **Slot sends** — a directed edge's message slot is written by its
//!    unique sender through the check-occupied → account → write
//!    sequence ([`SendSm`]). Slot occupancy *is* the engine's
//!    `DoubleSend` check.
//! 3. **Inbox drains** — a destination's slot range is consumed by the
//!    unique worker that owns the destination ([`DrainSm`]), in the
//!    *next* round, on the other half of the double buffer.
//!
//! Every state machine here performs **exactly one shared-memory
//! operation per `step` call**. The real executors drive the machines
//! to completion inline (compiling down to the straight-line code they
//! replaced); the model checker interleaves `step` calls of several
//! simulated workers under a deterministic scheduler, which explores
//! every ordering of the underlying shared-memory operations. That
//! granularity — one op per step — is the seam's whole contract: if a
//! protocol change adds a shared access, it must appear as its own
//! step, or the model checker is exploring a coarser protocol than the
//! one that ships.
//!
//! Nothing in this module is `unsafe` and nothing here touches the real
//! arenas: the shared memory is abstracted behind [`ClaimCursor`] and
//! [`SlotMem`], implemented over atomics/`UnsafeCell` by the executor
//! (`executor::sweep`) and over instrumented plain vectors by the model.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The shared monotone cursor workers claim node chunks from.
pub trait ClaimCursor {
    /// Atomically adds `delta` and returns the previous value.
    fn fetch_add(&self, delta: usize) -> usize;
}

impl ClaimCursor for AtomicUsize {
    fn fetch_add(&self, delta: usize) -> usize {
        // Relaxed is enough: the cursor orders nothing but itself — the
        // inter-sweep join barrier provides all cross-data ordering.
        AtomicUsize::fetch_add(self, delta, Ordering::Relaxed)
    }
}

/// The chunk-claiming discipline: `chunk`-sized contiguous ranges of a
/// `len`-element domain, claimed off a shared cursor. Under **any**
/// interleaving the claimed ranges are pairwise disjoint and their
/// union is `0..len` — the model checker asserts exactly that.
#[derive(Copy, Clone, Debug)]
pub struct ChunkClaimer {
    /// Nodes per claim (≥ 1).
    pub chunk: usize,
    /// Domain length.
    pub len: usize,
}

impl ChunkClaimer {
    /// One claim: a single `fetch_add` on the cursor. Returns the
    /// claimed range, or `None` once the domain is exhausted (the
    /// worker's signal to stop).
    #[inline]
    pub fn claim(&self, cursor: &impl ClaimCursor) -> Option<Range<usize>> {
        let lo = cursor.fetch_add(self.chunk);
        if lo >= self.len {
            None
        } else {
            Some(lo..(lo + self.chunk).min(self.len))
        }
    }
}

/// The slot arena's shared-memory surface, as the protocol sees it: one
/// message slot per directed edge (CSR by destination), a per-destination
/// pending count, and the cumulative per-edge load accumulators.
///
/// The executor implements this over the real
/// `executor::cells::SlotArena`/`SyncCells` pair (where
/// `slot_write`/`slot_take`/`edge_load_add` are the contract-bearing
/// exclusive accesses); the model checker implements it over plain
/// vectors with an operation journal.
pub trait SlotMem {
    /// What a slot holds (the algorithm's message type; a small token in
    /// the model).
    type Payload;

    /// Is `slot` occupied? (The sender-side `DoubleSend` check.)
    fn slot_occupied(&self, slot: usize) -> bool;
    /// Writes `slot`, which the protocol guarantees it observed empty.
    fn slot_write(&self, slot: usize, payload: Self::Payload);
    /// Consumes `slot` (receiver side), returning its payload if any.
    fn slot_take(&self, slot: usize) -> Option<Self::Payload>;
    /// Adds `bits` to the cumulative load of the directed edge `slot`.
    fn edge_load_add(&self, slot: usize, bits: u64);
    /// Reads destination `dest`'s pending (occupied-slot) count.
    fn pending_read(&self, dest: usize) -> u32;
    /// Bumps `dest`'s pending count, returning the previous value (the
    /// sender that sees `0` nominates `dest` for the touched set).
    fn pending_fetch_add(&self, dest: usize) -> u32;
    /// Clears `dest`'s pending count after its inbox was consumed.
    fn pending_reset(&self, dest: usize);
}

/// What one [`SendSm::step`] call observed or did.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SendStep {
    /// The occupancy check ran. `occupied == true` is the `DoubleSend`
    /// condition: the caller must abandon the machine without writing.
    Checked {
        /// Was the slot already occupied?
        occupied: bool,
    },
    /// The edge-load accumulator was bumped.
    Loaded,
    /// The destination's pending count was bumped.
    Counted,
    /// The payload was written into the slot; the machine is finished.
    Done {
        /// Did this send flip the destination's inbox from empty to
        /// non-empty (i.e. must the destination enter the touched set)?
        first_into_dest: bool,
    },
}

/// One message send over the slot protocol, as a step-wise state
/// machine: check-occupied → add edge load → bump pending → write. The
/// caller runs its local validation (bandwidth, metering) between the
/// check and the remaining steps; a machine abandoned after
/// [`SendStep::Checked`] has touched nothing but the (read-only)
/// occupancy check.
#[derive(Debug)]
pub struct SendSm {
    /// The global slot of the directed edge being written.
    pub slot: usize,
    /// The destination node (pending-count index).
    pub dest: usize,
    /// The payload size in bits (edge-load accounting).
    pub bits: u64,
    pc: u8,
    first: bool,
}

impl SendSm {
    /// A machine for one send of `bits` bits into `slot`, destined for
    /// node `dest`.
    pub fn new(slot: usize, dest: usize, bits: u64) -> Self {
        SendSm {
            slot,
            dest,
            bits,
            pc: 0,
            first: false,
        }
    }

    /// Performs the machine's next shared-memory operation. `payload`
    /// must hold the message by the final step (it is consumed by the
    /// slot write; earlier steps ignore it).
    ///
    /// # Panics
    ///
    /// Panics if stepped past [`SendStep::Done`] or after an abandoned
    /// occupancy check would have required it (caller bug), or if
    /// `payload` is empty at the write step.
    #[inline]
    pub fn step<M: SlotMem>(&mut self, mem: &M, payload: &mut Option<M::Payload>) -> SendStep {
        match self.pc {
            0 => {
                self.pc = 1;
                SendStep::Checked {
                    occupied: mem.slot_occupied(self.slot),
                }
            }
            1 => {
                mem.edge_load_add(self.slot, self.bits);
                self.pc = 2;
                SendStep::Loaded
            }
            2 => {
                self.first = mem.pending_fetch_add(self.dest) == 0;
                self.pc = 3;
                SendStep::Counted
            }
            3 => {
                mem.slot_write(
                    self.slot,
                    payload.take().expect("payload present at the write step"),
                );
                self.pc = 4;
                SendStep::Done {
                    first_into_dest: self.first,
                }
            }
            _ => panic!("SendSm stepped past Done"),
        }
    }

    /// Drives the machine to completion after a passed occupancy check
    /// (the executors' inline path). Returns `first_into_dest`.
    #[inline]
    pub fn complete<M: SlotMem>(&mut self, mem: &M, payload: M::Payload) -> bool {
        let mut payload = Some(payload);
        loop {
            if let SendStep::Done { first_into_dest } = self.step(mem, &mut payload) {
                return first_into_dest;
            }
        }
    }
}

/// What one [`DrainSm::step`] call did.
#[derive(Debug)]
pub enum DrainStep<P> {
    /// One slot of the inbox range was consumed.
    Took {
        /// The port (slot offset inside the destination's range).
        port: u32,
        /// The payload, if the slot was occupied.
        payload: Option<P>,
    },
    /// The destination's pending count was cleared; the machine is
    /// finished.
    Reset,
}

/// One inbox drain over the slot protocol: consume every slot of the
/// destination's CSR range, then clear its pending count. Run by the
/// unique worker owning the destination, on the *read* half of the
/// double buffer.
#[derive(Debug)]
pub struct DrainSm {
    dest: usize,
    base: usize,
    next: usize,
    end: usize,
    reset_done: bool,
}

impl DrainSm {
    /// A machine draining destination `dest`, whose inbox occupies
    /// slots `base..end`.
    pub fn new(dest: usize, base: usize, end: usize) -> Self {
        DrainSm {
            dest,
            base,
            next: base,
            end,
            reset_done: false,
        }
    }

    /// Performs the next shared-memory operation (one slot take, or the
    /// final pending reset); `None` once finished.
    #[inline]
    pub fn step<M: SlotMem>(&mut self, mem: &M) -> Option<DrainStep<M::Payload>> {
        if self.next < self.end {
            let slot = self.next;
            self.next += 1;
            Some(DrainStep::Took {
                port: (slot - self.base) as u32,
                payload: mem.slot_take(slot),
            })
        } else if !self.reset_done {
            self.reset_done = true;
            mem.pending_reset(self.dest);
            Some(DrainStep::Reset)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    /// A single-threaded in-memory `SlotMem` for protocol unit tests.
    struct VecMem {
        slots: RefCell<Vec<Option<u32>>>,
        pending: RefCell<Vec<u32>>,
        load: RefCell<Vec<u64>>,
        ops: RefCell<Vec<&'static str>>,
    }

    impl VecMem {
        fn new(slots: usize, dests: usize) -> Self {
            VecMem {
                slots: RefCell::new(vec![None; slots]),
                pending: RefCell::new(vec![0; dests]),
                load: RefCell::new(vec![0; slots]),
                ops: RefCell::new(Vec::new()),
            }
        }
    }

    impl SlotMem for VecMem {
        type Payload = u32;
        fn slot_occupied(&self, slot: usize) -> bool {
            self.ops.borrow_mut().push("check");
            self.slots.borrow()[slot].is_some()
        }
        fn slot_write(&self, slot: usize, payload: u32) {
            self.ops.borrow_mut().push("write");
            self.slots.borrow_mut()[slot] = Some(payload);
        }
        fn slot_take(&self, slot: usize) -> Option<u32> {
            self.ops.borrow_mut().push("take");
            self.slots.borrow_mut()[slot].take()
        }
        fn edge_load_add(&self, slot: usize, bits: u64) {
            self.ops.borrow_mut().push("load");
            self.load.borrow_mut()[slot] += bits;
        }
        fn pending_read(&self, dest: usize) -> u32 {
            self.pending.borrow()[dest]
        }
        fn pending_fetch_add(&self, dest: usize) -> u32 {
            self.ops.borrow_mut().push("pending");
            let mut p = self.pending.borrow_mut();
            let prev = p[dest];
            p[dest] += 1;
            prev
        }
        fn pending_reset(&self, dest: usize) {
            self.ops.borrow_mut().push("reset");
            self.pending.borrow_mut()[dest] = 0;
        }
    }

    struct CellCursor(Cell<usize>);
    impl ClaimCursor for CellCursor {
        fn fetch_add(&self, delta: usize) -> usize {
            let prev = self.0.get();
            self.0.set(prev + delta);
            prev
        }
    }

    #[test]
    fn executor_chunk_claims_partition_the_domain() {
        let claimer = ChunkClaimer { chunk: 3, len: 8 };
        let cursor = CellCursor(Cell::new(0));
        let mut covered = [false; 8];
        while let Some(r) = claimer.claim(&cursor) {
            for i in r {
                assert!(!covered[i], "index {i} claimed twice");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "claims must cover the domain");
        assert!(
            claimer.claim(&cursor).is_none(),
            "exhausted stays exhausted"
        );
    }

    #[test]
    fn executor_send_performs_ops_in_contract_order() {
        let mem = VecMem::new(4, 2);
        let mut sm = SendSm::new(2, 1, 7);
        assert_eq!(
            sm.step(&mem, &mut None),
            SendStep::Checked { occupied: false }
        );
        let first = sm.complete(&mem, 99);
        assert!(first, "first message into dest 1");
        assert_eq!(
            *mem.ops.borrow(),
            ["check", "load", "pending", "write"],
            "one shared op per step, in the documented order"
        );
        assert_eq!(mem.slots.borrow()[2], Some(99));
        assert_eq!(mem.load.borrow()[2], 7);
        assert_eq!(mem.pending.borrow()[1], 1);

        // A second send into the same slot sees it occupied and — per
        // contract — abandons without any further shared access.
        let before = mem.ops.borrow().len();
        let mut dup = SendSm::new(2, 1, 7);
        assert_eq!(
            dup.step(&mem, &mut None),
            SendStep::Checked { occupied: true }
        );
        assert_eq!(mem.ops.borrow().len(), before + 1, "check only");
    }

    #[test]
    fn executor_drain_consumes_the_range_then_resets() {
        let mem = VecMem::new(4, 2);
        mem.slots.borrow_mut()[1] = Some(10);
        mem.slots.borrow_mut()[2] = Some(20);
        *mem.pending.borrow_mut() = vec![0, 2];
        let mut got = Vec::new();
        let mut drain = DrainSm::new(1, 1, 3);
        while let Some(step) = drain.step(&mem) {
            if let DrainStep::Took {
                port,
                payload: Some(p),
            } = step
            {
                got.push((port, p));
            }
        }
        assert_eq!(got, [(0, 10), (1, 20)]);
        assert_eq!(mem.pending.borrow()[1], 0, "pending cleared");
        assert!(mem.slots.borrow().iter().all(Option::is_none));
        assert!(drain.step(&mem).is_none(), "finished machines stay done");
    }
}
