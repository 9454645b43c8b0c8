//! The faulty executor: an α-synchronizer over an adversarial network.
//!
//! [`run_faulty`] drives a phase over a network whose links drop,
//! duplicate, delay, and reorder frames according to a seeded
//! [`FaultPlan`], while presenting node code with **exactly** the
//! synchronous CONGEST semantics of the serial executor: every
//! algorithm in the workspace runs unmodified, and its per-node outputs,
//! virtual round count, and payload-level metrics are bit-identical to a
//! fault-free run (the `sim_parity` suites assert this on the full
//! min-cut pipeline).
//!
//! # The synchronizer
//!
//! Time advances in physical **ticks**; each directed edge carries at
//! most one *frame* per tick (the transport stays CONGEST-shaped). A
//! frame bundles an optional payload with three piggybacked control
//! fields — a cumulative payload ack, the sender's *safe count*, and an
//! echo of the receiver's safe count:
//!
//! * **Acks + stop-and-wait retransmission.** Payloads are sequence-
//!   numbered per directed edge; the receiver acknowledges cumulatively
//!   and deduplicates, the sender retransmits on timeout and gives up —
//!   with [`crate::CongestError::RetransmitExhausted`] — after the
//!   plan's attempt budget. Because a node only enters round `r + 1`
//!   after its round-`r` payloads are acked, each edge carries at most
//!   one unacked payload, and cumulative values make every control field
//!   monotone — duplicates and reordering are harmless by construction.
//! * **Safe-round detection.** Node `v` is *safe through round `r`*
//!   (safe count `r + 1`) once all its sends of rounds `≤ r` are acked;
//!   a halted node that has drained its channels is safe forever
//!   (`u64::MAX`). Safe counts are gossiped to neighbors and
//!   retransmitted until echoed back.
//! * **The α rule.** `v` executes round `r + 1` once it is safe through
//!   `r` *and* every neighbor has announced safety through `r`. A
//!   neighbor's ack implies arrival, so at that moment every round-`r`
//!   payload addressed to `v` is already buffered — `v`'s inbox for
//!   round `r + 1` is complete and identical to the synchronous one.
//!   Neighbors' virtual rounds can skew by at most one, payloads carry
//!   their virtual round, and inboxes are replayed in port order, so the
//!   per-node state trajectory is the synchronous trajectory.
//!
//! # Scheduling
//!
//! Each tick visits only the channels (directed edges) that have work,
//! in the order a rescan of every unconfirmed channel, sorted by sender,
//! would visit them:
//!
//! * **The due set.** Every change that can give a channel something
//!   to send — a payload enqueued, its sender's safety raised, an ack
//!   or echo owed, a suspicion cleared — marks the channel due in a
//!   bitset over *sender-side* slots (`write_slot[d]`, which lies in the
//!   sender's CSR range). The transmit pass walks the bitset in
//!   ascending order, so channels are visited lowest-sender-first, and
//!   transmissions — and therefore budget errors — happen in the serial
//!   sweep's order.
//! * **The wheel.** A visited channel that is still unconfirmed (data
//!   unacked or safety unechoed) but has nothing due before its resend
//!   deadline `last_send + timeout` leaves the due set and waits in the
//!   bucket of its deadline on a wheel of `timeout + 1` buckets; at
//!   that tick the bucket empties back into the due set. An entry can
//!   go stale — a keepalive or an ack-driven frame moves `last_send`
//!   later, an ack confirms the channel — but it is never later than
//!   the channel's real deadline: `last_send` only grows, and every
//!   other change that can make a channel due sooner marks it due. A
//!   stale visit finds nothing due and sends nothing; it files the
//!   channel again or drops it. Debug builds check after every
//!   transmit pass that each live channel owing a frame is due or on
//!   the wheel in time.
//! * **Arrivals.** A tick's arrivals are processed by slot, and the
//!   frames of one slot in send order (a sort of `slot << 32 | push
//!   index` keys), so the order does not depend on which channel sent
//!   first.
//!
//! A channel therefore sends at exactly the ticks a full rescan would
//! send on it, the sending channels of a tick come in the same order,
//! and a visit that sends nothing changes no state: frames, fault
//! coins, and ticks are those of the rescan, which `tests/sim_parity.rs`
//! pins by digest of the full event stream.
//!
//! # Crash faults and failure detection
//!
//! When the plan schedules [`crate::sim::CrashEvent`]s, nodes
//! **fail-stop** at their scheduled virtual round: a crashed node
//! executes no further rounds, sends nothing, acks nothing, and its
//! inbound frames vanish. Because a node only reaches round `r` after
//! all its earlier payloads are acked, a crash at a round boundary
//! leaves no half-delivered state — the crash is exactly "the node ran
//! rounds `< r` of this phase, then went silent".
//!
//! Detection is timeout-based, layered on the machinery above. In
//! crash mode every live node *keeps each still-relevant channel warm*
//! (one control frame per [`FaultPlan::timeout`] ticks even when idle),
//! so a channel silent for the plan's full suspicion window
//! ([`FaultPlan::suspect_after`] ticks) marks its sender **suspected**.
//! Suspicion is advisory and revocable — it overrides the suspect's
//! *effective* safe count (never the recorded one), quiesces the
//! channel toward it, and is cleared by the suspect's next arriving
//! frame — so it is *eventually accurate*: every crashed neighbor is
//! eventually suspected, and no live node stays suspected. What the
//! first suspicion does is the plan's
//! [`SuspicionPolicy`](crate::sim::SuspicionPolicy): abort the phase
//! with a typed [`CongestError::NodeSuspected`] (default — a recovery
//! driver's cue), or continue and expose the suspected set through
//! [`crate::NodeCtx::suspected_ports`]. Crash-free plans take none of
//! these paths — no keepalives, no detector — and remain bit-identical
//! to the serial executor.
//!
//! # Accounting
//!
//! The algorithm-level [`PhaseMetrics`] fields (rounds, messages, bits,
//! `max_message_bits`, `max_edge_load_bits`) count **payloads at virtual
//! rounds** — they match the fault-free run. The transport's work
//! (ticks, data/control frames, retransmissions, drops, duplicates,
//! suspicions) lands in [`SimPhaseStats`], which is where the
//! synchronizer's round-overhead factor (`sim.phys_rounds / rounds`)
//! comes from.

use crate::algorithm::{Algorithm, Step};
use crate::error::CongestError;
use crate::executor::PhaseSpec;
use crate::message::Message;
use crate::metrics::{PhaseMetrics, SimPhaseStats};
use crate::node::Port;
use crate::obs::{self, CostCenter, EventKind};
use crate::sim::plan::{FaultPlan, SuspicionPolicy};
use graphs::NodeId;
use std::collections::BTreeMap;

/// Partition windows one plan may schedule: the executor tracks each
/// slot's windows in one `u64` bitmask.
const MAX_PARTITIONS: usize = 64;

/// Drives one phase to completion with the fault-injecting executor
/// under `plan` (see the module docs for the protocol). Returns per-node
/// outputs, the phase metrics and the number of [`Algorithm::round`]
/// calls, or the error [`crate::Network::run`] documents.
pub(crate) fn run_faulty<A: Algorithm>(
    plan: &FaultPlan,
    spec: &PhaseSpec<'_>,
    algo: &A,
    inputs: Vec<A::Input>,
) -> Result<(Vec<A::Output>, PhaseMetrics, u64), CongestError> {
    // `FaultPlan`'s fields are public, so only the executor can refuse a
    // plan it cannot represent — before the first tick.
    if plan.partitions.len() > MAX_PARTITIONS {
        return Err(CongestError::TooManyPartitions {
            phase: spec.name.to_string(),
            windows: plan.partitions.len(),
            limit: MAX_PARTITIONS,
        });
    }
    let sink = spec.obs;
    let total = obs::total_begin(sink);
    let out = Machine::new(plan, spec, algo).run(inputs);
    obs::total_end(sink, total);
    out
}

/// One unacknowledged payload on a directed edge.
#[derive(Clone)]
struct TxData<M> {
    /// Per-edge payload sequence number (1-based).
    seq: u64,
    /// The virtual round the payload was sent in.
    round: u64,
    msg: M,
}

/// Sender-side channel state of one directed edge.
struct ChanTx<M> {
    /// The current unacked payload (at most one — stop-and-wait).
    data: Option<TxData<M>>,
    /// Payloads accepted for transmission so far.
    seq: u64,
    /// Transmissions of the current payload.
    attempts: u32,
    /// Transmissions of the current safe-count value.
    safe_attempts: u32,
    /// Tick of the last frame sent on this edge.
    last_send: u64,
    /// The receiver's confirmed view of this sender's safe count.
    peer_safe_seen: u64,
    /// A control frame is due next tick (fresh ack or safety advance).
    dirty: bool,
}

impl<M> Default for ChanTx<M> {
    fn default() -> Self {
        ChanTx {
            data: None,
            seq: 0,
            attempts: 0,
            safe_attempts: 0,
            last_send: 0,
            peer_safe_seen: 0,
            dirty: false,
        }
    }
}

/// Receiver-side channel state of one directed edge.
#[derive(Clone)]
struct ChanRx {
    /// Payloads accepted (cumulative ack value).
    rcv_seq: u64,
    /// The sender's announced safe count (`u64::MAX` = halted+drained).
    peer_safe: u64,
}

/// Per-node executor state.
struct SimNode<S> {
    state: Option<S>,
    /// Last executed virtual round (0 after boot).
    round: u64,
    halted: bool,
    /// Outstanding unacked payloads across this node's edges.
    unacked: u32,
    /// Safe count: all sends of rounds `< safe` are acked.
    safe: u64,
    /// `Some(wake)` when the last step was [`Step::Wait`] with that wake
    /// round: debug builds check the `Wait` contract on the next call.
    wait: Option<Option<u64>>,
}

/// One frame on the wire.
#[derive(Clone)]
struct Frame<M> {
    data: Option<TxData<M>>,
    ack_seq: u64,
    safe_upto: u64,
    safe_seen: u64,
    /// The sender is waiting for an echo of `safe_upto`: the receiver
    /// must answer with a control frame. Responses themselves set this
    /// only while *their* sender is unconfirmed, so the exchange
    /// converges instead of ping-ponging.
    needs_echo: bool,
    /// Per-phase transport checksum over the control plane (sequence
    /// numbers, ack, safety fields — see [`frame_checksum`]). Computed
    /// at send, verified first thing at arrival: a mismatch discards
    /// the frame whole (no ack, no keepalive credit) and meters
    /// `sim.corrupted`. The adversary's corruption species flips one
    /// seeded bit in a covered field, so every corrupt frame is caught
    /// and repaired by retransmission.
    crc: u64,
}

/// The per-phase checksum of a frame's control plane: a splitmix64
/// chain over the phase salt and every field a corruption flip may
/// touch. Message payloads expose only `bit_len`, so payload bits are
/// not coverable — the corruption adversary therefore targets exactly
/// the covered control fields, and coverage is honest: nothing the
/// adversary may flip escapes the checksum.
fn frame_checksum<M>(phase_salt: u64, f: &Frame<M>) -> u64 {
    let mut h = phase_salt;
    for word in [
        f.data.as_ref().map_or(0, |dt| dt.seq),
        f.data.as_ref().map_or(0, |dt| dt.round.wrapping_add(1)),
        f.ack_seq,
        f.safe_upto,
        f.safe_seen,
        u64::from(f.needs_echo),
    ] {
        h = splitmix64(h ^ word);
    }
    h
}

/// The splitmix64 output mixer (same constants as the plan's coins).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The [`Step::Wait`] contract, which lets the serial executor skip a
/// waiting node: the faulty executor calls every live node every round,
/// so it sees the calls the serial one skips — node `v` in `round`,
/// after a `Wait` until `waited`, with an empty inbox (`idle`) and before
/// its wake round — and each must return `Wait` again with an empty
/// outbox and the same wake round.
fn check_wait_contract<M>(
    phase: &str,
    v: usize,
    round: u64,
    waited: Option<Option<u64>>,
    idle: bool,
    step: &Step<M>,
) {
    let Some(wake) = waited else { return };
    if !idle || wake.is_some_and(|w| round >= w) {
        return;
    }
    assert!(
        matches!(step, Step::Wait(o, w) if o.msgs.is_empty() && *w == wake),
        "phase {phase}: node {v} returned Wait until {wake:?} but acted when called in round \
         {round} with an empty inbox (the Step::Wait contract)"
    );
}

/// One node's buffered future inboxes: virtual round → (port, payload).
type InboxBuffer<M> = BTreeMap<u64, Vec<(Port, M)>>;

/// The whole simulation state of one phase under the faulty executor.
struct Machine<'a, A: Algorithm> {
    plan: &'a FaultPlan,
    spec: &'a PhaseSpec<'a>,
    algo: &'a A,
    /// Destination node of each slot (directed edge), by slot index.
    slot_owner: Vec<u32>,
    nodes: Vec<SimNode<A::State>>,
    inboxes: Vec<InboxBuffer<A::Msg>>,
    tx: Vec<ChanTx<A::Msg>>,
    rx: Vec<ChanRx>,
    /// Delivery ring buffer: arrivals at tick `t` live in slot
    /// `t % calendar.len()`, in send order.
    calendar: Vec<Vec<(usize, Frame<A::Msg>)>>,
    in_flight: usize,
    /// The due set: one bit per *sender-side* slot `write_slot[d]` of
    /// every channel the next [`Machine::transmit`] must visit.
    due: Vec<u64>,
    /// The resend-timer wheel, `timeout + 1` buckets of sender-side
    /// slots: bucket `t % len` holds the channels whose timer may expire
    /// at tick `t`. An entry may be stale, never later than its
    /// channel's deadline.
    wheel: Vec<Vec<u32>>,
    ready: Vec<u32>,
    live: usize,
    unacked_total: u64,
    max_round: u64,
    /// The minimum-(round, node) error observed so far, if any.
    err: Option<(u64, u64, CongestError)>,
    metrics: PhaseMetrics,
    sim: SimPhaseStats,
    edge_load: Vec<u64>,
    /// Crash machinery (armed only when the plan schedules crashes).
    /// Phase-local round before which each node fails (`u64::MAX` =
    /// never): the node executes rounds `< crash_local[v]` only.
    crash_local: Vec<u64>,
    /// Nodes that have executed their fail-stop.
    crashed: Vec<bool>,
    /// Per receive slot: the last tick a frame arrived on it.
    last_heard: Vec<u64>,
    /// Per receive slot: the receiver currently suspects the sender of
    /// having crashed (advisory, cleared by the next arrival).
    suspected: Vec<bool>,
    /// `plan.has_crashes() || plan.has_partitions()` — gates keepalives
    /// and the detector so crash- and partition-free plans stay
    /// bit-identical to PR 5 behavior. Partitions arm the detector too:
    /// a window outlasting the suspicion budget must be *suspectable*,
    /// and the post-heal rehabilitation is the observable that tells
    /// "partitioned" from "dead".
    detect: bool,
    /// Cached [`FaultPlan::suspect_after`] window.
    suspect_after: u64,
    /// Per directed slot, a bitmask of the plan's partition events
    /// whose cut set contains the slot's undirected edge (empty vec
    /// when the plan schedules no partitions — the hot path stays
    /// untouched). At most [`MAX_PARTITIONS`] windows per plan.
    part_mask: Vec<u64>,
    /// Per partition event: the tick its window opened (`None` until
    /// the session clock reaches the event's onset round).
    part_onset: Vec<Option<u64>>,
    /// Salt of the per-phase frame checksum (a hash of the phase name,
    /// so identical control fields in different phases checksum apart).
    phase_salt: u64,
    /// The tick currently executing, mirrored from the main loop so
    /// event emitters called without a tick argument (crash, round
    /// completion) can stamp their events (0 during boot).
    cur_tick: u64,
    /// Wall time the current [`Machine::transmit`] sweep spent inside
    /// retransmissions, so the channel-scan cost center can be reported
    /// net of the nested retransmit one (always 0 with obs detached).
    retrans_ns: u64,
    /// [`Algorithm::round`] calls so far.
    steps: u64,
}

impl<'a, A: Algorithm> Machine<'a, A> {
    fn new(plan: &'a FaultPlan, spec: &'a PhaseSpec<'a>, algo: &'a A) -> Self {
        let n = spec.n;
        let total = spec.adj.len();
        // Wheel entries and arrival-order keys hold a slot in 32 bits.
        assert!(
            u32::try_from(total).is_ok(),
            "the faulty executor supports at most u32::MAX directed edges"
        );
        let mut slot_owner = vec![0u32; total];
        for v in 0..n {
            slot_owner[spec.slots(v)].fill(v as u32);
        }
        let part_mask = Self::partition_masks(plan, spec, &slot_owner);
        Machine {
            plan,
            spec,
            algo,
            slot_owner,
            nodes: (0..n)
                .map(|_| SimNode {
                    state: None,
                    round: 0,
                    halted: false,
                    unacked: 0,
                    safe: 0,
                    wait: None,
                })
                .collect(),
            inboxes: (0..n).map(|_| BTreeMap::new()).collect(),
            tx: (0..total).map(|_| ChanTx::default()).collect(),
            rx: vec![
                ChanRx {
                    rcv_seq: 0,
                    peer_safe: 0,
                };
                total
            ],
            calendar: (0..plan.max_delay as usize + 2)
                .map(|_| Vec::new())
                .collect(),
            in_flight: 0,
            due: vec![0; total.div_ceil(64)],
            wheel: (0..=plan.timeout()).map(|_| Vec::new()).collect(),
            ready: Vec::new(),
            live: n,
            unacked_total: 0,
            max_round: 0,
            err: None,
            metrics: PhaseMetrics {
                name: spec.name.to_string(),
                ..Default::default()
            },
            sim: SimPhaseStats::default(),
            edge_load: vec![0u64; total],
            crash_local: (0..n)
                .map(|v| {
                    plan.crash_round_of(v as u32, spec.base_round)
                        .unwrap_or(u64::MAX)
                })
                .collect(),
            crashed: vec![false; n],
            last_heard: vec![0u64; total],
            suspected: vec![false; total],
            detect: plan.has_crashes() || plan.has_partitions(),
            suspect_after: plan.suspect_after(),
            part_mask,
            part_onset: vec![None; plan.partitions.len()],
            phase_salt: spec
                .name
                .bytes()
                .fold(plan.seed, |h, b| splitmix64(h ^ u64::from(b))),
            cur_tick: 0,
            retrans_ns: 0,
            steps: 0,
        }
    }

    /// Records one transport-lifecycle event on the attached obs sink
    /// (a no-op — not even an `Instant` read — when none is attached).
    fn obs_event(&self, kind: EventKind, a: u32, b: u32, round: u64, tick: u64) {
        if let Some(sink) = self.spec.obs {
            sink.record(kind, a, b, round, tick);
        }
    }

    /// Per-slot membership bitmasks of the plan's partition windows
    /// (empty when none are scheduled). Slot `d` delivers the frames
    /// some sender writes toward `slot_owner[d]`; the undirected edge
    /// behind it is the (sender, receiver) pair, normalized.
    fn partition_masks(plan: &FaultPlan, spec: &PhaseSpec<'_>, slot_owner: &[u32]) -> Vec<u64> {
        if plan.partitions.is_empty() {
            return Vec::new();
        }
        debug_assert!(
            plan.partitions.len() <= MAX_PARTITIONS,
            "checked by run_faulty"
        );
        let cut_sets: Vec<std::collections::BTreeSet<(u32, u32)>> = plan
            .partitions
            .iter()
            .map(|w| {
                w.cut_edges
                    .iter()
                    .map(|&(a, b)| (a.min(b), a.max(b)))
                    .collect()
            })
            .collect();
        (0..slot_owner.len())
            .map(|d| {
                let v = slot_owner[d];
                let u = slot_owner[spec.write_slot[d]];
                let key = (u.min(v), u.max(v));
                cut_sets
                    .iter()
                    .enumerate()
                    .filter(|(_, set)| set.contains(&key))
                    .fold(0u64, |m, (i, _)| m | 1 << i)
            })
            .collect()
    }

    /// Opens every partition window whose onset round the session clock
    /// has reached (called once per tick while partitions are
    /// scheduled). Onset is measured on the same global virtual clock
    /// as crashes; the heal deadline is physical, `heal_at` ticks from
    /// the opening tick.
    fn open_partitions(&mut self, tick: u64) {
        for (i, w) in self.plan.partitions.iter().enumerate() {
            match self.part_onset[i] {
                None if self.spec.base_round + self.max_round >= w.at_round => {
                    self.part_onset[i] = Some(tick);
                    self.obs_event(
                        EventKind::PartitionOpen,
                        i as u32,
                        obs::NONE,
                        w.at_round,
                        tick,
                    );
                }
                // The window heals implicitly at `t0 + heal_at`; this is
                // the first tick the cut is conductive again, observable
                // only to the trace (nothing else runs at the boundary).
                Some(t0) if tick == t0 + w.heal_at => {
                    self.obs_event(
                        EventKind::PartitionHeal,
                        i as u32,
                        obs::NONE,
                        w.at_round,
                        tick,
                    );
                }
                _ => {}
            }
        }
    }

    /// Is edge `d` silenced by an open, not-yet-healed partition window
    /// at `tick`?
    fn partition_silences(&self, d: usize, tick: u64) -> bool {
        let mut mask = self.part_mask[d];
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if let Some(t0) = self.part_onset[i] {
                if tick < t0 + self.plan.partitions[i].heal_at {
                    return true;
                }
            }
        }
        false
    }

    /// The reverse directed edge of slot `d` (the delivery slot of the
    /// opposite direction; `write_slot` is an involution).
    fn rev(&self, d: usize) -> usize {
        self.spec.write_slot[d]
    }

    /// The sender node of edge `d`.
    fn sender(&self, d: usize) -> usize {
        self.slot_owner[self.rev(d)] as usize
    }

    /// The sender's port number for edge `d`.
    fn sender_port(&self, d: usize) -> Port {
        let u = self.sender(d);
        Port((self.rev(d) - self.spec.offsets[u] as usize) as u32)
    }

    /// Records an error at (virtual `round`, `node`), keeping the
    /// lexicographic minimum — the same selection rule as the serial
    /// executor ("the earliest round's lowest-id node wins"). Execution
    /// continues, gated to rounds ≤ the current minimum error round (see
    /// [`Machine::may_advance`]), so every error the serial schedule
    /// would have hit first is observed before the phase returns.
    fn record_err(&mut self, round: u64, node: u64, e: CongestError) {
        match &self.err {
            Some((r, v, _)) if (*r, *v) <= (round, node) => {}
            _ => self.err = Some((round, node, e)),
        }
    }

    /// Takes the recorded minimum error for returning, mirroring one
    /// serial quirk exactly: `MessageToHalted` reports the *delivery*
    /// round when any node was still live then (the sweep's
    /// halted-segment check), but the *last executed* round when the
    /// whole network halted first (the serial all-halted path reports
    /// its loop counter). Clamping to `max_round` reproduces both: the
    /// error-round gate lets live nodes reach the delivery round, so
    /// the clamp only bites when nobody could.
    fn take_err(&mut self) -> CongestError {
        let (_, _, mut e) = self.err.take().expect("error recorded");
        if let CongestError::MessageToHalted { round, .. } = &mut e {
            *round = (*round).min(self.max_round);
        }
        e
    }

    /// Marks channel `d` due: the next [`Machine::transmit`] visits it.
    fn activate(&mut self, d: usize) {
        let s = self.rev(d);
        self.due[s / 64] |= 1 << (s % 64);
    }

    /// Does channel `d`'s sender still owe its peer a safety
    /// announcement? A suspected peer counts as done: it will never
    /// echo, and without this the gossip path would burn its
    /// retransmission budget against a dead node.
    fn needs_safety(&self, d: usize) -> bool {
        let rev = self.rev(d);
        let peer_done = self.rx[rev].peer_safe == u64::MAX || self.suspected[rev];
        !peer_done && self.tx[d].peer_safe_seen < self.nodes[self.sender(d)].safe
    }

    /// Raises `v`'s safe count and schedules the announcement toward
    /// every neighbor that might still be waiting on it.
    fn set_safe(&mut self, v: usize, safe: u64) {
        self.nodes[v].safe = safe;
        for s in self.spec.slots(v) {
            let out = self.spec.write_slot[s];
            // `s` receives from the same neighbor `out` sends to: a peer
            // announced permanently safe never advances again and needs
            // no more safety gossip from us. A suspected peer is treated
            // the same (it would never echo); if the suspicion turns out
            // false, the rehabilitation path re-activates the channel.
            if self.rx[s].peer_safe != u64::MAX
                && !self.suspected[s]
                && self.tx[out].peer_safe_seen < safe
            {
                self.tx[out].dirty = true;
                self.tx[out].safe_attempts = 0;
                self.activate(out);
            }
        }
    }

    /// Validates and enqueues one round's outbox of node `v`, mirroring
    /// the serial executor's `route_outbox` enforcement (ports, double
    /// sends, bandwidth) and payload-level metering.
    fn enqueue_outbox(&mut self, v: usize, round: u64, msgs: Vec<(Port, A::Msg)>) {
        let slots = self.spec.slots(v);
        let (base, degree) = (slots.start, slots.len());
        for (port, msg) in msgs {
            let p = port.index();
            if p >= degree {
                self.record_err(
                    round,
                    v as u64,
                    CongestError::InvalidPort {
                        phase: self.spec.name.to_string(),
                        node: NodeId::from_index(v),
                        port,
                        degree,
                    },
                );
                return;
            }
            let d = self.spec.write_slot[base + p];
            // A node advances only after all its previous payloads are
            // acked, so an occupied channel is a same-round double send.
            if self.tx[d].data.is_some() {
                self.record_err(
                    round,
                    v as u64,
                    CongestError::DoubleSend {
                        phase: self.spec.name.to_string(),
                        node: NodeId::from_index(v),
                        port,
                        round,
                    },
                );
                return;
            }
            let bits = msg.bit_len();
            if bits > self.spec.bandwidth_bits {
                self.record_err(
                    round,
                    v as u64,
                    CongestError::BandwidthExceeded {
                        phase: self.spec.name.to_string(),
                        node: NodeId::from_index(v),
                        port,
                        bits,
                        budget: self.spec.bandwidth_bits,
                        round,
                    },
                );
                return;
            }
            self.metrics.messages += 1;
            self.metrics.bits += bits as u64;
            self.metrics.max_message_bits = self.metrics.max_message_bits.max(bits);
            self.edge_load[d] += bits as u64;
            let t = &mut self.tx[d];
            t.seq += 1;
            t.data = Some(TxData {
                seq: t.seq,
                round,
                msg,
            });
            t.attempts = 0;
            self.nodes[v].unacked += 1;
            self.unacked_total += 1;
            self.activate(d);
        }
    }

    /// Re-derives `v`'s safe count after its outstanding payload count
    /// changed or it executed a round.
    fn refresh_safety(&mut self, v: usize) {
        let node = &self.nodes[v];
        let safe = if node.unacked > 0 {
            node.round
        } else if node.halted {
            u64::MAX
        } else {
            node.round + 1
        };
        if safe > self.nodes[v].safe {
            self.set_safe(v, safe);
        }
    }

    /// Executes every virtual round the α rule currently allows at the
    /// nodes queued in `ready`.
    fn advance_ready(&mut self) {
        let mut batch = std::mem::take(&mut self.ready);
        batch.sort_unstable();
        batch.dedup();
        for v in batch {
            self.advance_node(v as usize);
        }
    }

    /// Is `v` allowed to execute its next virtual round? Once an error
    /// is recorded, execution is gated to rounds up to the earliest
    /// error round: slower regions still catch up — so any
    /// earlier-round error is found and the minimum-(round, node)
    /// selection matches the serial schedule — but nothing runs *past*
    /// the erroring round (the serial engine aborts there, and beyond it
    /// inboxes could diverge).
    fn may_advance(&self, v: usize) -> bool {
        let node = &self.nodes[v];
        if node.halted || node.unacked > 0 {
            return false;
        }
        let next = node.round + 1;
        if let Some((err_round, _, _)) = &self.err {
            if next > *err_round {
                return false;
            }
        }
        // A suspected peer's *effective* safe count is `u64::MAX` — we
        // stop waiting for it (that is what lets survivors make
        // progress around a crash). Its recorded safe count is left
        // untouched so a false suspicion, once revoked, restores the
        // exact synchronous gating.
        self.spec
            .slots(v)
            .all(|s| self.suspected[s] || self.rx[s].peer_safe >= next)
    }

    /// Executes a scheduled fail-stop: the node stops executing,
    /// sending, and acking; its channels go silent and its peers'
    /// failure detectors take over. It no longer counts as live, so
    /// phase completion does not wait for it. Called only at round
    /// boundaries (`may_advance` guarantees `unacked == 0` there), so
    /// a crash never strands a half-delivered payload of its own.
    fn kill(&mut self, v: usize) {
        debug_assert_eq!(
            self.nodes[v].unacked, 0,
            "crashes happen at round boundaries"
        );
        self.crashed[v] = true;
        self.obs_event(
            EventKind::Crash,
            v as u32,
            obs::NONE,
            self.nodes[v].round,
            self.cur_tick,
        );
        if !self.nodes[v].halted {
            self.nodes[v].halted = true;
            self.live -= 1;
        }
    }

    fn advance_node(&mut self, v: usize) {
        let spec = self.spec;
        let algo = self.algo;
        while self.may_advance(v) {
            let q = self.nodes[v].round + 1;
            // The plan's fail-stop: the node executes rounds
            // `< crash_local[v]` only (`u64::MAX` when unscheduled).
            if q >= self.crash_local[v] {
                self.kill(v);
                return;
            }
            if q > spec.cap {
                self.record_err(
                    q,
                    v as u64,
                    CongestError::MaxRoundsExceeded {
                        phase: spec.name.to_string(),
                        cap: spec.cap,
                    },
                );
                return;
            }
            let mut inbox = self.inboxes[v].remove(&q).unwrap_or_default();
            inbox.sort_by_key(|(p, _)| *p);
            let mut state = self.nodes[v].state.take().expect("booted node has state");
            let mut ctx = spec.ctx(v, q);
            // A node's receive slots are contiguous in the CSR arena, so
            // its detector view is a zero-copy slice (all-false under
            // crash-free plans — identical to the serial executor).
            ctx.suspected = &self.suspected[spec.slots(v)];
            let step = algo.round(&mut state, &ctx, &inbox);
            self.steps += 1;
            if cfg!(debug_assertions) {
                check_wait_contract(spec.name, v, q, self.nodes[v].wait, inbox.is_empty(), &step);
            }
            self.nodes[v].wait = match &step {
                Step::Wait(_, wake) => Some(*wake),
                _ => None,
            };
            self.nodes[v].state = Some(state);
            self.nodes[v].round = q;
            if q > self.max_round {
                self.max_round = q;
                // The network-wide virtual clock advanced: one RoundEnd
                // per virtual round, stamped with the physical tick that
                // first reached it.
                if let Some(sink) = self.spec.obs {
                    sink.round_end(q, self.cur_tick);
                }
            }
            // Every live node runs every round, so a waiting node is
            // called like a continuing one.
            let outbox = match step {
                Step::Continue(o) | Step::Wait(o, _) => o,
                Step::Halt(o) => {
                    self.nodes[v].halted = true;
                    self.live -= 1;
                    o
                }
            };
            self.enqueue_outbox(v, q, outbox.msgs);
            if self.nodes[v].halted {
                // Anything still buffered was addressed to a round this
                // node will never execute — exactly the serial executor's
                // message-to-halted condition.
                if let Some((&round, _)) = self.inboxes[v].iter().next() {
                    self.record_err(
                        round,
                        v as u64,
                        CongestError::MessageToHalted {
                            phase: spec.name.to_string(),
                            node: NodeId::from_index(v),
                            round,
                        },
                    );
                }
            }
            self.refresh_safety(v);
            if self.nodes[v].halted {
                return;
            }
        }
    }

    /// Processes one arriving frame on edge `d`. Only an accepted
    /// payload is cloned out of the frame.
    fn process_arrival(&mut self, d: usize, f: &Frame<A::Msg>) {
        let v = self.slot_owner[d] as usize;
        // A crashed receiver is gone: the frame vanishes — no ack, no
        // gossip, no inbox entry, and in particular no
        // `MessageToHalted` (the sender could not have known).
        if self.crashed[v] {
            return;
        }
        let out = self.rev(d);
        // Safety gossip from the sender.
        if f.safe_upto > self.rx[d].peer_safe {
            self.rx[d].peer_safe = f.safe_upto;
            self.ready.push(v as u32);
        }
        // The sender is retransmitting its safety until we echo it back:
        // answer with a control frame (the echo rides in `safe_seen`).
        if f.needs_echo {
            self.tx[out].dirty = true;
            self.activate(out);
        }
        // Echo of our own safety (confirms the announcement).
        if f.safe_seen > self.tx[out].peer_safe_seen {
            self.tx[out].peer_safe_seen = f.safe_seen;
            if self.tx[out].peer_safe_seen >= self.nodes[v].safe {
                self.tx[out].safe_attempts = 0;
            }
        }
        // Cumulative ack of our payload on the reverse edge.
        let acked = self.tx[out]
            .data
            .as_ref()
            .is_some_and(|dt| dt.seq <= f.ack_seq);
        if acked {
            self.obs_event(
                EventKind::FrameAck,
                v as u32,
                self.sender(d) as u32,
                self.nodes[v].round,
                self.cur_tick,
            );
            self.tx[out].data = None;
            self.tx[out].attempts = 0;
            self.nodes[v].unacked -= 1;
            self.unacked_total -= 1;
            if self.nodes[v].unacked == 0 {
                self.refresh_safety(v);
                self.ready.push(v as u32);
            }
        }
        // The payload itself.
        if let Some(dt) = &f.data {
            if dt.seq <= self.rx[d].rcv_seq {
                // A duplicate (or a stale delayed copy): our ack was
                // lost or is still in flight — re-ack.
                self.tx[out].dirty = true;
                self.activate(out);
            } else {
                debug_assert_eq!(
                    dt.seq,
                    self.rx[d].rcv_seq + 1,
                    "stop-and-wait: payloads arrive in order"
                );
                self.rx[d].rcv_seq = dt.seq;
                if self.nodes[v].halted {
                    // Acked at the transport, dropped at the algorithm:
                    // the recorded error ends the phase once every
                    // earlier round has been ruled out.
                    self.record_err(
                        dt.round + 1,
                        v as u64,
                        CongestError::MessageToHalted {
                            phase: self.spec.name.to_string(),
                            node: NodeId::from_index(v),
                            round: dt.round + 1,
                        },
                    );
                } else {
                    let port = Port((d - self.spec.offsets[v] as usize) as u32);
                    self.inboxes[v]
                        .entry(dt.round + 1)
                        .or_default()
                        .push((port, dt.msg.clone()));
                }
                self.tx[out].dirty = true;
                self.activate(out);
            }
        }
    }

    /// Visits every due channel in sender-slot order, emitting a frame
    /// on each whose send is due and applying the adversary to it. A
    /// visited channel that still owes a frame stays due when it must
    /// be visited next tick, and otherwise waits on the wheel for its
    /// resend deadline.
    fn transmit(&mut self, tick: u64) {
        let timeout = self.plan.timeout();
        let len = self.wheel.len() as u64;
        // Channels whose timer may expire now rejoin the due set.
        let bucket = (tick % len) as usize;
        let mut expired = std::mem::take(&mut self.wheel[bucket]);
        for &s in &expired {
            self.due[s as usize / 64] |= 1 << (s % 64);
        }
        expired.clear();
        self.wheel[bucket] = expired;
        // Nothing below marks a channel due, so taking each word before
        // walking its bits visits exactly this tick's due set, and a
        // bit set back into the word is for the next tick.
        for w in 0..self.due.len() {
            let mut bits = std::mem::take(&mut self.due[w]);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let d = self.spec.write_slot[w * 64 + b];
                // Dead senders transmit nothing, ever.
                if self.crashed[self.sender(d)] {
                    continue;
                }
                let needs_safety = self.needs_safety(d);
                let t = &self.tx[d];
                let timer_due = t.attempts == 0 || tick >= t.last_send + timeout;
                let data_due = t.data.is_some() && timer_due;
                let safety_due = needs_safety && (t.dirty || tick >= t.last_send + timeout);
                if data_due || safety_due || t.dirty {
                    // A scheduled send of an already-attempted payload is
                    // a retransmission: time it separately so the
                    // enclosing channel-scan span can report itself net
                    // of it.
                    let retrans = data_due && t.attempts > 0;
                    let span = obs::cc_begin(if retrans { self.spec.obs } else { None });
                    self.send_frame(d, tick, needs_safety, data_due);
                    if retrans {
                        self.retrans_ns += obs::cc_end(self.spec.obs, span, CostCenter::Retransmit);
                    }
                }
                // Still unconfirmed (data unacked or safety unechoed):
                // due again next tick while a control frame is pending
                // (the budget refused it) or the deadline is that close,
                // otherwise on the wheel until the deadline.
                let t = &self.tx[d];
                if t.data.is_some() || needs_safety {
                    let deadline = t.last_send + timeout;
                    if t.dirty || deadline <= tick + 1 {
                        self.due[w] |= 1 << b;
                    } else {
                        self.wheel[(deadline % len) as usize].push((w * 64 + b) as u32);
                    }
                }
            }
        }
        debug_assert_eq!(
            self.unscheduled_channel(tick),
            None,
            "a channel owing a frame is neither due nor on the wheel in time"
        );
    }

    /// The schedule's completeness check, run after each
    /// [`Machine::transmit`] in debug builds: the first live channel that
    /// owes a frame — unacked data, unechoed safety, or a pending control
    /// frame — but is neither due nor on the wheel at or before its
    /// deadline `last_send + timeout`, or `None`. A pending control
    /// frame (`dirty`) must be due outright.
    fn unscheduled_channel(&self, tick: u64) -> Option<usize> {
        let timeout = self.plan.timeout();
        let len = self.wheel.len() as u64;
        // After `transmit(tick)` every entry's tick lies in
        // `tick + 1 ..= tick + timeout`, one per bucket other than the
        // one just emptied; this is the earliest per sender-side slot.
        let mut wake = vec![u64::MAX; self.tx.len()];
        for (i, bucket) in self.wheel.iter().enumerate() {
            let at = tick + (i as u64 + len - tick % len) % len;
            for &s in bucket {
                wake[s as usize] = wake[s as usize].min(at);
            }
        }
        (0..self.tx.len()).find(|&s| {
            let d = self.spec.write_slot[s];
            let t = &self.tx[d];
            let due = self.due[s / 64] >> (s % 64) & 1 == 1;
            let on_time = due || (wake[s] > tick && wake[s] <= t.last_send + timeout);
            !self.crashed[self.sender(d)]
                && if t.dirty {
                    !due
                } else {
                    (t.data.is_some() || self.needs_safety(d)) && !on_time
                }
        })
    }

    /// Crash-detection mode only: keeps every still-relevant channel
    /// warm with one control frame per timeout even when idle, so that
    /// silence — the detector's only signal — implies a dead (or, with
    /// probability ~`drop^patience`, an extraordinarily unlucky) peer.
    /// Runs after [`Machine::transmit`], so any channel that already
    /// sent this tick (`last_send == tick`) is naturally skipped.
    fn send_keepalives(&mut self, tick: u64) {
        let timeout = self.plan.timeout();
        for d in 0..self.tx.len() {
            let u = self.sender(d);
            if self.crashed[u] {
                continue;
            }
            // A sender whose final `u64::MAX` safety the peer has echoed
            // is allowed to be silent forever — the peer skips suspicion
            // for it. Until that echo lands, even a *halted* sender must
            // keep the channel warm: a node that halts while a payload
            // toward a third neighbor is still unacked announces a
            // finite safe round, and its other channels would otherwise
            // go quiet long enough to be falsely suspected.
            if self.tx[d].peer_safe_seen == u64::MAX {
                continue;
            }
            // Still keep the channel warm while *we* suspect the peer:
            // if the suspicion is false, our frames are what clear the
            // peer's reciprocal suspicion of us.
            if self.rx[self.rev(d)].peer_safe == u64::MAX {
                continue;
            }
            if tick < self.tx[d].last_send + timeout {
                continue;
            }
            self.obs_event(
                EventKind::Keepalive,
                u as u32,
                self.slot_owner[d],
                self.max_round,
                tick,
            );
            self.send_frame(d, tick, false, false);
        }
    }

    /// Crash-detection mode only: raises a suspicion on every receive
    /// slot that has been silent past the suspicion window, quiescing
    /// the suspecting node's own channel toward the suspect. Slots are
    /// scanned in ascending order, so the first suspicion of a tick is
    /// deterministic. Returns the phase-ending error when the plan's
    /// policy is [`SuspicionPolicy::Abort`]: the recorded algorithm
    /// error if one exists (it predates the crash fallout), otherwise
    /// a [`CongestError::NodeSuspected`] naming the suspect, the
    /// detector, and the session-global round reached.
    fn detect_failures(&mut self, tick: u64) -> Option<CongestError> {
        for d in 0..self.rx.len() {
            if self.suspected[d] {
                continue;
            }
            let v = self.slot_owner[d] as usize;
            // A drained-halted sender announced `u64::MAX`: it is
            // legitimately silent forever, not crashed.
            if self.crashed[v] || self.rx[d].peer_safe == u64::MAX {
                continue;
            }
            // A receiver that needs nothing more from this sender — it
            // halted, its payload toward the sender is acked, and the
            // sender echoed its final safety — must not suspect: live
            // peers stop keepaliving toward it the moment they see its
            // `u64::MAX`, so from here the channel is legitimately
            // quiet in both directions.
            let out = self.rev(d);
            if self.nodes[v].halted
                && self.tx[out].data.is_none()
                && self.tx[out].peer_safe_seen >= self.nodes[v].safe
            {
                continue;
            }
            if tick.saturating_sub(self.last_heard[d]) <= self.suspect_after {
                continue;
            }
            let u = self.sender(d);
            self.suspected[d] = true;
            self.sim.suspicions += 1;
            self.obs_event(
                EventKind::Suspect,
                v as u32,
                u as u32,
                self.spec.base_round + self.max_round,
                tick,
            );
            if !self.crashed[u] {
                // Ground truth from the plan: the suspect lives. The
                // detector will rehabilitate it on its next frame.
                self.sim.false_suspicions += 1;
            }
            // Quiesce our channel toward the suspect: nothing will be
            // acked or echoed from over there, and a starved channel
            // must not block phase completion (or burn its budget).
            let out = self.rev(d);
            if self.tx[out].data.take().is_some() {
                self.tx[out].attempts = 0;
                self.nodes[v].unacked -= 1;
                self.unacked_total -= 1;
            }
            if self.nodes[v].unacked == 0 {
                self.refresh_safety(v);
            }
            self.ready.push(v as u32);
            if self.plan.on_suspect == SuspicionPolicy::Abort {
                if self.err.is_some() {
                    return Some(self.take_err());
                }
                return Some(CongestError::NodeSuspected {
                    phase: self.spec.name.to_string(),
                    node: NodeId::from_index(u),
                    by: NodeId::from_index(v),
                    round: self.spec.base_round + self.max_round,
                });
            }
        }
        None
    }

    /// Builds, meters, and (adversary permitting) schedules one frame on
    /// edge `d`. `data_scheduled` says the retransmit timer (or a first
    /// send) asked for the payload; an ack-driven frame still
    /// *piggybacks* a pending payload opportunistically, but only
    /// scheduled transmissions consume the attempt budget and count as
    /// retransmissions — a lossless run therefore reports zero.
    fn send_frame(&mut self, d: usize, tick: u64, needs_echo: bool, data_scheduled: bool) {
        let u = self.sender(d);
        let rev = self.rev(d);
        let port = self.sender_port(d);
        let budget = self.plan.max_attempts.max(1);
        // Budget checks come first, *before* anything is counted or put
        // on the wire: a starved channel records its typed error and
        // goes quiet (no frames, no "progress"), so the run winds down
        // through the stall detector instead of retransmitting forever.
        if self.tx[d].data.is_some() {
            debug_assert!(
                data_scheduled || self.tx[d].attempts > 0,
                "a payload's first transmission is always scheduled"
            );
            if data_scheduled {
                if self.tx[d].attempts >= budget {
                    let round = self.tx[d].data.as_ref().map_or(0, |dt| dt.round);
                    self.record_err(
                        round,
                        u as u64,
                        CongestError::RetransmitExhausted {
                            phase: self.spec.name.to_string(),
                            node: NodeId::from_index(u),
                            peer: NodeId::from_index(self.slot_owner[d] as usize),
                            port,
                            round,
                            attempts: budget,
                        },
                    );
                    return;
                }
                self.tx[d].attempts += 1;
                if self.tx[d].attempts > 1 {
                    self.sim.retransmitted += 1;
                    let round = self.tx[d].data.as_ref().map_or(0, |dt| dt.round);
                    self.obs_event(
                        EventKind::FrameRetransmit,
                        u as u32,
                        self.slot_owner[d],
                        round,
                        tick,
                    );
                }
            }
            self.sim.data_frames += 1;
        } else {
            if needs_echo {
                if self.tx[d].safe_attempts >= budget {
                    let round = self.nodes[u].round;
                    self.record_err(
                        round,
                        u as u64,
                        CongestError::RetransmitExhausted {
                            phase: self.spec.name.to_string(),
                            node: NodeId::from_index(u),
                            peer: NodeId::from_index(self.slot_owner[d] as usize),
                            port,
                            round,
                            attempts: budget,
                        },
                    );
                    return;
                }
                self.tx[d].safe_attempts += 1;
            }
            self.sim.ctrl_frames += 1;
        }
        self.tx[d].last_send = tick;
        self.tx[d].dirty = false;
        let mut frame = Frame {
            data: self.tx[d].data.clone(),
            ack_seq: self.rx[rev].rcv_seq,
            safe_upto: self.nodes[u].safe,
            safe_seen: self.rx[rev].peer_safe,
            needs_echo,
            crc: 0,
        };
        frame.crc = frame_checksum(self.phase_salt, &frame);
        // An open partition window swallows the frame before the link
        // faults even see it: the cut is physical, coins are moot.
        if !self.part_mask.is_empty() && self.partition_silences(d, tick) {
            self.sim.partitioned += 1;
            return;
        }
        let ev_round = frame
            .data
            .as_ref()
            .map_or(self.nodes[u].round, |dt| dt.round);
        if self.plan.drops(d, tick) {
            self.sim.dropped += 1;
            self.obs_event(
                EventKind::FrameDrop,
                u as u32,
                self.slot_owner[d],
                ev_round,
                tick,
            );
            return;
        }
        self.obs_event(
            EventKind::FrameSend,
            u as u32,
            self.slot_owner[d],
            ev_round,
            tick,
        );
        let window = self.calendar.len();
        let at = (tick + 1 + self.plan.delay(d, tick, 0)) as usize % window;
        self.in_flight += 1;
        if self.plan.duplicates(d, tick) {
            self.sim.duplicated += 1;
            self.obs_event(
                EventKind::FrameDup,
                u as u32,
                self.slot_owner[d],
                ev_round,
                tick,
            );
            let at2 = (tick + 1 + self.plan.delay(d, tick, 1)) as usize % window;
            let mut copy = frame.clone();
            self.maybe_corrupt(&mut copy, d, tick, 1);
            self.calendar[at2].push((d, copy));
            self.in_flight += 1;
        }
        self.maybe_corrupt(&mut frame, d, tick, 0);
        self.calendar[at].push((d, frame));
    }

    /// The corruption adversary: with probability `corrupt_per_mille`,
    /// flips one seeded bit in one checksummed control field of this
    /// frame copy. The frame still decodes — same shape, plausible
    /// values — which is exactly what makes the checksum (not the
    /// parser) the last line of defense.
    fn maybe_corrupt(&mut self, frame: &mut Frame<A::Msg>, d: usize, tick: u64, copy: u64) {
        if self.plan.corrupt_per_mille == 0 || !self.plan.corrupts(d, tick, copy) {
            return;
        }
        let coin = self.plan.corruption(d, tick, copy);
        let bit = 1u64 << (coin >> 8 & 63);
        match coin % 3 {
            0 => frame.ack_seq ^= bit,
            1 => frame.safe_upto ^= bit,
            _ => frame.safe_seen ^= bit,
        }
    }

    fn run(
        mut self,
        inputs: Vec<A::Input>,
    ) -> Result<(Vec<A::Output>, PhaseMetrics, u64), CongestError> {
        let spec = self.spec;
        let algo = self.algo;
        let obs = spec.obs;
        let n = spec.n;
        // Boot every node at virtual round 0.
        let span = obs::cc_begin(obs);
        for (v, input) in inputs.into_iter().enumerate() {
            let ctx = spec.ctx(v, 0);
            let (state, outbox) = algo.boot(&ctx, input);
            self.nodes[v].state = Some(state);
            // Crashed before the phase began (boot is local round 0):
            // the node keeps its booted state for the zombie `finish`,
            // but its outbox is discarded unmetered — it was never
            // there as far as the network is concerned.
            if self.crash_local[v] == 0 {
                self.kill(v);
                continue;
            }
            self.enqueue_outbox(v, 0, outbox.msgs);
            self.refresh_safety(v);
            self.ready.push(v as u32);
        }
        obs::cc_end(obs, span, CostCenter::Boot);
        // Boot is round 0 for everyone, so after the loop every round-0
        // error has been observed: the minimum-node one wins, as under
        // the serial boot sweep.
        if self.err.is_some() {
            return Err(self.take_err());
        }
        // A very generous physical cap: the virtual cap times the worst
        // per-round transport cost. Reaching it means the synchronizer
        // itself livelocked, which the attempt budgets make unreachable;
        // it exists so a logic bug fails instead of spinning.
        let per_round = (self.plan.timeout() + u64::from(self.plan.max_delay) + 2)
            .saturating_mul(u64::from(self.plan.max_attempts.max(1)) + 1);
        // Each crash can stall the network for a full suspicion window
        // before the detector unwedges it — budget those on top.
        // Partition windows stall their edges for their whole duration
        // (plus a suspicion window if the detector fires across the
        // cut) — budget those too.
        let partition_allowance: u64 = self
            .plan
            .partitions
            .iter()
            .map(|w| w.heal_at.saturating_add(self.suspect_after))
            .fold(0, u64::saturating_add);
        let tick_cap = spec
            .cap
            .saturating_add(2)
            .saturating_mul(per_round)
            .saturating_add(
                self.suspect_after
                    .saturating_mul(self.plan.crashes.len() as u64 + 1),
            )
            .saturating_add(partition_allowance);
        let mut idle_ticks = 0u64;
        let mut tick = 0u64;
        loop {
            self.cur_tick = tick;
            let span = obs::cc_begin(obs);
            let before = (
                self.sim.data_frames,
                self.sim.ctrl_frames,
                self.max_round,
                self.sim.suspicions,
            );
            // 0. Open any partition window whose onset round the
            //    session clock has reached.
            if !self.part_onset.is_empty() {
                self.open_partitions(tick);
            }
            // 1. Deliver this tick's arrivals by slot, then in send
            //    order, so the order is schedule-independent and
            //    destination-grouped.
            let window = self.calendar.len();
            let bucket = tick as usize % window;
            let mut arrivals = std::mem::take(&mut self.calendar[bucket]);
            self.in_flight -= arrivals.len();
            let mut keys: Vec<u64> = arrivals
                .iter()
                .enumerate()
                .map(|(i, &(d, _))| (d as u64) << 32 | i as u64)
                .collect();
            keys.sort_unstable();
            let had_arrivals = !arrivals.is_empty();
            obs::cc_end(obs, span, CostCenter::Bookkeeping);
            let span = obs::cc_begin(obs);
            for &key in &keys {
                let (d, frame) = &arrivals[key as u32 as usize];
                let d = *d;
                // Transport checksum first: a frame the adversary
                // bit-flipped is discarded whole — it earns no ack, no
                // suspicion rehabilitation, no keepalive credit (an
                // imposter frame must not vouch for a dead sender).
                if frame.crc != frame_checksum(self.phase_salt, frame) {
                    self.sim.corrupted += 1;
                    self.obs_event(
                        EventKind::FrameCorrupt,
                        self.slot_owner[d],
                        self.sender(d) as u32,
                        self.max_round,
                        tick,
                    );
                    continue;
                }
                if self.detect {
                    self.last_heard[d] = tick;
                    if self.suspected[d] {
                        // The suspect lives: rehabilitate it and
                        // reconsider the channel toward it (safety
                        // gossip suspended by the suspicion resumes on
                        // its timers).
                        self.suspected[d] = false;
                        self.obs_event(
                            EventKind::Clear,
                            self.slot_owner[d],
                            self.sender(d) as u32,
                            self.max_round,
                            tick,
                        );
                        let out = self.rev(d);
                        self.activate(out);
                    }
                }
                self.process_arrival(d, frame);
            }
            // Nothing is sent during delivery, so the bucket is still
            // empty: hand its allocation back.
            arrivals.clear();
            self.calendar[bucket] = arrivals;
            obs::cc_end(obs, span, CostCenter::AckBookkeeping);
            // 2. Execute every virtual round the α rule now allows
            //    (gated to rounds ≤ the earliest error round once an
            //    error is recorded, so slower regions surface any
            //    earlier-round error before the phase returns).
            let span = obs::cc_begin(obs);
            self.advance_ready();
            obs::cc_end(obs, span, CostCenter::Execute);
            // 3. Transmit on due edges; in crash mode, keep idle
            //    channels warm and run the failure detector. The scan
            //    span is reported net of the retransmissions nested in
            //    it (see [`Machine::transmit`]).
            self.retrans_ns = 0;
            let span = obs::cc_begin(obs);
            self.transmit(tick);
            obs::cc_end_split(obs, span, CostCenter::ChannelScan, self.retrans_ns);
            if self.detect {
                let span = obs::cc_begin(obs);
                self.send_keepalives(tick);
                obs::cc_end(obs, span, CostCenter::SafetyGossip);
                let span = obs::cc_begin(obs);
                let verdict = self.detect_failures(tick);
                obs::cc_end(obs, span, CostCenter::Detector);
                if let Some(e) = verdict {
                    return Err(e);
                }
            }
            let span = obs::cc_begin(obs);
            // 4. Error wind-down: once every node still running has
            //    executed through the earliest error round, no
            //    earlier-(round, node) error can exist — return the
            //    minimum, exactly the serial executor's selection.
            if let Some((err_round, _, _)) = &self.err {
                let err_round = *err_round;
                if self
                    .nodes
                    .iter()
                    .all(|nd| nd.halted || nd.round >= err_round)
                {
                    return Err(self.take_err());
                }
            }
            // 5. Done? Once every node has halted and every payload is
            //    acked and delivered, the remaining control chatter is
            //    irrelevant. Frames still in flight toward *crashed*
            //    receivers don't count: a halted survivor keepalives
            //    toward a dead peer forever (it cannot know the peer
            //    will never echo its final safety), and with enough
            //    such channels their staggered sends cover every tick —
            //    in-flight would never reach zero.
            if self.live == 0 && self.unacked_total == 0 {
                let drained = self.in_flight == 0
                    || self
                        .calendar
                        .iter()
                        .flatten()
                        .all(|(d, _)| self.crashed[self.slot_owner[*d] as usize]);
                if drained {
                    // Clamped to the virtual round count so the documented
                    // `phys_rounds ≥ rounds` invariant holds even for
                    // transport-free phases (an isolated node runs all its
                    // rounds inside one tick).
                    self.sim.phys_rounds = (tick + 1).max(self.max_round);
                    break;
                }
            }
            let progressed = had_arrivals
                || before
                    != (
                        self.sim.data_frames,
                        self.sim.ctrl_frames,
                        self.max_round,
                        self.sim.suspicions,
                    );
            idle_ticks = if progressed { 0 } else { idle_ticks + 1 };
            tick += 1;
            // A whole timeout-plus-window of ticks with no arrival, no
            // frame, no round, and no suspicion: either a recorded error
            // starved the network (budget-exhausted channels go quiet) —
            // return it — or the synchronizer is stalled, impossible by
            // design, and failing typed beats spinning. In crash mode
            // the network can be legitimately silent for a full
            // suspicion window (e.g. every live node halted, waiting on
            // a suspicion to quiesce a channel toward a dead peer), so
            // the allowance stretches by `suspect_after`.
            let idle_limit = self.plan.timeout()
                + window as u64
                + 1
                + if self.detect { self.suspect_after } else { 0 };
            if tick > tick_cap || idle_ticks > idle_limit {
                return Err(if self.err.is_some() {
                    self.take_err()
                } else {
                    CongestError::MaxRoundsExceeded {
                        phase: spec.name.to_string(),
                        cap: spec.cap,
                    }
                });
            }
            obs::cc_end(obs, span, CostCenter::Bookkeeping);
        }
        let span = obs::cc_begin(obs);
        self.metrics.rounds = self.max_round;
        self.metrics.max_edge_load_bits =
            self.edge_load.iter().copied().max().unwrap_or(0) as usize;
        self.metrics.sim = self.sim;
        let mut outputs = Vec::with_capacity(n);
        let nodes = std::mem::take(&mut self.nodes);
        for (v, node) in nodes.into_iter().enumerate() {
            let mut ctx = spec.ctx(v, self.max_round);
            // Crashed nodes still produce (zombie) outputs — the caller
            // needs a full vector — but their detector view is empty: a
            // dead node reports no suspects, which is how a recovery
            // driver tells survivor reports from zombie ones.
            if !self.crashed[v] {
                ctx.suspected = &self.suspected[spec.slots(v)];
            }
            let out = algo
                .finish(node.state.expect("state present"), &ctx)
                .map_err(|violation| CongestError::Protocol {
                    phase: spec.name.to_string(),
                    node: NodeId::from_index(v),
                    reason: violation.reason,
                })?;
            outputs.push(out);
        }
        obs::cc_end(obs, span, CostCenter::Finish);
        Ok((outputs, self.metrics, self.steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{FinishResult, Outbox};
    use crate::config::NetworkConfig;
    use crate::engine::Network;
    use crate::executor::ExecutorKind;
    use crate::node::NodeCtx;

    /// Every node floods its id for `ttl` rounds and outputs the minimum
    /// seen (the engine's canonical smoke algorithm).
    struct MinFlood {
        ttl: u64,
    }

    struct MinState {
        best: u32,
        changed: bool,
    }

    impl Algorithm for MinFlood {
        type Input = ();
        type State = MinState;
        type Msg = u32;
        type Output = u32;

        fn boot(&self, ctx: &NodeCtx<'_>, _input: ()) -> (MinState, Outbox<u32>) {
            let mut o = Outbox::new();
            o.send_all(ctx.ports(), ctx.node.raw());
            (
                MinState {
                    best: ctx.node.raw(),
                    changed: false,
                },
                o,
            )
        }

        fn round(&self, s: &mut MinState, ctx: &NodeCtx<'_>, inbox: &[(Port, u32)]) -> Step<u32> {
            s.changed = false;
            for (_, m) in inbox {
                if *m < s.best {
                    s.best = *m;
                    s.changed = true;
                }
            }
            if ctx.round >= self.ttl {
                return Step::halt();
            }
            let mut o = Outbox::new();
            if s.changed {
                o.send_all(ctx.ports(), s.best);
            }
            Step::Continue(o)
        }

        fn finish(&self, s: MinState, _ctx: &NodeCtx<'_>) -> FinishResult<u32> {
            Ok(s.best)
        }
    }

    fn run_flood(
        g: &graphs::WeightedGraph,
        kind: ExecutorKind,
        ttl: u64,
    ) -> crate::engine::RunOutcome<u32> {
        let cfg = NetworkConfig::default().with_executor(kind);
        let mut net = Network::new(g, cfg).unwrap();
        net.run("flood", &MinFlood { ttl }, vec![(); g.node_count()])
            .expect("flood succeeds")
    }

    /// The payload-level view of a faulty run — outputs, virtual rounds,
    /// messages, bits, and both load maxima — is bit-identical to the
    /// serial executor; only `sim` differs.
    #[test]
    fn lossless_plan_matches_serial_bit_for_bit() {
        for g in [
            graphs::generators::path(9).unwrap(),
            graphs::generators::grid2d(4, 5).unwrap(),
            graphs::generators::complete(6, 2).unwrap(),
        ] {
            let want = run_flood(&g, ExecutorKind::Serial, 12);
            let got = run_flood(&g, ExecutorKind::faulty(), 12);
            assert_eq!(got.outputs, want.outputs);
            let mut payload = got.metrics.clone();
            assert!(
                payload.sim.phys_rounds > payload.rounds,
                "{:?}",
                payload.sim
            );
            assert_eq!(payload.sim.dropped, 0);
            assert_eq!(payload.sim.duplicated, 0);
            assert_eq!(
                payload.sim.retransmitted, 0,
                "a lossless run never times out a payload"
            );
            payload.sim = SimPhaseStats::default();
            assert_eq!(payload, want.metrics);
        }
    }

    /// Serial reports `MessageToHalted` with the *delivery* round when
    /// any node is still live then, but with the *last executed* round
    /// when the whole network halted first (its all-halted loop-top
    /// check). The faulty executor reproduces both values exactly.
    #[test]
    fn all_halted_late_send_matches_serial_round() {
        struct LastWords;
        impl Algorithm for LastWords {
            type Input = ();
            type State = ();
            type Msg = u32;
            type Output = ();
            fn boot(&self, _c: &NodeCtx<'_>, _i: ()) -> ((), Outbox<u32>) {
                ((), Outbox::new())
            }
            fn round(&self, _s: &mut (), ctx: &NodeCtx<'_>, _i: &[(Port, u32)]) -> Step<u32> {
                // Node 1 halts at round 1; node 0 sends to it at round 2
                // and halts in the same step — the whole network is
                // halted before the message's delivery round.
                if ctx.node.raw() == 1 {
                    return Step::halt();
                }
                if ctx.round == 2 {
                    let mut o = Outbox::new();
                    o.send(Port(0), 9);
                    return Step::Halt(o);
                }
                Step::idle()
            }
            fn finish(&self, _s: (), _c: &NodeCtx<'_>) -> FinishResult<()> {
                Ok(())
            }
        }
        let g = graphs::generators::path(2).unwrap();
        let run_err = |kind: ExecutorKind| {
            let cfg = NetworkConfig::default().with_executor(kind);
            let mut net = Network::new(&g, cfg).unwrap();
            net.run("late", &LastWords, vec![(); 2]).unwrap_err()
        };
        let want = run_err(ExecutorKind::Serial);
        assert!(
            matches!(&want, CongestError::MessageToHalted { round: 2, .. }),
            "serial's all-halted path reports the send round: {want:?}"
        );
        for plan in [
            FaultPlan::lossless(),
            FaultPlan::with_drop(300, 9).delayed(2),
        ] {
            assert_eq!(
                run_err(ExecutorKind::Faulty(plan.clone())),
                want,
                "plan {plan:?}"
            );
        }
    }

    /// Heavy faults — drops, duplicates, a delay window wide enough to
    /// reorder — change nothing at the algorithm level.
    #[test]
    fn lossy_plans_preserve_outputs_and_payload_metrics() {
        let g = graphs::generators::grid2d(5, 5).unwrap();
        let want = run_flood(&g, ExecutorKind::Serial, 14);
        for (drop, dup, delay, seed) in [
            (200u16, 0u16, 0u8, 7u64),
            (100, 150, 3, 8),
            (300, 100, 2, 9),
        ] {
            let plan = FaultPlan::with_drop(drop, seed)
                .duplicated(dup)
                .delayed(delay);
            let got = run_flood(&g, ExecutorKind::Faulty(plan.clone()), 14);
            assert_eq!(got.outputs, want.outputs, "plan {plan:?}");
            assert_eq!(got.metrics.rounds, want.metrics.rounds, "plan {plan:?}");
            assert_eq!(got.metrics.messages, want.metrics.messages, "plan {plan:?}");
            assert_eq!(got.metrics.bits, want.metrics.bits, "plan {plan:?}");
            assert!(got.metrics.sim.dropped > 0, "plan {plan:?}");
            assert!(got.metrics.sim.retransmitted > 0, "plan {plan:?}");
            if dup > 0 {
                assert!(got.metrics.sim.duplicated > 0, "plan {plan:?}");
            }
        }
    }

    /// Same plan ⇒ byte-identical metrics, frame counts included.
    #[test]
    fn identical_plans_are_deterministic() {
        let g = graphs::generators::torus2d(4, 5).unwrap();
        let plan = FaultPlan::with_drop(250, 11).duplicated(100).delayed(3);
        let a = run_flood(&g, ExecutorKind::Faulty(plan.clone()), 10);
        let b = run_flood(&g, ExecutorKind::Faulty(plan), 10);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
        let c = run_flood(&g, ExecutorKind::Faulty(FaultPlan::with_drop(250, 12)), 10);
        assert_eq!(a.outputs, c.outputs, "outputs are seed-independent");
        assert_ne!(
            a.metrics.sim, c.metrics.sim,
            "different seeds perturb different frames"
        );
    }

    /// An adversary that drops everything exhausts the retransmission
    /// budget and surfaces as a typed error, not a livelock.
    #[test]
    fn total_loss_exhausts_the_retransmit_budget() {
        let g = graphs::generators::path(3).unwrap();
        let plan = FaultPlan {
            drop_per_mille: 1000,
            max_attempts: 5,
            resend_after: 1,
            ..FaultPlan::default()
        };
        let cfg = NetworkConfig::default().with_fault_plan(plan);
        let mut net = Network::new(&g, cfg).unwrap();
        let err = net
            .run("flood", &MinFlood { ttl: 5 }, vec![(); 3])
            .unwrap_err();
        match err {
            CongestError::RetransmitExhausted { node, attempts, .. } => {
                assert_eq!(node.raw(), 0, "lowest sender gives up first");
                assert_eq!(attempts, 5);
            }
            other => panic!("expected RetransmitExhausted, got {other:?}"),
        }
    }

    /// Node 0 messages node 1 after node 1 halted — the violation is
    /// detected under faults too, with the same fields the
    /// serial executor reports.
    #[test]
    fn strict_message_to_halted_is_detected() {
        struct LateSender;
        impl Algorithm for LateSender {
            type Input = ();
            type State = ();
            type Msg = u32;
            type Output = ();
            fn boot(&self, _c: &NodeCtx<'_>, _i: ()) -> ((), Outbox<u32>) {
                ((), Outbox::new())
            }
            fn round(&self, _s: &mut (), ctx: &NodeCtx<'_>, _i: &[(Port, u32)]) -> Step<u32> {
                if ctx.node.raw() == 1 {
                    return Step::halt();
                }
                if ctx.round == 2 && ctx.node.raw() == 0 {
                    let mut o = Outbox::new();
                    o.send(Port(0), 9);
                    return Step::Halt(o);
                }
                if ctx.round >= 3 {
                    return Step::halt();
                }
                Step::idle()
            }
            fn finish(&self, _s: (), _c: &NodeCtx<'_>) -> FinishResult<()> {
                Ok(())
            }
        }
        for plan in [
            FaultPlan::lossless(),
            FaultPlan::with_drop(200, 3).delayed(2),
        ] {
            let g = graphs::generators::path(3).unwrap();
            let cfg = NetworkConfig::default().with_fault_plan(plan);
            let mut net = Network::new(&g, cfg).unwrap();
            let err = net.run("late", &LateSender, vec![(); 3]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CongestError::MessageToHalted { ref node, round: 3, .. } if node.raw() == 1
                ),
                "got {err:?}"
            );
        }
    }

    /// Error *selection* parity: when several nodes err in different
    /// virtual rounds, the faulty executor returns the earliest round's
    /// lowest-id error — the serial executor's documented choice — even
    /// though skew can make the later-round error happen first in
    /// physical time. (Execution is gated at the earliest recorded
    /// error round until every slower region has caught up.)
    #[test]
    fn error_selection_matches_serial_across_rounds_and_nodes() {
        struct TwoFaults;
        impl Algorithm for TwoFaults {
            type Input = ();
            type State = ();
            type Msg = u32;
            type Output = ();
            fn boot(&self, _c: &NodeCtx<'_>, _i: ()) -> ((), Outbox<u32>) {
                ((), Outbox::new())
            }
            fn round(&self, _s: &mut (), ctx: &NodeCtx<'_>, _i: &[(Port, u32)]) -> Step<u32> {
                // Node 2 double-sends at round 5; node 35 double-sends
                // at round 3. The earliest round wins regardless of
                // node order or physical timing: the error must be
                // node 35's, round 3.
                let mut o = Outbox::new();
                if ctx.node.raw() == 2 && ctx.round == 5 {
                    o.send(Port(0), 1).send(Port(0), 2);
                    return Step::Continue(o);
                }
                if ctx.node.raw() == 35 && ctx.round == 3 {
                    o.send(Port(0), 1).send(Port(0), 2);
                    return Step::Continue(o);
                }
                if ctx.round >= 6 {
                    return Step::halt();
                }
                Step::idle()
            }
            fn finish(&self, _s: (), _c: &NodeCtx<'_>) -> FinishResult<()> {
                Ok(())
            }
        }
        let g = graphs::generators::path(40).unwrap();
        let run_err = |kind: ExecutorKind| {
            let cfg = NetworkConfig::default().with_executor(kind);
            let mut net = Network::new(&g, cfg).unwrap();
            net.run("faults", &TwoFaults, vec![(); 40]).unwrap_err()
        };
        let want = run_err(ExecutorKind::Serial);
        assert!(
            matches!(
                &want,
                CongestError::DoubleSend { node, round: 3, .. } if node.raw() == 35
            ),
            "serial picks the earliest round: {want:?}"
        );
        for plan in [
            FaultPlan::lossless(),
            FaultPlan::with_drop(150, 5).delayed(2),
            FaultPlan::with_drop(250, 6).delayed(3).duplicated(100),
        ] {
            let got = run_err(ExecutorKind::Faulty(plan.clone()));
            assert_eq!(got, want, "plan {plan:?}");
        }
    }

    /// A livelocked algorithm still hits the virtual round cap.
    #[test]
    fn livelock_hits_the_virtual_round_cap() {
        struct Livelock;
        impl Algorithm for Livelock {
            type Input = ();
            type State = ();
            type Msg = ();
            type Output = ();
            fn boot(&self, _c: &NodeCtx<'_>, _i: ()) -> ((), Outbox<()>) {
                ((), Outbox::new())
            }
            fn round(&self, _s: &mut (), _c: &NodeCtx<'_>, _i: &[(Port, ())]) -> Step<()> {
                Step::idle()
            }
            fn finish(&self, _s: (), _c: &NodeCtx<'_>) -> FinishResult<()> {
                Ok(())
            }
        }
        let g = graphs::generators::path(3).unwrap();
        let cfg = NetworkConfig::default().with_fault_plan(FaultPlan::lossless());
        let mut net = Network::new(&g, cfg).unwrap();
        let err = net.run("livelock", &Livelock, vec![(); 3]).unwrap_err();
        // The cap is `(n + 16)²`: 361 rounds on three nodes.
        assert!(matches!(
            err,
            CongestError::MaxRoundsExceeded { cap: 361, .. }
        ));
    }

    /// A plan holds at most 64 partition windows: 64 run (none opens
    /// here), and a 65th is refused with a typed error before the first
    /// tick instead of a panic inside the run.
    #[test]
    fn partition_windows_beyond_the_limit_are_a_typed_error() {
        let g = graphs::generators::path(3).unwrap();
        let run = |windows: usize| {
            let plan = (0..windows).fold(FaultPlan::lossless(), |p, _| {
                p.with_partition(vec![(0, 1)], u64::MAX, 1)
            });
            let cfg = NetworkConfig::default().with_fault_plan(plan);
            let mut net = Network::new(&g, cfg).unwrap();
            net.run("flood", &MinFlood { ttl: 5 }, vec![(); 3])
        };
        let at_limit = run(MAX_PARTITIONS).expect("64 windows run");
        assert_eq!(at_limit.outputs, vec![0, 0, 0]);
        assert_eq!(
            run(MAX_PARTITIONS + 1).unwrap_err(),
            CongestError::TooManyPartitions {
                phase: "flood".to_string(),
                windows: 65,
                limit: 64,
            }
        );
    }

    /// A single isolated node runs to completion without any transport.
    #[test]
    fn single_node_needs_no_synchronizer() {
        let g = graphs::WeightedGraph::from_edges(1, []).unwrap();
        let out = run_flood(&g, ExecutorKind::faulty(), 4);
        assert_eq!(out.outputs, vec![0]);
        assert_eq!(out.metrics.rounds, 4);
        assert_eq!(out.metrics.messages, 0);
    }

    /// Under the default `Abort` policy, a mid-phase crash surfaces as
    /// a typed `NodeSuspected` naming the dead node — the recovery
    /// driver's cue — deterministically.
    #[test]
    fn crash_is_detected_and_aborts_typed() {
        let g = graphs::generators::grid2d(3, 3).unwrap();
        let run_one = || {
            let plan = FaultPlan::lossless().with_crash(4, 2);
            let cfg = NetworkConfig::default().with_fault_plan(plan);
            let mut net = Network::new(&g, cfg).unwrap();
            net.run("flood", &MinFlood { ttl: 12 }, vec![(); 9])
                .unwrap_err()
        };
        let err = run_one();
        match &err {
            CongestError::NodeSuspected {
                node, by, round, ..
            } => {
                assert_eq!(node.raw(), 4, "the crashed node is the suspect");
                assert_ne!(by.raw(), 4, "a neighbor detects it");
                assert!(*round >= 1, "some progress happened before the crash");
            }
            other => panic!("expected NodeSuspected, got {other:?}"),
        }
        assert_eq!(err, run_one(), "same plan, same suspicion");
    }

    /// Under `Continue`, a dead-from-boot node is simply absent: the
    /// survivors complete around it (its id never floods) and the
    /// suspicion counters land in the metrics with zero false alarms.
    #[test]
    fn dead_from_boot_nodes_are_silent_under_continue() {
        let g = graphs::generators::path(3).unwrap();
        let plan = FaultPlan::lossless()
            .with_crash(0, 0)
            .continue_on_suspicion();
        let cfg = NetworkConfig::default().with_fault_plan(plan);
        let mut net = Network::new(&g, cfg).unwrap();
        let out = net
            .run("flood", &MinFlood { ttl: 6 }, vec![(); 3])
            .expect("survivors complete");
        assert_eq!(
            out.outputs,
            vec![0, 1, 1],
            "node 0 is a zombie (its boot state), the rest never saw id 0"
        );
        assert!(out.metrics.sim.suspicions >= 1);
        assert_eq!(
            out.metrics.sim.false_suspicions, 0,
            "lossless keepalives never miss"
        );
    }

    /// A crash scheduled far past the phase's end changes outputs and
    /// payload metrics not at all — the detector mode only adds
    /// keepalive control frames, and nobody gets suspected.
    #[test]
    fn unreached_crash_rounds_only_add_keepalives() {
        let g = graphs::generators::grid2d(4, 4).unwrap();
        let want = run_flood(&g, ExecutorKind::Serial, 10);
        let armed = run_flood(
            &g,
            ExecutorKind::Faulty(FaultPlan::lossless().with_crash(0, 10_000)),
            10,
        );
        assert_eq!(armed.outputs, want.outputs);
        assert_eq!(armed.metrics.rounds, want.metrics.rounds);
        assert_eq!(armed.metrics.messages, want.metrics.messages);
        assert_eq!(armed.metrics.bits, want.metrics.bits);
        assert_eq!(armed.metrics.sim.suspicions, 0);
        assert_eq!(armed.metrics.sim.false_suspicions, 0);
        let unarmed = run_flood(&g, ExecutorKind::faulty(), 10);
        assert!(
            armed.metrics.sim.ctrl_frames >= unarmed.metrics.sim.ctrl_frames,
            "keepalives only add control traffic"
        );
    }

    /// Crashes under lossy transport stay deterministic: same plan,
    /// same typed abort, byte for byte.
    #[test]
    fn lossy_crash_detection_is_deterministic() {
        let g = graphs::generators::torus2d(4, 4).unwrap();
        let plan = FaultPlan::with_drop(50, 77).delayed(2).with_crash(5, 3);
        let run_one = |p: FaultPlan| {
            let cfg = NetworkConfig::default().with_fault_plan(p);
            let mut net = Network::new(&g, cfg).unwrap();
            net.run("flood", &MinFlood { ttl: 12 }, vec![(); 16])
                .unwrap_err()
        };
        let a = run_one(plan.clone());
        let b = run_one(plan);
        assert!(
            matches!(&a, CongestError::NodeSuspected { node, .. } if node.raw() == 5),
            "got {a:?}"
        );
        assert_eq!(a, b);
    }
}
