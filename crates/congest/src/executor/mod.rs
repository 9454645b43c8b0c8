//! Round executors: *how* a phase's rounds are driven over the nodes.
//!
//! [`crate::Network::run`] owns *what* a phase is (boot → synchronous
//! rounds → finish, with bandwidth/protocol enforcement and metering)
//! and hands it to the executor that [`ExecutorKind`] in
//! [`crate::NetworkConfig`] names:
//!
//! * [`ExecutorKind::Serial`] — one single-threaded sweep per round over
//!   the nodes that have something to do, with the message store of
//!   `executor::sweep`, whose type-independent buffers the network
//!   keeps across phases (the default);
//! * [`ExecutorKind::Faulty`] — the α-synchronizer of [`crate::sim`]
//!   over a seeded adversary: a from-scratch simulation loop that
//!   perturbs *delivery timing*, and therefore shares the phase's
//!   geometry (`PhaseSpec`) but none of the sweep machinery.
//!
//! Outputs, round counts and every [`PhaseMetrics`] field are identical
//! under both; the faulty executor's transport overhead is metered on
//! the side. The number of [`Algorithm::round`] calls is not: it is
//! recorded beside the wall time in the ledger
//! ([`crate::MetricsLedger::total_steps`]).
//!
//! # The `Wait` contract
//!
//! A node that returns [`crate::Step::Wait`] never needs a call to make
//! progress: called before its wake round with an empty inbox, it
//! returns `Wait` again with an empty outbox and the same wake round,
//! and changes nothing. The serial executor relies on it and does not
//! call a waiting node until mail arrives or its wake round comes. The
//! faulty executor calls every live node every round, treating `Wait`
//! as `Continue`, so it makes exactly the calls the serial one skips,
//! and debug builds check each of them against the contract: the
//! executor-parity tests check it across the whole pipeline.

pub(crate) mod sweep;

use crate::algorithm::Algorithm;
use crate::error::CongestError;
use crate::metrics::PhaseMetrics;
use crate::node::NodeCtx;
use graphs::{AdjEntry, NodeId};
pub(crate) use sweep::SweepBuffers;
use sweep::{PhaseState, SweepStats};

/// Which round executor a [`crate::Network`] uses. (Not `Copy`: a
/// [`crate::sim::FaultPlan`] carries a crash schedule.)
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum ExecutorKind {
    /// The single-threaded synchronous executor.
    #[default]
    Serial,
    /// The fault-injecting executor: the α-synchronizer of
    /// [`crate::sim`] over the seeded adversary described
    /// by the plan. Outputs stay bit-identical to [`ExecutorKind::Serial`];
    /// the transport overhead is metered in
    /// [`crate::metrics::SimPhaseStats`].
    Faulty(crate::sim::FaultPlan),
}

impl ExecutorKind {
    /// The faulty executor under the lossless default plan (pure
    /// synchronizer overhead, no injected faults).
    pub fn faulty() -> Self {
        ExecutorKind::Faulty(crate::sim::FaultPlan::default())
    }
}

/// The read-only geometry and policy of one phase run, borrowed from the
/// [`crate::Network`]: the graph's adjacency (whose order is the port
/// order), the CSR slot layout, the budget and the round cap.
/// Executors receive it by reference.
pub(crate) struct PhaseSpec<'a> {
    pub(crate) name: &'a str,
    pub(crate) n: usize,
    /// The graph's CSR adjacency ([`graphs::WeightedGraph::adjacency`]):
    /// node `v`'s port `p` is `adj[slot_base[v] + p]`.
    pub(crate) adj: &'a [AdjEntry],
    /// CSR offsets: node `v`'s inbox slots (= its ports, = its outgoing
    /// directed edges) are `slot_base[v]..slot_base[v + 1]`.
    pub(crate) slot_base: &'a [usize],
    /// `write_slot[slot_base[v] + p]` = the global slot of the directed
    /// edge leaving `v` through port `p` (i.e. the reverse-port slot in
    /// the destination's inbox range).
    pub(crate) write_slot: &'a [usize],
    pub(crate) bandwidth_bits: usize,
    pub(crate) cap: u64,
    pub(crate) max_degree: usize,
    /// The session's virtual rounds consumed before this phase
    /// (`ledger.total_rounds()` at phase start) — the offset that maps
    /// the *global* rounds of a [`crate::sim::CrashEvent`] schedule to
    /// this phase's local rounds. The serial executor ignores it.
    pub(crate) base_round: u64,
    /// The observability sink of [`crate::NetworkConfig::obs`], if any
    /// (`None` = tracing fully disabled; executors must not allocate,
    /// lock, or read clocks on that path).
    pub(crate) obs: Option<&'a crate::obs::ObsSink>,
}

impl PhaseSpec<'_> {
    /// The local context of node `v` at `round` (no suspicions: the
    /// serial executor never suspects anyone; the faulty executor swaps
    /// in its live suspicion view).
    pub(crate) fn ctx(&self, v: usize, round: u64) -> NodeCtx<'_> {
        NodeCtx {
            node: NodeId::from_index(v),
            n: self.n,
            bandwidth_bits: self.bandwidth_bits,
            round,
            neighbors: self.ports(v),
            suspected: &[],
        }
    }

    /// Node `v`'s adjacency list, indexed by port: the graph's own
    /// `neighbors(v)` slice.
    pub(crate) fn ports(&self, v: usize) -> &[AdjEntry] {
        &self.adj[self.slot_base[v]..self.slot_base[v + 1]]
    }
}

/// Drives one phase to completion with the serial executor: boot, one
/// sweep per round, finish. Returns per-node outputs, the phase metrics
/// and the number of [`Algorithm::round`] calls, or the error
/// [`crate::Network::run`] documents. `bufs` are the network's kept
/// buffers; a failed phase leaves them reset.
pub(crate) fn run_serial<A: Algorithm>(
    spec: &PhaseSpec<'_>,
    bufs: &mut SweepBuffers,
    algo: &A,
    inputs: Vec<A::Input>,
) -> Result<(Vec<A::Output>, PhaseMetrics, u64), CongestError> {
    bufs.prepare(spec.n, spec.slot_base[spec.n]);
    let out = serial_phase(spec, bufs, algo, inputs);
    if out.is_err() {
        bufs.reset();
    }
    out
}

fn serial_phase<A: Algorithm>(
    spec: &PhaseSpec<'_>,
    bufs: &mut SweepBuffers,
    algo: &A,
    inputs: Vec<A::Input>,
) -> Result<(Vec<A::Output>, PhaseMetrics, u64), CongestError> {
    let n = spec.n;
    let mut metrics = PhaseMetrics {
        name: spec.name.to_string(),
        ..Default::default()
    };
    let mut live = n;
    // Messages routed but not yet consumed — maintained incrementally
    // from the sweep stats instead of scanning queues every round.
    let mut in_flight = 0usize;

    let (mut ps, boot) = PhaseState::boot(spec, algo, bufs, inputs);
    absorb(&mut metrics, &mut live, &mut in_flight, boot)?;

    // After round 1, a round steps only the nodes that are awake, got
    // mail or are due (see `sweep`), so waiting nodes and long
    // pipelined tails where most of the network has halted cost
    // nothing per round.
    let mut round: u64 = 0;
    loop {
        if live == 0 {
            if in_flight > 0 {
                // Someone sent to a halted node (everyone is halted).
                let dest = ps
                    .first_pending(round)
                    .expect("in-flight messages are pending");
                return Err(CongestError::MessageToHalted {
                    phase: spec.name.to_string(),
                    node: NodeId::from_index(dest),
                    round,
                });
            }
            break;
        }
        if ps.stalled() {
            // Some node waits for mail that never comes: the round cap
            // would end the phase with this error, without a step
            // between here and there.
            return Err(CongestError::MaxRoundsExceeded {
                phase: spec.name.to_string(),
                cap: spec.cap,
            });
        }
        round += 1;
        if round > spec.cap {
            return Err(CongestError::MaxRoundsExceeded {
                phase: spec.name.to_string(),
                cap: spec.cap,
            });
        }
        let stats = ps.round(round);
        absorb(&mut metrics, &mut live, &mut in_flight, stats)?;
        if let Some(sink) = spec.obs {
            // One physical tick per round.
            sink.round_end(round, round);
        }
    }
    metrics.rounds = round;
    metrics.max_edge_load_bits = ps.take_max_edge_load_bits();

    let steps = ps.steps;
    let mut outputs = Vec::with_capacity(n);
    for (v, cell) in ps.nodes.into_iter().enumerate() {
        let ctx = spec.ctx(v, round);
        let out = algo
            .finish(cell.state, &ctx)
            .map_err(|violation| CongestError::Protocol {
                phase: spec.name.to_string(),
                node: NodeId::from_index(v),
                reason: violation.reason,
            })?;
        outputs.push(out);
    }
    Ok((outputs, metrics, steps))
}

/// Folds one sweep's stats into the phase accounting — or surfaces its
/// lowest node's error.
fn absorb(
    metrics: &mut PhaseMetrics,
    live: &mut usize,
    in_flight: &mut usize,
    stats: SweepStats,
) -> Result<(), CongestError> {
    if let Some((_, e)) = stats.err {
        return Err(e);
    }
    metrics.messages += stats.messages;
    metrics.bits += stats.bits;
    metrics.max_message_bits = metrics.max_message_bits.max(stats.max_message_bits);
    *live -= stats.halts;
    *in_flight += stats.messages as usize;
    *in_flight -= stats.delivered;
    Ok(())
}
