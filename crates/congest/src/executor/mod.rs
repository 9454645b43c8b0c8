//! Round executors: *how* a phase's rounds are driven over the nodes.
//!
//! [`crate::Network::run`] owns *what* a phase is (boot → synchronous
//! rounds → finish, with bandwidth/protocol enforcement and metering);
//! a [`RoundExecutor`] owns *how* the rounds are driven. Two
//! implementations ship, selected by [`ExecutorKind`] in
//! [`crate::NetworkConfig`]:
//!
//! * [`SerialExecutor`] — one single-threaded sweep per round over the
//!   slot-arena delivery structures of `executor::sweep` (the default);
//! * [`crate::sim::FaultyExecutor`] ([`ExecutorKind::Faulty`]) — the
//!   α-synchronizer over a seeded adversary: a from-scratch simulation
//!   loop that perturbs *delivery timing*, and therefore shares the
//!   geometry of [`PhaseSpec`] but none of the sweep machinery.
//!
//! Outputs, round counts and every [`PhaseMetrics`] field are identical
//! under both; the faulty executor's transport overhead is metered on
//! the side. This trait is also the crate's extension seam:
//! [`crate::Network::run_with`] accepts any `RoundExecutor`. (External
//! crates can wrap and delegate to the shipped executors; implementing
//! a from-scratch executor requires this module's `pub(crate)`
//! internals by design.)

pub(crate) mod sweep;

use crate::algorithm::Algorithm;
use crate::error::CongestError;
use crate::metrics::PhaseMetrics;
use crate::node::{NeighborInfo, NodeCtx};
use graphs::NodeId;
use sweep::{PhaseState, SweepStats};

/// Which round executor a [`crate::Network`] uses. (Not `Copy`: a
/// [`crate::sim::FaultPlan`] carries a crash schedule.)
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum ExecutorKind {
    /// The single-threaded synchronous executor.
    #[default]
    Serial,
    /// The fault-injecting executor: the α-synchronizer of
    /// [`crate::sim::FaultyExecutor`] over the seeded adversary described
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
/// [`crate::Network`]: adjacency views, port routing, the CSR slot-arena
/// layout, and the enforcement knobs. Executors receive it by reference.
pub struct PhaseSpec<'a> {
    pub(crate) name: &'a str,
    pub(crate) n: usize,
    pub(crate) neighbors: &'a [Vec<NeighborInfo>],
    pub(crate) routing: &'a [Vec<(u32, u32)>],
    /// CSR offsets: node `v`'s inbox slots (= its ports, = its outgoing
    /// directed edges) are `slot_base[v]..slot_base[v + 1]`.
    pub(crate) slot_base: &'a [usize],
    /// `write_slot[slot_base[v] + p]` = the global slot of the directed
    /// edge leaving `v` through port `p` (i.e. the reverse-port slot in
    /// the destination's inbox range).
    pub(crate) write_slot: &'a [usize],
    pub(crate) bandwidth_bits: usize,
    pub(crate) strict: bool,
    pub(crate) cap: u64,
    pub(crate) max_degree: usize,
    /// The session's virtual rounds consumed before this phase
    /// (`ledger.total_rounds()` at phase start) — the offset that maps
    /// the *global* rounds of a [`crate::sim::CrashEvent`] schedule to
    /// this phase's local rounds. Fault-free executors ignore it.
    pub(crate) base_round: u64,
    /// The observability sink of [`crate::NetworkConfig::obs`], if any
    /// (`None` = tracing fully disabled; executors must not allocate,
    /// lock, or read clocks on that path).
    pub(crate) obs: Option<&'a crate::obs::ObsSink>,
}

impl PhaseSpec<'_> {
    /// The local context of node `v` at `round` (no suspicions: the
    /// fault-free executors never suspect anyone; the faulty executor
    /// swaps in its live suspicion view).
    pub(crate) fn ctx(&self, v: usize, round: u64) -> NodeCtx<'_> {
        NodeCtx {
            node: NodeId::from_index(v),
            n: self.n,
            bandwidth_bits: self.bandwidth_bits,
            round,
            neighbors: &self.neighbors[v],
            suspected: &[],
        }
    }
}

/// Drives one phase to completion over a [`PhaseSpec`]. See the module
/// docs for the contract: implementations must preserve the synchronous
/// semantics (a round's sends are the next round's inboxes) and produce
/// schedule-independent outputs and metrics.
pub trait RoundExecutor {
    /// Runs boot, all rounds, and finish; returns per-node outputs and
    /// the phase metrics.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError`] exactly as [`crate::Network::run`]
    /// documents: invalid/double sends, bandwidth violations and messages
    /// to halted nodes (strict mode), round-cap overruns, and protocol
    /// violations from `finish`.
    fn run_phase<A: Algorithm>(
        &self,
        spec: &PhaseSpec<'_>,
        algo: &A,
        inputs: Vec<A::Input>,
    ) -> Result<(Vec<A::Output>, PhaseMetrics), CongestError>;
}

/// The single-threaded executor: one sweep per round.
#[derive(Copy, Clone, Debug, Default)]
pub struct SerialExecutor;

impl RoundExecutor for SerialExecutor {
    fn run_phase<A: Algorithm>(
        &self,
        spec: &PhaseSpec<'_>,
        algo: &A,
        inputs: Vec<A::Input>,
    ) -> Result<(Vec<A::Output>, PhaseMetrics), CongestError> {
        let n = spec.n;
        let mut ps = PhaseState::new(spec, algo);
        let mut metrics = PhaseMetrics {
            name: spec.name.to_string(),
            ..Default::default()
        };
        let mut live = n;
        // Messages routed but not yet consumed — maintained incrementally
        // from the sweep stats instead of scanning queues every round.
        let mut in_flight = 0usize;

        let boot = ps.boot(inputs);
        let mut touched = absorb(&mut metrics, &mut live, &mut in_flight, boot)?;

        // Round sweeps cover the live nodes plus any halted node whose
        // inbox went non-empty — not all `n` — so long pipelined tails
        // where most of the network has halted cost only the nodes still
        // working. The live list is compacted lazily (when ≥ ¼ of it is
        // stale) to keep its maintenance amortized.
        let mut live_list: Vec<u32> = (0..n as u32).collect();
        let mut stale_halts = 0usize;
        let mut round: u64 = 0;
        loop {
            if live == 0 {
                if in_flight > 0 && spec.strict {
                    // Someone sent to a halted node (everyone is halted).
                    let dest = ps.arenas[(round % 2) as usize]
                        .first_pending()
                        .expect("in-flight messages occupy a slot");
                    return Err(CongestError::MessageToHalted {
                        phase: spec.name.to_string(),
                        node: NodeId::from_index(dest),
                        round,
                    });
                }
                break;
            }
            round += 1;
            if round > spec.cap {
                return Err(CongestError::MaxRoundsExceeded {
                    phase: spec.name.to_string(),
                    cap: spec.cap,
                });
            }
            // Last round's touched destinations that are halted get
            // their own sweep segment; live ones are already in the list.
            let halted_touched: Vec<u32> = touched
                .iter()
                .copied()
                .filter(|&v| ps.nodes[v as usize].halted)
                .collect();
            let stats = ps.round(round, &live_list, &halted_touched);
            let halts = stats.halts;
            touched = absorb(&mut metrics, &mut live, &mut in_flight, stats)?;
            if let Some(sink) = spec.obs {
                // Fault-free executors: one physical tick per round.
                sink.round_end(round, round);
            }
            stale_halts += halts;
            if stale_halts * 4 >= live_list.len() {
                live_list.retain(|&v| !ps.nodes[v as usize].halted);
                stale_halts = 0;
            }
        }
        metrics.rounds = round;
        metrics.max_edge_load_bits = ps.max_edge_load_bits();

        let mut outputs = Vec::with_capacity(n);
        for (v, cell) in ps.nodes.into_iter().enumerate() {
            let ctx = spec.ctx(v, round);
            let out = algo
                .finish(cell.state.expect("state present"), &ctx)
                .map_err(|violation| CongestError::Protocol {
                    phase: spec.name.to_string(),
                    node: NodeId::from_index(v),
                    reason: violation.reason,
                })?;
            outputs.push(out);
        }
        Ok((outputs, metrics))
    }
}

/// Folds one sweep's stats into the phase accounting, returning the
/// sweep's touched destinations — or surfaces its lowest node's error.
fn absorb(
    metrics: &mut PhaseMetrics,
    live: &mut usize,
    in_flight: &mut usize,
    stats: SweepStats,
) -> Result<Vec<u32>, CongestError> {
    if let Some((_, e)) = stats.err {
        return Err(e);
    }
    metrics.messages += stats.messages;
    metrics.bits += stats.bits;
    metrics.max_message_bits = metrics.max_message_bits.max(stats.max_message_bits);
    metrics.violations += stats.violations;
    *live -= stats.halts;
    *in_flight += stats.messages as usize;
    *in_flight -= stats.delivered;
    Ok(stats.touched)
}
