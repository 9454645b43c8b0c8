//! Round executors: *how* a phase's rounds are driven over the nodes.
//!
//! [`crate::Network::run`] owns *what* a phase is (boot → synchronous
//! rounds → finish, with bandwidth/protocol enforcement and metering);
//! a [`RoundExecutor`] owns *how* each sweep over the nodes is scheduled.
//! Two interchangeable implementations ship today, selected by
//! [`ExecutorKind`] in [`crate::NetworkConfig`]:
//!
//! * [`SerialExecutor`] — one inline pass per round (the default);
//! * [`ParallelExecutor`] — `std::thread::scope` workers claiming
//!   contiguous node chunks from an atomic cursor.
//!
//! Both run the identical per-node code over the identical slot-arena
//! delivery structures (see `executor::sweep`), so outputs, round
//! counts, and every [`PhaseMetrics`] field are **bit-identical** across
//! executors — the executor parity suite asserts this on trees, tori,
//! cliques, and the full min-cut pipeline.
//!
//! This trait is also the crate's extension seam:
//! [`crate::Network::run_with`] accepts any `RoundExecutor`. The
//! α-synchronizer / fault-injection layer
//! ([`crate::sim::FaultyExecutor`], selected by [`ExecutorKind::Faulty`])
//! is exactly such an implementation: a from-scratch simulation loop
//! that perturbs *delivery timing* rather than sweep scheduling, and
//! therefore shares the geometry of [`PhaseSpec`] but none of the sweep
//! machinery. (External crates can wrap and delegate to the shipped
//! executors; implementing a from-scratch executor requires this
//! module's `pub(crate)` internals by design.)

pub(crate) mod cells;
pub mod protocol;
pub(crate) mod sweep;

use crate::algorithm::Algorithm;
use crate::error::CongestError;
use crate::metrics::PhaseMetrics;
use crate::node::{NeighborInfo, NodeCtx};
use graphs::NodeId;
use sweep::{execute_sweep, Domain, ExecMode, PhaseState, Sweep, SweepStats};

/// Which round executor a [`crate::Network`] uses. (Not `Copy`: a
/// [`crate::sim::FaultPlan`] carries a crash schedule.)
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum ExecutorKind {
    /// The single-threaded executor (deterministic, zero thread overhead).
    #[default]
    Serial,
    /// The deterministic parallel executor.
    Parallel {
        /// Worker threads; `0` means `std::thread::available_parallelism`.
        threads: usize,
    },
    /// The fault-injecting executor: the α-synchronizer of
    /// [`crate::sim::FaultyExecutor`] over the seeded adversary described
    /// by the plan. Outputs stay bit-identical to [`ExecutorKind::Serial`];
    /// the transport overhead is metered in
    /// [`crate::metrics::SimPhaseStats`].
    Faulty(crate::sim::FaultPlan),
}

impl ExecutorKind {
    /// The parallel executor sized to the machine.
    pub fn parallel() -> Self {
        ExecutorKind::Parallel { threads: 0 }
    }

    /// The faulty executor under the lossless default plan (pure
    /// synchronizer overhead, no injected faults).
    pub fn faulty() -> Self {
        ExecutorKind::Faulty(crate::sim::FaultPlan::default())
    }

    /// The worker count this kind resolves to (≥ 1).
    pub fn effective_threads(&self) -> usize {
        match self {
            ExecutorKind::Serial | ExecutorKind::Faulty(_) => 1,
            ExecutorKind::Parallel { threads: 0 } => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            ExecutorKind::Parallel { threads } => *threads,
        }
    }
}

/// The read-only geometry and policy of one phase run, borrowed from the
/// [`crate::Network`]: adjacency views, port routing, the CSR slot-arena
/// layout, and the enforcement knobs. Executors receive it by reference;
/// it is `Sync` (all shared, immutable data), which is what lets the
/// parallel executor hand it to scoped workers.
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
    /// See [`crate::NetworkConfig::parallel_inline_threshold`].
    pub(crate) parallel_inline_threshold: usize,
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

/// The single-threaded executor: one inline sweep per round.
#[derive(Copy, Clone, Debug, Default)]
pub struct SerialExecutor;

impl RoundExecutor for SerialExecutor {
    fn run_phase<A: Algorithm>(
        &self,
        spec: &PhaseSpec<'_>,
        algo: &A,
        inputs: Vec<A::Input>,
    ) -> Result<(Vec<A::Output>, PhaseMetrics), CongestError> {
        drive_phase(spec, algo, inputs, &ExecMode::Serial)
    }
}

/// The deterministic parallel executor: scoped worker threads claim
/// contiguous node chunks from an atomic cursor each sweep. Results are
/// bit-identical to [`SerialExecutor`] regardless of the thread count.
#[derive(Copy, Clone, Debug)]
pub struct ParallelExecutor {
    threads: usize,
}

impl ParallelExecutor {
    /// An executor with `threads` workers (`0` = machine parallelism).
    pub fn with_threads(threads: usize) -> Self {
        ParallelExecutor { threads }
    }

    /// The resolved worker count (≥ 1).
    pub fn threads(&self) -> usize {
        ExecutorKind::Parallel {
            threads: self.threads,
        }
        .effective_threads()
    }
}

impl RoundExecutor for ParallelExecutor {
    fn run_phase<A: Algorithm>(
        &self,
        spec: &PhaseSpec<'_>,
        algo: &A,
        inputs: Vec<A::Input>,
    ) -> Result<(Vec<A::Output>, PhaseMetrics), CongestError> {
        let threads = self.threads().max(1);
        // Several chunks per worker for load balance, but never so small
        // that cursor traffic dominates a sweep.
        let chunk = (spec.n / (threads * 4)).max(32);
        drive_phase(
            spec,
            algo,
            inputs,
            &ExecMode::Parallel {
                threads,
                chunk,
                inline_below: spec.parallel_inline_threshold,
            },
        )
    }
}

/// The shared phase driver: boot sweep, round sweeps until every node
/// halts, then finish — with the live/in-flight bookkeeping and error
/// selection that both executors share.
fn drive_phase<A: Algorithm>(
    spec: &PhaseSpec<'_>,
    algo: &A,
    inputs: Vec<A::Input>,
    mode: &ExecMode,
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

    let input_cells = cells::SyncCells::new(inputs.into_iter().map(Some).collect());
    let boot = execute_sweep(
        &ps,
        &Sweep::Boot {
            inputs: &input_cells,
            write: &ps.arenas[0],
        },
        &Domain::All(n),
        mode,
    );
    let mut touched = absorb(&mut metrics, &mut live, &mut in_flight, boot)?;

    // Round sweeps cover the live nodes plus any halted node whose inbox
    // went non-empty — not all `n` — so long pipelined tails where most
    // of the network has halted cost only the nodes still working. The
    // live list is compacted lazily (when ≥ ¼ of it is stale) to keep
    // its maintenance amortized.
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
        // Between sweeps no workers exist, so halted flags are stable:
        // split last round's touched destinations into the halted ones
        // (their own sweep segment) — live ones are already in the list.
        let halted_touched: Vec<u32> = touched
            .iter()
            .copied()
            .filter(|&v| ps.nodes.get_exclusive(v as usize).halted)
            .collect();
        let read = &ps.arenas[((round - 1) % 2) as usize];
        let write = &ps.arenas[(round % 2) as usize];
        let stats = execute_sweep(
            &ps,
            &Sweep::Round { round, read, write },
            &Domain::Lists {
                live: &live_list,
                halted: &halted_touched,
            },
            mode,
        );
        let halts = stats.halts;
        touched = absorb(&mut metrics, &mut live, &mut in_flight, stats)?;
        if let Some(sink) = spec.obs {
            // Fault-free executors: one physical tick per round.
            sink.round_end(round, round);
        }
        stale_halts += halts;
        if stale_halts * 4 >= live_list.len() {
            live_list.retain(|&v| !ps.nodes.get_exclusive(v as usize).halted);
            stale_halts = 0;
        }
    }
    metrics.rounds = round;
    metrics.max_edge_load_bits = ps.max_edge_load_bits();

    let mut outputs = Vec::with_capacity(n);
    for (v, cell) in ps.nodes.into_inner().into_iter().enumerate() {
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

/// Folds one sweep's stats into the phase accounting, returning the
/// sweep's touched destinations — or surfaces its earliest (lowest-node)
/// error.
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

/// Unit tests for the executor core, deliberately tiny: this module is
/// the target of the nightly Miri CI job (`cargo miri test -p congest
/// --lib executor`), where every test runs under the interpreter at
/// ~100× cost — so the instances here are the smallest ones that still
/// force the parallel executor to actually spawn workers.
#[cfg(test)]
mod tests {
    use super::cells::SyncCells;
    use super::*;
    use crate::algorithm::{FinishResult, Outbox, Step};
    use crate::config::NetworkConfig;
    use crate::engine::Network;
    use crate::node::Port;

    /// Rounds of all-port gossip before halting.
    const GOSSIP_ROUNDS: u64 = 3;

    /// Every node sends `id + round` on every port each round and sums
    /// what it hears — enough traffic to exercise every slot of the
    /// arena every round.
    struct Gossip;

    impl Algorithm for Gossip {
        type Input = ();
        type State = u64;
        type Msg = u64;
        type Output = u64;

        fn boot(&self, ctx: &NodeCtx<'_>, _input: ()) -> (u64, Outbox<u64>) {
            let mut o = Outbox::new();
            o.send_all(
                (0..ctx.neighbors.len() as u32).map(Port),
                ctx.node.index() as u64,
            );
            (0, o)
        }

        fn round(&self, state: &mut u64, ctx: &NodeCtx<'_>, inbox: &[(Port, u64)]) -> Step<u64> {
            for (_, m) in inbox {
                *state += m;
            }
            if ctx.round >= GOSSIP_ROUNDS {
                return Step::halt();
            }
            let mut o = Outbox::new();
            o.send_all(
                (0..ctx.neighbors.len() as u32).map(Port),
                ctx.node.index() as u64 + ctx.round,
            );
            Step::Continue(o)
        }

        fn finish(&self, state: u64, _ctx: &NodeCtx<'_>) -> FinishResult<u64> {
            Ok(state)
        }
    }

    fn gossip_under(kind: ExecutorKind) -> (Vec<u64>, crate::metrics::PhaseMetrics) {
        // 40 nodes: just above the minimum chunk size (32), so the
        // parallel executor genuinely splits the domain across workers.
        let n = 40;
        let g = graphs::generators::cycle(n).expect("valid cycle");
        let cfg = NetworkConfig {
            executor: kind,
            parallel_inline_threshold: 0,
            ..NetworkConfig::default()
        };
        let mut net = Network::new(&g, cfg).expect("valid network");
        let out = net
            .run("gossip", &Gossip, vec![(); n])
            .expect("gossip phase runs clean");
        let metrics = net.ledger().phases().last().expect("metered").clone();
        (out.outputs, metrics)
    }

    #[test]
    fn parallel_sweeps_are_bit_identical_to_serial() {
        let (serial_out, serial_m) = gossip_under(ExecutorKind::Serial);
        let (par_out, par_m) = gossip_under(ExecutorKind::Parallel { threads: 2 });
        assert_eq!(serial_out, par_out, "outputs must not depend on schedule");
        assert_eq!(serial_m.rounds, par_m.rounds);
        assert_eq!(serial_m.messages, par_m.messages);
        assert_eq!(serial_m.bits, par_m.bits);
        assert_eq!(serial_m.max_edge_load_bits, par_m.max_edge_load_bits);
        // Sanity: the phase actually did work under both executors.
        assert_eq!(serial_m.rounds, GOSSIP_ROUNDS);
        assert!(serial_m.messages > 0);
    }

    #[test]
    fn exclusivity_claims_accept_disjoint_epochs() {
        let cells = SyncCells::new(vec![0u8; 4]);
        // Same cell across epochs and different cells within an epoch
        // are both fine — only a same-(cell, epoch) collision is a race.
        cells.claim(1, 0);
        cells.claim(2, 0);
        cells.claim(1, 1);
        cells.claim(1, 2);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "claims are debug-only")]
    #[should_panic(expected = "exclusivity violation")]
    fn exclusivity_claims_catch_same_epoch_reclaim() {
        let cells = SyncCells::new(vec![0u8; 4]);
        cells.claim(3, 7);
        cells.claim(3, 7);
    }
}
