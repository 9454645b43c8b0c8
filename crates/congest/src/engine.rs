//! The synchronous round engine.
//!
//! [`Network`] owns the topology (the graph, whose adjacency order is
//! the port order and whose CSR offsets lay out every phase's per-slot
//! arrays, plus the routing table built from them),
//! the serial executor's kept buffers and the session metrics ledger;
//! each phase's rounds are driven by the executor that
//! [`NetworkConfig::executor`] names.

use crate::algorithm::Algorithm;
use crate::config::NetworkConfig;
use crate::error::CongestError;
use crate::executor::{run_serial, ExecutorKind, PhaseSpec, SweepBuffers};
use crate::metrics::{MetricsLedger, PhaseMetrics};
use graphs::WeightedGraph;

/// The result of running one phase.
#[derive(Clone, Debug)]
pub struct RunOutcome<O> {
    /// Per-node outputs, indexed by node.
    pub outputs: Vec<O>,
    /// This phase's metrics (also appended to the session ledger).
    pub metrics: PhaseMetrics,
}

/// A simulated CONGEST network over a fixed graph.
///
/// Holds the topology, the configuration, and the session metrics ledger.
/// Phases are executed with [`Network::run`]; per-node outputs of one phase
/// become per-node inputs of the next.
pub struct Network<'g> {
    graph: &'g WeightedGraph,
    config: NetworkConfig,
    ledger: MetricsLedger,
    /// `write_slot[offsets[v] + p]` = the destination slot of the
    /// directed edge leaving `v` through port `p` — precomputed so
    /// routing a message is one indexed store.
    write_slot: Vec<usize>,
    max_degree: usize,
    bandwidth_bits: usize,
    /// The serial executor's message-type-independent buffers, kept
    /// across phases (allocated by the first serial phase).
    sweep: SweepBuffers,
}

/// The round cap of a phase on `n` nodes: quadratic in `n`, enough for
/// every phase in this workspace with huge slack, small enough to catch
/// livelock.
fn round_cap(n: usize) -> u64 {
    let n = n.max(2) as u64;
    (n + 16) * (n + 16)
}

impl<'g> Network<'g> {
    /// Builds a network over `graph` with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::AsymmetricAdjacency`] when the graph's
    /// adjacency is not symmetric (a malformed topology — ports could not
    /// be routed back).
    pub fn new(graph: &'g WeightedGraph, config: NetworkConfig) -> Result<Self, CongestError> {
        let n = graph.node_count();
        // Slot geometry: one slot per directed edge, grouped by
        // destination, laid out by the graph's own CSR offsets (node
        // `v`'s inbox slots are its ports), so the serial executor's
        // per-slot buffers are sized once per network. Port-level
        // routing: v's port p leads to u; the message lands in the slot
        // of u's port back to v.
        let offsets = graph.offsets();
        let mut write_slot = Vec::with_capacity(graph.adjacency().len());
        for v in graph.nodes() {
            for a in graph.neighbors(v) {
                let u = a.neighbor;
                let back = graph
                    .neighbors(u)
                    .iter()
                    .position(|b| b.neighbor == v)
                    .ok_or(CongestError::AsymmetricAdjacency {
                        node: v,
                        neighbor: u,
                    })?;
                write_slot.push(offsets[u.index()] as usize + back);
            }
        }
        let max_degree = graph.nodes().map(|v| graph.degree(v)).max().unwrap_or(0);
        let bandwidth_bits = config.bandwidth_bits(n);
        Ok(Network {
            graph,
            config,
            ledger: MetricsLedger::new(),
            write_slot,
            max_degree,
            bandwidth_bits,
            sweep: SweepBuffers::default(),
        })
    }

    /// The underlying graph. The returned reference carries the graph's own
    /// lifetime, so holding it does not borrow the network.
    pub fn graph(&self) -> &'g WeightedGraph {
        self.graph
    }

    /// The configuration in force.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The session metrics ledger.
    pub fn ledger(&self) -> &MetricsLedger {
        &self.ledger
    }

    /// The per-edge, per-direction, per-round budget in bits.
    pub fn bandwidth_bits(&self) -> usize {
        self.bandwidth_bits
    }

    /// The observability sink this network records into, if any.
    pub fn obs(&self) -> Option<&crate::obs::ObsSink> {
        self.config.obs.as_ref().map(|h| h.sink())
    }

    /// Records a stage marker into the attached sink (a no-op without
    /// one): `name` must be grammar-valid with a stem registered in
    /// [`crate::phase::REGISTERED_STEMS`], which debug builds assert
    /// whether or not a sink is attached, and `value` is free-form (an
    /// epoch, a tree count, a checkpoint index). This is how the
    /// recovery driver stamps checkpoint/resume/census progress into
    /// the event stream.
    pub fn obs_emit(&self, name: &str, value: u64) {
        debug_assert!(
            crate::phase::is_registered(name),
            "obs event name {name:?} is not grammar-valid with a registered stem (see congest::phase)"
        );
        if let Some(sink) = self.obs() {
            sink.emit(name, value);
        }
    }

    /// Runs one phase to completion: boots every node with its input,
    /// executes synchronous rounds until every node has halted, and returns
    /// per-node outputs plus metrics.
    ///
    /// The rounds are driven by the executor named in
    /// [`NetworkConfig::executor`]; outputs and metrics are identical
    /// whichever executor runs them.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError`] on wrong input count, invalid or double
    /// sends, bandwidth violations, messages to halted nodes, or when the
    /// round cap `(n + 16)²` is exceeded — which the serial executor
    /// reports at once when every node still running waits for mail that
    /// cannot come (nothing awake, in flight or scheduled to wake; see
    /// [`crate::Step::Wait`]). When several nodes err in the
    /// same round, the lowest-id node's error is returned, under every
    /// executor; the rest of that round still executes (errors are
    /// collected, not short-circuited, so the choice does not depend on
    /// the order nodes are stepped in).
    pub fn run<A: Algorithm>(
        &mut self,
        name: &str,
        algo: &A,
        inputs: Vec<A::Input>,
    ) -> Result<RunOutcome<A::Output>, CongestError> {
        debug_assert!(
            crate::phase::is_valid_name(name),
            "phase name {name:?} violates the stem.sub grammar (see congest::phase)"
        );
        let n = self.graph.node_count();
        if inputs.len() != n {
            return Err(CongestError::WrongInputCount {
                phase: name.to_string(),
                got: inputs.len(),
                want: n,
            });
        }
        let base_round = self.ledger.total_rounds();
        // Borrowed from `config` alone (not through `self.obs()`), so the
        // serial executor can borrow `sweep` mutably below.
        let obs = self.config.obs.as_ref().map(|h| h.sink());
        let spec = PhaseSpec {
            name,
            n,
            adj: self.graph.adjacency(),
            offsets: self.graph.offsets(),
            write_slot: &self.write_slot,
            bandwidth_bits: self.bandwidth_bits,
            cap: round_cap(n),
            max_degree: self.max_degree,
            base_round,
            obs,
        };
        if let Some(sink) = obs {
            sink.phase_begin(name, base_round);
        }
        // Wall-clock lives only in the ledger's side vector and the obs
        // phase records — never inside the `Eq`-compared `PhaseMetrics`
        // or the virtual event stream, so replay parity across executors
        // and reruns is unaffected.
        let t = std::time::Instant::now();
        let (outputs, metrics, steps) = match &self.config.executor {
            ExecutorKind::Serial => run_serial(&spec, &mut self.sweep, algo, inputs),
            ExecutorKind::Faulty(plan) => crate::sim::run_faulty(plan, &spec, algo, inputs),
        }?;
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(sink) = obs {
            sink.phase_end(metrics.rounds, metrics.ticks(), wall_ms);
        }
        self.ledger.push_timed(metrics.clone(), wall_ms, steps);
        Ok(RunOutcome { outputs, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{FinishResult, Outbox, Step};
    use crate::message::Message;
    use crate::node::{NodeCtx, Port};
    use graphs::NodeId;

    /// Every node floods its id for `ttl` rounds and records the minimum it
    /// has seen — a toy algorithm exercising the engine paths.
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

        fn round(
            &self,
            state: &mut MinState,
            ctx: &NodeCtx<'_>,
            inbox: &[(Port, u32)],
        ) -> Step<u32> {
            state.changed = false;
            for (_, m) in inbox {
                if *m < state.best {
                    state.best = *m;
                    state.changed = true;
                }
            }
            if ctx.round >= self.ttl {
                return Step::halt();
            }
            let mut o = Outbox::new();
            if state.changed {
                o.send_all(ctx.ports(), state.best);
            }
            Step::Continue(o)
        }

        fn finish(&self, state: MinState, _ctx: &NodeCtx<'_>) -> FinishResult<u32> {
            Ok(state.best)
        }
    }

    #[test]
    fn min_flood_converges_on_path() {
        let g = graphs::generators::path(10).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let out = net
            .run("min_flood", &MinFlood { ttl: 12 }, vec![(); 10])
            .unwrap();
        assert!(out.outputs.iter().all(|&b| b == 0));
        assert_eq!(out.metrics.rounds, 12);
        assert!(out.metrics.messages > 0);
        assert_eq!(net.ledger().total_rounds(), 12);
    }

    /// Sends a `ttl`-round drumbeat of 7s (3 bits each) from node 0 to
    /// node 1 — one edge carries cumulative load while no single message
    /// grows.
    struct Drummer {
        ttl: u64,
    }

    impl Algorithm for Drummer {
        type Input = ();
        type State = ();
        type Msg = u32;
        type Output = ();

        fn boot(&self, ctx: &NodeCtx<'_>, _i: ()) -> ((), Outbox<u32>) {
            let mut o = Outbox::new();
            if ctx.node.raw() == 0 {
                o.send(Port(0), 7);
            }
            ((), o)
        }

        fn round(&self, _s: &mut (), ctx: &NodeCtx<'_>, _i: &[(Port, u32)]) -> Step<u32> {
            if ctx.round >= self.ttl {
                return Step::halt();
            }
            let mut o = Outbox::new();
            if ctx.node.raw() == 0 {
                o.send(Port(0), 7);
            }
            Step::Continue(o)
        }

        fn finish(&self, _s: (), _c: &NodeCtx<'_>) -> FinishResult<()> {
            Ok(())
        }
    }

    /// `max_edge_load_bits` is the cumulative per-(edge, direction) load
    /// across the phase, not a copy of `max_message_bits`: four 3-bit
    /// messages on one directed edge load it with 12 bits.
    #[test]
    fn max_edge_load_accumulates_across_rounds() {
        let g = graphs::generators::path(2).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        // Boot + rounds 1..3 send; messages sent in round ttl would reach a
        // halted node, so the drumbeat stops one round earlier.
        let out = net.run("drum", &Drummer { ttl: 4 }, vec![(); 2]).unwrap();
        assert_eq!(out.metrics.max_message_bits, 3);
        assert_eq!(out.metrics.messages, 4);
        assert_eq!(out.metrics.max_edge_load_bits, 4 * 3);
        assert_eq!(net.ledger().max_edge_load_bits(), 12);
    }

    /// A message that claims to be enormous.
    #[derive(Clone, Debug)]
    struct FatMsg;
    impl Message for FatMsg {
        fn bit_len(&self) -> usize {
            10_000
        }
    }

    /// An algorithm that sends an over-budget message.
    struct FatSender;
    impl Algorithm for FatSender {
        type Input = ();
        type State = ();
        type Msg = FatMsg;
        type Output = ();

        fn boot(&self, ctx: &NodeCtx<'_>, _i: ()) -> ((), Outbox<FatMsg>) {
            let mut o = Outbox::new();
            if ctx.node.raw() == 0 {
                o.send(Port(0), FatMsg);
            }
            ((), o)
        }

        fn round(&self, _s: &mut (), _c: &NodeCtx<'_>, _i: &[(Port, FatMsg)]) -> Step<FatMsg> {
            Step::halt()
        }

        fn finish(&self, _s: (), _c: &NodeCtx<'_>) -> FinishResult<()> {
            Ok(())
        }
    }

    #[test]
    fn strict_mode_rejects_fat_messages() {
        let g = graphs::generators::path(4).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let err = net.run("fat", &FatSender, vec![(); 4]).unwrap_err();
        assert!(matches!(err, CongestError::BandwidthExceeded { .. }));
    }

    /// Sends two messages on the same port.
    struct DoubleSender;
    impl Algorithm for DoubleSender {
        type Input = ();
        type State = ();
        type Msg = u32;
        type Output = ();

        fn boot(&self, ctx: &NodeCtx<'_>, _i: ()) -> ((), Outbox<u32>) {
            let mut o = Outbox::new();
            if ctx.node.raw() == 0 {
                o.send(Port(0), 1).send(Port(0), 2);
            }
            ((), o)
        }
        fn round(&self, _s: &mut (), _c: &NodeCtx<'_>, _i: &[(Port, u32)]) -> Step<u32> {
            Step::halt()
        }
        fn finish(&self, _s: (), _c: &NodeCtx<'_>) -> FinishResult<()> {
            Ok(())
        }
    }

    #[test]
    fn double_send_is_rejected() {
        let g = graphs::generators::path(3).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let err = net.run("dbl", &DoubleSender, vec![(); 3]).unwrap_err();
        assert!(matches!(err, CongestError::DoubleSend { .. }));
    }

    /// Never halts, never sends — must hit the round cap.
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

    /// The cap is `(n + 16)²`: 361 rounds on three nodes.
    #[test]
    fn livelock_hits_round_cap() {
        let g = graphs::generators::path(3).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let err = net.run("livelock", &Livelock, vec![(); 3]).unwrap_err();
        assert!(matches!(
            err,
            CongestError::MaxRoundsExceeded { cap: 361, .. }
        ));
    }

    #[test]
    fn wrong_input_count_is_rejected() {
        let g = graphs::generators::path(3).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let err = net.run("wrong", &Livelock, vec![(); 2]).unwrap_err();
        assert!(matches!(err, CongestError::WrongInputCount { .. }));
    }

    /// Node 0 sends to node 1 after node 1 has halted.
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
                return Step::halt(); // halts in round 1
            }
            if ctx.round == 2 && ctx.node.raw() == 0 {
                let mut o = Outbox::new();
                o.send(Port(0), 9); // arrives in round 3, node 1 halted
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

    #[test]
    fn message_to_halted_is_rejected_in_strict_mode() {
        let g = graphs::generators::path(3).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let err = net.run("late", &LateSender, vec![(); 3]).unwrap_err();
        assert!(matches!(err, CongestError::MessageToHalted { .. }));
        // The round-2 send reaches node 1 in round 3 while node 0 is still
        // live: the halted-segment path of the sweep.
        let err = Network::new(&g, NetworkConfig::default())
            .unwrap()
            .run("late", &HaltedDrummer, vec![(); 3])
            .unwrap_err();
        assert!(matches!(
            err,
            CongestError::MessageToHalted { round: 3, .. }
        ));
    }

    /// Two nodes err in round 3: node 1 (halted) receives a message, and
    /// node 150 double-sends. Node 1 sits in the round's halted segment,
    /// which is swept after the live one, so node 150's error is found
    /// first; the engine must still report the lowest node's, under
    /// every executor.
    #[test]
    fn strict_error_parity_picks_the_lowest_node_across_chunks() {
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
                // Node 1 halts at once; node 0 messages it in round 2
                // (arriving in round 3); node 150 double-sends in round 3.
                if ctx.node.raw() == 1 {
                    return Step::halt();
                }
                if ctx.round == 2 && ctx.node.raw() == 0 {
                    let mut o = Outbox::new();
                    o.send(Port(0), 9);
                    return Step::Halt(o);
                }
                if ctx.round == 3 && ctx.node.raw() == 150 {
                    let mut o = Outbox::new();
                    o.send(Port(0), 1).send(Port(0), 2);
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

        let g = graphs::generators::path(200).unwrap();
        let errs: Vec<_> = [
            ExecutorKind::Serial,
            ExecutorKind::Faulty(crate::sim::FaultPlan::default()),
        ]
        .into_iter()
        .map(|kind| {
            let mut net = Network::new(&g, NetworkConfig::default().with_executor(kind)).unwrap();
            net.run("late", &TwoFaults, vec![(); 200]).unwrap_err()
        })
        .collect();
        assert!(
            matches!(
                errs[0],
                CongestError::MessageToHalted { node, round: 3, .. } if node.raw() == 1
            ),
            "expected MessageToHalted at node 1, got {:?}",
            errs[0]
        );
        assert_eq!(errs[0], errs[1]);
    }

    /// Node 0 messages node 1, halted since round 1, on the same port
    /// in rounds 2, 3 and 4.
    struct HaltedDrummer;
    impl Algorithm for HaltedDrummer {
        type Input = ();
        type State = ();
        type Msg = u32;
        type Output = ();
        fn boot(&self, _c: &NodeCtx<'_>, _i: ()) -> ((), Outbox<u32>) {
            ((), Outbox::new())
        }
        fn round(&self, _s: &mut (), ctx: &NodeCtx<'_>, _i: &[(Port, u32)]) -> Step<u32> {
            match (ctx.node.raw(), ctx.round) {
                (1, _) => Step::halt(),
                (0, 2..=4) => {
                    let mut o = Outbox::new();
                    o.send(Port(0), 9);
                    Step::Continue(o)
                }
                (_, r) if r >= 5 => Step::halt(),
                _ => Step::idle(),
            }
        }
        fn finish(&self, _s: (), _c: &NodeCtx<'_>) -> FinishResult<()> {
            Ok(())
        }
    }

    /// How [`Faulting`] breaks the rules in the middle of its flood.
    #[derive(Clone, Copy, Debug)]
    enum Fault {
        DoubleSend,
        Fat,
        ToHalted,
    }

    /// A beat of the given bit length.
    #[derive(Clone, Debug)]
    struct Beat(usize);
    impl Message for Beat {
        fn bit_len(&self) -> usize {
            self.0
        }
    }

    /// Every node beats on every port at boot and in every round; in
    /// round 2 node 9 sends a second beat on port 0 or an over-budget
    /// one, or node 5, halted in round 1, hears its neighbors. The phase
    /// fails with beats stored in both halves and loads counted.
    struct Faulting(Fault);
    impl Algorithm for Faulting {
        type Input = ();
        type State = ();
        type Msg = Beat;
        type Output = ();
        fn boot(&self, ctx: &NodeCtx<'_>, _i: ()) -> ((), Outbox<Beat>) {
            let mut o = Outbox::new();
            o.send_all(ctx.ports(), Beat(5));
            ((), o)
        }
        fn round(&self, _s: &mut (), ctx: &NodeCtx<'_>, _i: &[(Port, Beat)]) -> Step<Beat> {
            let (v, round) = (ctx.node.raw(), ctx.round);
            if matches!(self.0, Fault::ToHalted) && (v, round) == (5, 1) {
                return Step::halt();
            }
            let mut o = Outbox::new();
            o.send_all(ctx.ports(), Beat(5));
            if (v, round) == (9, 2) {
                match self.0 {
                    Fault::DoubleSend => {
                        o.send(Port(0), Beat(5));
                    }
                    Fault::Fat => o.msgs[1].1 = Beat(10_000),
                    Fault::ToHalted => {}
                }
            }
            Step::Continue(o)
        }
        fn finish(&self, _s: (), _c: &NodeCtx<'_>) -> FinishResult<()> {
            Ok(())
        }
    }

    /// The network keeps its delivery buffers across phases: after a
    /// phase that fails mid-round, the next phase's outputs and metrics
    /// equal a fresh network's.
    #[test]
    fn a_failed_phase_leaves_no_trace_in_the_next() {
        let g = graphs::generators::grid2d(4, 4).unwrap();
        let flood = MinFlood { ttl: 6 };
        let fresh = Network::new(&g, NetworkConfig::default())
            .unwrap()
            .run("flood", &flood, vec![(); 16])
            .unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        for fault in [Fault::DoubleSend, Fault::Fat, Fault::ToHalted] {
            let err = net
                .run("fault", &Faulting(fault), vec![(); 16])
                .unwrap_err();
            let failed_as_planned = match fault {
                Fault::DoubleSend => {
                    matches!(err, CongestError::DoubleSend { node, round: 2, .. } if node.raw() == 9)
                }
                Fault::Fat => {
                    matches!(err, CongestError::BandwidthExceeded { node, round: 2, .. } if node.raw() == 9)
                }
                Fault::ToHalted => {
                    matches!(err, CongestError::MessageToHalted { node, round: 2, .. } if node.raw() == 5)
                }
            };
            assert!(failed_as_planned, "{fault:?}: {err:?}");
            let after = net.run("flood", &flood, vec![(); 16]).unwrap();
            assert_eq!(after.outputs, fresh.outputs, "after {fault:?}");
            assert_eq!(after.metrics, fresh.metrics, "after {fault:?}");
        }
        assert!(fresh.metrics.max_edge_load_bits > fresh.metrics.max_message_bits);
    }

    /// Waits for mail in round 1, then sends in round 3 without any:
    /// it breaks the `Wait` contract.
    struct Impatient;
    impl Algorithm for Impatient {
        type Input = ();
        type State = ();
        type Msg = u32;
        type Output = ();
        fn boot(&self, _c: &NodeCtx<'_>, _i: ()) -> ((), Outbox<u32>) {
            ((), Outbox::new())
        }
        fn round(&self, _s: &mut (), ctx: &NodeCtx<'_>, _i: &[(Port, u32)]) -> Step<u32> {
            if ctx.round < 3 {
                return Step::wait();
            }
            let mut o = Outbox::new();
            o.send(Port(0), 1);
            Step::Halt(o)
        }
        fn finish(&self, _s: (), _c: &NodeCtx<'_>) -> FinishResult<()> {
            Ok(())
        }
    }

    /// The faulty executor calls waiting nodes, and debug builds check
    /// that each such call keeps waiting.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "Step::Wait contract")]
    fn a_node_that_acts_while_waiting_trips_the_contract_check() {
        let g = graphs::generators::path(2).unwrap();
        let cfg = NetworkConfig::default().with_executor(ExecutorKind::faulty());
        let mut net = Network::new(&g, cfg).unwrap();
        let _ = net.run("impatient", &Impatient, vec![(); 2]);
    }

    /// A broadcast down a 1,000-node path whose forest misses the last
    /// edge leaves the last node waiting for an item that never comes.
    /// The serial executor returns the round cap's error, (n + 16)², as
    /// soon as nothing is awake, in flight or scheduled.
    #[test]
    fn a_stalled_phase_fails_at_once() {
        use crate::primitives::broadcast::Broadcast;
        use crate::TreeInfo;
        let n = 1_000;
        let g = graphs::generators::path(n).unwrap();
        let port_to = |v: usize, u: usize| {
            let p = g
                .neighbors(NodeId::from_index(v))
                .iter()
                .position(|a| a.neighbor.index() == u);
            Port(p.expect("path neighbors") as u32)
        };
        let inputs: Vec<(TreeInfo, Option<u64>)> = (0..n)
            .map(|v| {
                let tree = TreeInfo {
                    parent: (v > 0).then(|| port_to(v, v - 1)),
                    // Node n − 2 does not list node n − 1 as its child.
                    children: if v + 2 < n {
                        vec![port_to(v, v + 1)]
                    } else {
                        vec![]
                    },
                    depth: v as u32,
                };
                (tree, (v == 0).then_some(7))
            })
            .collect();
        let obs = crate::ObsHandle::new();
        let cfg = NetworkConfig::default().with_obs(obs.clone());
        let err = Network::new(&g, cfg)
            .unwrap()
            .run("bcast", &Broadcast::new(), inputs)
            .unwrap_err();
        assert!(
            matches!(err, CongestError::MaxRoundsExceeded { cap: 1_032_256, .. }),
            "{err:?}"
        );
        // The item reaches node n − 2 in round n − 2; the phase stops
        // there, not at the cap.
        let report = obs.snapshot();
        let rounds = report
            .events
            .iter()
            .filter(|e| e.kind == crate::obs::EventKind::RoundEnd)
            .count();
        assert_eq!((rounds, report.dropped), (n - 2, 0));
    }

    #[test]
    fn asymmetric_adjacency_is_a_typed_error() {
        // Node 0 lists node 1 as a neighbor, but node 1's adjacency is
        // empty — a malformed topology no validated builder produces.
        use graphs::{AdjEntry, EdgeId};
        let g = graphs::WeightedGraph::from_raw_parts(
            2,
            vec![(NodeId::new(0), NodeId::new(1))],
            vec![1],
            vec![0, 1, 1],
            vec![AdjEntry {
                neighbor: NodeId::new(1),
                edge: EdgeId::new(0),
                weight: 1,
            }],
        );
        let err = match Network::new(&g, NetworkConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("asymmetric adjacency must be rejected"),
        };
        assert_eq!(
            err,
            CongestError::AsymmetricAdjacency {
                node: NodeId::new(0),
                neighbor: NodeId::new(1),
            }
        );
        assert!(err.to_string().contains("not vice versa"));
    }

    /// An algorithm whose `finish` reports a protocol violation at node 1.
    struct BadFinisher;
    impl Algorithm for BadFinisher {
        type Input = ();
        type State = ();
        type Msg = ();
        type Output = ();
        fn boot(&self, _c: &NodeCtx<'_>, _i: ()) -> ((), Outbox<()>) {
            ((), Outbox::new())
        }
        fn round(&self, _s: &mut (), _c: &NodeCtx<'_>, _i: &[(Port, ())]) -> Step<()> {
            Step::halt()
        }
        fn finish(&self, _s: (), ctx: &NodeCtx<'_>) -> FinishResult<()> {
            if ctx.node.raw() == 1 {
                Err(crate::algorithm::ProtocolViolation::new("contract broken"))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn finish_violations_become_protocol_errors() {
        let g = graphs::generators::path(3).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let err = net.run("bad", &BadFinisher, vec![(); 3]).unwrap_err();
        match err {
            CongestError::Protocol {
                phase,
                node,
                reason,
            } => {
                assert_eq!(phase, "bad");
                assert_eq!(node, NodeId::new(1));
                assert_eq!(reason, "contract broken");
            }
            other => panic!("expected Protocol, got {other:?}"),
        }
    }

    /// A typo'd stage-marker stem is caught on the spot in debug builds,
    /// even with no sink attached.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "registered stem")]
    fn obs_emit_rejects_an_unregistered_stem() {
        let g = graphs::generators::path(2).unwrap();
        let net = Network::new(&g, NetworkConfig::default()).unwrap();
        net.obs_emit("chekpoint.resume", 0);
    }

    /// `write_slot` is an involution, and each entry lands in the
    /// neighbour's inbox at its port back to the sender.
    #[test]
    fn routing_is_symmetric() {
        let g = graphs::generators::grid2d(3, 3).unwrap();
        let net = Network::new(&g, NetworkConfig::default()).unwrap();
        let base = |v: usize| g.offsets()[v] as usize;
        for v in g.nodes() {
            for (p, a) in g.neighbors(v).iter().enumerate() {
                let s = base(v.index()) + p;
                let d = net.write_slot[s];
                // Following the reverse port comes back.
                assert_eq!(net.write_slot[d], s);
                let u = a.neighbor.index();
                assert!((base(u)..base(u + 1)).contains(&d));
                assert_eq!(g.neighbors(a.neighbor)[d - base(u)].neighbor, v);
            }
        }
    }
}
