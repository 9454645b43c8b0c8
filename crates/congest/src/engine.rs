//! The synchronous round engine.
//!
//! [`Network`] owns the topology (adjacency views, port routing, and the
//! CSR slot-arena geometry shared by every phase) and the session metrics
//! ledger; the actual round loop lives behind the
//! [`RoundExecutor`](crate::executor::RoundExecutor) seam and is selected
//! per network by [`NetworkConfig::executor`].

use crate::algorithm::Algorithm;
use crate::config::NetworkConfig;
use crate::error::CongestError;
use crate::executor::{ExecutorKind, PhaseSpec, RoundExecutor, SerialExecutor};
use crate::metrics::{MetricsLedger, PhaseMetrics};
use crate::node::NeighborInfo;
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
    /// `neighbors[v]` — the local view of node `v` (adjacency order).
    neighbors: Vec<Vec<NeighborInfo>>,
    /// `routing[v][p]` = (destination node, destination port) of `v`'s port `p`.
    routing: Vec<Vec<(u32, u32)>>,
    /// CSR offsets of the slot arena: node `v`'s inbox slots (one per
    /// port) are `slot_base[v]..slot_base[v + 1]`; the total slot count
    /// (`slot_base[n]`) is the number of directed edges.
    slot_base: Vec<usize>,
    /// `write_slot[slot_base[v] + p]` = the destination slot of the
    /// directed edge leaving `v` through port `p` — precomputed so
    /// routing a message is one indexed store.
    write_slot: Vec<usize>,
    max_degree: usize,
    bandwidth_bits: usize,
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
        let mut neighbors: Vec<Vec<NeighborInfo>> = Vec::with_capacity(n);
        for v in graph.nodes() {
            neighbors.push(
                graph
                    .neighbors(v)
                    .iter()
                    .map(|a| NeighborInfo {
                        id: a.neighbor,
                        weight: a.weight,
                        edge: a.edge,
                    })
                    .collect(),
            );
        }
        // Port-level routing: v's port p leads to u; find u's port back to v.
        let mut routing: Vec<Vec<(u32, u32)>> = Vec::with_capacity(n);
        for v in graph.nodes() {
            let mut row = Vec::with_capacity(neighbors[v.index()].len());
            for ni in &neighbors[v.index()] {
                let u = ni.id;
                let back = neighbors[u.index()].iter().position(|b| b.id == v).ok_or(
                    CongestError::AsymmetricAdjacency {
                        node: v,
                        neighbor: u,
                    },
                )?;
                row.push((u.raw(), back as u32));
            }
            routing.push(row);
        }
        // Slot-arena geometry: one slot per directed edge, grouped by
        // destination, so a phase preallocates its whole delivery
        // structure once and rounds allocate nothing.
        let mut slot_base = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        slot_base.push(0);
        for row in &neighbors {
            acc += row.len();
            slot_base.push(acc);
        }
        let mut write_slot = vec![0usize; acc];
        for v in 0..n {
            for (p, &(dest, dest_port)) in routing[v].iter().enumerate() {
                write_slot[slot_base[v] + p] = slot_base[dest as usize] + dest_port as usize;
            }
        }
        let max_degree = neighbors.iter().map(Vec::len).max().unwrap_or(0);
        let bandwidth_bits = config.bandwidth_bits(n);
        Ok(Network {
            graph,
            config,
            ledger: MetricsLedger::new(),
            neighbors,
            routing,
            slot_base,
            write_slot,
            max_degree,
            bandwidth_bits,
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

    /// Clears the session metrics ledger.
    pub fn reset_ledger(&mut self) {
        self.ledger.reset();
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
    /// one): `name` must be grammar-valid with a registered stem — the
    /// same contract phase names carry, enforced at pipeline call sites
    /// by `congest_lint` — and `value` is free-form (an epoch, a tree
    /// count, a checkpoint index). This is how the recovery driver
    /// stamps checkpoint/resume/census progress into the event stream.
    pub fn obs_emit(&self, name: &str, value: u64) {
        debug_assert!(
            crate::phase::is_valid_name(name),
            "obs event name {name:?} violates the stem.sub grammar (see congest::phase)"
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
    /// sends, bandwidth violations (strict mode), messages to halted nodes
    /// (strict mode), or when the round cap is exceeded. When several
    /// nodes err in the same round, the lowest-id node's error is
    /// returned, under every executor; the rest of that round still
    /// executes (errors are collected, not short-circuited, so the
    /// choice does not depend on the order nodes are stepped in).
    pub fn run<A: Algorithm>(
        &mut self,
        name: &str,
        algo: &A,
        inputs: Vec<A::Input>,
    ) -> Result<RunOutcome<A::Output>, CongestError> {
        // Clone the kind out first: `run_with` borrows all of `self`,
        // and `ExecutorKind` is no longer `Copy` (fault plans carry
        // crash schedules).
        let kind = self.config.executor.clone();
        match kind {
            ExecutorKind::Serial => self.run_with(&SerialExecutor, name, algo, inputs),
            ExecutorKind::Faulty(plan) => {
                self.run_with(&crate::sim::FaultyExecutor::new(plan), name, algo, inputs)
            }
        }
    }

    /// Like [`Network::run`], but drives the phase with an explicit
    /// [`RoundExecutor`] instead of the configured one — the plug-in
    /// point for custom executors (the planned α-synchronizer /
    /// fault-injection layer) without any engine changes.
    ///
    /// # Errors
    ///
    /// As [`Network::run`].
    pub fn run_with<E: RoundExecutor, A: Algorithm>(
        &mut self,
        executor: &E,
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
        let obs = self.obs();
        let spec = PhaseSpec {
            name,
            n,
            neighbors: &self.neighbors,
            routing: &self.routing,
            slot_base: &self.slot_base,
            write_slot: &self.write_slot,
            bandwidth_bits: self.bandwidth_bits,
            strict: self.config.strict,
            cap: self.config.effective_max_rounds(n),
            max_degree: self.max_degree,
            base_round,
            obs,
        };
        if let Some(sink) = obs {
            sink.phase_begin(name, base_round);
        }
        // Wall-clock lives only in the ledger's side vector, the trace
        // line, and the obs phase records — never inside the
        // `Eq`-compared `PhaseMetrics` or the virtual event stream, so
        // replay parity across executors and reruns is unaffected.
        let t = std::time::Instant::now();
        let (outputs, metrics) = executor.run_phase(&spec, algo, inputs)?;
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        crate::obs::trace_phase_line(name, &metrics, wall_ms);
        if let Some(sink) = obs {
            sink.phase_end(metrics.rounds, metrics.ticks(), wall_ms);
        }
        self.ledger.push_timed(metrics.clone(), wall_ms);
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

    #[test]
    fn lax_mode_counts_violations() {
        let g = graphs::generators::path(4).unwrap();
        let cfg = NetworkConfig {
            strict: false,
            ..Default::default()
        };
        let mut net = Network::new(&g, cfg).unwrap();
        let out = net.run("fat", &FatSender, vec![(); 4]).unwrap();
        assert_eq!(out.metrics.violations, 1);
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

    #[test]
    fn livelock_hits_round_cap() {
        let g = graphs::generators::path(3).unwrap();
        let cfg = NetworkConfig {
            max_rounds: 50,
            ..Default::default()
        };
        let mut net = Network::new(&g, cfg).unwrap();
        let err = net.run("livelock", &Livelock, vec![(); 3]).unwrap_err();
        assert!(matches!(
            err,
            CongestError::MaxRoundsExceeded { cap: 50, .. }
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

    /// Lax mode drops a message at its halted destination and frees its
    /// slot: the round-4 send reuses the slot of the round-2 one (same
    /// arena half) without a `DoubleSend`.
    #[test]
    fn message_to_halted_is_dropped_in_lax_mode() {
        let g = graphs::generators::path(3).unwrap();
        let lax = NetworkConfig {
            strict: false,
            ..Default::default()
        };
        let out = Network::new(&g, lax)
            .unwrap()
            .run("late", &HaltedDrummer, vec![(); 3])
            .unwrap();
        assert_eq!((out.metrics.rounds, out.metrics.messages), (5, 3));
        let err = Network::new(&g, NetworkConfig::default())
            .unwrap()
            .run("late", &HaltedDrummer, vec![(); 3])
            .unwrap_err();
        assert!(matches!(
            err,
            CongestError::MessageToHalted { round: 3, .. }
        ));
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

    #[test]
    fn routing_is_symmetric() {
        let g = graphs::generators::grid2d(3, 3).unwrap();
        let net = Network::new(&g, NetworkConfig::default()).unwrap();
        for v in 0..9 {
            for (p, (dest, dest_port)) in net.routing[v].iter().enumerate() {
                // Following the reverse port comes back.
                assert_eq!(
                    net.routing[*dest as usize][*dest_port as usize],
                    (v as u32, p as u32)
                );
            }
        }
    }
}
