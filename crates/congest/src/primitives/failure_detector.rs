//! Timeout-based failure detection as a CONGEST phase.
//!
//! [`FailureDetector`] is a deliberately silent algorithm: every node
//! idles for a fixed number of virtual rounds and reports, at `finish`,
//! which neighbors the transport-level detector of the faulty executor
//! ([`crate::ExecutorKind::Faulty`]) currently suspects. It sends **no
//! payloads at all** — virtual rounds advance purely on the
//! α-synchronizer's safety gossip, and in crash mode the executor's
//! keepalives keep every live channel warm — so the only channels that
//! go silent are those whose sender actually crashed.
//!
//! Run it under a crash-scheduling [`crate::sim::FaultPlan`] with
//! [`SuspicionPolicy::Continue`](crate::sim::SuspicionPolicy) (a plan
//! with the default `Abort` policy would end the phase at the first
//! suspicion instead of completing the census). The timing works out as
//! follows: a neighbor of a dead node cannot execute rounds past the
//! dead node's last announced safe round — the α rule holds it in place
//! — so it *cannot* halt before the suspicion window
//! ([`crate::sim::FaultPlan::suspect_after`] physical ticks) elapses and
//! the suspicion both releases it and lands in its report. Nodes with
//! only live neighbors complete their rounds unimpeded and report empty
//! suspect sets. Crashed nodes produce zombie reports with
//! [`FdReport::completed`] `== false` (they executed fewer than the
//! configured rounds), which is how a recovery driver knows to ignore
//! them; the union of `suspects` over completed reports covers every
//! dead node adjacent to a survivor.
//!
//! This is the proposal-timeout idiom of consensus protocols recast as
//! a standalone phase: suspicion is *eventually accurate* (every
//! crashed neighbor is eventually suspected; a live node wrongly
//! suspected is rehabilitated by its next arriving frame), and the
//! per-phase suspicion counters in [`crate::SimPhaseStats`] meter how
//! often each case occurred.

use crate::algorithm::{Algorithm, FinishResult, Outbox, Step};
use crate::node::{NodeCtx, Port};
use crate::sim::FaultPlan;
use graphs::NodeId;

/// The idle heartbeat-census phase. See the module docs.
#[derive(Clone, Debug)]
pub struct FailureDetector {
    /// Virtual rounds every live node idles through before halting.
    rounds: u64,
}

impl FailureDetector {
    /// A detector phase idling for `rounds` virtual rounds (min 1).
    pub fn new(rounds: u64) -> Self {
        FailureDetector {
            rounds: rounds.max(1),
        }
    }

    /// The canonical sizing for `plan`: as many virtual rounds as the
    /// plan's suspicion window has ticks (each virtual round costs at
    /// least one tick, so nodes far from any crash stay live past the
    /// time the first suspicions can fire, and transient false
    /// suspicions get time to be rehabilitated before reports are
    /// taken).
    pub fn for_plan(plan: &FaultPlan) -> Self {
        FailureDetector::new(plan.suspect_after())
    }

    /// The configured number of idle rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

/// One node's census report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FdReport {
    /// The node executed every configured round — it lived through the
    /// whole phase. Zombie reports of crashed nodes have `false` here
    /// and must be ignored.
    pub completed: bool,
    /// Neighbors this node suspected at phase end, ascending.
    pub suspects: Vec<NodeId>,
}

/// Per-node state: the last round actually executed.
#[derive(Clone, Debug, Default)]
pub struct FdState {
    last_round: u64,
}

impl Algorithm for FailureDetector {
    type Input = ();
    type State = FdState;
    type Msg = ();
    type Output = FdReport;

    fn boot(&self, _ctx: &NodeCtx<'_>, _input: ()) -> (FdState, Outbox<()>) {
        (FdState::default(), Outbox::new())
    }

    fn round(&self, s: &mut FdState, ctx: &NodeCtx<'_>, _inbox: &[(Port, ())]) -> Step<()> {
        s.last_round = ctx.round;
        if ctx.round >= self.rounds {
            Step::halt()
        } else {
            Step::idle()
        }
    }

    fn finish(&self, s: FdState, ctx: &NodeCtx<'_>) -> FinishResult<FdReport> {
        Ok(FdReport {
            completed: s.last_round >= self.rounds,
            suspects: ctx.suspected_ids(),
        })
    }
}

/// The rejoin handshake: nodes re-admitted at an epoch boundary catch
/// up the session coordinates (epoch tag, leader — packed into one
/// small word by the driver) from any live veteran.
///
/// Veterans boot with `Some(tag)` and announce it on every port once;
/// a rejoiner boots with `None`, adopts the first tag that reaches it,
/// and forwards it once — an adopting flood, so chains of rejoiners
/// catch up in distance-to-nearest-veteran rounds. The driver sizes
/// `rounds` to an eccentricity bound of the re-admitted graph and then
/// asserts every report adopted the same tag: that assertion *is* the
/// re-admission — a rejoiner the flood missed would surface as `None`.
#[derive(Clone, Debug)]
pub struct JoinEcho {
    /// Virtual rounds the handshake floods for (an eccentricity bound
    /// of the graph, plus slack; min 1).
    rounds: u64,
}

impl JoinEcho {
    /// A handshake phase flooding for `rounds` virtual rounds.
    pub fn new(rounds: u64) -> Self {
        JoinEcho {
            rounds: rounds.max(1),
        }
    }
}

/// Per-node handshake state: the session tag held (veterans from boot,
/// rejoiners once adopted) and whether it still needs forwarding.
#[derive(Clone, Debug, Default)]
pub struct JoinState {
    tag: Option<u64>,
    forward: bool,
}

impl Algorithm for JoinEcho {
    type Input = Option<u64>;
    type State = JoinState;
    type Msg = u64;
    type Output = Option<u64>;

    fn boot(&self, ctx: &NodeCtx<'_>, input: Option<u64>) -> (JoinState, Outbox<u64>) {
        let mut o = Outbox::new();
        if let Some(tag) = input {
            o.send_all(ctx.ports(), tag);
        }
        (
            JoinState {
                tag: input,
                forward: false,
            },
            o,
        )
    }

    fn round(&self, s: &mut JoinState, ctx: &NodeCtx<'_>, inbox: &[(Port, u64)]) -> Step<u64> {
        if s.tag.is_none() {
            if let Some((_, tag)) = inbox.first() {
                s.tag = Some(*tag);
                s.forward = true;
            }
        }
        if ctx.round >= self.rounds {
            return Step::halt();
        }
        let mut o = Outbox::new();
        if s.forward {
            s.forward = false;
            o.send_all(ctx.ports(), s.tag.expect("forwarding an adopted tag"));
        }
        Step::Continue(o)
    }

    fn finish(&self, s: JoinState, _ctx: &NodeCtx<'_>) -> FinishResult<Option<u64>> {
        Ok(s.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::engine::Network;
    use crate::sim::FaultPlan;

    fn census(g: &graphs::WeightedGraph, plan: FaultPlan) -> Vec<FdReport> {
        let det = FailureDetector::for_plan(&plan);
        let cfg = NetworkConfig::default().with_fault_plan(plan);
        let mut net = Network::new(g, cfg).unwrap();
        net.run("detect", &det, vec![(); g.node_count()])
            .expect("the census completes")
            .outputs
    }

    #[test]
    fn crash_free_census_is_all_clear() {
        let g = graphs::generators::grid2d(3, 4).unwrap();
        // An unreachable crash arms detection without killing anyone.
        let reports = census(&g, FaultPlan::lossless().with_crash(0, 1 << 40));
        for r in &reports {
            assert!(r.completed);
            assert!(r.suspects.is_empty());
        }
    }

    #[test]
    fn every_neighbor_of_a_dead_node_reports_it() {
        let g = graphs::generators::grid2d(3, 3).unwrap();
        // Node 4 is the center of the grid: 4 neighbors.
        let plan = FaultPlan::lossless()
            .with_crash(4, 0)
            .continue_on_suspicion();
        let reports = census(&g, plan);
        assert!(!reports[4].completed, "the dead node is a zombie");
        assert!(reports[4].suspects.is_empty(), "zombies report nothing");
        for (v, r) in reports.iter().enumerate() {
            if v == 4 {
                continue;
            }
            assert!(r.completed, "node {v} lives");
            let adjacent = [1usize, 3, 5, 7].contains(&v);
            let sees_dead = r.suspects.contains(&NodeId::new(4));
            assert_eq!(sees_dead, adjacent, "node {v}: suspects {:?}", r.suspects);
            assert_eq!(r.suspects.len(), usize::from(adjacent));
        }
    }

    #[test]
    fn correlated_group_crash_is_fully_covered() {
        let g = graphs::generators::torus2d(4, 4).unwrap();
        let plan = FaultPlan::with_drop(50, 3)
            .delayed(1)
            .with_crash_group(&[5, 6], 0)
            .continue_on_suspicion();
        let reports = census(&g, plan);
        let mut suspected: Vec<u32> = reports
            .iter()
            .filter(|r| r.completed)
            .flat_map(|r| r.suspects.iter().map(|id| id.raw()))
            .collect();
        suspected.sort_unstable();
        suspected.dedup();
        assert_eq!(suspected, vec![5, 6], "exactly the dead, nobody else");
    }

    #[test]
    fn join_echo_floods_the_tag_to_every_rejoiner() {
        // A path: veteran at one end, a chain of four rejoiners after
        // it — the worst case for the adopting flood.
        let g = graphs::generators::path(5).unwrap();
        let inputs: Vec<Option<u64>> = vec![Some(42), None, None, None, None];
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let out = net
            .run("join_smoke", &JoinEcho::new(6), inputs)
            .expect("handshake completes");
        assert!(out.outputs.iter().all(|t| *t == Some(42)));
        // An undersized flood misses the far end — the driver-side
        // assertion that catches a sizing bug instead of hiding it.
        let inputs: Vec<Option<u64>> = vec![Some(42), None, None, None, None];
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let out = net
            .run("join_smoke", &JoinEcho::new(2), inputs)
            .expect("handshake completes");
        assert_eq!(out.outputs[4], None, "tag cannot cross 4 hops in 2 rounds");
    }
}
