//! Leader election fused with BFS-tree construction.
//!
//! [`LeaderBfs`] elects the minimum identifier and builds its BFS tree
//! in `O(D)` rounds with `O(log n)`-bit messages.
//!
//! # Protocol
//!
//! **Candidates** flood probes carrying their own identifier. Every node
//! adopts the smallest identifier it has seen ("best"), remembers the
//! port it first heard that identifier from as its parent (the smallest
//! depth, then the smallest port, among the round's arrivals), and
//! forwards the probe on its other ports. Termination is the classic
//! echo: a node acknowledges its parent once every other port is
//! *resolved* (a crossing probe for the same best, or a child's ack).
//! Only the global minimum's echo can complete — a region that adopted a
//! *local* minimum can never resolve its ports toward the nodes that
//! know a smaller identifier — and its completion fires a `Done` wave
//! down the tree that halts everyone.
//!
//! Two rules keep the flood cheap:
//!
//! * **Local-minima candidacy.** Only nodes smaller than all their
//!   neighbors flood. Neighbor identifiers are a-priori local knowledge
//!   (see [`crate::NodeCtx::neighbors`]), so this costs no messages; it
//!   is sound because a non-minimal node can never win, and complete
//!   because the global minimum is always a local minimum. It removes
//!   the `Θ(Σ deg)` boot flood, and on identifier layouts with one local
//!   minimum the election is a single wave of `2m + n − 1` messages.
//! * **Radius-doubling fronts.** A probe at distance `d` from its
//!   candidate is forwarded only once the schedule releases radius
//!   `> d`: stage `k` releases radius `r0·2^k` and lasts `r0·2^k + 2`
//!   rounds, with `r0 = ⌈log₂ n⌉`. A front alternately advances one
//!   annulus and pauses; a candidate that is not the minimum of its ball
//!   is overrun by a smaller front while paused, so fronts that survive
//!   to stage `k` are pairwise `≥ 2^k` apart and a node re-floods
//!   `O(log D)` times in the worst case. The first radius is a diameter
//!   lower bound on bounded-degree graphs (`D ≥ log_Δ n`), so the
//!   skipped stages would only have paused; on low-diameter graphs
//!   stage 0 already spans the graph.
//!
//! # Bounds
//!
//! Rounds are `O(D)`: radius `R` is released by round `O(R + log R)`,
//! and the echo and done waves add `2D`. Messages are `O(m log D)` on
//! any identifier layout.
//!
//! # Output
//!
//! The winning front advances one hop per released round, and the
//! schedule depends only on the globally synchronized round number and
//! `n`, so every node at depth `d − 1` forwards the winner in the same
//! round: a node at depth `d` hears it from all its depth-`d − 1`
//! neighbors at once and picks the smallest port. The output is
//! therefore the BFS tree that [`oracle`] computes sequentially, and the
//! tests compare every node's output against it. `docs/elections.md`
//! records the measurements behind this design.
//!
//! # Labels
//!
//! The election also numbers the tree in pre-order from the leader,
//! children in port order, at no cost in rounds or messages: each `Ack`
//! carries the sender's subtree size, and the `Done` wave carries each
//! child's in-time. Every node ends with its own and its children's
//! [`Intervals`], which is all a node needs to forward a message toward
//! any labelled descendant — the leader's routed table rows
//! ([`crate::primitives::broadcast::Route`]) travel by them. The sizes
//! and in-times add their magnitudes to those two messages' bits.

use crate::algorithm::{Algorithm, FinishResult, Outbox, Step};
use crate::message::{id_bits, value_bits, Message, TAG_BITS};
use crate::node::{Intervals, NodeCtx, Port, Tree};
use graphs::{NodeId, WeightedGraph};

/// Messages of the leader/BFS phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LeaderMsg {
    /// "My current leader is `leader`, at distance `depth` from me."
    Probe {
        /// Leader id being flooded.
        leader: u32,
        /// Sender's distance from that leader.
        depth: u32,
    },
    /// "My subtree has fully joined `leader`'s tree; I am your child."
    Ack {
        /// Leader this ack refers to (stale acks are ignored).
        leader: u32,
        /// The sender's subtree size.
        size: u32,
    },
    /// "The election is over; halt after forwarding to your children."
    Done {
        /// The elected leader.
        leader: u32,
        /// The receiver's pre-order in-time.
        in_t: u32,
    },
}

impl Message for LeaderMsg {
    fn bit_len(&self) -> usize {
        let (leader, x) = match *self {
            LeaderMsg::Probe { leader, depth } => (leader, depth),
            LeaderMsg::Ack { leader, size } => (leader, size),
            LeaderMsg::Done { leader, in_t } => (leader, in_t),
        };
        TAG_BITS + value_bits(u64::from(leader)) + value_bits(u64::from(x))
    }
}

/// Per-node output: the elected leader and this node's place in its BFS
/// tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeaderBfsOutput {
    /// The elected leader (the minimum identifier in the network).
    pub leader: NodeId,
    /// Port to the parent in the leader's BFS tree (`None` at the
    /// leader).
    pub parent: Option<Port>,
    /// Depth in the BFS tree (the leader's is 0).
    pub depth: u32,
    /// This node's and its children's pre-order intervals in the BFS
    /// tree (the leader is entered at 0, children in port order).
    pub iv: Intervals,
    /// One flag per port: the node's BFS-tree edges, to its parent and
    /// to its children.
    pub ports: Vec<bool>,
}

impl LeaderBfsOutput {
    /// This node's view of the BFS tree, borrowing its flag row.
    pub fn tree(&self) -> Tree<'_> {
        Tree::new(self.parent, &self.ports)
    }
}

/// The leader-election + BFS-tree phase. See module docs.
#[derive(Copy, Clone, Debug, Default)]
pub struct LeaderBfs;

impl LeaderBfs {
    /// Creates the phase object.
    pub fn new() -> Self {
        LeaderBfs
    }
}

/// The sequential reference for [`LeaderBfs`] on a connected graph: the
/// output every node must produce. Node 0, the minimum identifier,
/// leads; depths are BFS distances from it
/// ([`graphs::traversal::bfs`]); a node's parent is its smallest port
/// one level up, and its children are the ports whose neighbor chose it
/// as parent. The intervals number the tree in pre-order from the
/// leader, visiting children in port order.
pub fn oracle(g: &WeightedGraph) -> Vec<LeaderBfsOutput> {
    let dist = graphs::traversal::bfs(g, NodeId::new(0)).dist;
    let parent: Vec<Option<Port>> = g
        .nodes()
        .map(|v| {
            g.neighbors(v)
                .iter()
                .position(|a| dist[a.neighbor.index()] + 1 == dist[v.index()])
                .map(|p| Port(p as u32))
        })
        .collect();
    let ports: Vec<Vec<bool>> = g
        .nodes()
        .map(|v| {
            let adj = g.neighbors(v).iter().enumerate();
            adj.map(|(p, a)| {
                let child = parent[a.neighbor.index()]
                    .is_some_and(|q| g.neighbors(a.neighbor)[q.index()].neighbor == v);
                child || parent[v.index()] == Some(Port(p as u32))
            })
            .collect()
        })
        .collect();
    let tree = |v: usize| Tree::new(parent[v], &ports[v]);
    let child = |v: usize, p: Port| {
        g.neighbors(NodeId::from_index(v))[p.index()]
            .neighbor
            .index()
    };
    let mut order: Vec<usize> = (0..g.node_count()).collect();
    order.sort_by_key(|&v| dist[v]);
    // Subtree sizes deepest first, then intervals shallowest first.
    let mut size = vec![1u32; order.len()];
    for &v in order.iter().rev() {
        size[v] += tree(v).children().map(|p| size[child(v, p)]).sum::<u32>();
    }
    let mut in_t = vec![0u32; order.len()];
    let mut ivs = vec![Intervals::default(); order.len()];
    for &v in &order {
        let child_sizes = tree(v).children().map(|p| (p, size[child(v, p)]));
        ivs[v] = Intervals::assign(in_t[v], size[v], child_sizes);
        for &(p, lo, _) in &ivs[v].children {
            in_t[child(v, p)] = lo;
        }
    }
    ports
        .into_iter()
        .zip(ivs)
        .enumerate()
        .map(|(v, (ports, iv))| LeaderBfsOutput {
            leader: NodeId::new(0),
            parent: parent[v],
            depth: dist[v],
            iv,
            ports,
        })
        .collect()
}

/// The probe radius the schedule releases in `round`, for first radius
/// `r0`: stage `k` spans `[T_k, T_{k+1})` with `T_{k+1} = T_k + R_k + 2`
/// and `R_k = r0·2^k`. A node at depth `d` may forward iff
/// `d < radius_at(r0, round)`.
fn radius_at(r0: u64, round: u64) -> u64 {
    let mut start = 0u64;
    let mut radius = r0.max(1);
    loop {
        let next = start.saturating_add(radius.saturating_add(2));
        if round < next || next == u64::MAX {
            return radius;
        }
        start = next;
        radius = radius.saturating_mul(2);
    }
}

/// The first round whose [`radius_at`] exceeds `depth`: the start of the
/// first stage whose radius does, when a probe pending at that depth
/// fires.
fn release_round(r0: u64, depth: u64) -> u64 {
    let mut start = 0u64;
    let mut radius = r0.max(1);
    while radius <= depth {
        start = start.saturating_add(radius.saturating_add(2));
        radius = radius.saturating_mul(2);
    }
    start
}

/// Node state for [`LeaderBfs`].
#[derive(Debug)]
pub struct ElectionState {
    /// Smallest identifier seen (the current tree's candidate).
    best: u32,
    depth: u32,
    parent: Option<Port>,
    /// Per-port resolution for the current `best`.
    resolved: Vec<bool>,
    /// Per port, the subtree size its ack reported: nonzero exactly on
    /// the ports that acked us as their parent (our children).
    child_size: Vec<u32>,
    /// Probes for `best` not yet sent (awaiting the schedule's release).
    probe_pending: bool,
    acked: bool,
    /// Our BFS interval, set when the done wave reaches us.
    iv: Option<Intervals>,
}

impl ElectionState {
    fn adopt(&mut self, leader: u32, depth: u32, via: Port, degree: usize) {
        self.best = leader;
        self.depth = depth;
        self.parent = Some(via);
        self.resolved.clear();
        self.resolved.resize(degree, false);
        self.resolved[via.index()] = true;
        self.child_size.clear();
        self.child_size.resize(degree, 0);
        self.probe_pending = true;
        self.acked = false;
    }

    fn all_resolved(&self) -> bool {
        self.resolved.iter().all(|&r| r)
    }

    /// Our subtree size, once every child has acked.
    fn size(&self) -> u32 {
        1 + self.child_size.iter().sum::<u32>()
    }

    /// Our interval, entered at `in_t`, and the done wave that hands
    /// each child its own entry time.
    fn done(&mut self, in_t: u32, out: &mut Outbox<LeaderMsg>) {
        let child_sizes = self.child_size.iter().enumerate().filter(|(_, &s)| s > 0);
        let child_sizes = child_sizes.map(|(p, &s)| (Port(p as u32), s));
        let iv = Intervals::assign(in_t, self.size(), child_sizes);
        for &(p, lo, _) in &iv.children {
            out.send(
                p,
                LeaderMsg::Done {
                    leader: self.best,
                    in_t: lo,
                },
            );
        }
        self.iv = Some(iv);
    }

    /// Queues probes for `best` on all non-parent ports.
    fn flood(&self, ctx: &NodeCtx<'_>, out: &mut Outbox<LeaderMsg>) {
        for p in ctx.ports() {
            if Some(p) != self.parent {
                out.send(
                    p,
                    LeaderMsg::Probe {
                        leader: self.best,
                        depth: self.depth,
                    },
                );
            }
        }
    }
}

impl Algorithm for LeaderBfs {
    type Input = ();
    type State = ElectionState;
    type Msg = LeaderMsg;
    type Output = LeaderBfsOutput;

    fn boot(&self, ctx: &NodeCtx<'_>, _input: ()) -> (ElectionState, Outbox<LeaderMsg>) {
        let deg = ctx.degree();
        let me = ctx.node.raw();
        let candidate = ctx.neighbors().all(|(_, a)| a.neighbor.raw() > me);
        let state = ElectionState {
            best: me,
            depth: 0,
            parent: None,
            resolved: vec![false; deg],
            child_size: vec![0; deg],
            probe_pending: false,
            acked: false,
            iv: None,
        };
        let mut out = Outbox::new();
        // Boot counts as round 0; every radius is ≥ 1 > 0, so a
        // candidate's own probe is never gated.
        if candidate {
            state.flood(ctx, &mut out);
        }
        (state, out)
    }

    fn round(
        &self,
        s: &mut ElectionState,
        ctx: &NodeCtx<'_>,
        inbox: &[(Port, LeaderMsg)],
    ) -> Step<LeaderMsg> {
        let deg = ctx.degree();
        let mut done: Option<u32> = None;
        // Phase 1: adopt the best probe in this inbox, if it improves.
        let mut best_new: Option<(u32, u32, Port)> = None;
        for (port, msg) in inbox {
            if let LeaderMsg::Probe { leader, depth } = msg {
                if *leader < s.best {
                    let cand = (*leader, *depth, *port);
                    best_new = Some(match best_new {
                        // Prefer the smaller leader; among equal leaders the
                        // smaller depth, then the smaller port.
                        Some(prev) if prev <= cand => prev,
                        _ => cand,
                    });
                }
            }
        }
        if let Some((leader, depth, port)) = best_new {
            s.adopt(leader, depth + 1, port, deg);
        }
        // Phase 2: resolutions for the current leader.
        for (port, msg) in inbox {
            match msg {
                LeaderMsg::Probe { leader, .. } => {
                    if *leader == s.best && Some(*port) != s.parent {
                        s.resolved[port.index()] = true;
                    }
                    // leader > best: ignore (our wave overruns theirs);
                    // leader < best handled in phase 1 (parent port already
                    // marked resolved by adopt).
                }
                LeaderMsg::Ack { leader, size } => {
                    if *leader == s.best {
                        s.resolved[port.index()] = true;
                        s.child_size[port.index()] = *size;
                    }
                }
                LeaderMsg::Done { leader, in_t } => {
                    debug_assert_eq!(*leader, s.best, "done wave carries the winner");
                    done = Some(*in_t);
                }
            }
        }

        let mut out = Outbox::new();
        // Done wave: take our interval, hand the children theirs, halt.
        if let Some(in_t) = done {
            s.done(in_t, &mut out);
            return Step::Halt(out);
        }
        // Pending probes fire once the schedule releases this depth: a
        // front pauses at each stage radius and resumes — on all
        // non-parent ports, so the crossing probes the neighbors' echoes
        // wait for are never skipped — when the next stage begins. The
        // first radius is ⌈log₂ n⌉, and every node knows `n`, so the
        // schedule is globally agreed.
        let r0 = id_bits(ctx.n) as u64;
        if s.probe_pending && u64::from(s.depth) < radius_at(r0, ctx.round) {
            s.probe_pending = false;
            s.flood(ctx, &mut out);
        }
        // Echo: ack the parent once everything else is resolved.
        if s.all_resolved() && !s.acked && !s.probe_pending {
            match s.parent {
                Some(p) => {
                    s.acked = true;
                    let ack = LeaderMsg::Ack {
                        leader: s.best,
                        size: s.size(),
                    };
                    out.send(p, ack);
                }
                None => {
                    // We are the root and our echo completed: we are the
                    // global minimum (no other candidate's echo can ever
                    // complete — any foreign tree has an unresolvable port
                    // toward the region that knows a smaller id). Fire the
                    // done wave and halt.
                    debug_assert_eq!(s.best, ctx.node.raw());
                    s.done(0, &mut out);
                    return Step::Halt(out);
                }
            }
        }
        // Nothing more happens here until a message arrives, or, with a
        // probe pending, until the schedule releases this depth.
        let release = s.probe_pending.then(|| release_round(r0, s.depth.into()));
        Step::Wait(out, release)
    }

    fn finish(&self, s: ElectionState, ctx: &NodeCtx<'_>) -> FinishResult<LeaderBfsOutput> {
        let ports = ctx
            .ports()
            .map(|p| s.child_size[p.index()] > 0 || s.parent == Some(p))
            .collect();
        Ok(LeaderBfsOutput {
            leader: NodeId::new(s.best),
            parent: s.parent,
            depth: s.depth,
            // Every node that halted was reached by the done wave; only
            // a crashed node's zombie output lacks labels.
            iv: s.iv.unwrap_or_default(),
            ports,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::engine::Network;
    use graphs::generators;

    /// Runs the election on `g`, checks every node's output against the
    /// oracle, and returns `(rounds, messages)`.
    fn run_checked(g: &WeightedGraph) -> (u64, u64) {
        let mut net = Network::new(g, NetworkConfig::default()).unwrap();
        let out = net
            .run("leader_bfs", &LeaderBfs::new(), vec![(); g.node_count()])
            .expect("leader election succeeds");
        assert_eq!(out.outputs, oracle(g), "n = {}", g.node_count());
        assert!(out.metrics.max_message_bits <= net.bandwidth_bits());
        (out.metrics.rounds, out.metrics.messages)
    }

    /// A pending probe sleeps until exactly the round the schedule
    /// releases its depth.
    #[test]
    fn release_round_is_the_first_round_past_the_depth() {
        for r0 in 0..6 {
            for depth in 0..200 {
                let first = (0..).find(|&r| radius_at(r0, r) > depth);
                assert_eq!(
                    Some(release_round(r0, depth)),
                    first,
                    "r0 = {r0}, depth = {depth}"
                );
            }
        }
    }

    #[test]
    fn elects_on_path() {
        let g = generators::path(12).unwrap();
        let (rounds, _) = run_checked(&g);
        // Path diameter 11: stage windows + echo + done ≈ 6D.
        assert!(rounds <= 6 * 11 + 12, "rounds = {rounds}");
    }

    #[test]
    fn elects_on_grid_and_torus() {
        for g in [
            generators::grid2d(5, 7).unwrap(),
            generators::grid2d(6, 6).unwrap(),
            generators::torus2d(4, 4).unwrap(),
        ] {
            let (rounds, _) = run_checked(&g);
            let d = graphs::traversal::exact_diameter(&g) as u64;
            assert!(rounds <= 6 * d + 16, "rounds = {rounds}, D = {d}");
        }
    }

    #[test]
    fn elects_on_random_graphs() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for n in [2usize, 3, 10, 50, 120] {
            let g = generators::erdos_renyi_connected(n, 0.08, &mut rng).unwrap();
            run_checked(&g);
        }
    }

    #[test]
    fn single_node_network() {
        let g = WeightedGraph::from_edges(1, []).unwrap();
        let (rounds, _) = run_checked(&g);
        assert!(rounds <= 2);
    }

    #[test]
    fn rounds_scale_with_diameter_not_n() {
        // A star has D = 2 regardless of n, inside the first radius
        // ⌈log₂ 200⌉ = 8: rounds stay constant.
        let g = generators::star(200).unwrap();
        let (rounds, _) = run_checked(&g);
        assert!(rounds <= 12, "rounds = {rounds} on a star");
    }

    /// A row-major torus has one local minimum, so the election is one
    /// wave: `2m − (n − 1)` probes (the root floods all its ports, every
    /// other node its non-parent ports), `n − 1` acks and `n − 1` done
    /// messages, `2m + n − 1 = 719` in all.
    #[test]
    fn torus12x12_is_one_wave() {
        let g = generators::torus2d(12, 12).unwrap();
        let (rounds, messages) = run_checked(&g);
        let (n, m) = (g.node_count() as u64, g.edge_count() as u64);
        assert_eq!(messages, 2 * m + n - 1);
        assert_eq!((messages, rounds), (719, 38));
    }

    #[test]
    fn schedule_windows() {
        // Stage 0: rounds 0..3 (R = 1, window 3).
        for r in 0..3 {
            assert_eq!(radius_at(1, r), 1, "round {r}");
        }
        // Stage 1: rounds 3..7 (R = 2, window 4).
        for r in 3..7 {
            assert_eq!(radius_at(1, r), 2, "round {r}");
        }
        // Stage 2: rounds 7..13 (R = 4, window 6).
        for r in 7..13 {
            assert_eq!(radius_at(1, r), 4, "round {r}");
        }
        assert_eq!(radius_at(1, 13), 8);
    }

    #[test]
    fn schedule_scales_with_r0_and_saturates() {
        assert_eq!(radius_at(4, 0), 4);
        assert_eq!(radius_at(4, 6), 8);
        // A zero r0 is clamped to 1 (radius 0 would gate forever).
        assert_eq!(radius_at(0, 0), 1);
        // Enormous rounds terminate (saturating walk) with a huge radius.
        assert!(radius_at(1, u64::MAX - 1) > 1 << 60);
    }

    #[test]
    fn radius_release_round_grows_linearly() {
        // The round at which radius R is first allowed must be O(R): the
        // stage windows sum to R_k + 2k + const, which is what keeps the
        // election inside the O(D) round envelope.
        for k in 0..20u32 {
            let radius = 1u64 << k;
            let release = (0..u64::MAX)
                .find(|&r| radius_at(1, r) > radius)
                .expect("released");
            assert!(
                release <= 2 * radius + 2 * u64::from(k) + 3,
                "radius {radius} released only at round {release}"
            );
        }
    }
}
