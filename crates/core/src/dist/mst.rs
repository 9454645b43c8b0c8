//! The distributed minimum spanning tree, Kutten–Peleg style, as used by
//! the greedy tree packing.
//!
//! The MST is built in two phases over whatever edge key the packing
//! supplies (relative load, weight, edge id — a strict total order, so
//! the MST is unique and equals the sequential
//! [`trees::mst::kruskal_by`] tree):
//!
//! * **Phase A (`mstA.*`) — capped local growth.** Fragments grow by
//!   Borůvka hooking with a size cap of `⌈√n⌉`. Each level has up to
//!   three sub-phases:
//!   - `.exch` refreshes the fragment labels across the boundary ports
//!     whose view went stale (skipped when no label changed);
//!   - `.cd` is one up-then-down pass over every unfrozen fragment tree
//!     ([`CandDec`]): each fragment finds its minimum outgoing edge, and
//!     its root freezes it at the cap or decides whether to hook;
//!   - `.hook` is the handshake and re-root flood ([`FragHook`]), run
//!     only when some fragment hooks.
//!
//!   A fragment hooks iff its target is frozen or [`hooks_toward`]
//!   fires, and every fragment that is not hooking itself accepts. Hook
//!   chains therefore have length one, so a level costs
//!   `O(fragment diameter)` rounds with all fragments in parallel, and
//!   every component of the fragment choice graph merges at least one
//!   pair per level. That guarantees progress but does not bound the
//!   levels by `O(log n)`: on the 70,602-node benchmark graph
//!   (`√n ≈ 266`) phase A takes 18 levels, and stopping after 9 leaves
//!   567 fragments. Phase A ends once one fragment spans the graph or
//!   every fragment is frozen — each then has at least `⌈√n⌉` nodes, so
//!   at most `√n` fragments remain — or after a safety cap of 96 levels,
//!   which hands any still-small fragments to phase B. `ROADMAP.md`
//!   ("Phase A: meet the paper's level bound") tracks the missing level
//!   bound, and `docs/mst.md` describes the protocol in full.
//! * **Phase B (`mstB.*`) — one cycle-filtered upcast.** With
//!   `k ≤ √n` fragments left, two fixed phases finish the tree, as in
//!   Kutten–Peleg's pipelined second stage:
//!   - `.exch` tells every neighbor the sender's fragment and BFS
//!     in-time;
//!   - `.up` ([`FilteredUpcast`]) carries the inter-fragment edges up
//!     the BFS tree in key order, and every node drops each edge that
//!     closes a cycle among the fragments it has seen, so the leader
//!     receives the MST of the fragment graph — `k − 1` edges — in
//!     `O(k + D)` rounds. Each edge carries both fragments, from which
//!     the leader builds the fragment tree `T_F` directly, and both
//!     endpoints' BFS in-times, by which it routes the rows meant for an
//!     attachment.
//!
//!   Fragments stay *physical* (their internal trees are untouched);
//!   phase-B edges become the inter-fragment edges of the final tree,
//!   which is exactly the fragment decomposition Section 2 needs.
//!
//! This module holds the node-side algorithms and wire types; the phase
//! sequencing lives in [`crate::dist::driver`].

use crate::dist::packing::Cand;
use crate::seq::tree_packing::LoadKey;
use congest::message::TAG_BITS;
use congest::primitives::merge::{KeyedMonoid, KeyedStreamReduce};
use congest::primitives::StreamMsg;
use congest::{value_bits, Algorithm, FinishResult, Message, NodeCtx, Outbox, Port, Step};

/// Configuration of the distributed MST stage: phase A's fragment size
/// cap, the one setting experiment E8 sweeps.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MstConfig {
    /// Fragment size cap of phase A; `None` derives the paper's `⌈√n⌉`.
    /// Smaller caps mean more (cheaper) fragments, larger caps fewer
    /// (deeper) ones.
    pub cap: Option<usize>,
}

impl MstConfig {
    /// The effective fragment size cap for an `n`-node network.
    pub fn effective_cap(&self, n: usize) -> usize {
        match self.cap {
            Some(c) => c.max(2),
            None => (n as f64).sqrt().ceil() as usize,
        }
    }
}

/// Phase A's deterministic mating rule — a one-shot Cole–Vishkin-style
/// symmetry breaker on the fragment choice graph, with no coins.
/// Fragment `frag`, whose minimum outgoing edge leads to (unfrozen)
/// fragment `target`, hooks along it iff `frag`'s bit is `0` at the
/// *lowest differing bit position* of the two ids.
///
/// Two properties make the rule correct and live:
///
/// * **No 2-cycles.** For any unordered pair `{F, T}` the rule fires in
///   exactly one direction (the differing bit is `0` on exactly one
///   side), so two fragments that choose each other — in particular the
///   two endpoints of a GHS *core* edge — never both hook: one hooks,
///   the other is not hooking and therefore accepts. Hook chains have
///   length one on *every* level.
/// * **Progress.** In each choice-graph component the minimum-key edge
///   is the minimum outgoing edge of *both* endpoints (keys are a total
///   order), and by the point above exactly one endpoint hooks along it
///   and the other accepts — every component merges at least one pair
///   per level, deterministically. This guarantees progress, not an
///   `O(log n)` level count: a component may merge only that one pair
///   (see the module docs).
pub fn hooks_toward(frag: u32, target: u32) -> bool {
    debug_assert_ne!(frag, target, "choice edges join distinct fragments");
    let i = (frag ^ target).trailing_zeros();
    (frag >> i) & 1 == 0
}

// ---------------------------------------------------------------------------
// Phase A wire types
// ---------------------------------------------------------------------------

/// The `mstA.*.exch` payload: the sender's fragment and frozen state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FragMsg {
    /// Sender's fragment id.
    pub frag: u32,
    /// Sender's fragment is frozen.
    pub frozen: bool,
}

impl Message for FragMsg {
    fn bit_len(&self) -> usize {
        TAG_BITS + value_bits(self.frag as u64) + 1
    }
}

/// The per-fragment decision a root sends down its fragment tree in
/// `mstA.*.cd` ([`CdMsg::Dec`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecMsg {
    /// The fragment has reached the size cap.
    pub frozen: bool,
    /// Edge to hook along this level (`None`: stay put).
    pub hook_edge: Option<u32>,
}

impl Message for DecMsg {
    fn bit_len(&self) -> usize {
        TAG_BITS + 2 + self.hook_edge.map_or(0, |e| value_bits(e as u64))
    }
}

/// A node's role in one `mstA.*.hook` phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HookRole {
    /// The chosen endpoint of a hooking fragment's hook edge.
    Connector {
        /// Port of the hook edge.
        port: Port,
        /// Fragment id on the other side (learned in the exchange).
        target_frag: u32,
    },
    /// Other member of a hooking fragment: awaits the re-root flood.
    Await,
    /// Member of a fragment that is not hooking this level.
    Passive,
}

// ---------------------------------------------------------------------------
// Phase A: fused cand/dec round-trip (`mstA.*.cd`)
// ---------------------------------------------------------------------------

/// A phase-A candidate: the edge's packing key plus the fragment
/// across it — the root needs the target's *id* to evaluate
/// [`hooks_toward`] and its frozen state for the unconditional-hook rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptCand {
    /// The candidate edge's key fields.
    pub cand: Cand,
    /// Fragment id across the edge.
    pub target_frag: u32,
    /// The fragment across the edge is frozen.
    pub target_frozen: bool,
}

/// The better (smaller-key) of two optional phase-A candidates.
pub fn better_opt(a: Option<OptCand>, b: Option<OptCand>) -> Option<OptCand> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if x.cand.key() <= y.cand.key() { x } else { y }),
        (x, None) => x,
        (None, y) => y,
    }
}

/// The subtree aggregate of the fused pass: size plus best outgoing
/// candidate. It is a *wire* type: the `.cd` pass does its own
/// delta-scheduled aggregation instead of going through the counting
/// [`congest::primitives::Convergecast`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptAgg {
    /// Nodes in the subtree.
    pub size: u64,
    /// Best outgoing edge in the subtree, if any.
    pub cand: Option<OptCand>,
}

/// Messages of [`CandDec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CdMsg {
    /// Subtree aggregate, child → parent (only when changed).
    Up(OptAgg),
    /// Fragment decision, parent → child (only when hooking or freezing).
    Dec(DecMsg),
}

impl Message for CdMsg {
    fn bit_len(&self) -> usize {
        TAG_BITS
            + match self {
                CdMsg::Up(a) => {
                    value_bits(a.size)
                        + 1
                        + a.cand
                            .map_or(0, |c| c.cand.bits() + value_bits(c.target_frag as u64) + 1)
                }
                CdMsg::Dec(d) => 2 + d.hook_edge.map_or(0, |e| value_bits(e as u64)),
            }
    }
}

/// Input of [`CandDec`] for one node. The caches (`sent`, `children`)
/// persist across levels in the driver's `NodeMem` — they are what makes
/// the convergecast a *delta*: a quiescent subtree stays silent.
#[derive(Clone, Debug)]
pub struct CdInput {
    /// Fragment-tree view (parent + children ports).
    pub tree: congest::TreeInfo,
    /// This node's depth in its fragment tree (maintained by the hook
    /// phase; roots are 0).
    pub depth: u32,
    /// Maximum unfrozen-fragment depth network-wide this level — the
    /// shared schedule bound (driver control plane, see `docs/mst.md`).
    pub maxdepth: u32,
    /// This node's fragment id.
    pub frag: u32,
    /// Phase-A size cap.
    pub cap: u64,
    /// Frozen fragments sit the pass out entirely (level skip).
    pub frozen: bool,
    /// This node's best local outgoing candidate.
    pub local: Option<OptCand>,
    /// This node's tree links flipped since the last level (re-root
    /// path): send unconditionally so the (possibly new) parent's cache
    /// entry is refreshed.
    pub purge: bool,
    /// The aggregate last sent up (`None` before the first send).
    pub sent: Option<OptAgg>,
    /// Last aggregate received per port (children caches).
    pub children: Vec<Option<OptAgg>>,
}

/// Output of [`CandDec`] for one node.
#[derive(Clone, Debug, Default)]
pub struct CdOutput {
    /// The decision this node learned: at a root, its own (if it decided
    /// to act); elsewhere, the broadcast received. `None` = the fragment
    /// neither hooks nor freezes this level (the silent default).
    pub dec: Option<DecMsg>,
    /// Updated `sent` cache, to persist in `NodeMem`.
    pub sent: Option<OptAgg>,
    /// Updated children caches, to persist in `NodeMem`.
    pub children: Vec<Option<OptAgg>>,
}

/// The fused cand/dec round-trip (`mstA.l*.cd`): one up-then-down pass
/// over every unfrozen fragment tree.
///
/// **Up.** A node at depth `d` sends its subtree aggregate at round
/// `maxdepth − d` — *iff* it differs from what it last sent (or the
/// fragment was restructured). By that round all children (depth `d+1`,
/// scheduled one round earlier) have spoken or stayed silent, and
/// silence means "unchanged": the parent's cached copy is current. A
/// fully quiescent subtree costs zero messages.
///
/// **Down.** The root's aggregate is complete at round `maxdepth`; it
/// decides (freeze at the cap, else the [`hooks_toward`] mating rule on
/// the best candidate) and broadcasts the decision — *only* if the
/// fragment hooks or freezes. Members that hear nothing by round
/// `maxdepth + depth` know the fragment stays put and halt: silence
/// down is "no hook", and a fragment whose minimum outgoing edge went
/// nowhere this level ends the pass with zero traffic in both
/// directions.
///
/// Rounds: `maxdepth + depth` per node, ≤ `2·maxdepth` + 1 total —
/// the same order as the counting convergecast plus broadcast it fuses,
/// one phase instead of two.
#[derive(Clone, Debug, Default)]
pub struct CandDec;

/// Node state for [`CandDec`].
#[derive(Debug)]
pub struct CdState {
    input: CdInput,
    dec: Option<DecMsg>,
}

impl CdState {
    /// Own value + cached child aggregates. Every current child has a
    /// live cache entry by this node's send slot: unchanged children
    /// carried one over, restructured children were forced to speak.
    fn compute(&self) -> OptAgg {
        let mut agg = OptAgg {
            size: 1,
            cand: self.input.local,
        };
        for &p in &self.input.tree.children {
            if let Some(c) = &self.input.children[p.index()] {
                agg.size += c.size;
                agg.cand = better_opt(agg.cand, c.cand);
            }
        }
        agg
    }

    /// The root's per-fragment decision on its completed aggregate.
    fn decide(&self, agg: OptAgg) -> Option<DecMsg> {
        let frozen = agg.size >= self.input.cap;
        let hook_edge = if frozen {
            None
        } else {
            agg.cand
                .filter(|c| c.target_frozen || hooks_toward(self.input.frag, c.target_frag))
                .map(|c| c.cand.edge)
        };
        (frozen || hook_edge.is_some()).then_some(DecMsg { frozen, hook_edge })
    }
}

impl Algorithm for CandDec {
    type Input = CdInput;
    type State = CdState;
    type Msg = CdMsg;
    type Output = CdOutput;

    fn boot(&self, _ctx: &NodeCtx<'_>, input: CdInput) -> (CdState, Outbox<CdMsg>) {
        let mut out = Outbox::new();
        // A purged node force-sends (its parent is new, or its child set
        // flipped) but keeps its caches: entries of *continuing* children
        // are still in sync with their `sent`, and every freshly flipped
        // child is itself purged and overwrites its entry this pass.
        let mut s = CdState { input, dec: None };
        if s.input.frozen {
            return (s, out);
        }
        if s.input.tree.is_root() {
            if s.input.maxdepth == 0 {
                // Singleton fragment: the aggregate is complete at boot.
                s.dec = s.decide(s.compute());
                // A singleton has no children to broadcast to.
            }
        } else if s.input.depth == s.input.maxdepth {
            // Deepest nodes send at slot 0, i.e. at boot.
            let agg = s.compute();
            if s.input.purge || s.input.sent != Some(agg) {
                s.input.sent = Some(agg);
                out.send(s.input.tree.parent.unwrap(), CdMsg::Up(agg));
            }
        }
        (s, out)
    }

    fn round(&self, s: &mut CdState, ctx: &NodeCtx<'_>, inbox: &[(Port, CdMsg)]) -> Step<CdMsg> {
        if s.input.frozen {
            return Step::halt();
        }
        for (port, msg) in inbox {
            match msg {
                CdMsg::Up(agg) => s.input.children[port.index()] = Some(*agg),
                CdMsg::Dec(d) => s.dec = Some(*d),
            }
        }
        let mut out = Outbox::new();
        let (depth, maxdepth) = (s.input.depth as u64, s.input.maxdepth as u64);
        if s.input.tree.is_root() {
            if ctx.round >= maxdepth {
                if ctx.round == maxdepth {
                    s.dec = s.decide(s.compute());
                    if let Some(d) = s.dec {
                        for &p in &s.input.tree.children {
                            out.send(p, CdMsg::Dec(d));
                        }
                    }
                }
                return Step::Halt(out);
            }
            // The children's aggregates arrive at `maxdepth`.
            Step::Wait(out, Some(maxdepth))
        } else {
            if ctx.round == maxdepth - depth {
                let agg = s.compute();
                if s.input.purge || s.input.sent != Some(agg) {
                    s.input.sent = Some(agg);
                    out.send(s.input.tree.parent.unwrap(), CdMsg::Up(agg));
                }
            }
            if ctx.round >= maxdepth + depth {
                if let Some(d) = s.dec {
                    for &p in &s.input.tree.children {
                        out.send(p, CdMsg::Dec(d));
                    }
                }
                return Step::Halt(out);
            }
            // Next: the send slot, then the decision's arrival.
            let wake = if ctx.round < maxdepth - depth {
                maxdepth - depth
            } else {
                maxdepth + depth
            };
            Step::Wait(out, Some(wake))
        }
    }

    fn finish(&self, s: CdState, _ctx: &NodeCtx<'_>) -> FinishResult<CdOutput> {
        Ok(CdOutput {
            dec: s.dec,
            sent: s.input.sent,
            children: s.input.children,
        })
    }
}

// ---------------------------------------------------------------------------
// Phase A: depth-carrying hook handshake (`mstA.*.hook`)
// ---------------------------------------------------------------------------

/// Input of [`FragHook`]. It carries this node's fragment-tree depth, so
/// grants and re-root floods can maintain depths for the next level's
/// `.cd` schedule.
#[derive(Clone, Debug)]
pub struct HookInput {
    /// Current in-fragment tree ports (undirected set: parent + children).
    pub tree_ports: Vec<Port>,
    /// This node's role.
    pub role: HookRole,
    /// Whether this node's fragment accepts incoming hooks this level:
    /// *every* fragment that is not itself hooking accepts (frozen
    /// included) — [`hooks_toward`] guarantees no 2-cycles.
    pub eligible: bool,
    /// Whether this node's fragment is frozen (echoed in grants so the
    /// absorbed fragment adopts the state).
    pub frozen: bool,
    /// This node's depth in its fragment tree.
    pub depth: u32,
}

/// Output of [`FragHook`].
#[derive(Clone, Debug, Default)]
pub struct HookOutput {
    /// `Some((f, frozen))`: the fragment re-rooted, adopting fragment id
    /// `f` and the target fragment's frozen state.
    pub new_frag: Option<(u32, bool)>,
    /// New parent port after a re-root (the hook port at the connector).
    pub new_parent: Option<Port>,
    /// Hook ports accepted from other fragments (new child tree edges).
    pub accepted: Vec<Port>,
    /// New fragment-tree depth after a re-root (`None`: unchanged).
    pub new_depth: Option<u32>,
}

/// Messages of [`FragHook`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HookMsg {
    /// "My fragment's mating rule chose this edge."
    Request,
    /// "Granted — adopt my fragment id." Carries the granting fragment's
    /// frozen state and the acceptor's depth (the connector hangs one
    /// below it).
    Accept {
        /// The granting fragment is already frozen.
        frozen: bool,
        /// The acceptor's fragment-tree depth.
        depth: u32,
    },
    /// "Denied — my fragment is hooking elsewhere, try another level."
    Reject,
    /// Re-root flood: adopt fragment `frag`, parent = arrival port,
    /// depth = `depth + 1`.
    Reroot {
        /// The adopted fragment id.
        frag: u32,
        /// The adopted fragment's frozen state.
        frozen: bool,
        /// The flooding sender's (new) depth.
        depth: u32,
    },
    /// The hook was rejected: keep the old tree, stop waiting.
    Keep,
}

impl Message for HookMsg {
    fn bit_len(&self) -> usize {
        TAG_BITS
            + match self {
                HookMsg::Accept { depth, .. } => 1 + value_bits(*depth as u64),
                HookMsg::Reroot { frag, depth, .. } => {
                    1 + value_bits(*frag as u64) + value_bits(*depth as u64)
                }
                _ => 0,
            }
    }
}

/// One level's hook handshake: connectors fire a request at boot,
/// targets grant or deny in round 1, and granted fragments re-root
/// toward the hook edge with an in-fragment flood that maintains
/// fragment-tree depths. Because [`hooks_toward`] admits no 2-cycles,
/// two fragments never hook into each other: on a core edge exactly one
/// side is the connector and the other side accepts like any target.
/// Rounds: `2 + fragment diameter`; all fragments in parallel.
#[derive(Clone, Debug, Default)]
pub struct FragHook;

/// Node state for [`FragHook`].
#[derive(Debug)]
pub struct HookState {
    input: HookInput,
    out: HookOutput,
}

impl Algorithm for FragHook {
    type Input = HookInput;
    type State = HookState;
    type Msg = HookMsg;
    type Output = HookOutput;

    fn boot(&self, _ctx: &NodeCtx<'_>, input: HookInput) -> (HookState, Outbox<HookMsg>) {
        let mut out = Outbox::new();
        if let HookRole::Connector { port, .. } = input.role {
            out.send(port, HookMsg::Request);
        }
        (
            HookState {
                input,
                out: HookOutput::default(),
            },
            out,
        )
    }

    fn round(
        &self,
        s: &mut HookState,
        _ctx: &NodeCtx<'_>,
        inbox: &[(Port, HookMsg)],
    ) -> Step<HookMsg> {
        let mut out = Outbox::new();
        let hook_port = match s.input.role {
            HookRole::Connector { port, .. } => Some(port),
            _ => None,
        };
        // Requests only ever arrive in round 1 (sent at boot). The mating
        // rule fires in one direction per fragment pair, so a request can
        // never arrive on the connector's own hook port.
        for (port, msg) in inbox {
            if matches!(msg, HookMsg::Request) {
                debug_assert_ne!(
                    Some(*port),
                    hook_port,
                    "deterministic mating admits no mutual hooks"
                );
                if s.input.eligible {
                    s.out.accepted.push(*port);
                    out.send(
                        *port,
                        HookMsg::Accept {
                            frozen: s.input.frozen,
                            depth: s.input.depth,
                        },
                    );
                } else {
                    out.send(*port, HookMsg::Reject);
                }
            }
        }
        match s.input.role.clone() {
            HookRole::Passive => {
                // Nothing else can reach a passive node after round 1.
                return Step::Halt(out);
            }
            HookRole::Connector { port, target_frag } => {
                let reply = inbox.iter().find_map(|(p, m)| {
                    (*p == port && matches!(m, HookMsg::Accept { .. } | HookMsg::Reject))
                        .then_some(*m)
                });
                if let Some(reply) = reply {
                    let flood = if let HookMsg::Accept { frozen, depth } = reply {
                        s.out.new_frag = Some((target_frag, frozen));
                        s.out.new_parent = Some(port);
                        s.out.new_depth = Some(depth + 1);
                        HookMsg::Reroot {
                            frag: target_frag,
                            frozen,
                            depth: depth + 1,
                        }
                    } else {
                        HookMsg::Keep
                    };
                    for &p in &s.input.tree_ports {
                        out.send(p, flood);
                    }
                    return Step::Halt(out);
                }
            }
            HookRole::Await => {
                let flood = inbox.iter().find_map(|(p, m)| {
                    matches!(m, HookMsg::Reroot { .. } | HookMsg::Keep).then_some((*p, *m))
                });
                if let Some((from, msg)) = flood {
                    let fwd = if let HookMsg::Reroot {
                        frag,
                        frozen,
                        depth,
                    } = msg
                    {
                        s.out.new_frag = Some((frag, frozen));
                        s.out.new_parent = Some(from);
                        s.out.new_depth = Some(depth + 1);
                        HookMsg::Reroot {
                            frag,
                            frozen,
                            depth: depth + 1,
                        }
                    } else {
                        msg
                    };
                    for &p in &s.input.tree_ports {
                        if p != from {
                            out.send(p, fwd);
                        }
                    }
                    return Step::Halt(out);
                }
            }
        }
        // Requests come in round 1 only; after it, a reply or a flood.
        Step::Wait(out, None)
    }

    fn finish(&self, s: HookState, _ctx: &NodeCtx<'_>) -> FinishResult<HookOutput> {
        Ok(s.out)
    }
}

// ---------------------------------------------------------------------------
// Phase B: the cycle-filtered upcast (`mstB.*`)
// ---------------------------------------------------------------------------

/// The `mstB.exch` payload: the sender's phase-A fragment and its BFS
/// in-time. The receiver puts both into the edge it offers across the
/// port, and keeps the fragment as its port view for the cut stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FragLabel {
    /// Sender's phase-A fragment.
    pub frag: u32,
    /// Sender's BFS in-time.
    pub bfs_in: u32,
}

impl Message for FragLabel {
    fn bit_len(&self) -> usize {
        TAG_BITS + value_bits(self.frag as u64) + value_bits(self.bfs_in.into())
    }
}

/// An inter-fragment edge on its way to the leader in `mstB.up`,
/// offered by its lower-id endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterEdge {
    /// The edge's packing key fields.
    pub cand: Cand,
    /// The endpoints' fragments, offering endpoint first.
    pub frags: (u32, u32),
    /// The endpoints' BFS in-times, offering endpoint first: where the
    /// leader routes the cut stage's rows for the endpoint that becomes
    /// an attachment of `T_F`.
    pub ends: (u32, u32),
}

impl Message for InterEdge {
    fn bit_len(&self) -> usize {
        TAG_BITS
            + self.cand.bits()
            + value_bits(self.frags.0 as u64)
            + value_bits(self.frags.1 as u64)
            + value_bits(self.ends.0.into())
            + value_bits(self.ends.1.into())
    }
}

/// `mstB.up`'s stream order: inter-fragment edges by packing key. One
/// endpoint offers each edge and the key ends in the edge id, so equal
/// keys never meet and there is nothing to combine.
#[derive(Debug)]
struct KeyOrder;

impl KeyedMonoid for KeyOrder {
    type Item = InterEdge;
    type Key = LoadKey;

    fn key(item: &InterEdge) -> LoadKey {
        item.cand.key()
    }

    fn combine(_: InterEdge, _: InterEdge) -> InterEdge {
        unreachable!("one endpoint offers each edge, so edge keys never meet")
    }
}

/// A node's union-find over the fragment ids it has seen in `mstB.up`.
/// It holds one `(fragment, parent)` link per fragment merged under
/// another, sorted by fragment id; a fragment without a link is a class
/// root. A node links at most `k − 1` fragments, so the memory is that
/// of the edges it forwards, never `n`.
#[derive(Debug, Default)]
struct FragForest {
    links: Vec<(u32, u32)>,
}

impl FragForest {
    fn link(&self, f: u32) -> Result<usize, usize> {
        self.links.binary_search_by_key(&f, |&(c, _)| c)
    }

    /// The root of `f`'s class, halving the path on the way.
    fn root(&mut self, mut f: u32) -> u32 {
        while let Ok(i) = self.link(f) {
            let p = self.links[i].1;
            let Ok(j) = self.link(p) else { return p };
            f = self.links[j].1;
            self.links[i].1 = f;
        }
        f
    }

    /// Joins the classes of `a` and `b`. Returns `false` when they are
    /// one class already, i.e. an edge between them closes a cycle.
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.root(a), self.root(b));
        if ra == rb {
            return false;
        }
        let child = ra.max(rb);
        let at = self.link(child).expect_err("a class root has no link");
        self.links.insert(at, (child, ra.min(rb)));
        true
    }
}

/// `mstB.up`, the cycle-filtered upcast of phase B: every node merges
/// its own key-sorted inter-fragment edges with its children's streams
/// on the shared keyed-stream core, and forwards an edge only if it
/// joins two classes of the node's `FragForest`. A node's output is
/// therefore the minimum spanning forest of the fragment multigraph on
/// its subtree's edges, in Kruskal order, and the root receives the MST
/// of the whole fragment graph: `k − 1` edges for `k` connected
/// fragments. No node forwards more than `k − 1` edges, so the phase
/// takes `O(k + height)` rounds. Input per node: `(TreeInfo, offered
/// edges)` in any order; output: `Some(the kept edges, in key order)`
/// at each root, `None` elsewhere.
#[derive(Clone, Debug, Default)]
pub struct FilteredUpcast;

/// Node state for [`FilteredUpcast`].
#[derive(Debug)]
pub struct FuState {
    core: KeyedStreamReduce<KeyOrder>,
    forest: FragForest,
    is_root: bool,
    /// Root only: the kept edges.
    out: Vec<InterEdge>,
}

impl Algorithm for FilteredUpcast {
    type Input = (congest::TreeInfo, Vec<InterEdge>);
    type State = FuState;
    type Msg = StreamMsg<InterEdge>;
    type Output = Option<Vec<InterEdge>>;

    fn boot(&self, ctx: &NodeCtx<'_>, (tree, own): Self::Input) -> (FuState, Outbox<Self::Msg>) {
        let state = FuState {
            is_root: tree.is_root(),
            core: KeyedStreamReduce::new(ctx, &tree, own),
            forest: FragForest::default(),
            out: Vec::new(),
        };
        (state, Outbox::new())
    }

    fn round(
        &self,
        s: &mut FuState,
        ctx: &NodeCtx<'_>,
        inbox: &[(Port, Self::Msg)],
    ) -> Step<Self::Msg> {
        s.core.absorb(inbox);
        let (forest, out) = (&mut s.forest, &mut s.out);
        s.core.relay_round(
            ctx.bandwidth_bits,
            |e| forest.union(e.frags.0, e.frags.1),
            |e| out.push(e),
        )
    }

    fn finish(&self, s: FuState, _ctx: &NodeCtx<'_>) -> FinishResult<Self::Output> {
        Ok(s.is_root.then_some(s.out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_cap_defaults_to_sqrt_n() {
        let cfg = MstConfig::default();
        assert_eq!(cfg.effective_cap(36), 6);
        assert_eq!(cfg.effective_cap(144), 12);
        assert_eq!(cfg.effective_cap(50), 8); // ⌈7.07⌉
        let fixed = MstConfig { cap: Some(1) };
        // A cap below 2 would freeze singletons instantly; clamped.
        assert_eq!(fixed.effective_cap(100), 2);
    }

    #[test]
    fn message_sizes_are_logarithmic() {
        let dec = DecMsg {
            frozen: true,
            hook_edge: Some(200),
        };
        assert!(dec.bit_len() <= TAG_BITS + 2 + 8);
        let e = InterEdge {
            cand: Cand {
                load: 3,
                weight: 9,
                edge: 250,
            },
            frags: (100, 40),
            ends: (130, 9),
        };
        assert_eq!(e.bit_len(), TAG_BITS + 2 + 4 + 8 + 7 + 6 + 8 + 4);
        let l = FragLabel {
            frag: 100,
            bfs_in: 130,
        };
        assert_eq!(l.bit_len(), TAG_BITS + 7 + 8);
        assert_eq!(
            (HookMsg::Request.bit_len(), HookMsg::Keep.bit_len()),
            (TAG_BITS, TAG_BITS)
        );
        assert!(
            HookMsg::Accept {
                frozen: true,
                depth: 5
            }
            .bit_len()
                <= TAG_BITS + 4
        );
        assert!(
            HookMsg::Reroot {
                frag: 7,
                frozen: true,
                depth: 5
            }
            .bit_len()
                <= TAG_BITS + 7
        );
    }

    #[test]
    fn frag_forest_keeps_exactly_the_spanning_edges() {
        let mut f = FragForest::default();
        assert!(f.union(7, 3));
        assert!(f.union(9, 11));
        assert!(!f.union(3, 7), "a repeated pair closes a cycle");
        assert!(f.union(11, 3));
        assert!(!f.union(9, 7), "9–11–3–7 is one class");
        assert!(f.union(5, 9));
        // One link per merged fragment: five fragments, four links.
        assert_eq!(f.links.len(), 4);
        let root = f.root(5);
        assert!([3, 5, 7, 9, 11].iter().all(|&x| f.root(x) == root));
        assert_eq!(f.root(42), 42, "an unseen fragment is its own class");
    }
}
