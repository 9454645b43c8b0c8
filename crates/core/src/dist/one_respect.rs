//! Section 2 of the paper: the minimum cut that **1-respects** a spanning
//! tree, computed in `Õ(√n + D)` rounds *independent of the tree's
//! depth* via Karger's identity `C(v↓) = δ↓(v) − 2ρ↓(v)`.
//!
//! The packed tree arrives already decomposed into fragments of `Õ(√n)`
//! size (phase A of the MST), connected by at most `√n` inter-fragment
//! edges (phase B), with the fragment tree `T_F` known at the leader.
//! The stage then runs, per packed tree:
//!
//! 1. `orient.tf` / `orient.flood` — the leader roots `T_F` at its own
//!    fragment and broadcasts one [`TfRec`] per fragment (child
//!    connector, parent attachment, edge). Each fragment re-roots
//!    internally at its connector ([`FragReroot`]), which globally roots
//!    the tree at the leader without ever paying `Θ(depth)` rounds.
//! 2. `s2a`/`s2b` — in-fragment subtree sizes ([`SizesUp`]) and Euler
//!    intervals ([`IntervalDown`]): afterwards every node can test
//!    in-fragment ancestorship locally from `O(log n)` bits.
//! 3. `s2c` — each fragment gathers and rebroadcasts the Euler in-times
//!    of its *attachment points* (nodes where child fragments hang).
//! 4. `s3` — every edge exchanges `(fragment, in-time)` across itself;
//!    with the `T_F` table each endpoint classifies its edge into the
//!    paper's LCA cases: same fragment (case 1), LCA in one endpoint's
//!    fragment (case 3), or LCA in a third fragment — a *merging node*
//!    (case 2).
//! 5. `s4a`/`s4b` — case-2 contributions are keyed by the pair of
//!    attachment points below the merging node and summed with one
//!    pipelined grouped-sum to the leader, which routes each pair back
//!    to its first attachment only. That node holds the second
//!    attachment's in-fragment in-time (both hang in the merging node's
//!    fragment, whose attachment in-times `s2c` spread) and turns the
//!    pair into an `s5` token aimed at it.
//! 6. `s5` — case-1/3 contributions and the case-2 pair tokens travel as
//!    [`Token`]s up the fragment tree ([`TokensUp`]) and are absorbed by
//!    the first ancestor whose interval contains the partner, i.e.
//!    exactly the LCA — for a pair token, the merging node. Tokens with
//!    the same partner that meet at a node have the same LCA, so they
//!    travel on as one. Afterwards every node holds its ρ(v), and the
//!    end markers have carried each subtree's `(Σδ, Σρ)` up, so every
//!    fragment root holds its fragment's totals.
//! 7. `s5c`–`s5f` — the fragment totals are upcast to the leader,
//!    `T_F`-subtree sums are formed there and routed to the attachment
//!    point of each non-root fragment (`s5d`, one row per fragment, each
//!    crossing only the BFS edges toward its attachment), and one
//!    in-fragment subtree-sum pass over `(δ, ρ)` pairs (`s5e`) yields
//!    `δ↓(v)` and `ρ↓(v)` — hence `C(v↓)` — at every node; a final
//!    convergecast delivers the global argmin to the leader.
//!
//! Rounds: every phase but `s5` is `O(√n + D + k)` — fragment height
//! `h`, BFS depth `D`, or pipelined row count `k`. `s5` costs `h` plus
//! its heaviest per-edge load of *distinct* keys, which nothing bounds
//! by `h`: 989 rounds on the 70,602-node benchmark instance, against
//! `h + D + k = 158`. The paper's step 5 pipelines per-ancestor counts,
//! keyed by the LCA itself; the ROADMAP's `s5` item tracks that choice.
//! Experiment E7 measures the depth-independence of the other phases.
//!
//! The leader's table streams (`orient.tf`, `s4b`, `s5d`) and the
//! fragment-wide `s2c.down` are folding streams
//! ([`congest::primitives::BroadcastItems`]): each node computes its
//! share of the table as the rows pass through it — its connector and
//! attachment roles, its attachment in-times, its pair tokens, its
//! attached fragments' masses — and keeps no copy of the rows
//! themselves. `orient.tf` and `s2c.down` reach every node, since every
//! node reads all of `T_F` and its fragment's attachment in-times; the
//! `s4b` and `s5d` rows travel only to the node that reads them, along
//! the BFS tree's pre-order intervals.

use congest::message::TAG_BITS;
use congest::{
    value_bits, Algorithm, FinishResult, Intervals, Message, NodeCtx, Outbox, Port,
    ProtocolViolation, Step, TreeInfo,
};
use std::collections::{BTreeMap, VecDeque};

// ---------------------------------------------------------------------------
// Orient
// ---------------------------------------------------------------------------

/// One row of the fragment tree `T_F`, broadcast to every node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TfRec {
    /// The (physical) fragment this row describes.
    pub frag: u32,
    /// Its parent fragment in `T_F`.
    pub parent: u32,
    /// The connector: the endpoint of the inter-fragment edge inside
    /// `frag`; becomes the fragment's root after orientation.
    pub c: u32,
    /// The attachment: the endpoint inside the parent fragment; becomes
    /// the connector's parent in the global tree.
    pub a: u32,
    /// The inter-fragment tree edge.
    pub edge: u32,
}

impl Message for TfRec {
    fn bit_len(&self) -> usize {
        TAG_BITS
            + value_bits(self.frag as u64)
            + value_bits(self.parent as u64)
            + value_bits(self.c as u64)
            + value_bits(self.a as u64)
            + value_bits(self.edge as u64)
    }
}

/// Re-roots each fragment's internal tree at its connector: connectors
/// flood over the fragment's (undirected) tree edges; every member's new
/// parent is the port the flood arrived on. Rounds: fragment diameter +1.
#[derive(Clone, Debug, Default)]
pub struct FragReroot;

/// Input of [`FragReroot`].
#[derive(Clone, Debug)]
pub struct RerootInput {
    /// In-fragment tree ports (undirected set).
    pub tree_ports: Vec<Port>,
    /// Whether this node starts the flood (it is a connector, or the
    /// leader inside the root fragment).
    pub initiator: bool,
}

/// Node state for [`FragReroot`].
#[derive(Debug)]
pub struct RerootState {
    input: RerootInput,
    parent: Option<Port>,
}

impl Algorithm for FragReroot {
    type Input = RerootInput;
    type State = RerootState;
    type Msg = ();
    type Output = Option<Port>;

    fn boot(&self, _ctx: &NodeCtx<'_>, input: RerootInput) -> (RerootState, Outbox<()>) {
        let mut out = Outbox::new();
        if input.initiator {
            out.send_all(input.tree_ports.iter().copied(), ());
        }
        (
            RerootState {
                input,
                parent: None,
            },
            out,
        )
    }

    fn round(&self, s: &mut RerootState, _ctx: &NodeCtx<'_>, inbox: &[(Port, ())]) -> Step<()> {
        if s.input.initiator {
            return Step::halt();
        }
        if let Some((from, ())) = inbox.first().copied() {
            s.parent = Some(from);
            let mut out = Outbox::new();
            for &p in &s.input.tree_ports {
                if p != from {
                    out.send(p, ());
                }
            }
            return Step::Halt(out);
        }
        Step::idle()
    }

    fn finish(&self, s: RerootState, _ctx: &NodeCtx<'_>) -> FinishResult<Option<Port>> {
        Ok(s.parent)
    }
}

// ---------------------------------------------------------------------------
// s2a: in-fragment subtree sizes (retaining per-child sizes)
// ---------------------------------------------------------------------------

/// Convergecast of subtree sizes over the fragment forest that also
/// *retains* each child's contribution — needed to assign child Euler
/// intervals in [`IntervalDown`]. Rounds: fragment height + 1.
#[derive(Clone, Debug, Default)]
pub struct SizesUp;

/// Node state for [`SizesUp`].
#[derive(Debug)]
pub struct SizesState {
    tree: TreeInfo,
    acc: u32,
    child_sizes: Vec<(Port, u32)>,
    waiting: usize,
    sent: bool,
}

impl Algorithm for SizesUp {
    type Input = TreeInfo;
    type State = SizesState;
    type Msg = u32;
    type Output = (u32, Vec<(Port, u32)>);

    fn boot(&self, _ctx: &NodeCtx<'_>, tree: TreeInfo) -> (SizesState, Outbox<u32>) {
        let waiting = tree.children.len();
        (
            SizesState {
                tree,
                acc: 1,
                child_sizes: Vec::with_capacity(waiting),
                waiting,
                sent: false,
            },
            Outbox::new(),
        )
    }

    fn round(&self, s: &mut SizesState, _ctx: &NodeCtx<'_>, inbox: &[(Port, u32)]) -> Step<u32> {
        for &(port, v) in inbox {
            s.acc += v;
            s.child_sizes.push((port, v));
            s.waiting -= 1;
        }
        if s.waiting == 0 && !s.sent {
            s.sent = true;
            match s.tree.parent {
                Some(p) => {
                    let mut o = Outbox::new();
                    o.send(p, s.acc);
                    Step::Halt(o)
                }
                None => Step::halt(),
            }
        } else {
            Step::idle()
        }
    }

    fn finish(
        &self,
        mut s: SizesState,
        _ctx: &NodeCtx<'_>,
    ) -> FinishResult<(u32, Vec<(Port, u32)>)> {
        s.child_sizes.sort_unstable_by_key(|&(p, _)| p);
        Ok((s.acc, s.child_sizes))
    }
}

// ---------------------------------------------------------------------------
// s2b: in-fragment Euler intervals
// ---------------------------------------------------------------------------

/// Input of [`IntervalDown`]: the fragment tree info plus the sizes from
/// [`SizesUp`].
#[derive(Clone, Debug)]
pub struct IntervalInput {
    /// In-fragment tree info.
    pub tree: TreeInfo,
    /// Own subtree size.
    pub size: u32,
    /// Per-child subtree sizes (sorted by port).
    pub child_sizes: Vec<(Port, u32)>,
}

/// One top-down wave assigning pre-order intervals within each fragment
/// (the [`Intervals`] the election also hands out for the BFS tree):
/// each node receives its own entry time, computes its children's from
/// the retained sizes, and forwards. Rounds: fragment height + 1.
#[derive(Clone, Debug, Default)]
pub struct IntervalDown;

/// Node state for [`IntervalDown`].
#[derive(Debug)]
pub struct IntervalState {
    input: IntervalInput,
    iv: Option<Intervals>,
}

impl IntervalInput {
    /// This node's intervals once it knows its entry time.
    fn intervals(&self, in_t: u32) -> Intervals {
        Intervals::assign(in_t, self.size, self.child_sizes.iter().copied())
    }
}

impl Algorithm for IntervalDown {
    type Input = IntervalInput;
    type State = IntervalState;
    type Msg = u32;
    type Output = Intervals;

    fn boot(&self, _ctx: &NodeCtx<'_>, input: IntervalInput) -> (IntervalState, Outbox<u32>) {
        let mut out = Outbox::new();
        let iv = if input.tree.is_root() {
            let iv = input.intervals(0);
            for &(port, lo, _) in &iv.children {
                out.send(port, lo);
            }
            Some(iv)
        } else {
            None
        };
        (IntervalState { input, iv }, out)
    }

    fn round(&self, s: &mut IntervalState, _ctx: &NodeCtx<'_>, inbox: &[(Port, u32)]) -> Step<u32> {
        if s.iv.is_some() {
            return Step::halt();
        }
        if let Some(&(_, my_in)) = inbox.first() {
            let iv = s.input.intervals(my_in);
            let mut out = Outbox::new();
            for &(port, lo, _) in &iv.children {
                out.send(port, lo);
            }
            s.iv = Some(iv);
            return Step::Halt(out);
        }
        Step::idle()
    }

    fn finish(&self, s: IntervalState, _ctx: &NodeCtx<'_>) -> FinishResult<Intervals> {
        s.iv.ok_or_else(|| {
            ProtocolViolation::new("never received its interval (inconsistent fragment forest?)")
        })
    }
}

// ---------------------------------------------------------------------------
// s2c / s3 / s4 wire types
// ---------------------------------------------------------------------------

/// An attachment point's identity and in-fragment entry time, gathered to
/// the fragment root and rebroadcast fragment-wide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttItem {
    /// The attachment node.
    pub node: u32,
    /// Its in-fragment entry time.
    pub in_t: u32,
}

impl Message for AttItem {
    fn bit_len(&self) -> usize {
        TAG_BITS + value_bits(self.node as u64) + value_bits(self.in_t as u64)
    }
}

/// The `s3` per-edge exchange payload: the in-fragment entry time of the
/// endpoint. The endpoint's *fragment* is deliberately not on the wire —
/// every node already holds its neighbors' fragments from the `mstB.*`
/// delta exchanges, so re-sending them would pay `⌈log₂ n⌉` bits per
/// edge direction for information the receiver has.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NbMsg {
    /// Sender's in-fragment entry time.
    pub in_t: u32,
}

impl Message for NbMsg {
    fn bit_len(&self) -> usize {
        TAG_BITS + value_bits(self.in_t as u64)
    }
}

/// A resolved case-2 (merging node) contribution, routed from the leader
/// to the pair's first attachment `a1` (the smaller id; the route names
/// it, so the row does not): total weight `w` of the edges whose LCA is
/// the lowest common ancestor of `a1` and `a2`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairItem {
    /// Second attachment.
    pub a2: u32,
    /// Total crossing weight of the pair.
    pub w: u64,
}

impl Message for PairItem {
    fn bit_len(&self) -> usize {
        TAG_BITS + value_bits(self.a2 as u64) + value_bits(self.w)
    }
}

// ---------------------------------------------------------------------------
// s5: token routing up the fragment trees
// ---------------------------------------------------------------------------

/// A case-1/3 contribution, or a case-2 pair turned into a token at its
/// first attachment, travelling up the fragment tree: `w` is absorbed
/// (into ρ) by the first ancestor-or-self whose in-fragment interval
/// contains `t_in` — exactly the LCA of the originating edge or pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    /// Entry time of the partner endpoint (or attachment) to look for.
    pub t_in: u32,
    /// The edge weight to deliver.
    pub w: u64,
}

impl Message for Token {
    fn bit_len(&self) -> usize {
        TAG_BITS + value_bits(self.t_in as u64) + value_bits(self.w)
    }
}

/// The `s5` wire message: one (merged) token, or the end of the sender's
/// stream carrying its subtree's `(Σδ, Σρ)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenMsg {
    /// A token; its weight sums every token of that key merged into it.
    Item(Token),
    /// No more tokens follow; `(Σδ, Σρ)` over the sender's subtree.
    End(u64, u64),
}

impl Message for TokenMsg {
    fn bit_len(&self) -> usize {
        match self {
            TokenMsg::Item(t) => TAG_BITS + t.bit_len(),
            TokenMsg::End(d, r) => TAG_BITS + value_bits(*d) + value_bits(*r),
        }
    }
}

/// Input of [`TokensUp`].
#[derive(Clone, Debug)]
pub struct TokensInput {
    /// In-fragment tree info.
    pub tree: TreeInfo,
    /// Own in-fragment interval.
    pub iv: (u32, u32),
    /// This node's weighted degree δ(v).
    pub delta: u64,
    /// Tokens originating at this node; those aimed inside its own
    /// subtree are absorbed at boot.
    pub tokens: Vec<Token>,
}

/// Pipelined token routing: one token per tree edge per round, absorb at
/// the LCA. Tokens of one key meeting at a node travel on as one: they
/// all stop at the same ancestor. Each end marker carries its subtree's
/// `(Σδ, Σρ)`, so fragment roots output the fragment totals. Rounds:
/// `O(max per-edge distinct-key load + fragment height)`.
#[derive(Clone, Debug, Default)]
pub struct TokensUp;

/// Node state for [`TokensUp`].
#[derive(Debug)]
pub struct TokensState {
    tree: TreeInfo,
    iv: (u32, u32),
    /// Pending keys, in the order their entries opened.
    queue: VecDeque<u32>,
    /// The weight pending per queued key.
    pending: BTreeMap<u32, u64>,
    open_children: usize,
    rho: u64,
    /// `(Σδ, Σρ)` over this node and its closed child streams. No token
    /// leaves its fragment, so counting each token's weight at its
    /// origin sums the final ρ.
    totals: (u64, u64),
}

impl TokensState {
    fn take(&mut self, t: Token) {
        if self.iv.0 <= t.t_in && t.t_in <= self.iv.1 {
            self.rho += t.w;
        } else {
            let queue = &mut self.queue;
            *self.pending.entry(t.t_in).or_insert_with(|| {
                queue.push_back(t.t_in);
                0
            }) += t.w;
        }
    }
}

impl Algorithm for TokensUp {
    type Input = TokensInput;
    type State = TokensState;
    type Msg = TokenMsg;
    /// ρ(v); at fragment roots also the fragment's `(Σδ, Σρ)`.
    type Output = (u64, Option<(u64, u64)>);

    fn boot(&self, _ctx: &NodeCtx<'_>, input: TokensInput) -> (TokensState, Outbox<TokenMsg>) {
        let mut s = TokensState {
            open_children: input.tree.children.len(),
            tree: input.tree,
            iv: input.iv,
            queue: VecDeque::new(),
            pending: BTreeMap::new(),
            rho: 0,
            totals: (input.delta, input.tokens.iter().map(|t| t.w).sum()),
        };
        for t in input.tokens {
            s.take(t);
        }
        (s, Outbox::new())
    }

    fn round(
        &self,
        s: &mut TokensState,
        ctx: &NodeCtx<'_>,
        inbox: &[(Port, TokenMsg)],
    ) -> Step<TokenMsg> {
        for &(_, msg) in inbox {
            match msg {
                TokenMsg::Item(t) => s.take(t),
                TokenMsg::End(d, r) => {
                    s.totals.0 += d;
                    s.totals.1 += r;
                    s.open_children -= 1;
                }
            }
        }
        match s.tree.parent {
            None => {
                // The fragment root's interval spans the whole fragment,
                // so every token has been absorbed on arrival.
                debug_assert!(
                    s.queue.is_empty(),
                    "token escaped its fragment at node {}",
                    ctx.node
                );
                if s.open_children == 0 {
                    Step::halt()
                } else {
                    Step::idle()
                }
            }
            Some(p) => {
                let mut out = Outbox::new();
                if let Some(t_in) = s.queue.pop_front() {
                    let w = s.pending.remove(&t_in).expect("queued keys are pending");
                    out.send(p, TokenMsg::Item(Token { t_in, w }));
                    Step::Continue(out)
                } else if s.open_children == 0 {
                    out.send(p, TokenMsg::End(s.totals.0, s.totals.1));
                    Step::Halt(out)
                } else {
                    Step::idle()
                }
            }
        }
    }

    fn finish(
        &self,
        s: TokensState,
        _ctx: &NodeCtx<'_>,
    ) -> FinishResult<(u64, Option<(u64, u64)>)> {
        Ok((s.rho, s.tree.is_root().then_some(s.totals)))
    }
}

// ---------------------------------------------------------------------------
// s5c/s5d wire types
// ---------------------------------------------------------------------------

/// A fragment's `(Σδ, Σρ)` totals, upcast from its root to the leader.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TotItem {
    /// The fragment.
    pub frag: u32,
    /// Sum of weighted degrees over the fragment.
    pub d: u64,
    /// Sum of ρ over the fragment.
    pub r: u64,
}

impl Message for TotItem {
    fn bit_len(&self) -> usize {
        TAG_BITS + value_bits(self.frag as u64) + value_bits(self.d) + value_bits(self.r)
    }
}

/// A fragment's `T_F`-subtree sums `(Sδ, Sρ)`, routed from the leader to
/// the fragment's attachment point, which adds up the sums of all the
/// fragments hanging from it (so the row need not name the fragment).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SumItem {
    /// `Σδ` over the fragment's `T_F` subtree.
    pub sd: u64,
    /// `Σρ` over the fragment's `T_F` subtree.
    pub sr: u64,
}

impl Message for SumItem {
    fn bit_len(&self) -> usize {
        TAG_BITS + value_bits(self.sd) + value_bits(self.sr)
    }
}

// ---------------------------------------------------------------------------
// side: winner announcement + subtree flood over the snapshot tree
// ---------------------------------------------------------------------------

/// The winner announcement broadcast over the BFS tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SideMsg {
    /// `true`: the minimum-degree singleton won; `false`: a subtree cut.
    pub singleton: bool,
    /// The winning node (`v*` of `C(v*↓)`, or the singleton).
    pub v: u32,
}

impl Message for SideMsg {
    fn bit_len(&self) -> usize {
        TAG_BITS + 1 + value_bits(self.v as u64)
    }
}

/// Input of [`SideFlood`]: the snapshotted winning tree plus the
/// announced winner.
#[derive(Clone, Debug)]
pub struct SideInput {
    /// Snapshot parent port in the winning tree (`None` at the leader).
    pub parent: Option<Port>,
    /// Snapshot child ports in the winning tree (in-fragment children
    /// plus attached child-fragment connectors).
    pub children: Vec<Port>,
    /// The announced `v*`.
    pub vstar: u32,
}

/// Marks the subtree `v*↓` of the snapshotted winning tree: one wave from
/// the root carrying an "inside" bit that flips at `v*`. Rounds: tree
/// depth — paid **once per run**, only for the final winner.
#[derive(Clone, Debug, Default)]
pub struct SideFlood;

/// Node state for [`SideFlood`].
#[derive(Debug)]
pub struct SideState {
    input: SideInput,
    inside: Option<bool>,
}

impl Algorithm for SideFlood {
    type Input = SideInput;
    type State = SideState;
    type Msg = bool;
    type Output = bool;

    fn boot(&self, ctx: &NodeCtx<'_>, input: SideInput) -> (SideState, Outbox<bool>) {
        let mut out = Outbox::new();
        let inside = if input.parent.is_none() {
            let inside = ctx.node.raw() == input.vstar;
            out.send_all(input.children.iter().copied(), inside);
            Some(inside)
        } else {
            None
        };
        (SideState { input, inside }, out)
    }

    fn round(&self, s: &mut SideState, ctx: &NodeCtx<'_>, inbox: &[(Port, bool)]) -> Step<bool> {
        if s.inside.is_some() {
            return Step::halt();
        }
        if let Some(&(_, upstream)) = inbox.first() {
            let inside = upstream || ctx.node.raw() == s.input.vstar;
            s.inside = Some(inside);
            let mut out = Outbox::new();
            out.send_all(s.input.children.iter().copied(), inside);
            return Step::Halt(out);
        }
        Step::idle()
    }

    fn finish(&self, s: SideState, _ctx: &NodeCtx<'_>) -> FinishResult<bool> {
        s.inside.ok_or_else(|| {
            ProtocolViolation::new("never received the side wave (snapshot tree inconsistent?)")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::{Network, NetworkConfig};
    use graphs::{generators, NodeId};

    /// A path 0-1-2-3-4-5 as one fragment rooted at node 2 (ports on a
    /// path: interior nodes have port 0 = left, port 1 = right).
    fn path6_net(g: &graphs::WeightedGraph) -> Network<'_> {
        Network::new(g, NetworkConfig::default()).unwrap()
    }

    fn t(parent: Option<u32>, children: Vec<u32>) -> TreeInfo {
        TreeInfo {
            parent: parent.map(Port),
            children: children.into_iter().map(Port).collect(),
            depth: 0,
        }
    }

    #[test]
    fn sizes_and_intervals_on_a_rooted_path_fragment() {
        let g = generators::path(6).unwrap();
        let mut net = path6_net(&g);
        // Rooted at 2: 2 -> {1 (port0), 3 (port1)}, 1 -> {0}, 3 -> {4}, 4 -> {5}.
        let forest = vec![
            t(Some(0), vec![]),
            t(Some(1), vec![0]),
            t(None, vec![0, 1]),
            t(Some(0), vec![1]),
            t(Some(0), vec![1]),
            t(Some(0), vec![]),
        ];
        let sizes = net.run("s2a", &SizesUp, forest.clone()).unwrap().outputs;
        assert_eq!(sizes[2].0, 6);
        assert_eq!(sizes[1].0, 2);
        assert_eq!(sizes[3].0, 3);
        let inputs: Vec<IntervalInput> = forest
            .iter()
            .zip(sizes.iter())
            .map(|(tree, (size, cs))| IntervalInput {
                tree: tree.clone(),
                size: *size,
                child_sizes: cs.clone(),
            })
            .collect();
        let ivs = net.run("s2b", &IntervalDown, inputs).unwrap().outputs;
        // Pre-order from 2: 2=0, then child port0 (node 1) subtree {1,0},
        // then port1 (node 3) subtree {3,4,5}.
        assert_eq!((ivs[2].in_t, ivs[2].out_t), (0, 5));
        assert_eq!((ivs[1].in_t, ivs[1].out_t), (1, 2));
        assert_eq!((ivs[0].in_t, ivs[0].out_t), (2, 2));
        assert_eq!((ivs[3].in_t, ivs[3].out_t), (3, 5));
        assert_eq!((ivs[4].in_t, ivs[4].out_t), (4, 5));
        assert_eq!((ivs[5].in_t, ivs[5].out_t), (5, 5));
        // Ancestor tests work from intervals alone.
        assert!(ivs[3].contains(ivs[5].in_t));
        assert!(!ivs[1].contains(ivs[5].in_t));
        assert_eq!(ivs[2].child_containing(ivs[0].in_t), Some(Port(0)));
    }

    #[test]
    fn tokens_are_absorbed_at_the_lca() {
        let g = generators::path(6).unwrap();
        let mut net = path6_net(&g);
        let forest = [
            t(Some(0), vec![]),
            t(Some(1), vec![0]),
            t(None, vec![0, 1]),
            t(Some(0), vec![1]),
            t(Some(0), vec![1]),
            t(Some(0), vec![]),
        ];
        // Intervals as in the previous test.
        let iv = [(2, 2), (1, 2), (0, 5), (3, 5), (4, 5), (5, 5)];
        // Node 5 holds a token looking for node 4 (its parent): LCA = 4.
        // Node 0 holds a token looking for node 5: LCA = 2 (the root).
        let tokens: Vec<Vec<Token>> = vec![
            vec![Token { t_in: 5, w: 7 }],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![Token { t_in: 4, w: 3 }],
        ];
        let inputs: Vec<TokensInput> = forest
            .iter()
            .zip(iv.iter())
            .zip(tokens.iter())
            .map(|((tree, &(lo, hi)), toks)| TokensInput {
                tree: tree.clone(),
                iv: (lo, hi),
                delta: 1,
                tokens: toks.clone(),
            })
            .collect();
        let out = net.run("s5", &TokensUp, inputs).unwrap().outputs;
        let (rho, tots): (Vec<u64>, Vec<_>) = out.into_iter().unzip();
        assert_eq!(rho, vec![0, 0, 7, 0, 3, 0]);
        assert_eq!(tots, vec![None, None, Some((6, 10)), None, None, None]);
    }

    #[test]
    fn equal_keys_merge_in_flight_and_the_end_wave_carries_the_totals() {
        // The tree 0-{1, 4}, 1-{2, 3}: one fragment rooted at node 0.
        let g = graphs::WeightedGraph::from_edges(5, [(0, 1, 1), (1, 2, 2), (1, 3, 3), (0, 4, 4)])
            .unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let bfs = congest::primitives::leader_bfs::oracle(&g);
        let in_t = |v: usize| bfs[v].iv.in_t;
        // Nodes 2 and 3 aim at node 4 (their LCA with it is the root),
        // node 2 also at its sibling 3 (LCA = 1), node 4 at node 2.
        let key4 = |w| Token { t_in: in_t(4), w };
        let tokens: [Vec<Token>; 5] = [
            vec![],
            vec![],
            vec![
                key4(1),
                Token {
                    t_in: in_t(3),
                    w: 16,
                },
                key4(2),
            ],
            vec![key4(4)],
            vec![Token {
                t_in: in_t(2),
                w: 8,
            }],
        ];
        let inputs: Vec<TokensInput> = (0..5)
            .map(|v| TokensInput {
                tree: bfs[v].tree.clone(),
                iv: (bfs[v].iv.in_t, bfs[v].iv.out_t),
                delta: g.weighted_degree(NodeId::from_index(v)),
                tokens: tokens[v].clone(),
            })
            .collect();
        let out = net.run("s5", &TokensUp, inputs).unwrap();
        // Round 1: 2 sends key4 (1 + 2 merged at boot), 3 sends key4,
        // 4 sends its token. Round 2: 1 sends the key4 tokens of both
        // children as one item, 2 its token for 3, 3 and 4 their ends.
        // Round 3: 2 ends. Round 4: 1 ends. Round 5: the root halts.
        // Five items instead of the eight an unmerged stream sends, plus
        // one end per tree edge.
        assert_eq!((out.metrics.messages, out.metrics.rounds), (5 + 4, 5));
        let (rho, tots): (Vec<u64>, Vec<_>) = out.outputs.into_iter().unzip();
        assert_eq!(rho, vec![1 + 2 + 4 + 8, 16, 0, 0, 0]);
        assert_eq!(tots[0], Some((2 * (1 + 2 + 3 + 4), 31)));
        assert!(tots[1..].iter().all(Option::is_none));
    }

    #[test]
    fn side_flood_marks_exactly_the_subtree() {
        let g = generators::path(6).unwrap();
        let mut net = path6_net(&g);
        // Same rooted tree; winner v* = 3 → side {3,4,5}.
        let parents = [Some(0u32), Some(1), None, Some(0), Some(0), Some(0)];
        let children: [Vec<u32>; 6] = [vec![], vec![0], vec![0, 1], vec![1], vec![1], vec![]];
        let inputs: Vec<SideInput> = (0..6)
            .map(|v| SideInput {
                parent: parents[v].map(Port),
                children: children[v].iter().copied().map(Port).collect(),
                vstar: 3,
            })
            .collect();
        let side = net.run("side", &SideFlood, inputs).unwrap().outputs;
        assert_eq!(side, vec![false, false, false, true, true, true]);
    }

    #[test]
    fn reroot_flood_orients_toward_the_initiator() {
        let g = generators::path(5).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        // One fragment spanning the path; initiator = node 3.
        let inputs: Vec<RerootInput> = (0..5)
            .map(|v| RerootInput {
                tree_ports: match v {
                    0 => vec![Port(0)],
                    4 => vec![Port(0)],
                    _ => vec![Port(0), Port(1)],
                },
                initiator: v == 3,
            })
            .collect();
        let parents = net
            .run("orient.flood", &FragReroot, inputs)
            .unwrap()
            .outputs;
        assert_eq!(parents[3], None);
        // 2's parent is its right port (toward 3), 4's parent is its left.
        assert_eq!(parents[2], Some(Port(1)));
        assert_eq!(parents[4], Some(Port(0)));
        assert_eq!(parents[1], Some(Port(1)));
        assert_eq!(parents[0], Some(Port(0)));
    }

    #[test]
    fn message_sizes_are_logarithmic() {
        let tf = TfRec {
            frag: 100,
            parent: 90,
            c: 101,
            a: 91,
            edge: 250,
        };
        assert!(tf.bit_len() <= TAG_BITS + 4 * 7 + 8);
        assert!(Token { t_in: 140, w: 8 }.bit_len() <= TAG_BITS + 8 + 4);
        assert!(PairItem { a2: 20, w: 300 }.bit_len() <= TAG_BITS + 5 + 9);
        assert!(
            SideMsg {
                singleton: false,
                v: 77
            }
            .bit_len()
                <= TAG_BITS + 1 + 7
        );
    }
}
