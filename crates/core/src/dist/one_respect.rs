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
//!    fragment and numbers it in pre-order, so each fragment's `T_F`
//!    subtree is a range of numbers ([`TfShape`]). One stream carries
//!    two kinds of [`TfItem`]: the shape, the parent numbers of
//!    fragments `2..k` (fragment 1's is always 0), `⌈log₂ k⌉` bits
//!    packed as many to a row as fit the edge, to every node; and one
//!    row per non-root fragment — the fragment, the tree edge it hangs
//!    by and its number — to that edge's two endpoints only, by the BFS
//!    in-times the chosen edge carried up. Each endpoint marks the port
//!    and reads its role off its own fragment:
//!    the *connector* if it lies in the row's fragment (it takes the
//!    number), the *attachment* otherwise (it notes the child's number).
//!    Each fragment re-roots internally at its connector
//!    ([`FragReroot`]), whose flood hands every member the fragment's
//!    number; this globally roots the tree at the leader without ever
//!    paying `Θ(depth)` rounds.
//! 2. `s2a`/`s2b` — in-fragment subtree sizes ([`SizesUp`]) and Euler
//!    intervals ([`IntervalDown`]): afterwards every node can test
//!    in-fragment ancestorship locally from `O(log n)` bits.
//! 3. `s2c` — each fragment gathers and rebroadcasts the Euler in-times
//!    of its *attachment points* (nodes where child fragments hang),
//!    one row per child fragment, keyed by that child fragment's
//!    number: a node names an attachment by the fragment hung there,
//!    never by node id.
//! 4. `s3` — every edge exchanges in-times and fragment numbers across
//!    itself; from the two numbers and the shape each endpoint
//!    classifies its edge into the paper's LCA cases
//!    ([`TfShape::classify`]: two interval tests and parent walks):
//!    same fragment (case 1), LCA in one endpoint's fragment (case 3,
//!    aimed at the in-time of the attachment of the child fragment
//!    below the LCA), or LCA in a third fragment — a *merging node*
//!    (case 2).
//! 5. `s4a`/`s4b` — case-2 contributions are keyed by the pair of child
//!    fragments below the merging node's fragment, by number
//!    (`lo·k + hi < k²`), and summed with one pipelined grouped-sum to
//!    the leader, which reads both numbers off the key and routes each
//!    pair back to the attachment of its first child fragment only.
//!    That node holds the in-fragment in-time of the second child
//!    fragment's attachment (both hang in the merging node's fragment,
//!    whose attachment in-times `s2c` spread) and turns the pair into an
//!    `s5` token aimed at it.
//! 6. `s5` — case-1/3 contributions and the case-2 pair tokens travel as
//!    [`Token`]s up the fragment tree ([`TokensUp`]) and are absorbed by
//!    the first ancestor whose interval contains the partner, i.e.
//!    exactly the LCA — for a pair token, the merging node. Tokens with
//!    the same partner that meet at a node have the same LCA, so they
//!    travel on as one. Afterwards every node holds its ρ(v), and the
//!    end markers have carried each subtree's `(Σδ, Σρ)` up, so every
//!    fragment root holds its fragment's totals.
//! 7. `s5c`–`s5f` — the fragment totals are upcast to the leader,
//!    `T_F`-subtree sums are formed there (one reverse pass over the
//!    pre-order numbers) and routed to the attachment
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
//! attachment roles and numbers, its attachment in-times, its pair
//! tokens, its attached fragments' masses — and keeps no copy of the
//! rows themselves. The shape rows of `orient.tf` and the rows of
//! `s2c.down` reach every node, since every node reads `T_F`'s shape and
//! its fragment's attachment in-times; a fragment's `orient.tf` row
//! travels only to the two endpoints of its edge, and the `s4b` and
//! `s5d` rows only to the node that reads them, along the BFS tree's
//! pre-order intervals.

use congest::message::{id_bits, TAG_BITS};
use congest::{
    value_bits, Algorithm, FinishResult, Intervals, Message, NodeCtx, Outbox, Port,
    ProtocolViolation, Step, TreeInfo,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Orient
// ---------------------------------------------------------------------------

/// The shape of the fragment tree `T_F`, numbered in pre-order: the root
/// fragment is 0, every parent's number is below its children's, and so
/// fragment `f`'s `T_F` subtree is the number range `f..=end(f)`. This is
/// all a node needs to place an edge's LCA in `T_F` (see
/// [`TfShape::classify`]); `orient.tf` streams it to every node as the
/// parent numbers of fragments `2..k`, a few to a [`TfItem::Shape`] row
/// (pre-order makes fragment 1 a child of the root, so its parent is
/// never sent).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TfShape {
    /// `parent[f]` for `f ≥ 1`; `parent[0] = 0`.
    parent: Vec<u32>,
    /// The last number in each fragment's subtree.
    end: Vec<u32>,
}

/// Where the LCA of an edge between two fragments lies, seen from one
/// endpoint: the paper's cases 3 and 2 (case 1, both endpoints in one
/// fragment, needs no `T_F`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LcaCase {
    /// Case 3 with the LCA in this endpoint's fragment: the token aims
    /// at the attachment of `child`, this fragment's child toward the
    /// other endpoint's fragment.
    InMine {
        /// The child fragment's number.
        child: u32,
    },
    /// Case 3 with the LCA in the other endpoint's fragment: the other
    /// endpoint originates the token.
    InTheirs,
    /// Case 2: the LCA is a merging node in a third fragment, where the
    /// child fragments `g1` (toward this endpoint) and `g2` (toward the
    /// other) hang.
    Merging {
        /// The LCA fragment's child toward this endpoint.
        g1: u32,
        /// The LCA fragment's child toward the other endpoint.
        g2: u32,
    },
}

impl TfShape {
    /// The shape in which fragment `f ≥ 1` hangs from `parents[f − 1]`.
    ///
    /// # Panics
    ///
    /// If the numbering is not a pre-order, i.e. some fragment's parent
    /// is not an ancestor-or-self of the fragment numbered just before it.
    pub fn new(parents: &[u32]) -> Self {
        let k = parents.len() + 1;
        let mut parent = Vec::with_capacity(k);
        parent.push(0);
        parent.extend_from_slice(parents);
        for f in 1..k {
            let mut a = f as u32 - 1;
            while a > parent[f] {
                a = parent[a as usize];
            }
            assert_eq!(
                a, parent[f],
                "fragment {f}: T_F is not numbered in pre-order"
            );
        }
        let mut end: Vec<u32> = (0..k as u32).collect();
        for f in (1..k).rev() {
            let p = parent[f] as usize;
            end[p] = end[p].max(end[f]);
        }
        TfShape { parent, end }
    }

    /// The number of fragments.
    pub fn k(&self) -> usize {
        self.parent.len()
    }

    /// The parent number of fragment `f ≥ 1`.
    pub fn parent(&self, f: u32) -> u32 {
        debug_assert!(f > 0, "the root fragment has no parent");
        self.parent[f as usize]
    }

    /// Is fragment `a` an ancestor-or-self of fragment `b`?
    fn contains(&self, a: u32, b: u32) -> bool {
        a <= b && b <= self.end[a as usize]
    }

    /// The child of `anc` on the path down to its proper descendant `f`.
    fn child_toward(&self, anc: u32, mut f: u32) -> u32 {
        while self.parent[f as usize] != anc {
            f = self.parent[f as usize];
        }
        f
    }

    /// Places the LCA of an edge between a node of fragment `mine` and
    /// one of fragment `theirs` (distinct numbers): two interval tests,
    /// and parent walks for the child fragments below the LCA fragment.
    pub fn classify(&self, mine: u32, theirs: u32) -> LcaCase {
        debug_assert_ne!(mine, theirs, "case 1 needs no T_F");
        if self.contains(mine, theirs) {
            return LcaCase::InMine {
                child: self.child_toward(mine, theirs),
            };
        }
        if self.contains(theirs, mine) {
            return LcaCase::InTheirs;
        }
        let mut g1 = mine;
        while !self.contains(self.parent[g1 as usize], theirs) {
            g1 = self.parent[g1 as usize];
        }
        let lca = self.parent[g1 as usize];
        LcaCase::Merging {
            g1,
            g2: self.child_toward(lca, theirs),
        }
    }

    /// The `orient.tf` shape rows under a `budget`-bit edge: the parent
    /// numbers of fragments `2..k` in order, [`shape_row_capacity`] to a
    /// row. Fragment 1's parent is 0 in every pre-order, so a tree of
    /// at most two fragments sends no shape row.
    pub fn rows(&self, budget: usize) -> Vec<TfItem> {
        let width = id_bits(self.k()) as u32;
        let c = shape_row_capacity(self.k(), budget);
        self.parent
            .get(2..)
            .unwrap_or_default()
            .chunks(c)
            .map(|parents| TfItem::Shape {
                width,
                parents: parents.into(),
            })
            .collect()
    }
}

/// Bits of a [`TfItem::Shape`] row of `count` parent numbers, `width`
/// bits each: the item tag, then the width and the count the receiver
/// needs to parse the row, then the numbers.
fn shape_bits(width: usize, count: usize) -> usize {
    TAG_BITS + value_bits(width as u64) + value_bits(count as u64) + count * width
}

/// Parent numbers per `orient.tf` shape row for `k` fragments under a
/// `budget`-bit edge: as many `⌈log₂ k⌉`-bit numbers as fit beside the
/// stream's tag, at most `k − 2` (the numbers [`TfShape::rows`] sends),
/// and at least one (a budget too small for any row fails the bandwidth
/// check rather than stall the stream).
pub fn shape_row_capacity(k: usize, budget: usize) -> usize {
    let width = id_bits(k);
    (1..k.saturating_sub(1))
        .take_while(|&c| TAG_BITS + shape_bits(width, c) <= budget)
        .last()
        .unwrap_or(1)
}

/// One item of the `orient.tf` stream. Every node receives the shape
/// rows; each fragment's row names no node and travels only to the two
/// endpoints of its edge: the one inside `frag` is the fragment's
/// connector (its root after orientation), the other the attachment
/// (the connector's parent in the global tree). Each endpoint knows
/// which it is from its own fragment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TfItem {
    /// The parent numbers of the next fragments in pre-order, each
    /// `width` bits on the wire.
    Shape {
        /// Bits per parent number, `⌈log₂ k⌉`.
        width: u32,
        /// The parent numbers (shared, so forwarding copies no list).
        parents: Arc<[u32]>,
    },
    /// A non-root fragment and the `T_F` edge it hangs by.
    Row {
        /// The fragment.
        frag: u32,
        /// The inter-fragment tree edge.
        edge: u32,
        /// The fragment's pre-order number.
        num: u32,
    },
}

impl Message for TfItem {
    fn bit_len(&self) -> usize {
        match self {
            TfItem::Shape { width, parents } => shape_bits(*width as usize, parents.len()),
            TfItem::Row { frag, edge, num } => {
                TAG_BITS
                    + value_bits(u64::from(*frag))
                    + value_bits(u64::from(*edge))
                    + value_bits(u64::from(*num))
            }
        }
    }
}

/// Re-roots each fragment's internal tree at its connector and hands
/// every member its fragment's number: connectors flood the number over
/// the fragment's (undirected) tree edges; every member's new parent is
/// the port the flood arrived on. Rounds: fragment diameter +1.
#[derive(Clone, Debug, Default)]
pub struct FragReroot;

/// Input of [`FragReroot`].
#[derive(Clone, Debug)]
pub struct RerootInput {
    /// In-fragment tree ports (undirected set).
    pub tree_ports: Vec<Port>,
    /// The fragment's number if this node starts the flood (it is a
    /// connector, or the leader inside the root fragment).
    pub initiator: Option<u32>,
}

/// Node state for [`FragReroot`].
#[derive(Debug)]
pub struct RerootState {
    input: RerootInput,
    parent: Option<Port>,
    num: Option<u32>,
}

impl Algorithm for FragReroot {
    type Input = RerootInput;
    type State = RerootState;
    type Msg = u32;
    /// The new in-fragment parent port and the fragment's number.
    type Output = (Option<Port>, u32);

    fn boot(&self, _ctx: &NodeCtx<'_>, input: RerootInput) -> (RerootState, Outbox<u32>) {
        let mut out = Outbox::new();
        if let Some(num) = input.initiator {
            out.send_all(input.tree_ports.iter().copied(), num);
        }
        (
            RerootState {
                num: input.initiator,
                input,
                parent: None,
            },
            out,
        )
    }

    fn round(&self, s: &mut RerootState, _ctx: &NodeCtx<'_>, inbox: &[(Port, u32)]) -> Step<u32> {
        if s.num.is_some() {
            return Step::halt();
        }
        if let Some(&(from, num)) = inbox.first() {
            s.parent = Some(from);
            s.num = Some(num);
            let mut out = Outbox::new();
            for &p in &s.input.tree_ports {
                if p != from {
                    out.send(p, num);
                }
            }
            return Step::Halt(out);
        }
        Step::idle()
    }

    fn finish(&self, s: RerootState, _ctx: &NodeCtx<'_>) -> FinishResult<(Option<Port>, u32)> {
        let num = s.num.ok_or_else(|| {
            ProtocolViolation::new("never reached by its fragment's flood (no connector?)")
        })?;
        Ok((s.parent, num))
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

/// An attachment point's in-fragment entry time, named by the number of
/// a child fragment hung there, gathered to the fragment root and
/// rebroadcast fragment-wide. An attachment hosting several child
/// fragments sends one item per child fragment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttItem {
    /// The number of the child fragment hung at the attachment.
    pub num: u32,
    /// The attachment's in-fragment entry time.
    pub in_t: u32,
}

impl Message for AttItem {
    fn bit_len(&self) -> usize {
        TAG_BITS + value_bits(self.num as u64) + value_bits(self.in_t as u64)
    }
}

/// The `s3` per-edge exchange payload: the endpoint's in-fragment entry
/// time and its fragment's number, which places the fragment in the
/// [`TfShape`] every node holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NbMsg {
    /// Sender's in-fragment entry time.
    pub in_t: u32,
    /// Sender's fragment number.
    pub num: u32,
}

impl Message for NbMsg {
    fn bit_len(&self) -> usize {
        TAG_BITS + value_bits(self.in_t as u64) + value_bits(self.num as u64)
    }
}

/// A resolved case-2 (merging node) contribution for the child-fragment
/// pair `(g1, g2)`, `g1 < g2` by number, routed from the leader to the
/// attachment `a1` of `g1` (the route names it, so the row does not):
/// total weight `w` of the edges whose LCA is the lowest common ancestor
/// of `a1` and the attachment `a2` of `g2`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairItem {
    /// The second child fragment's number, `g2`.
    pub num: u32,
    /// Total crossing weight of the pair.
    pub w: u64,
}

impl Message for PairItem {
    fn bit_len(&self) -> usize {
        TAG_BITS + value_bits(self.num as u64) + value_bits(self.w)
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
    /// The fragment's number.
    pub num: u32,
    /// Sum of weighted degrees over the fragment.
    pub d: u64,
    /// Sum of ρ over the fragment.
    pub r: u64,
}

impl Message for TotItem {
    fn bit_len(&self) -> usize {
        TAG_BITS + value_bits(self.num as u64) + value_bits(self.d) + value_bits(self.r)
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
        // One fragment spanning the path, number 6; initiator = node 3.
        let inputs: Vec<RerootInput> = (0..5)
            .map(|v| RerootInput {
                tree_ports: match v {
                    0 => vec![Port(0)],
                    4 => vec![Port(0)],
                    _ => vec![Port(0), Port(1)],
                },
                initiator: (v == 3).then_some(6),
            })
            .collect();
        let out = net.run("orient.flood", &FragReroot, inputs).unwrap();
        // One message per tree edge: the number rides on the flood.
        assert_eq!((out.metrics.messages, out.metrics.rounds), (4, 3));
        let (parents, nums): (Vec<_>, Vec<_>) = out.outputs.into_iter().unzip();
        assert_eq!(nums, [6; 5]);
        assert_eq!(parents[3], None);
        // 2's parent is its right port (toward 3), 4's parent is its left.
        assert_eq!(parents[2], Some(Port(1)));
        assert_eq!(parents[4], Some(Port(0)));
        assert_eq!(parents[1], Some(Port(1)));
        assert_eq!(parents[0], Some(Port(0)));
    }

    #[test]
    fn tf_shape_classifies_every_case() {
        // 0 ─┬─ 1 ─┬─ 2
        //    │     └─ 3
        //    └─ 4 ── 5
        let shape = TfShape::new(&[0, 1, 1, 0, 4]);
        assert_eq!(shape.k(), 6);
        assert_eq!(shape.classify(0, 3), LcaCase::InMine { child: 1 });
        assert_eq!(shape.classify(1, 3), LcaCase::InMine { child: 3 });
        assert_eq!(shape.classify(3, 0), LcaCase::InTheirs);
        assert_eq!(shape.classify(2, 3), LcaCase::Merging { g1: 2, g2: 3 });
        assert_eq!(shape.classify(3, 5), LcaCase::Merging { g1: 1, g2: 4 });
        assert_eq!(shape.classify(5, 2), LcaCase::Merging { g1: 4, g2: 1 });
    }

    #[test]
    #[should_panic(expected = "not numbered in pre-order")]
    fn tf_shape_rejects_a_numbering_that_is_not_pre_order() {
        // Fragment 3 hangs from 1, but 2 (a child of 0) closed 1's
        // subtree before it.
        TfShape::new(&[0, 0, 1]);
    }

    #[test]
    fn shape_rows_fill_the_budget() {
        // The 40 parent numbers of fragments 2..42, ⌈log₂ 42⌉ = 6 bits
        // each, under a 136-bit edge: 4 + 4 + 3 + 5 + 6·20 = 136 bits,
        // so 20 to a row and 2 rows.
        assert_eq!(shape_row_capacity(42, 136), 20);
        let parents: Vec<u32> = (0..41).collect();
        let rows = TfShape::new(&parents).rows(136);
        let lens: Vec<usize> = rows
            .iter()
            .map(|r| match r {
                TfItem::Shape { width: 6, parents } => parents.len(),
                other => panic!("not a 6-bit shape row: {other:?}"),
            })
            .collect();
        assert_eq!(lens, [20, 20]);
        assert_eq!(TAG_BITS + rows[0].bit_len(), 136);
        // Fewer numbers than fit: one row of all of them; a budget below
        // one number: one number per row; two fragments: no row.
        assert_eq!(shape_row_capacity(4, 136), 2);
        assert_eq!(shape_row_capacity(42, 8), 1);
        assert_eq!(TfShape::new(&[0]).rows(136), []);
    }

    #[test]
    fn message_sizes_are_logarithmic() {
        // A `T_F` row is exactly its fragment, edge and number: it names
        // no node.
        let row = TfItem::Row {
            frag: 100,
            edge: 250,
            num: 9,
        };
        assert_eq!(row.bit_len(), TAG_BITS + 7 + 8 + 4);
        // A shape row: tag, width (6 → 3 bits), count (20 → 5 bits),
        // then 20 numbers of 6 bits.
        let shape = TfItem::Shape {
            width: 6,
            parents: vec![0; 20].into(),
        };
        assert_eq!(shape.bit_len(), TAG_BITS + 3 + 5 + 120);
        // `s3` carries the fragment number beside the in-time.
        assert_eq!(NbMsg { in_t: 140, num: 9 }.bit_len(), TAG_BITS + 8 + 4);
        assert!(Token { t_in: 140, w: 8 }.bit_len() <= TAG_BITS + 8 + 4);
        assert!(PairItem { num: 20, w: 300 }.bit_len() <= TAG_BITS + 5 + 9);
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
