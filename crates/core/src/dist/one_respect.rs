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
//!    the same partner that meet at a node while it is pending have the
//!    same LCA, so they travel on as one, and each edge carries per
//!    round as many tokens as fit its budget
//!    ([`congest::primitives::stream`]). Afterwards every node holds its
//!    ρ(v), and the end markers, riding the last batches, have carried
//!    each subtree's `(Σδ, Σρ)` up, so every fragment root holds its
//!    fragment's totals.
//! 7. `s5c`–`s5f` — the fragment totals are upcast to the leader,
//!    `T_F`-subtree sums are formed there (one reverse pass over the
//!    pre-order numbers) and routed to the attachment
//!    point of each non-root fragment (`s5d`, one row per fragment, each
//!    crossing only the BFS edges toward its attachment), and one
//!    in-fragment subtree-sum pass over `(δ, ρ)` pairs (`s5e`) yields
//!    `δ↓(v)` and `ρ↓(v)` — hence `C(v↓)` — at every node; a final
//!    convergecast delivers the global argmin to the leader.
//!
//! Rounds: every phase is `O(√n + D + k)` — fragment height `h`, BFS
//! depth `D`, or pipelined row count `k`. Every stream packs as many
//! items into each message as fit the edge, so a stream takes its depth
//! plus its heaviest edge's load in messages, not in items. `s5` costs
//! `h` plus its heaviest per-edge load of *distinct* keys, packed: 161
//! rounds on the 70,602-node benchmark instance, within the paper's
//! step-5 bound `2(h + D + k) = 316` that `tests/large_n.rs` checks.
//! Experiment E7 measures the depth-independence of the phases.
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
use congest::primitives::stream::{batch_bits, Fill};
use congest::{
    value_bits, Algorithm, FinishResult, Message, NodeCtx, Outbox, Port, ProtocolViolation, Step,
    Tree,
};
use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;
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
pub struct FragReroot<'a> {
    _input: PhantomData<fn() -> &'a ()>,
}

/// Input of [`FragReroot`]: the node's fragment-tree port flags, borrowed
/// from the driver's columns, and whether it starts the flood.
#[derive(Clone, Debug)]
pub struct RerootInput<'a> {
    /// In-fragment tree ports, one flag per port (undirected: parent +
    /// children).
    pub tree: &'a [bool],
    /// The fragment's number if this node starts the flood (it is a
    /// connector, or the leader inside the root fragment).
    pub initiator: Option<u32>,
}

/// Node state for [`FragReroot`].
#[derive(Debug)]
pub struct RerootState<'a> {
    input: RerootInput<'a>,
    parent: Option<Port>,
    num: Option<u32>,
}

impl<'a> Algorithm for FragReroot<'a> {
    type Input = RerootInput<'a>;
    type State = RerootState<'a>;
    type Msg = u32;
    /// The new in-fragment parent port and the fragment's number.
    type Output = (Option<Port>, u32);

    fn boot(&self, _ctx: &NodeCtx<'_>, input: RerootInput<'a>) -> (RerootState<'a>, Outbox<u32>) {
        let mut out = Outbox::new();
        if let Some(num) = input.initiator {
            out.send_all(Tree::new(None, input.tree).children(), num);
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

    fn round(
        &self,
        s: &mut RerootState<'a>,
        _ctx: &NodeCtx<'_>,
        inbox: &[(Port, u32)],
    ) -> Step<u32> {
        if s.num.is_some() {
            return Step::halt();
        }
        if let Some(&(from, num)) = inbox.first() {
            s.parent = Some(from);
            s.num = Some(num);
            let mut out = Outbox::new();
            out.send_all(Tree::new(Some(from), s.input.tree).children(), num);
            return Step::Halt(out);
        }
        Step::wait()
    }

    fn finish(&self, s: RerootState<'a>, _ctx: &NodeCtx<'_>) -> FinishResult<(Option<Port>, u32)> {
        let num = s.num.ok_or_else(|| {
            ProtocolViolation::new("never reached by its fragment's flood (no connector?)")
        })?;
        Ok((s.parent, num))
    }
}

// ---------------------------------------------------------------------------
// s2a: in-fragment subtree sizes (written per child port)
// ---------------------------------------------------------------------------

/// Convergecast of subtree sizes over the fragment forest that also
/// writes each child's size into the node's row of a per-port column,
/// which [`IntervalDown`] reads to assign the children's intervals.
/// Rounds: fragment height + 1.
#[derive(Clone, Debug, Default)]
pub struct SizesUp<'a> {
    _input: PhantomData<fn() -> &'a ()>,
}

/// Input of [`SizesUp`]: the fragment tree and the node's row of the
/// size column, one entry per port, borrowed from the driver's columns;
/// each child's size overwrites its entry.
#[derive(Debug)]
pub struct SizesInput<'a> {
    /// In-fragment tree.
    pub tree: Tree<'a>,
    /// Per port: the child's subtree size, once the child has sent it.
    pub sizes: &'a mut [u32],
}

/// Node state for [`SizesUp`].
#[derive(Debug)]
pub struct SizesState<'a> {
    parent: Option<Port>,
    sizes: &'a mut [u32],
    acc: u32,
    waiting: usize,
    sent: bool,
}

impl<'a> Algorithm for SizesUp<'a> {
    type Input = SizesInput<'a>;
    type State = SizesState<'a>;
    type Msg = u32;
    /// The node's own subtree size.
    type Output = u32;

    fn boot(&self, _ctx: &NodeCtx<'_>, input: SizesInput<'a>) -> (SizesState<'a>, Outbox<u32>) {
        let state = SizesState {
            parent: input.tree.parent,
            sizes: input.sizes,
            acc: 1,
            waiting: input.tree.children().count(),
            sent: false,
        };
        (state, Outbox::new())
    }

    fn round(
        &self,
        s: &mut SizesState<'a>,
        _ctx: &NodeCtx<'_>,
        inbox: &[(Port, u32)],
    ) -> Step<u32> {
        for &(port, v) in inbox {
            s.acc += v;
            s.sizes[port.index()] = v;
            s.waiting -= 1;
        }
        if s.waiting == 0 && !s.sent {
            s.sent = true;
            match s.parent {
                Some(p) => {
                    let mut o = Outbox::new();
                    o.send(p, s.acc);
                    Step::Halt(o)
                }
                None => Step::halt(),
            }
        } else {
            Step::wait()
        }
    }

    fn finish(&self, s: SizesState<'a>, _ctx: &NodeCtx<'_>) -> FinishResult<u32> {
        Ok(s.acc)
    }
}

// ---------------------------------------------------------------------------
// s2b: in-fragment Euler intervals
// ---------------------------------------------------------------------------

/// Input of [`IntervalDown`]: the fragment tree plus the sizes from
/// [`SizesUp`].
#[derive(Clone, Copy, Debug)]
pub struct IntervalInput<'a> {
    /// In-fragment tree.
    pub tree: Tree<'a>,
    /// Own subtree size.
    pub size: u32,
    /// The node's row of the size column [`SizesUp`] wrote: each
    /// child's subtree size at its port.
    pub sizes: &'a [u32],
}

/// One top-down wave assigning pre-order intervals within each fragment
/// (the labels [`congest::Intervals`] holds for the BFS tree): each node
/// receives its own entry time, hands its children theirs in port order
/// from their sizes, and keeps only its own `(in, out)`. Rounds:
/// fragment height + 1.
#[derive(Clone, Debug, Default)]
pub struct IntervalDown<'a> {
    _input: PhantomData<fn() -> &'a ()>,
}

/// Node state for [`IntervalDown`]: the input, and the node's interval
/// once it knows its entry time.
#[derive(Debug)]
pub struct IntervalState<'a> {
    input: IntervalInput<'a>,
    iv: Option<(u32, u32)>,
}

impl IntervalState<'_> {
    /// Takes this node's interval, entered at `in_t`, and hands each
    /// child its entry time: child subtrees take consecutive ranges
    /// after `in_t`, in port order.
    fn enter(&mut self, in_t: u32) -> Outbox<u32> {
        let mut out = Outbox::new();
        let mut next = in_t + 1;
        for p in self.input.tree.children() {
            out.send(p, next);
            next += self.input.sizes[p.index()];
        }
        self.iv = Some((in_t, in_t + self.input.size - 1));
        out
    }
}

impl<'a> Algorithm for IntervalDown<'a> {
    type Input = IntervalInput<'a>;
    type State = IntervalState<'a>;
    type Msg = u32;
    /// The node's in-fragment pre-order interval `(in, out)`.
    type Output = (u32, u32);

    fn boot(
        &self,
        _ctx: &NodeCtx<'_>,
        input: IntervalInput<'a>,
    ) -> (IntervalState<'a>, Outbox<u32>) {
        let mut s = IntervalState { input, iv: None };
        let out = if input.tree.is_root() {
            s.enter(0)
        } else {
            Outbox::new()
        };
        (s, out)
    }

    fn round(
        &self,
        s: &mut IntervalState<'a>,
        _ctx: &NodeCtx<'_>,
        inbox: &[(Port, u32)],
    ) -> Step<u32> {
        if s.iv.is_some() {
            return Step::halt();
        }
        match inbox.first() {
            Some(&(_, in_t)) => Step::Halt(s.enter(in_t)),
            None => Step::wait(),
        }
    }

    fn finish(&self, s: IntervalState<'a>, _ctx: &NodeCtx<'_>) -> FinishResult<(u32, u32)> {
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

/// The `s5` wire message: one (merged) token, the end of the sender's
/// stream carrying its subtree's `(Σδ, Σρ)`, or a batch of them packed
/// by the stream rule ([`congest::primitives::stream`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenMsg {
    /// A token; its weight sums every token of that key merged into it.
    Item(Token),
    /// No more tokens follow; `(Σδ, Σρ)` over the sender's subtree.
    End(u64, u64),
    /// Two or more `Item`s, or one or more and then the `End`, in stream
    /// order. A batch whose last entry is the `End` is its own message
    /// kind and carries the end's totals.
    Batch(Box<[TokenMsg]>),
}

impl TokenMsg {
    /// The message carrying `tokens` in order, and the end marker with
    /// `totals` after them if there are any; `None` for neither.
    fn pack(
        tokens: impl ExactSizeIterator<Item = Token>,
        totals: Option<(u64, u64)>,
    ) -> Option<Self> {
        let end = totals.map(|(d, r)| TokenMsg::End(d, r));
        let mut tokens = tokens.map(TokenMsg::Item);
        match (tokens.len(), end) {
            (0, end) => end,
            (1, None) => tokens.next(),
            (n, end) => {
                // One allocation, of exactly the entries.
                let mut entries = Vec::with_capacity(n + usize::from(end.is_some()));
                entries.extend(tokens.chain(end));
                Some(TokenMsg::Batch(entries.into_boxed_slice()))
            }
        }
    }

    /// The lone messages this one carries, in stream order.
    fn entries(&self) -> &[TokenMsg] {
        match self {
            TokenMsg::Batch(b) => b,
            lone => std::slice::from_ref(lone),
        }
    }

    /// Bits of the end marker's payload.
    fn end_payload(d: u64, r: u64) -> usize {
        value_bits(d) + value_bits(r)
    }
}

impl Message for TokenMsg {
    fn bit_len(&self) -> usize {
        match self {
            TokenMsg::Item(t) => TAG_BITS + t.bit_len(),
            TokenMsg::End(d, r) => TAG_BITS + Self::end_payload(*d, *r),
            TokenMsg::Batch(b) => {
                let ends = matches!(b.last(), Some(TokenMsg::End(..)));
                let entries = b
                    .iter()
                    .map(|e| match e {
                        TokenMsg::Item(t) => t.bit_len(),
                        TokenMsg::End(d, r) => Self::end_payload(*d, *r),
                        TokenMsg::Batch(_) => unreachable!("batches do not nest"),
                    })
                    .sum();
                batch_bits(b.len() - usize::from(ends), entries)
            }
        }
    }
}

/// Input of [`TokensUp`].
#[derive(Clone, Debug)]
pub struct TokensInput<'a> {
    /// In-fragment tree.
    pub tree: Tree<'a>,
    /// Own in-fragment interval.
    pub iv: (u32, u32),
    /// This node's weighted degree δ(v).
    pub delta: u64,
    /// Tokens originating at this node; those aimed inside its own
    /// subtree are absorbed at boot.
    pub tokens: Vec<Token>,
}

/// Pipelined token routing, absorbed at the LCA: each round a node
/// sends its parent as many pending tokens as fit the edge, in the
/// order their keys opened ([`congest::primitives::Fill`]). Tokens of
/// one key meeting at a node while the key is pending travel on as one:
/// they all stop at the same ancestor. Each end marker carries its
/// subtree's `(Σδ, Σρ)`, riding the node's last batch when it fits, so
/// fragment roots output the fragment totals. Rounds: about the
/// fragment height plus the heaviest edge's distinct-key load in
/// messages — 161 on the 70,602-node benchmark instance, within
/// `2(h + D + k) = 316` (see `tests/large_n.rs`).
#[derive(Clone, Debug, Default)]
pub struct TokensUp<'a> {
    _input: PhantomData<fn() -> &'a ()>,
}

/// Node state for [`TokensUp`].
#[derive(Debug)]
pub struct TokensState {
    /// Port to the fragment-tree parent (`None` at the fragment root).
    parent: Option<Port>,
    iv: (u32, u32),
    /// Pending tokens, one per distinct key, in the order their keys
    /// opened.
    queue: VecDeque<Token>,
    /// Per pending key, its token's position in `queue` plus `sent`.
    pending: BTreeMap<u32, usize>,
    /// Tokens sent so far.
    sent: usize,
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
            return;
        }
        let at = self.sent + self.queue.len();
        let pos = *self.pending.entry(t.t_in).or_insert(at);
        if pos == at {
            self.queue.push_back(t);
        } else {
            self.queue[pos - self.sent].w += t.w;
        }
    }
}

impl<'a> Algorithm for TokensUp<'a> {
    type Input = TokensInput<'a>;
    type State = TokensState;
    type Msg = TokenMsg;
    /// ρ(v); at fragment roots also the fragment's `(Σδ, Σρ)`.
    type Output = (u64, Option<(u64, u64)>);

    fn boot(&self, _ctx: &NodeCtx<'_>, input: TokensInput<'a>) -> (TokensState, Outbox<TokenMsg>) {
        let mut s = TokensState {
            open_children: input.tree.children().count(),
            parent: input.tree.parent,
            iv: input.iv,
            queue: VecDeque::new(),
            pending: BTreeMap::new(),
            sent: 0,
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
        for (_, msg) in inbox {
            for entry in msg.entries() {
                match *entry {
                    TokenMsg::Item(t) => s.take(t),
                    TokenMsg::End(d, r) => {
                        s.totals.0 += d;
                        s.totals.1 += r;
                        s.open_children -= 1;
                    }
                    TokenMsg::Batch(_) => unreachable!("batches do not nest"),
                }
            }
        }
        let Some(p) = s.parent else {
            // The fragment root's interval spans the whole fragment, so
            // every token has been absorbed on arrival.
            debug_assert!(
                s.queue.is_empty(),
                "token escaped its fragment at node {}",
                ctx.node
            );
            return if s.open_children == 0 {
                Step::halt()
            } else {
                Step::idle()
            };
        };
        if s.queue.is_empty() && s.open_children > 0 {
            return Step::idle();
        }
        let mut fill = Fill::new(ctx.bandwidth_bits);
        let c = s
            .queue
            .iter()
            .take_while(|t| fill.take(t.bit_len()))
            .count();
        let (d, r) = s.totals;
        let end =
            c == s.queue.len() && s.open_children == 0 && fill.ends(TokenMsg::end_payload(d, r));
        s.sent += c;
        let (queue, pending) = (&mut s.queue, &mut s.pending);
        let sent = (0..c).map(|_| {
            let t = queue.pop_front().expect("c tokens are queued");
            pending.remove(&t.t_in);
            t
        });
        let msg = TokenMsg::pack(sent, end.then_some(s.totals)).expect("a token or the end marker");
        let mut out = Outbox::new();
        out.send(p, msg);
        if end {
            Step::Halt(out)
        } else {
            Step::Continue(out)
        }
    }

    fn finish(
        &self,
        s: TokensState,
        _ctx: &NodeCtx<'_>,
    ) -> FinishResult<(u64, Option<(u64, u64)>)> {
        Ok((s.rho, s.parent.is_none().then_some(s.totals)))
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
pub struct SideInput<'a> {
    /// This node's view of the winning tree's snapshot: its parent port
    /// (`None` at the leader) and its tree-edge flags, in-fragment and
    /// inter-fragment alike.
    pub tree: Tree<'a>,
    /// The announced `v*`.
    pub vstar: u32,
}

/// Marks the subtree `v*↓` of the snapshotted winning tree: one wave from
/// the root carrying an "inside" bit that flips at `v*`. Rounds: tree
/// depth — paid **once per run**, only for the final winner.
#[derive(Clone, Debug, Default)]
pub struct SideFlood<'a> {
    _input: PhantomData<fn() -> &'a ()>,
}

/// Node state for [`SideFlood`].
#[derive(Debug)]
pub struct SideState<'a> {
    input: SideInput<'a>,
    inside: Option<bool>,
}

impl<'a> Algorithm for SideFlood<'a> {
    type Input = SideInput<'a>;
    type State = SideState<'a>;
    type Msg = bool;
    type Output = bool;

    fn boot(&self, ctx: &NodeCtx<'_>, input: SideInput<'a>) -> (SideState<'a>, Outbox<bool>) {
        let mut out = Outbox::new();
        let inside = if input.tree.is_root() {
            let inside = ctx.node.raw() == input.vstar;
            out.send_all(input.tree.children(), inside);
            Some(inside)
        } else {
            None
        };
        (SideState { input, inside }, out)
    }

    fn round(
        &self,
        s: &mut SideState<'a>,
        ctx: &NodeCtx<'_>,
        inbox: &[(Port, bool)],
    ) -> Step<bool> {
        if s.inside.is_some() {
            return Step::halt();
        }
        if let Some(&(_, upstream)) = inbox.first() {
            let inside = upstream || ctx.node.raw() == s.input.vstar;
            s.inside = Some(inside);
            let mut out = Outbox::new();
            out.send_all(s.input.tree.children(), inside);
            return Step::Halt(out);
        }
        Step::wait()
    }

    fn finish(&self, s: SideState<'a>, _ctx: &NodeCtx<'_>) -> FinishResult<bool> {
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

    /// The path rooted at node 2: 2 -> {1 (port0), 3 (port1)}, 1 -> {0},
    /// 3 -> {4}, 4 -> {5}.
    fn rooted_path6() -> [Tree<'static>; 6] {
        let t = |parent: Option<u32>, ports: &'static [bool]| Tree::new(parent.map(Port), ports);
        [
            t(Some(0), &[true]),
            t(Some(1), &[true, true]),
            t(None, &[true, true]),
            t(Some(0), &[true, true]),
            t(Some(0), &[true, true]),
            t(Some(0), &[true]),
        ]
    }

    #[test]
    fn sizes_and_intervals_on_a_rooted_path_fragment() {
        let g = generators::path(6).unwrap();
        let mut net = path6_net(&g);
        let forest = rooted_path6();
        // The size column, one row per node, one entry per port.
        let mut rows: Vec<Vec<u32>> = forest.iter().map(|t| vec![0; t.ports.len()]).collect();
        let inputs: Vec<SizesInput> = forest
            .iter()
            .zip(&mut rows)
            .map(|(&tree, sizes)| SizesInput { tree, sizes })
            .collect();
        let sizes = net.run("s2a", &SizesUp::default(), inputs).unwrap().outputs;
        assert_eq!(sizes[2], 6);
        assert_eq!(sizes[1], 2);
        assert_eq!(sizes[3], 3);
        // Each child's size sits at its port in the parent's row.
        assert_eq!(rows[2], [2, 3]);
        assert_eq!(rows[3][1], 2);
        let inputs: Vec<IntervalInput> = forest
            .into_iter()
            .zip(sizes)
            .zip(&rows)
            .map(|((tree, size), sizes)| IntervalInput { tree, size, sizes })
            .collect();
        let ivs = net
            .run("s2b", &IntervalDown::default(), inputs)
            .unwrap()
            .outputs;
        // Pre-order from 2: 2=0, then child port0 (node 1) subtree {1,0},
        // then port1 (node 3) subtree {3,4,5}.
        assert_eq!(ivs[2], (0, 5));
        assert_eq!(ivs[1], (1, 2));
        assert_eq!(ivs[0], (2, 2));
        assert_eq!(ivs[3], (3, 5));
        assert_eq!(ivs[4], (4, 5));
        assert_eq!(ivs[5], (5, 5));
        // Ancestor tests work from intervals alone.
        let contains = |(lo, hi): (u32, u32), t: u32| lo <= t && t <= hi;
        assert!(contains(ivs[3], ivs[5].0));
        assert!(!contains(ivs[1], ivs[5].0));
    }

    #[test]
    fn tokens_are_absorbed_at_the_lca() {
        let g = generators::path(6).unwrap();
        let mut net = path6_net(&g);
        let forest = rooted_path6();
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
            .map(|((&tree, &(lo, hi)), toks)| TokensInput {
                tree,
                iv: (lo, hi),
                delta: 1,
                tokens: toks.clone(),
            })
            .collect();
        let out = net.run("s5", &TokensUp::default(), inputs).unwrap().outputs;
        let (rho, tots): (Vec<u64>, Vec<_>) = out.into_iter().unzip();
        assert_eq!(rho, vec![0, 0, 7, 0, 3, 0]);
        assert_eq!(tots, vec![None, None, Some((6, 10)), None, None, None]);
    }

    #[test]
    fn equal_keys_merge_in_flight_and_the_end_wave_carries_the_totals() {
        // The tree 0-{1, 4}, 1-{2, 3}: one fragment rooted at node 0.
        let g = graphs::WeightedGraph::from_edges(5, [(0, 1, 1), (1, 2, 2), (1, 3, 3), (0, 4, 4)])
            .unwrap();
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
                tree: bfs[v].tree(),
                iv: (bfs[v].iv.in_t, bfs[v].iv.out_t),
                delta: g.weighted_degree(NodeId::from_index(v)),
                tokens: tokens[v].clone(),
            })
            .collect();
        // Under 16 bits every token travels alone (13–15 bits) and no end
        // marker fits beside one. Round 1: 2 sends key4 (1 + 2 merged at
        // boot), 3 sends key4, 4 sends its token. Round 2: 1 sends the
        // key4 tokens of both children as one item, 2 its token for 3, 3
        // and 4 their ends. Round 3: 2 ends. Round 4: 1 ends. Round 5:
        // the root halts. Five items instead of the eight an unmerged
        // stream sends, plus one end per tree edge.
        //
        // Under the default 64 bits each node's tokens and end marker
        // share one message. Round 1: 2 sends its two tokens and its end
        // (4 + 2 + 9 + 11 + 7 = 33 bits), 3 and 4 their token and end.
        // Round 2: 1 sends the merged key4 token and its end. Round 3:
        // the root halts.
        for (factor, messages, rounds) in [(2, 5 + 4, 5), (8, 4, 3)] {
            let mut net = Network::new(&g, NetworkConfig::with_bandwidth_factor(factor)).unwrap();
            let out = net.run("s5", &TokensUp::default(), inputs.clone()).unwrap();
            assert_eq!(
                (out.metrics.messages, out.metrics.rounds),
                (messages, rounds)
            );
            assert!(out.metrics.max_message_bits <= net.bandwidth_bits());
            let (rho, tots): (Vec<u64>, Vec<_>) = out.outputs.into_iter().unzip();
            assert_eq!(rho, vec![1 + 2 + 4 + 8, 16, 0, 0, 0]);
            assert_eq!(tots[0], Some((2 * (1 + 2 + 3 + 4), 31)));
            assert!(tots[1..].iter().all(Option::is_none));
        }
    }

    /// A lone token and a lone end marker cost what they did before
    /// packing; a batch adds one tag, its token count and, when it
    /// carries the end, the end's totals.
    #[test]
    fn token_batches_cost_one_tag_a_count_and_their_entries() {
        let t = |t_in, w| Token { t_in, w };
        let lone = TokenMsg::pack([t(140, 8)].into_iter(), None).unwrap();
        assert_eq!(lone, TokenMsg::Item(t(140, 8)));
        assert_eq!(lone.bit_len(), TAG_BITS + TAG_BITS + 8 + 4);
        let end = TokenMsg::pack(std::iter::empty(), Some((300, 5))).unwrap();
        assert_eq!(end, TokenMsg::End(300, 5));
        assert_eq!(end.bit_len(), TAG_BITS + 9 + 3);
        assert!(TokenMsg::pack(std::iter::empty(), None).is_none());
        let batch = TokenMsg::pack([t(140, 8), t(3, 1)].into_iter(), Some((300, 5))).unwrap();
        assert_eq!(batch.entries().len(), 3);
        let tokens = t(140, 8).bit_len() + t(3, 1).bit_len();
        assert_eq!(batch.bit_len(), TAG_BITS + 2 + tokens + 9 + 3);
    }

    #[test]
    fn side_flood_marks_exactly_the_subtree() {
        let g = generators::path(6).unwrap();
        let mut net = path6_net(&g);
        // Same rooted tree; winner v* = 3 → side {3,4,5}.
        let inputs: Vec<SideInput> = rooted_path6()
            .into_iter()
            .map(|tree| SideInput { tree, vstar: 3 })
            .collect();
        let side = net
            .run("side", &SideFlood::default(), inputs)
            .unwrap()
            .outputs;
        assert_eq!(side, vec![false, false, false, true, true, true]);
    }

    #[test]
    fn reroot_flood_orients_toward_the_initiator() {
        let g = generators::path(5).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        // One fragment spanning the path, number 6; initiator = node 3.
        let inputs: Vec<RerootInput> = (0..5)
            .map(|v| RerootInput {
                tree: match v {
                    0 | 4 => &[true],
                    _ => &[true, true],
                },
                initiator: (v == 3).then_some(6),
            })
            .collect();
        let out = net
            .run("orient.flood", &FragReroot::default(), inputs)
            .unwrap();
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
