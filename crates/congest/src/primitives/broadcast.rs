//! Broadcast down a tree/forest: a single item, or a pipelined stream of
//! `k` rows in `O(k + height)` rounds, each row routed to every node or
//! to one or two labelled targets, which fold it into their own
//! accumulator as it passes through.

use crate::algorithm::{Algorithm, FinishResult, Outbox, ProtocolViolation, Step};
use crate::message::{value_bits, Message};
use crate::node::{Intervals, NodeCtx, Port, TreeInfo};
use crate::primitives::stream::{Fill, StreamMsg};
use std::collections::VecDeque;
use std::marker::PhantomData;

/// Single-item broadcast: each root's item reaches every node of its tree.
/// Rounds: `height + 1`.
#[derive(Clone, Debug, Default)]
pub struct Broadcast<T> {
    _marker: PhantomData<fn() -> T>,
}

impl<T> Broadcast<T> {
    /// Creates the phase object.
    pub fn new() -> Self {
        Broadcast {
            _marker: PhantomData,
        }
    }
}

/// Node state for [`Broadcast`].
#[derive(Debug)]
pub struct BcState<T> {
    tree: TreeInfo,
    item: Option<T>,
}

impl<T: Message> Algorithm for Broadcast<T> {
    /// `(TreeInfo, Some(item))` at roots, `(TreeInfo, None)` elsewhere.
    type Input = (TreeInfo, Option<T>);
    type State = BcState<T>;
    type Msg = T;
    type Output = T;

    fn boot(&self, _ctx: &NodeCtx<'_>, (tree, item): Self::Input) -> (BcState<T>, Outbox<T>) {
        let mut out = Outbox::new();
        if let Some(it) = &item {
            debug_assert!(tree.is_root(), "only roots may hold the initial item");
            out.send_all(tree.children.iter().copied(), it.clone());
        }
        (BcState { tree, item }, out)
    }

    fn round(&self, s: &mut BcState<T>, _ctx: &NodeCtx<'_>, inbox: &[(Port, T)]) -> Step<T> {
        if s.item.is_some() {
            // Root: sent at boot; done.
            return Step::halt();
        }
        if let Some((_, item)) = inbox.first() {
            s.item = Some(item.clone());
            let mut out = Outbox::new();
            out.send_all(s.tree.children.iter().copied(), item.clone());
            return Step::Halt(out);
        }
        Step::wait()
    }

    fn finish(&self, s: BcState<T>, _ctx: &NodeCtx<'_>) -> FinishResult<T> {
        // A protocol violation (inconsistent forest input), not a panic:
        // the engine reports it as a typed `CongestError::Protocol`.
        s.item.ok_or_else(|| {
            ProtocolViolation::new("never received the broadcast (is the forest consistent?)")
        })
    }
}

/// Which nodes of the tree fold a streamed row: every node, or the one
/// or two nodes with the given pre-order in-times (see [`Intervals`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Every node folds the row.
    All,
    /// Only the node entered at this time folds the row.
    One(u32),
    /// Only the nodes entered at these two times fold the row.
    Two(u32, u32),
}

/// Bits that name a routed row's [`Route`] kind inside a packed batch.
/// A lone row names it in the stream tag instead: `End`, the three
/// routes and the two batch kinds are six message kinds, within
/// [`TAG_BITS`](crate::message::TAG_BITS).
const ROUTE_KIND_BITS: usize = 2;

impl Route {
    /// Does the node labelled `iv` fold a row on this route?
    fn folds_at(self, iv: &Intervals) -> bool {
        match self {
            Route::All => true,
            Route::One(t) => t == iv.in_t,
            Route::Two(a, b) => a == iv.in_t || b == iv.in_t,
        }
    }

    /// The route the row takes into the child subtree entered at times
    /// `lo..=hi`, if that subtree needs the row: every child's for
    /// [`Route::All`], otherwise the targets inside the interval.
    fn toward(self, (lo, hi): (u32, u32)) -> Option<Route> {
        let inside = |t: u32| lo <= t && t <= hi;
        match self {
            Route::All => Some(Route::All),
            Route::One(t) => inside(t).then_some(self),
            Route::Two(a, b) => match (inside(a), inside(b)) {
                (true, true) => Some(self),
                (true, false) => Some(Route::One(a)),
                (false, true) => Some(Route::One(b)),
                (false, false) => None,
            },
        }
    }

    /// The bits of the route's targets: their magnitudes.
    fn target_bits(self) -> usize {
        match self {
            Route::All => 0,
            Route::One(t) => value_bits(t.into()),
            Route::Two(a, b) => value_bits(a.into()) + value_bits(b.into()),
        }
    }
}

/// The pre-order interval of each child of `tree`, in `tree.children`
/// order; empty intervals on an unlabelled tree, which only
/// [`Route::All`] rows cross.
fn child_intervals<'a>(
    tree: &'a TreeInfo,
    iv: &'a Intervals,
) -> impl Iterator<Item = (u32, u32)> + 'a {
    tree.children
        .iter()
        .enumerate()
        .map(|(c, &p)| match iv.children.get(c) {
            Some(&(q, lo, hi)) => {
                debug_assert_eq!(p, q, "labels list the children in port order");
                (lo, hi)
            }
            None => (1, 0),
        })
}

/// A routed row on the wire: its targets cost their magnitude, and a
/// lone row's route kind shares the stream tag, so a lone [`Route::All`]
/// row costs exactly what the bare row does. In a batch each row names
/// its kind in 2 more bits.
impl<T: Message> Message for (Route, T) {
    fn bit_len(&self) -> usize {
        self.0.target_bits() + self.1.bit_len()
    }

    fn entry_bits(&self) -> usize {
        row_entry_bits(self.0, &self.1)
    }
}

/// [`Message::entry_bits`] of the row `(route, item)`, without building
/// it.
fn row_entry_bits<T: Message>(route: Route, item: &T) -> usize {
    ROUTE_KIND_BITS + route.target_bits() + item.bit_len()
}

/// Pipelined multi-row broadcast: each root streams its rows down its
/// tree, each row along its [`Route`], packed by the stream rule
/// ([`crate::primitives::stream`]), and the nodes a row is meant for
/// **fold** it into their own accumulator as it passes.
///
/// A [`Route::All`] row crosses every tree edge and every node folds
/// it. A targeted row crosses only the edges toward its targets (its
/// Steiner tree) and only the targets fold it. The root keeps one queue
/// per child, holding the rows routed into that child's subtree, and
/// sends each child as many of them per round as fit the edge, the end
/// marker riding in the last message when it fits. Every other node
/// forwards each arriving message, in the round it arrives, as one
/// sub-batch per child whose interval holds a target of its rows. A
/// sub-batch is never wider than the message it came in: it holds fewer
/// rows, on the same or narrower routes. Each tree edge carries one end
/// marker, so every node knows when to halt. Rounds: the maximum over
/// the root's children of the messages the root sends that child plus
/// its subtree's height (counted from the root) — at most
/// `k + height + 1` for `k` rows, and nearer `height` plus the packed
/// load when many rows share an edge. Messages: at most `(n − 1)` end
/// markers plus each row's Steiner edges; rows that share a root
/// message share a message on every edge they both cross.
///
/// A node never stores the list: the root folds its own rows at boot
/// and streams them by index, and every other node folds the rows its
/// parent sent this round. Per-node memory is the accumulator, not
/// `k` rows — which is what lets the leader pipeline a `k`-row table
/// over `n` nodes without `k·n` copies. A fold that pushes every row
/// into a `Vec` recovers the plain list broadcast.
#[derive(Clone)]
pub struct BroadcastItems<T, A, F> {
    fold: F,
    _marker: PhantomData<fn() -> (T, A)>,
}

impl<T, A, F: Fn(&mut A, &T)> BroadcastItems<T, A, F> {
    /// Creates the phase object; `fold` absorbs one row into a node's
    /// accumulator.
    pub fn new(fold: F) -> Self {
        BroadcastItems {
            fold,
            _marker: PhantomData,
        }
    }
}

/// Node state for [`BroadcastItems`].
#[derive(Debug)]
pub struct BciState<T, A> {
    tree: TreeInfo,
    iv: Intervals,
    /// The folded rows (output).
    acc: A,
    /// Roots: the input rows, streamed by index. Empty elsewhere.
    items: Vec<(Route, T)>,
    /// Roots: per child (in `tree.children` order), the rows routed
    /// into its subtree that have not left yet — `(row index, route
    /// inside the subtree)` — or `None` once the child's end marker
    /// has left.
    queues: Vec<Option<VecDeque<(usize, Route)>>>,
}

/// Per-node input of [`BroadcastItems`]: the tree, the node's pre-order
/// labels in it (needed only for targeted rows: [`Intervals::default`]
/// serves a stream of [`Route::All`] rows), the routed rows (roots;
/// non-roots must pass an empty list) and the accumulator the node
/// folds into.
pub type StreamInput<T, A> = (TreeInfo, Intervals, Vec<(Route, T)>, A);

impl<T: Message, A, F: Fn(&mut A, &T)> Algorithm for BroadcastItems<T, A, F> {
    type Input = StreamInput<T, A>;
    type State = BciState<T, A>;
    type Msg = StreamMsg<(Route, T)>;
    type Output = A;

    fn boot(
        &self,
        _ctx: &NodeCtx<'_>,
        (tree, iv, items, mut acc): Self::Input,
    ) -> (BciState<T, A>, Outbox<Self::Msg>) {
        debug_assert!(
            tree.is_root() || items.is_empty(),
            "only roots may hold items"
        );
        for (route, item) in &items {
            if route.folds_at(&iv) {
                (self.fold)(&mut acc, item);
            }
        }
        let queues = if tree.is_root() {
            child_intervals(&tree, &iv)
                .map(|child| {
                    let rows = items.iter().enumerate();
                    let routed =
                        |(i, (route, _)): (usize, &(Route, T))| Some((i, route.toward(child)?));
                    Some(rows.filter_map(routed).collect())
                })
                .collect()
        } else {
            Vec::new()
        };
        let state = BciState {
            tree,
            iv,
            acc,
            items,
            queues,
        };
        (state, Outbox::new())
    }

    fn round(
        &self,
        s: &mut BciState<T, A>,
        ctx: &NodeCtx<'_>,
        inbox: &[(Port, Self::Msg)],
    ) -> Step<Self::Msg> {
        let mut out = Outbox::new();
        if s.tree.is_root() {
            // Each child's queue leaves as fast as its edge takes it,
            // and the end marker closes it in or after its last message.
            let items = &s.items;
            for (&p, slot) in s.tree.children.iter().zip(&mut s.queues) {
                let Some(queue) = slot else { continue };
                let mut fill = Fill::new(ctx.bandwidth_bits);
                let c = queue
                    .iter()
                    .take_while(|&&(i, r)| fill.take(row_entry_bits(r, &items[i].1)))
                    .count();
                let end = c == queue.len() && fill.ends(0);
                let rows = (0..c).map(|_| {
                    let (i, r) = queue.pop_front().expect("c rows are queued");
                    (r, items[i].1.clone())
                });
                out.send(
                    p,
                    StreamMsg::pack(c, rows, end).expect("an open queue sends"),
                );
                if end {
                    *slot = None;
                }
            }
            return if s.queues.iter().all(Option::is_none) {
                Step::Halt(out)
            } else {
                Step::Continue(out)
            };
        }
        // Only the parent speaks, at most once per round.
        debug_assert!(inbox.len() <= 1, "one upstream message per round");
        let Some((_, msg)) = inbox.first() else {
            return Step::wait();
        };
        let rows = msg.items();
        for (route, item) in rows {
            if route.folds_at(&s.iv) {
                (self.fold)(&mut s.acc, item);
            }
        }
        // One sub-batch per child, its rows in arrival order; the end
        // marker goes on to every child with the message that brought it.
        let end = msg.ends();
        for (&p, child) in s.tree.children.iter().zip(child_intervals(&s.tree, &s.iv)) {
            let sub = || {
                rows.iter()
                    .filter_map(move |(r, x)| Some((r.toward(child)?, x)))
            };
            let count = sub().count();
            let sub = sub().map(|(r, x)| (r, x.clone()));
            if let Some(m) = StreamMsg::pack(count, sub, end) {
                out.send(p, m);
            }
        }
        if end {
            Step::Halt(out)
        } else {
            // The next batch, or the end marker, comes from the parent.
            Step::Wait(out, None)
        }
    }

    fn finish(&self, s: BciState<T, A>, _ctx: &NodeCtx<'_>) -> FinishResult<A> {
        Ok(s.acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::engine::Network;
    use crate::message::TAG_BITS;
    use crate::primitives::leader_bfs::{self, LeaderBfs};
    use graphs::generators;

    fn bfs_trees(g: &graphs::WeightedGraph, net: &mut Network<'_>) -> Vec<TreeInfo> {
        net.run("leader_bfs", &LeaderBfs::new(), vec![(); g.node_count()])
            .unwrap()
            .outputs
            .into_iter()
            .map(|o| o.tree)
            .collect()
    }

    #[test]
    fn single_broadcast_reaches_everyone() {
        let g = generators::grid2d(4, 4).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let trees = bfs_trees(&g, &mut net);
        let inputs: Vec<(TreeInfo, Option<u64>)> = trees
            .into_iter()
            .enumerate()
            .map(|(v, t)| (t, (v == 0).then_some(42u64)))
            .collect();
        let out = net.run("bcast", &Broadcast::new(), inputs).unwrap();
        assert!(out.outputs.iter().all(|&x| x == 42));
        assert!(out.metrics.rounds <= 6 + 2);
    }

    #[test]
    fn missing_broadcast_is_a_violation_not_a_panic() {
        // A node that never received the item reports a protocol
        // violation from `finish` instead of aborting the process.
        let state: BcState<u64> = BcState {
            tree: TreeInfo {
                parent: Some(crate::node::Port(0)),
                children: vec![],
                depth: 1,
            },
            item: None,
        };
        let neighbors = [graphs::AdjEntry {
            neighbor: graphs::NodeId::new(1),
            edge: graphs::EdgeId::new(0),
            weight: 1,
        }];
        let ctx = crate::node::NodeCtx {
            node: graphs::NodeId::new(0),
            n: 2,
            bandwidth_bits: 64,
            round: 1,
            neighbors: &neighbors,
            suspected: &[],
        };
        let err = Broadcast::<u64>::new().finish(state, &ctx).unwrap_err();
        assert!(err.reason.contains("never received"));
    }

    /// The collecting fold: recovers the plain list broadcast.
    fn collect(acc: &mut Vec<u64>, item: &u64) {
        acc.push(*item);
    }

    /// The election's labelled BFS tree of `g` (the oracle's, which the
    /// election tests prove equal) with `rows` at the root (node 0) and
    /// `acc` at every node.
    fn stream_inputs<A: Clone>(
        g: &graphs::WeightedGraph,
        rows: &[(Route, u64)],
        acc: A,
    ) -> Vec<StreamInput<u64, A>> {
        leader_bfs::oracle(g)
            .into_iter()
            .enumerate()
            .map(|(v, o)| {
                let list = if v == 0 { rows.to_vec() } else { vec![] };
                (o.tree, o.iv, list, acc.clone())
            })
            .collect()
    }

    fn to_all(items: &[u64]) -> Vec<(Route, u64)> {
        items.iter().map(|&x| (Route::All, x)).collect()
    }

    /// Path of 6 split into {0,1,2} rooted at 0 and {3,4,5} rooted at 3.
    fn two_paths() -> Vec<TreeInfo> {
        let t = |parent: Option<u32>, children: Vec<u32>, depth: u32| TreeInfo {
            parent: parent.map(Port),
            children: children.into_iter().map(Port).collect(),
            depth,
        };
        vec![
            t(None, vec![0], 0),
            t(Some(0), vec![1], 1),
            t(Some(0), vec![], 2),
            t(None, vec![1], 0),
            t(Some(0), vec![1], 1),
            t(Some(0), vec![], 2),
        ]
    }

    #[test]
    fn collecting_fold_delivers_all_items_in_order_on_a_path() {
        let g = generators::path(10).unwrap();
        let items: Vec<u64> = (100..120).collect();
        // Each row costs 2 route-kind bits and 7 value bits in a batch.
        // Under the default 64-bit budget six share a message
        // (4 + 3 + 6·9 = 61 bits), so the 20 rows and the end marker
        // take 4 messages per edge; under 16 bits each row travels
        // alone, and the end marker rides the last (4 + 1 + 9 = 14).
        for (factor, per_edge) in [(8, 4u64), (2, 20)] {
            let cfg = NetworkConfig::with_bandwidth_factor(factor);
            let mut net = Network::new(&g, cfg).unwrap();
            let inputs = stream_inputs(&g, &to_all(&items), Vec::new());
            let out = net
                .run("bcast_items", &BroadcastItems::new(collect), inputs)
                .unwrap();
            for o in &out.outputs {
                assert_eq!(o, &items);
            }
            // Pipelining: messages per edge + depth rounds, NOT
            // k · depth.
            assert_eq!(out.metrics.rounds, per_edge + 9);
            assert_eq!(out.metrics.messages, 9 * per_edge);
            assert!(out.metrics.max_message_bits <= net.bandwidth_bits());
        }
    }

    #[test]
    fn collecting_fold_stays_within_each_tree_of_a_forest() {
        // Unlabelled trees serve streams of `All` rows.
        let g = generators::path(6).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let lists = [vec![7, 8], vec![], vec![], vec![9], vec![], vec![]];
        let inputs: Vec<_> = two_paths()
            .into_iter()
            .zip(lists)
            .map(|(t, list)| (t, Intervals::default(), to_all(&list), Vec::new()))
            .collect();
        let out = net
            .run("forest_bcast", &BroadcastItems::new(collect), inputs)
            .unwrap();
        let want: [&[u64]; 6] = [&[7, 8], &[7, 8], &[7, 8], &[9], &[9], &[9]];
        for (got, want) in out.outputs.iter().zip(want) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn every_node_folds_each_item_exactly_once() {
        // (items folded, their sum): the root folds its own list at boot
        // and must not fold it again while streaming it.
        let g = generators::grid2d(3, 4).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let inputs = stream_inputs(&g, &to_all(&[5, 1, 4]), (0u64, 0u64));
        let count = |acc: &mut (u64, u64), item: &u64| {
            acc.0 += 1;
            acc.1 += item;
        };
        let out = net
            .run("bcast_items", &BroadcastItems::new(count), inputs)
            .unwrap();
        assert!(out.outputs.iter().all(|&acc| acc == (3, 10)));
    }

    #[test]
    fn an_empty_list_sends_only_the_end_marker() {
        let g = generators::grid2d(3, 4).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let inputs = stream_inputs(&g, &[], 7u64);
        let add = |acc: &mut u64, item: &u64| *acc += item;
        let out = net
            .run("bcast_items", &BroadcastItems::new(add), inputs)
            .unwrap();
        assert!(out.outputs.iter().all(|&acc| acc == 7));
        // One `End` per tree edge, nothing else.
        let n = g.node_count() as u64;
        assert_eq!(out.metrics.messages, n - 1);
        assert_eq!(out.metrics.bits, (n - 1) * TAG_BITS as u64);
    }

    /// What the routed-stream contract predicts for `rows` streamed from
    /// node 0 over the oracle's BFS tree of `g` under a `budget`-bit
    /// edge: every node's folded rows (in stream order), the messages,
    /// and the rounds. The root packs each child's rows greedily, in
    /// order — a batch of `c` rows costs 4 tag bits, the bits of `c`, 2
    /// route-kind bits per row and each row's own bits — with the end
    /// marker in the last message when it fits; every message then
    /// crosses each edge that one of its rows crosses, and the ending
    /// message every edge of the subtree.
    fn routed_contract(
        g: &graphs::WeightedGraph,
        rows: &[(Route, u64)],
        budget: usize,
    ) -> (Vec<Vec<u64>>, u64, u64) {
        let bfs = leader_bfs::oracle(g);
        let n = bfs.len();
        let targets = |r: Route| match r {
            Route::All => (0..n as u32).collect(),
            Route::One(t) => vec![t],
            Route::Two(a, b) => vec![a, b],
        };
        let folds: Vec<Vec<u64>> = (0..n)
            .map(|v| {
                let me = bfs[v].iv.in_t;
                rows.iter()
                    .filter(|(r, _)| targets(*r).contains(&me))
                    .map(|&(_, x)| x)
                    .collect()
            })
            .collect();
        let vb = |x: u64| (64 - x.leading_zeros()).max(1) as usize;
        let mut messages = 0;
        let mut rounds = 1;
        for &(_, lo, hi) in &bfs[0].iv.children {
            let inside = |t: u32| (lo..=hi).contains(&t);
            // The rows routed into this subtree, each with its route
            // narrowed to the targets inside it.
            let sub: Vec<(Route, u64)> = rows
                .iter()
                .filter_map(|&(r, x)| {
                    let r = match r {
                        Route::All => Route::All,
                        Route::One(t) if inside(t) => r,
                        Route::Two(a, b) => match (inside(a), inside(b)) {
                            (true, true) => r,
                            (true, false) => Route::One(a),
                            (false, true) => Route::One(b),
                            (false, false) => return None,
                        },
                        Route::One(_) => return None,
                    };
                    Some((r, x))
                })
                .collect();
            let entry = |&(r, x): &(Route, u64)| {
                let named: usize = match r {
                    Route::All => 0,
                    _ => targets(r).iter().map(|&t| vb(t.into())).sum(),
                };
                2 + named + vb(x)
            };
            // The root's messages to this child: (rows, whether it ends).
            let mut sent: Vec<(std::ops::Range<usize>, bool)> = Vec::new();
            let mut at = 0;
            loop {
                let (mut c, mut bits) = (0, 0);
                while at + c < sub.len()
                    && (c == 0 || 4 + vb(c as u64 + 1) + bits + entry(&sub[at + c]) <= budget)
                {
                    bits += entry(&sub[at + c]);
                    c += 1;
                }
                let end = at + c == sub.len() && (c == 0 || 4 + vb(c as u64) + bits <= budget);
                sent.push((at..at + c, end));
                at += c;
                if end {
                    break;
                }
            }
            // Every node of the subtree: the edge to its parent carries
            // the messages with a row for its own subtree, and the
            // ending message.
            let subtree: Vec<usize> = (0..n).filter(|&v| inside(bfs[v].iv.in_t)).collect();
            for &v in &subtree {
                let (a, b) = (bfs[v].iv.in_t, bfs[v].iv.out_t);
                let below = |&(r, _): &(Route, u64)| {
                    r == Route::All || targets(r).iter().any(|t| (a..=b).contains(t))
                };
                messages += sent
                    .iter()
                    .filter(|(rows, end)| *end || sub[rows.clone()].iter().any(below))
                    .count() as u64;
            }
            let height = subtree
                .iter()
                .map(|&v| u64::from(bfs[v].tree.depth))
                .max()
                .unwrap_or(0);
            rounds = rounds.max(sent.len() as u64 + height);
        }
        (folds, messages, rounds)
    }

    /// A mixed table: `All` rows, single targets (the root, leaves,
    /// inner nodes), pairs in one subtree, pairs across subtrees, and a
    /// pair naming one node twice.
    fn mixed_rows(n: u32) -> Vec<(Route, u64)> {
        let t = |x: u32| x % n;
        vec![
            (Route::One(t(n - 1)), 1),
            (Route::All, 2),
            (Route::Two(t(1), t(n / 2)), 3),
            (Route::One(0), 4),
            (Route::Two(t(n - 1), t(n - 2)), 5),
            (Route::One(t(n / 3)), 6),
            (Route::Two(t(2), t(2)), 7),
            (Route::All, 8),
            (Route::Two(0, t(n - 3)), 9),
        ]
    }

    #[test]
    fn targeted_rows_reach_exactly_their_targets() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for g in [
            generators::grid2d(5, 6).unwrap(),
            generators::path(9).unwrap(),
            generators::star(12).unwrap(),
            generators::erdos_renyi_connected(40, 0.08, &mut rng).unwrap(),
        ] {
            let n = g.node_count() as u32;
            let rows = mixed_rows(n);
            let height = leader_bfs::oracle(&g)
                .iter()
                .map(|o| o.tree.depth)
                .max()
                .unwrap();
            // 24 bits carry about one row a message, 64 a few, 256 most
            // of the table.
            for factor in [3, 8, 32] {
                let cfg = NetworkConfig::with_bandwidth_factor(factor);
                let mut net = Network::new(&g, cfg).unwrap();
                let budget = net.bandwidth_bits();
                let inputs = stream_inputs(&g, &rows, Vec::new());
                let out = net
                    .run("bcast_routed", &BroadcastItems::new(collect), inputs)
                    .unwrap();
                let (folds, messages, rounds) = routed_contract(&g, &rows, budget);
                let tag = format!("n = {n}, {budget} bits");
                assert_eq!(out.outputs, folds, "{tag}");
                assert_eq!(out.metrics.messages, messages, "{tag}");
                assert_eq!(out.metrics.rounds, rounds, "{tag}");
                assert!(out.metrics.max_message_bits <= budget, "{tag}");
                // Never slower than broadcasting every row to everyone.
                assert!(rounds <= rows.len() as u64 + u64::from(height) + 1);
            }
        }
    }

    #[test]
    fn a_targeted_row_costs_its_path_and_its_targets_only() {
        // Path 0-1-…-9 rooted at 0: node v is entered at time v, so a row
        // for node 6 crosses 6 edges, and a row for nodes 3 and 8 crosses
        // 8 — the second target's path contains the first's.
        let g = generators::path(10).unwrap();
        let rows = vec![(Route::One(6), 60), (Route::Two(3, 8), 38)];
        let want: Vec<Vec<u64>> = (0..10)
            .map(|v| match v {
                3 | 8 => vec![38],
                6 => vec![60],
                _ => vec![],
            })
            .collect();
        // Under 16 bits each row travels alone (13 and 16 bits), and so
        // does the end marker: every row costs its own path, and the
        // stream the two rows, the end marker and the height. Under the
        // default 64 bits both rows and the end marker share one message
        // (4 + 2 + 11 + 14 = 31 bits), which crosses every edge once.
        for (factor, messages, rounds) in [(2, 9 + 6 + 8, 2 + 9 + 1), (8, 9, 1 + 9)] {
            let cfg = NetworkConfig::with_bandwidth_factor(factor);
            let mut net = Network::new(&g, cfg).unwrap();
            let inputs = stream_inputs(&g, &rows, Vec::new());
            let out = net
                .run("bcast_routed", &BroadcastItems::new(collect), inputs)
                .unwrap();
            assert_eq!(out.outputs, want);
            assert_eq!(
                (out.metrics.messages, out.metrics.rounds),
                (messages, rounds)
            );
        }
        // A lone `All` row costs its bare size; a targeted row adds only
        // its targets' magnitudes, and in a batch each row adds the two
        // bits that name its route's kind.
        assert_eq!((Route::All, 5u64).bit_len(), 5u64.bit_len());
        assert_eq!((Route::Two(3, 8), 5u64).bit_len(), 2 + 4 + 3);
        assert_eq!(
            (Route::Two(3, 8), 5u64).entry_bits(),
            ROUTE_KIND_BITS + 2 + 4 + 3
        );
        let lone = StreamMsg::pack(1, [(Route::One(6), 60u64)], false).unwrap();
        assert_eq!(lone.bit_len(), TAG_BITS + 3 + 6);
    }

    #[test]
    fn every_executor_folds_the_same_accumulators() {
        let g = generators::torus2d(8, 8).unwrap();
        let mut rows = to_all(&(0..6).map(|i| i * 7 + 3).collect::<Vec<_>>());
        rows.extend(mixed_rows(64));
        let run = |executor: crate::ExecutorKind| {
            let cfg = NetworkConfig::default().with_executor(executor);
            let mut net = Network::new(&g, cfg).unwrap();
            let inputs = stream_inputs(&g, &rows, Vec::new());
            let out = net
                .run("bcast_items", &BroadcastItems::new(collect), inputs)
                .unwrap();
            let mut m = out.metrics;
            m.sim = Default::default();
            (out.outputs, m)
        };
        let serial = run(crate::ExecutorKind::Serial);
        assert_eq!(serial.0, routed_contract(&g, &rows, 64).0);
        let plan = crate::sim::FaultPlan::with_drop(100, 7)
            .delayed(2)
            .duplicated(50);
        assert_eq!(run(crate::ExecutorKind::Faulty(plan)), serial);
    }
}
