//! Broadcast down a tree/forest: a single item, or a pipelined stream of
//! `k` rows in `O(k + height)` rounds, each row routed to every node or
//! to one or two labelled targets, which fold it into their own
//! accumulator as it passes through.

use crate::algorithm::{Algorithm, FinishResult, Outbox, ProtocolViolation, Step};
use crate::message::{value_bits, Message, TAG_BITS};
use crate::node::{Intervals, NodeCtx, Port, TreeInfo};
use std::marker::PhantomData;

/// Single-item broadcast: each root's item reaches every node of its tree.
/// Rounds: `height + 1`.
#[derive(Clone, Debug, Default)]
pub struct Broadcast<T> {
    // `fn() -> T` keeps the marker `Send + Sync` for any `T`: these
    // protocol structs carry no `T` values, and the parallel executor
    // shares them across workers.
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
        Step::idle()
    }

    fn finish(&self, s: BcState<T>, _ctx: &NodeCtx<'_>) -> FinishResult<T> {
        // A protocol violation (inconsistent forest input), not a panic:
        // the engine reports it as a typed `CongestError::Protocol`.
        s.item.ok_or_else(|| {
            ProtocolViolation::new("never received the broadcast (is the forest consistent?)")
        })
    }
}

/// Messages of the pipelined stream primitives: a data item or the
/// end-of-stream marker.
#[derive(Clone, Debug)]
pub enum StreamMsg<T> {
    /// One data item.
    Item(T),
    /// No more items will follow on this edge.
    End,
}

impl<T: Message> Message for StreamMsg<T> {
    fn bit_len(&self) -> usize {
        match self {
            StreamMsg::Item(t) => TAG_BITS + t.bit_len(),
            StreamMsg::End => TAG_BITS,
        }
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

impl Route {
    /// Does the node labelled `iv` fold a row on this route?
    fn folds_at(self, iv: &Intervals) -> bool {
        match self {
            Route::All => true,
            Route::One(t) => t == iv.in_t,
            Route::Two(a, b) => a == iv.in_t || b == iv.in_t,
        }
    }

    /// Sends the row on to the children whose subtrees need it: every
    /// child for [`Route::All`], otherwise the children whose interval
    /// holds a target, each with the targets inside its interval.
    fn forward(self, tree: &TreeInfo, iv: &Intervals, mut send: impl FnMut(Port, Route)) {
        match self {
            Route::All => tree.children.iter().for_each(|&p| send(p, Route::All)),
            Route::One(t) => {
                if let Some(p) = iv.child_containing(t) {
                    send(p, self);
                }
            }
            Route::Two(a, b) => match (iv.child_containing(a), iv.child_containing(b)) {
                (Some(p), Some(q)) if p == q => send(p, self),
                (pa, pb) => {
                    pa.into_iter().for_each(|p| send(p, Route::One(a)));
                    pb.into_iter().for_each(|q| send(q, Route::One(b)));
                }
            },
        }
    }
}

/// A routed row on the wire: its targets cost their magnitude, and the
/// route's kind shares the stream tag (`End` and the three routes are
/// four message kinds, within [`TAG_BITS`]), so a [`Route::All`] row
/// costs exactly what the bare row does.
impl<T: Message> Message for (Route, T) {
    fn bit_len(&self) -> usize {
        let targets = match self.0 {
            Route::All => 0,
            Route::One(t) => value_bits(t.into()),
            Route::Two(a, b) => value_bits(a.into()) + value_bits(b.into()),
        };
        targets + self.1.bit_len()
    }
}

/// Pipelined multi-row broadcast: each root streams its rows down its
/// tree, one row per edge per round, each row along its [`Route`], and
/// the nodes a row is meant for **fold** it into their own accumulator
/// as it passes.
///
/// A [`Route::All`] row crosses every tree edge and every node folds
/// it. A targeted row crosses only the edges toward its targets (its
/// Steiner tree) and only the targets fold it: the root keeps one queue
/// per child, holding the rows routed into that child's subtree, and
/// every other node forwards each arriving row, in the round it
/// arrives, to the children whose interval holds a target. Each tree
/// edge carries one `End` after its last row, so every node knows when
/// to halt. Messages: `(n − 1)` end markers plus each row's Steiner
/// edges. Rounds: the maximum over the root's children of the rows
/// routed into that subtree plus its height (counted from the root),
/// plus one — at most `k + height + 1` for `k` rows.
///
/// A node never stores the list: the root folds its own rows at boot
/// and streams them by index, and every other node folds the one row
/// its parent sent this round. Per-node memory is the accumulator, not
/// `k` rows — which is what lets the leader pipeline a `k`-row table
/// over `n` nodes without `k·n` copies. A fold that pushes every row
/// into a `Vec` recovers the plain list broadcast.
#[derive(Clone)]
pub struct BroadcastItems<T, A, F> {
    fold: F,
    // `fn() -> (T, A)` keeps the marker `Send + Sync` for any `T` and
    // `A`: the protocol struct carries no values of either, and the
    // parallel executor shares it across workers.
    _marker: PhantomData<fn() -> (T, A)>,
}

impl<T, A, F: Fn(&mut A, &T) + Sync> BroadcastItems<T, A, F> {
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
    /// into its subtree — `(row index, route inside the subtree)`.
    queues: Vec<Vec<(usize, Route)>>,
    /// Roots: the queue position sent this round.
    next: usize,
}

/// Per-node input of [`BroadcastItems`]: the tree, the node's pre-order
/// labels in it (needed only for targeted rows: [`Intervals::default`]
/// serves a stream of [`Route::All`] rows), the routed rows (roots;
/// non-roots must pass an empty list) and the accumulator the node
/// folds into.
pub type StreamInput<T, A> = (TreeInfo, Intervals, Vec<(Route, T)>, A);

impl<T: Message, A: Send, F: Fn(&mut A, &T) + Sync> Algorithm for BroadcastItems<T, A, F> {
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
        let mut queues = vec![Vec::new(); tree.children.len()];
        for (i, (route, item)) in items.iter().enumerate() {
            if route.folds_at(&iv) {
                (self.fold)(&mut acc, item);
            }
            route.forward(&tree, &iv, |p, r| {
                let c = tree.children.binary_search(&p).expect("a child port");
                queues[c].push((i, r));
            });
        }
        let state = BciState {
            tree,
            iv,
            acc,
            items,
            queues,
            next: 0,
        };
        (state, Outbox::new())
    }

    fn round(
        &self,
        s: &mut BciState<T, A>,
        _ctx: &NodeCtx<'_>,
        inbox: &[(Port, Self::Msg)],
    ) -> Step<Self::Msg> {
        let mut out = Outbox::new();
        if s.tree.is_root() {
            // Every child's queue advances one row per round and is
            // closed by an `End` the round after its last row.
            let k = s.next;
            s.next += 1;
            for (&p, queue) in s.tree.children.iter().zip(&s.queues) {
                let msg = match queue.get(k) {
                    Some(&(i, route)) => StreamMsg::Item((route, s.items[i].1.clone())),
                    None if k == queue.len() => StreamMsg::End,
                    None => continue,
                };
                out.send(p, msg);
            }
            return if s.queues.iter().all(|q| q.len() <= k) {
                Step::Halt(out)
            } else {
                Step::Continue(out)
            };
        }
        // Only the parent speaks, at most once per round.
        debug_assert!(inbox.len() <= 1, "one upstream message per round");
        match inbox.first() {
            Some((_, StreamMsg::Item((route, item)))) => {
                if route.folds_at(&s.iv) {
                    (self.fold)(&mut s.acc, item);
                }
                route.forward(&s.tree, &s.iv, |p, r| {
                    out.send(p, StreamMsg::Item((r, item.clone())));
                });
                Step::Continue(out)
            }
            Some((_, StreamMsg::End)) => {
                out.send_all(s.tree.children.iter().copied(), StreamMsg::End);
                Step::Halt(out)
            }
            None => Step::idle(),
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
        let neighbors = [crate::node::NeighborInfo {
            id: graphs::NodeId::new(1),
            weight: 1,
            edge: graphs::EdgeId::new(0),
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
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let items: Vec<u64> = (100..120).collect();
        let inputs = stream_inputs(&g, &to_all(&items), Vec::new());
        let out = net
            .run("bcast_items", &BroadcastItems::new(collect), inputs)
            .unwrap();
        for o in &out.outputs {
            assert_eq!(o, &items);
        }
        // Pipelining: k + depth + 1 rounds, NOT k * depth; every tree
        // edge carries the k items and the end marker.
        assert_eq!(out.metrics.rounds, 20 + 9 + 1);
        assert_eq!(out.metrics.messages, 9 * 21);
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
    /// node 0 over the oracle's BFS tree of `g`: every node's folded
    /// rows (in stream order), the messages, and the rounds.
    fn routed_contract(
        g: &graphs::WeightedGraph,
        rows: &[(Route, u64)],
    ) -> (Vec<Vec<u64>>, u64, u64) {
        let bfs = leader_bfs::oracle(g);
        let n = bfs.len();
        let parent = |v: usize| {
            bfs[v].tree.parent.map(|p| {
                g.neighbors(graphs::NodeId::from_index(v))[p.index()]
                    .neighbor
                    .index()
            })
        };
        let node_at = |t: u32| (0..n).find(|&v| bfs[v].iv.in_t == t).expect("a label");
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
        // Steiner edges: the non-root nodes on the root-target paths.
        let steiner: u64 = rows
            .iter()
            .map(|&(r, _)| {
                let mut on_path = std::collections::BTreeSet::new();
                for t in targets(r) {
                    let mut v = node_at(t);
                    while let Some(u) = parent(v) {
                        on_path.insert(v);
                        v = u;
                    }
                }
                on_path.len() as u64
            })
            .sum();
        let rounds = bfs[0]
            .iv
            .children
            .iter()
            .map(|&(_, lo, hi)| {
                let inside = |t: &u32| (lo..=hi).contains(t);
                let rows_in = rows.iter().filter(|(r, _)| targets(*r).iter().any(inside));
                let height = (0..n)
                    .filter(|&v| inside(&bfs[v].iv.in_t))
                    .map(|v| u64::from(bfs[v].tree.depth))
                    .max()
                    .unwrap_or(0);
                rows_in.count() as u64 + height
            })
            .max()
            .unwrap_or(0)
            + 1;
        (folds, n as u64 - 1 + steiner, rounds)
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
            let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
            let inputs = stream_inputs(&g, &rows, Vec::new());
            let out = net
                .run("bcast_routed", &BroadcastItems::new(collect), inputs)
                .unwrap();
            let (folds, messages, rounds) = routed_contract(&g, &rows);
            assert_eq!(out.outputs, folds, "n = {n}");
            assert_eq!(out.metrics.messages, messages, "n = {n}");
            assert_eq!(out.metrics.rounds, rounds, "n = {n}");
            // Never slower than broadcasting every row to everyone.
            let height = leader_bfs::oracle(&g)
                .iter()
                .map(|o| o.tree.depth)
                .max()
                .unwrap();
            assert!(rounds <= rows.len() as u64 + u64::from(height) + 1);
        }
    }

    #[test]
    fn a_targeted_row_costs_its_path_and_its_targets_only() {
        // Path 0-1-…-9 rooted at 0: node v is entered at time v, so a row
        // for node 6 crosses 6 edges, and a row for nodes 3 and 8 crosses
        // 8 — the second target's path contains the first's.
        let g = generators::path(10).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let rows = vec![(Route::One(6), 60), (Route::Two(3, 8), 38)];
        let inputs = stream_inputs(&g, &rows, Vec::new());
        let out = net
            .run("bcast_routed", &BroadcastItems::new(collect), inputs)
            .unwrap();
        let want: Vec<Vec<u64>> = (0..10)
            .map(|v| match v {
                3 | 8 => vec![38],
                6 => vec![60],
                _ => vec![],
            })
            .collect();
        assert_eq!(out.outputs, want);
        assert_eq!(out.metrics.messages, 9 + 6 + 8);
        // Two rows and the end marker down a path of height 9.
        assert_eq!(out.metrics.rounds, 2 + 9 + 1);
        // An `All` row costs its bare size; a targeted row adds only its
        // targets' magnitudes.
        assert_eq!((Route::All, 5u64).bit_len(), 5u64.bit_len());
        assert_eq!((Route::Two(3, 8), 5u64).bit_len(), 2 + 4 + 3);
    }

    #[test]
    fn every_executor_folds_the_same_accumulators() {
        // 64 nodes: above the parallel executor's minimum chunk (32), so
        // with the inline threshold off its workers really split sweeps.
        let g = generators::torus2d(8, 8).unwrap();
        let mut rows = to_all(&(0..6).map(|i| i * 7 + 3).collect::<Vec<_>>());
        rows.extend(mixed_rows(64));
        let run = |executor: crate::ExecutorKind| {
            let cfg = NetworkConfig {
                parallel_inline_threshold: 0,
                ..NetworkConfig::default()
            }
            .with_executor(executor);
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
        assert_eq!(serial.0, routed_contract(&g, &rows).0);
        let plan = crate::sim::FaultPlan::with_drop(100, 7)
            .delayed(2)
            .duplicated(50);
        for executor in [
            crate::ExecutorKind::Parallel { threads: 2 },
            crate::ExecutorKind::Faulty(plan),
        ] {
            assert_eq!(run(executor), serial);
        }
    }
}
