//! Broadcast down a tree/forest: a single item, or a pipelined stream of
//! `k` items in `O(k + height)` rounds that every node folds into its own
//! accumulator as the items pass through.

use crate::algorithm::{Algorithm, FinishResult, Outbox, ProtocolViolation, Step};
use crate::message::{Message, TAG_BITS};
use crate::node::{NodeCtx, Port, TreeInfo};
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

/// Pipelined multi-item broadcast: each root's item list reaches every node
/// of its tree, in order, one item per edge per round, and every node
/// **folds** the items into its own accumulator as they arrive. Rounds:
/// `k + height + 1`.
///
/// A node never stores the list: the root folds its own items at boot and
/// then streams them by index, and every other node folds the one item
/// its parent sent this round and forwards it to its children in the
/// same round (one item in per round, one out). Per-node memory is the
/// accumulator, not `k` items — which is what lets the leader pipeline a
/// `k`-row table over `n` nodes without `k·n` copies. A fold that pushes
/// every item into a `Vec` recovers the plain list broadcast.
#[derive(Clone)]
pub struct BroadcastItems<T, A, F> {
    fold: F,
    // `fn() -> (T, A)` keeps the marker `Send + Sync` for any `T` and
    // `A`: the protocol struct carries no values of either, and the
    // parallel executor shares it across workers.
    _marker: PhantomData<fn() -> (T, A)>,
}

impl<T, A, F: Fn(&mut A, &T) + Sync> BroadcastItems<T, A, F> {
    /// Creates the phase object; `fold` absorbs one item into a node's
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
    /// The folded items (output).
    acc: A,
    /// Roots: the input list, streamed by index. Empty elsewhere.
    items: Vec<T>,
    /// Roots: index of the next item to send.
    next: usize,
}

impl<T: Message, A: Send, F: Fn(&mut A, &T) + Sync> Algorithm for BroadcastItems<T, A, F> {
    /// The tree, the item list (roots; non-roots must pass an empty
    /// list) and the accumulator the node folds into.
    type Input = (TreeInfo, Vec<T>, A);
    type State = BciState<T, A>;
    type Msg = StreamMsg<T>;
    type Output = A;

    fn boot(
        &self,
        _ctx: &NodeCtx<'_>,
        (tree, items, mut acc): Self::Input,
    ) -> (BciState<T, A>, Outbox<StreamMsg<T>>) {
        debug_assert!(
            tree.is_root() || items.is_empty(),
            "only roots may hold items"
        );
        for item in &items {
            (self.fold)(&mut acc, item);
        }
        let state = BciState {
            tree,
            acc,
            items,
            next: 0,
        };
        (state, Outbox::new())
    }

    fn round(
        &self,
        s: &mut BciState<T, A>,
        _ctx: &NodeCtx<'_>,
        inbox: &[(Port, StreamMsg<T>)],
    ) -> Step<StreamMsg<T>> {
        let msg = if s.tree.is_root() {
            let msg = s
                .items
                .get(s.next)
                .map_or(StreamMsg::End, |item| StreamMsg::Item(item.clone()));
            s.next += 1;
            msg
        } else {
            // Only the parent speaks, at most once per round.
            debug_assert!(inbox.len() <= 1, "one upstream message per round");
            match inbox.first() {
                Some((_, msg)) => {
                    if let StreamMsg::Item(item) = msg {
                        (self.fold)(&mut s.acc, item);
                    }
                    msg.clone()
                }
                None => return Step::idle(),
            }
        };
        let end = matches!(msg, StreamMsg::End);
        let mut out = Outbox::new();
        out.send_all(s.tree.children.iter().copied(), msg);
        if end {
            Step::Halt(out)
        } else {
            Step::Continue(out)
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
    use crate::primitives::leader_bfs::LeaderBfs;
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

    /// BFS trees of `g` with `items` at the root (node 0) and `acc` at
    /// every node.
    fn stream_inputs<A: Clone>(
        g: &graphs::WeightedGraph,
        net: &mut Network<'_>,
        items: &[u64],
        acc: A,
    ) -> Vec<(TreeInfo, Vec<u64>, A)> {
        bfs_trees(g, net)
            .into_iter()
            .enumerate()
            .map(|(v, t)| {
                let list = if v == 0 { items.to_vec() } else { vec![] };
                (t, list, acc.clone())
            })
            .collect()
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
        let inputs = stream_inputs(&g, &mut net, &items, Vec::new());
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
        let g = generators::path(6).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let lists = [vec![7, 8], vec![], vec![], vec![9], vec![], vec![]];
        let inputs: Vec<(TreeInfo, Vec<u64>, Vec<u64>)> = two_paths()
            .into_iter()
            .zip(lists)
            .map(|(t, list)| (t, list, Vec::new()))
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
        let items: Vec<u64> = vec![5, 1, 4];
        let inputs = stream_inputs(&g, &mut net, &items, (0u64, 0u64));
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
        let inputs = stream_inputs(&g, &mut net, &[], 7u64);
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

    #[test]
    fn every_executor_folds_the_same_accumulators() {
        // 64 nodes: above the parallel executor's minimum chunk (32), so
        // with the inline threshold off its workers really split sweeps.
        let g = generators::torus2d(8, 8).unwrap();
        let items: Vec<u64> = (0..12).map(|i| i * 7 + 3).collect();
        let run = |executor: crate::ExecutorKind| {
            let cfg = NetworkConfig {
                parallel_inline_threshold: 0,
                ..NetworkConfig::default()
            }
            .with_executor(executor);
            let mut net = Network::new(&g, cfg).unwrap();
            let inputs = stream_inputs(&g, &mut net, &items, Vec::new());
            let out = net
                .run("bcast_items", &BroadcastItems::new(collect), inputs)
                .unwrap();
            let mut m = out.metrics;
            m.sim = Default::default();
            (out.outputs, m)
        };
        let serial = run(crate::ExecutorKind::Serial);
        assert!(serial.0.iter().all(|acc| acc == &items));
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
