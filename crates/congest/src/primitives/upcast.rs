//! Pipelined upcast: every node's items flow to the root of its tree,
//! as many per edge per round as fit the edge
//! ([`crate::primitives::stream`]) — `O(k + height)` rounds for `k`
//! items, and nearer `height` plus the packed load when items are small.
//!
//! The pipeline uses it wherever every item must reach the root
//! (`s2c.up`, `s5c`). The MST's phase-B edge collection (`mstB.up`)
//! drops items on the way up, so it runs on the keyed merge core
//! ([`crate::primitives::merge`]) instead.

use crate::algorithm::{Algorithm, FinishResult, Outbox, Step};
use crate::message::Message;
use crate::node::{NodeCtx, Port, TreeInfo};
use crate::primitives::stream::{Fill, StreamMsg};
use std::collections::VecDeque;
use std::marker::PhantomData;

/// The pipelined upcast phase. Input per node: `(TreeInfo, Vec<T>)`; output:
/// `Some(all items of the tree)` at each root, `None` elsewhere. Item order
/// at the root is deterministic but unspecified.
#[derive(Clone, Debug, Default)]
pub struct UpcastItems<T> {
    _marker: PhantomData<fn() -> T>,
}

impl<T> UpcastItems<T> {
    /// Creates the phase object.
    pub fn new() -> Self {
        UpcastItems {
            _marker: PhantomData,
        }
    }
}

/// Node state for [`UpcastItems`].
#[derive(Debug)]
pub struct UpState<T> {
    tree: TreeInfo,
    /// Items still to forward to the parent.
    queue: VecDeque<T>,
    /// Children that have not yet sent `End`.
    open_children: usize,
    /// Root only: everything collected.
    collected: Vec<T>,
}

impl<T: Message> Algorithm for UpcastItems<T> {
    type Input = (TreeInfo, Vec<T>);
    type State = UpState<T>;
    type Msg = StreamMsg<T>;
    type Output = Option<Vec<T>>;

    fn boot(
        &self,
        _ctx: &NodeCtx<'_>,
        (tree, items): Self::Input,
    ) -> (UpState<T>, Outbox<StreamMsg<T>>) {
        let open_children = tree.children.len();
        let (queue, collected) = if tree.is_root() {
            (VecDeque::new(), items)
        } else {
            (items.into(), Vec::new())
        };
        let state = UpState {
            tree,
            queue,
            open_children,
            collected,
        };
        (state, Outbox::new())
    }

    fn round(
        &self,
        s: &mut UpState<T>,
        ctx: &NodeCtx<'_>,
        inbox: &[(Port, StreamMsg<T>)],
    ) -> Step<StreamMsg<T>> {
        let is_root = s.tree.is_root();
        for (_, msg) in inbox {
            // The lone forms skip the batch path: most messages are one.
            match msg {
                StreamMsg::Item(x) if is_root => s.collected.push(x.clone()),
                StreamMsg::Item(x) => s.queue.push_back(x.clone()),
                StreamMsg::End => {}
                batch if is_root => s.collected.extend(batch.items().iter().cloned()),
                batch => s.queue.extend(batch.items().iter().cloned()),
            }
            if msg.ends() {
                s.open_children -= 1;
            }
        }
        match s.tree.parent {
            None => {
                if s.open_children == 0 {
                    Step::halt()
                } else {
                    Step::wait()
                }
            }
            Some(_) if s.queue.is_empty() && s.open_children > 0 => Step::wait(),
            Some(p) => {
                // The queue's fitting prefix, and the end marker after
                // it once every child has closed and it fits.
                let mut fill = Fill::new(ctx.bandwidth_bits);
                let c = s
                    .queue
                    .iter()
                    .take_while(|t| fill.take(t.entry_bits()))
                    .count();
                let end = c == s.queue.len() && s.open_children == 0 && fill.ends(0);
                let queue = &mut s.queue;
                let items = (0..c).map(|_| queue.pop_front().expect("c items are queued"));
                let msg = StreamMsg::pack(c, items, end).expect("an item or the end marker");
                let mut out = Outbox::new();
                out.send(p, msg);
                if end {
                    Step::Halt(out)
                } else if s.queue.is_empty() && s.open_children > 0 {
                    // Nothing to send until a child's next message.
                    Step::Wait(out, None)
                } else {
                    Step::Continue(out)
                }
            }
        }
    }

    fn finish(&self, s: UpState<T>, _ctx: &NodeCtx<'_>) -> FinishResult<Option<Vec<T>>> {
        Ok(s.tree.parent.is_none().then_some(s.collected))
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
    fn collects_everything_at_root() {
        let g = generators::grid2d(5, 5).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let trees = bfs_trees(&g, &mut net);
        // Each node contributes its id twice.
        let inputs: Vec<(TreeInfo, Vec<u64>)> = trees
            .into_iter()
            .enumerate()
            .map(|(v, t)| (t, vec![v as u64, v as u64 + 1000]))
            .collect();
        let out = net.run("upcast", &UpcastItems::new(), inputs).unwrap();
        let mut got = out.outputs[0].clone().expect("root collects");
        got.sort_unstable();
        let mut want: Vec<u64> = (0..25).flat_map(|v| [v, v + 1000]).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(out.outputs[1..].iter().all(|o| o.is_none()));
    }

    #[test]
    fn pipelining_bound_on_path() {
        // Deep path: k items from the far end must pipeline, not serialize.
        let n = 30;
        let g = generators::path(n).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let trees = bfs_trees(&g, &mut net);
        let k = 10;
        let inputs: Vec<(TreeInfo, Vec<u64>)> = trees
            .into_iter()
            .enumerate()
            .map(|(v, t)| {
                let items = if v == n - 1 {
                    (0..k as u64).collect()
                } else {
                    vec![]
                };
                (t, items)
            })
            .collect();
        let out = net.run("upcast_path", &UpcastItems::new(), inputs).unwrap();
        assert_eq!(out.outputs[0].as_ref().unwrap().len(), k);
        let rounds = out.metrics.rounds;
        assert!(
            rounds <= (n as u64 - 1) + k as u64 + 3,
            "rounds = {rounds}, expected ≈ depth + k"
        );
    }

    #[test]
    fn empty_inputs_still_terminate() {
        let g = generators::star(12).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let trees = bfs_trees(&g, &mut net);
        let inputs: Vec<(TreeInfo, Vec<u64>)> = trees.into_iter().map(|t| (t, vec![])).collect();
        let out = net
            .run("upcast_empty", &UpcastItems::new(), inputs)
            .unwrap();
        assert_eq!(out.outputs[0], Some(vec![]));
    }

    #[test]
    fn forest_upcast_collects_per_fragment() {
        let g = generators::path(6).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let t = |parent: Option<u32>, children: Vec<u32>, depth: u32| TreeInfo {
            parent: parent.map(Port),
            children: children.into_iter().map(Port).collect(),
            depth,
        };
        let inputs: Vec<(TreeInfo, Vec<u64>)> = vec![
            (t(None, vec![0], 0), vec![1]),
            (t(Some(0), vec![1], 1), vec![2]),
            (t(Some(0), vec![], 2), vec![3]),
            (t(None, vec![1], 0), vec![4]),
            (t(Some(0), vec![1], 1), vec![5]),
            (t(Some(0), vec![], 2), vec![6]),
        ];
        let out = net
            .run("forest_upcast", &UpcastItems::new(), inputs)
            .unwrap();
        let mut a = out.outputs[0].clone().unwrap();
        a.sort_unstable();
        assert_eq!(a, vec![1, 2, 3]);
        let mut b = out.outputs[3].clone().unwrap();
        b.sort_unstable();
        assert_eq!(b, vec![4, 5, 6]);
    }
}
