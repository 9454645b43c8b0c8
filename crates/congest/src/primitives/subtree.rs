//! Subtree aggregation with **per-node** outputs.
//!
//! [`SubtreeSums`] — every node learns the sums of the input pairs over
//! its own subtree, component by component (`O(height)` rounds). The
//! distributed counterpart of `trees::subtree::subtree_sums`, used by the
//! paper's Step 3 (`Σ_{u ∈ Fᵢ ∩ v↓} δ(u)`): the cut stage sums δ and ρ
//! in the same pass.

use crate::algorithm::{Algorithm, FinishResult, Outbox, Step};
use crate::node::{NodeCtx, Port, TreeInfo};

/// Per-node subtree sums over a tree/forest. Input: `(TreeInfo, (a, b))`;
/// output at **every** node: `(Σa, Σb)` over its subtree. A partial sum
/// costs its two components' bits, as two `u64` messages would.
#[derive(Clone, Debug, Default)]
pub struct SubtreeSums;

impl SubtreeSums {
    /// Creates the phase object.
    pub fn new() -> Self {
        SubtreeSums
    }
}

/// Node state for [`SubtreeSums`].
#[derive(Debug)]
pub struct SsState {
    tree: TreeInfo,
    acc: (u64, u64),
    waiting: usize,
    sent: bool,
}

impl Algorithm for SubtreeSums {
    type Input = (TreeInfo, (u64, u64));
    type State = SsState;
    type Msg = (u64, u64);
    type Output = (u64, u64);

    fn boot(&self, _ctx: &NodeCtx<'_>, (tree, value): Self::Input) -> (SsState, Outbox<Self::Msg>) {
        let waiting = tree.children.len();
        (
            SsState {
                tree,
                acc: value,
                waiting,
                sent: false,
            },
            Outbox::new(),
        )
    }

    fn round(
        &self,
        s: &mut SsState,
        _ctx: &NodeCtx<'_>,
        inbox: &[(Port, (u64, u64))],
    ) -> Step<(u64, u64)> {
        for &(_, (a, b)) in inbox {
            s.acc.0 += a;
            s.acc.1 += b;
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
            Step::wait()
        }
    }

    fn finish(&self, s: SsState, _ctx: &NodeCtx<'_>) -> FinishResult<(u64, u64)> {
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
    use graphs::NodeId;

    fn bfs_outputs(
        g: &graphs::WeightedGraph,
        net: &mut Network<'_>,
    ) -> Vec<crate::primitives::leader_bfs::LeaderBfsOutput> {
        net.run("leader_bfs", &LeaderBfs::new(), vec![(); g.node_count()])
            .unwrap()
            .outputs
    }

    #[test]
    fn subtree_sums_match_sequential() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let g = generators::erdos_renyi_connected(50, 0.08, &mut rng).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let outs = bfs_outputs(&g, &mut net);
        let a: Vec<u64> = (0..50).map(|_| rng.gen_range(0..100)).collect();
        let b: Vec<u64> = (0..50).map(|_| rng.gen_range(0..1 << 40)).collect();
        let inputs: Vec<(TreeInfo, (u64, u64))> = outs
            .iter()
            .enumerate()
            .map(|(v, o)| (o.tree.clone(), (a[v], b[v])))
            .collect();
        let out = net.run("ss", &SubtreeSums::new(), inputs).unwrap();
        // One message per tree edge, each charged like two `u64`s.
        assert_eq!(out.metrics.messages, 49);
        // Sequential oracle over the same tree, component by component.
        let parent_ids: Vec<Option<NodeId>> = outs
            .iter()
            .enumerate()
            .map(|(v, o)| {
                o.tree
                    .parent
                    .map(|p| g.neighbors(NodeId::from_index(v))[p.index()].neighbor)
            })
            .collect();
        let rt = trees::RootedTree::from_parents(NodeId::new(0), &parent_ids).unwrap();
        let (got_a, got_b): (Vec<u64>, Vec<u64>) = out.outputs.into_iter().unzip();
        assert_eq!(got_a, trees::subtree::subtree_sums(&rt, &a));
        assert_eq!(got_b, trees::subtree::subtree_sums(&rt, &b));
    }
}
