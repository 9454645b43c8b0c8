//! Convergecast: aggregate one value per node toward the root(s) of a
//! tree/forest under a commutative, associative combine, every node
//! learning its own subtree's aggregate on the way.
//!
//! Rounds: `height + 1`. Works on forests — every root gets the aggregate of
//! its own tree, so running one convergecast per fragment in parallel is the
//! same single phase. Per-node outputs are the distributed counterpart of
//! `trees::subtree::subtree_sums`: the cut stage's Step 3
//! (`Σ_{u ∈ Fᵢ ∩ v↓} δ(u)`) sums δ and ρ as one `(u64, u64)` aggregate.

use crate::algorithm::{Algorithm, FinishResult, Outbox, Step};
use crate::message::{value_bits, Message, TAG_BITS};
use crate::node::{NodeCtx, Port, Tree};
use std::marker::PhantomData;

/// A value that can be aggregated up a tree. The partial aggregate is
/// itself the message a node sends its parent.
pub trait Aggregate: Message {
    /// Commutative, associative combination.
    fn combine(&self, other: &Self) -> Self;
}

/// Sum of `u64` values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SumU64(pub u64);

impl Message for SumU64 {
    fn bit_len(&self) -> usize {
        TAG_BITS + value_bits(self.0)
    }
}

impl Aggregate for SumU64 {
    fn combine(&self, other: &Self) -> Self {
        SumU64(self.0 + other.0)
    }
}

/// Minimum of `(u64, u64)` pairs under lexicographic order — the standard
/// "(value, tie-break id)" argmin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MinPair(pub u64, pub u64);

impl Message for MinPair {
    fn bit_len(&self) -> usize {
        TAG_BITS + value_bits(self.0) + value_bits(self.1)
    }
}

impl Aggregate for MinPair {
    fn combine(&self, other: &Self) -> Self {
        if (self.0, self.1) <= (other.0, other.1) {
            *self
        } else {
            *other
        }
    }
}

/// Componentwise sums of `(u64, u64)` pairs, each partial sum charged
/// like two `u64` messages.
impl Aggregate for (u64, u64) {
    fn combine(&self, other: &Self) -> Self {
        (self.0 + other.0, self.1 + other.1)
    }
}

/// The convergecast phase. Input per node: `(Tree, T)`; output at
/// **every** node: the aggregate over its subtree (at a root, its whole
/// tree's).
#[derive(Clone, Debug, Default)]
pub struct Convergecast<'a, T> {
    _marker: PhantomData<fn() -> (&'a (), T)>,
}

impl<T> Convergecast<'_, T> {
    /// Creates the phase object.
    pub fn new() -> Self {
        Convergecast {
            _marker: PhantomData,
        }
    }
}

/// Node state for [`Convergecast`].
#[derive(Debug)]
pub struct CcState<T> {
    parent: Option<Port>,
    acc: T,
    waiting: usize,
    sent: bool,
}

impl<'a, T: Aggregate> Algorithm for Convergecast<'a, T> {
    type Input = (Tree<'a>, T);
    type State = CcState<T>;
    type Msg = T;
    type Output = T;

    fn boot(&self, _ctx: &NodeCtx<'_>, (tree, value): (Tree<'a>, T)) -> (CcState<T>, Outbox<T>) {
        let state = CcState {
            parent: tree.parent,
            acc: value,
            waiting: tree.children().count(),
            sent: false,
        };
        (state, Outbox::new())
    }

    fn round(&self, s: &mut CcState<T>, _ctx: &NodeCtx<'_>, inbox: &[(Port, T)]) -> Step<T> {
        for (_, v) in inbox {
            s.acc = s.acc.combine(v);
            s.waiting -= 1;
        }
        if s.waiting == 0 && !s.sent {
            s.sent = true;
            match s.parent {
                Some(p) => {
                    let mut o = Outbox::new();
                    o.send(p, s.acc.clone());
                    Step::Halt(o)
                }
                None => Step::halt(),
            }
        } else {
            Step::wait()
        }
    }

    fn finish(&self, s: CcState<T>, _ctx: &NodeCtx<'_>) -> FinishResult<T> {
        Ok(s.acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::engine::Network;
    use crate::primitives::leader_bfs::{LeaderBfs, LeaderBfsOutput};
    use graphs::{generators, NodeId};

    fn bfs(g: &graphs::WeightedGraph, net: &mut Network<'_>) -> Vec<LeaderBfsOutput> {
        net.run("leader_bfs", &LeaderBfs::new(), vec![(); g.node_count()])
            .unwrap()
            .outputs
    }

    #[test]
    fn sums_node_ids_on_grid() {
        let g = generators::grid2d(4, 5).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let outs = bfs(&g, &mut net);
        let inputs: Vec<(Tree, SumU64)> = outs
            .iter()
            .enumerate()
            .map(|(v, o)| (o.tree(), SumU64(v as u64)))
            .collect();
        let out = net.run("sum", &Convergecast::new(), inputs).unwrap();
        assert_eq!(out.outputs[0].0, (0..20).sum::<u64>(), "node 0 is the root");
        // Rounds bounded by height + slack.
        assert!(out.metrics.rounds <= 4 + 5 + 2);
    }

    #[test]
    fn min_pair_argmin() {
        assert_eq!(MinPair(5, 2).combine(&MinPair(5, 1)), MinPair(5, 1));
        assert_eq!(MinPair(4, 9).combine(&MinPair(5, 1)), MinPair(4, 9));
    }

    #[test]
    fn forest_convergecast_aggregates_per_fragment() {
        // A path 0-1-2-3-4-5 manually split into two fragments:
        // {0,1,2} rooted at 0, {3,4,5} rooted at 3.
        let g = generators::path(6).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        // Ports on a path: node 0 has port0 -> 1; nodes 1..4 have port0 -> left, port1 -> right; node 5 port0 -> 4.
        let t = |parent: Option<u32>, ports: &'static [bool]| Tree::new(parent.map(Port), ports);
        let inputs: Vec<(Tree, SumU64)> = vec![
            (t(None, &[true]), SumU64(1)),
            (t(Some(0), &[true, true]), SumU64(2)),
            (t(Some(0), &[true, false]), SumU64(4)),
            (t(None, &[false, true]), SumU64(8)),
            (t(Some(0), &[true, true]), SumU64(16)),
            (t(Some(0), &[true]), SumU64(32)),
        ];
        let out = net.run("forest_sum", &Convergecast::new(), inputs).unwrap();
        let got: Vec<u64> = out.outputs.iter().map(|s| s.0).collect();
        assert_eq!(got, [7, 6, 4, 56, 48, 32]);
    }

    #[test]
    fn subtree_sums_match_sequential() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let g = generators::erdos_renyi_connected(50, 0.08, &mut rng).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let outs = bfs(&g, &mut net);
        let a: Vec<u64> = (0..50).map(|_| rng.gen_range(0..100)).collect();
        let b: Vec<u64> = (0..50).map(|_| rng.gen_range(0..1 << 40)).collect();
        let inputs: Vec<(Tree, (u64, u64))> = outs
            .iter()
            .enumerate()
            .map(|(v, o)| (o.tree(), (a[v], b[v])))
            .collect();
        let out = net.run("ss", &Convergecast::new(), inputs).unwrap();
        // One message per tree edge, each charged like two `u64`s.
        assert_eq!(out.metrics.messages, 49);
        // Sequential oracle over the same tree, component by component.
        let parent_ids: Vec<Option<NodeId>> = outs
            .iter()
            .enumerate()
            .map(|(v, o)| {
                o.parent
                    .map(|p| g.neighbors(NodeId::from_index(v))[p.index()].neighbor)
            })
            .collect();
        let rt = trees::RootedTree::from_parents(NodeId::new(0), &parent_ids).unwrap();
        let (got_a, got_b): (Vec<u64>, Vec<u64>) = out.outputs.into_iter().unzip();
        assert_eq!(got_a, trees::subtree::subtree_sums(&rt, &a));
        assert_eq!(got_b, trees::subtree::subtree_sums(&rt, &b));
    }
}
