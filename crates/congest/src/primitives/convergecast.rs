//! Convergecast: aggregate one value per node toward the root(s) of a
//! tree/forest under a commutative, associative combine.
//!
//! Rounds: `height + 1`. Works on forests — every root gets the aggregate of
//! its own tree, so running one convergecast per fragment in parallel is the
//! same single phase.

use crate::algorithm::{Algorithm, FinishResult, Outbox, Step};
use crate::message::{value_bits, Message, TAG_BITS};
use crate::node::{NodeCtx, Port, TreeInfo};
use std::marker::PhantomData;

/// A value that can be aggregated up a tree.
pub trait Aggregate: Clone + std::fmt::Debug {
    /// Commutative, associative combination.
    fn combine(&self, other: &Self) -> Self;
    /// Transmission size in bits.
    fn bits(&self) -> usize;
}

/// Sum of `u64` values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SumU64(pub u64);

impl Aggregate for SumU64 {
    fn combine(&self, other: &Self) -> Self {
        SumU64(self.0 + other.0)
    }
    fn bits(&self) -> usize {
        value_bits(self.0)
    }
}

/// Minimum of `u64` values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MinU64(pub u64);

impl Aggregate for MinU64 {
    fn combine(&self, other: &Self) -> Self {
        MinU64(self.0.min(other.0))
    }
    fn bits(&self) -> usize {
        value_bits(self.0)
    }
}

/// Maximum of `u64` values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MaxU64(pub u64);

impl Aggregate for MaxU64 {
    fn combine(&self, other: &Self) -> Self {
        MaxU64(self.0.max(other.0))
    }
    fn bits(&self) -> usize {
        value_bits(self.0)
    }
}

/// Pairs aggregate componentwise — handy for (value, argmin-id) reductions.
impl<A: Aggregate, B: Aggregate> Aggregate for (A, B) {
    fn combine(&self, other: &Self) -> Self {
        (self.0.combine(&other.0), self.1.combine(&other.1))
    }
    fn bits(&self) -> usize {
        self.0.bits() + self.1.bits()
    }
}

/// Minimum of `(u64, u64)` pairs under lexicographic order — the standard
/// "(value, tie-break id)" argmin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MinPair(pub u64, pub u64);

impl Aggregate for MinPair {
    fn combine(&self, other: &Self) -> Self {
        if (self.0, self.1) <= (other.0, other.1) {
            *self
        } else {
            *other
        }
    }
    fn bits(&self) -> usize {
        value_bits(self.0) + value_bits(self.1)
    }
}

/// Message wrapper for an aggregate.
#[derive(Clone, Debug)]
pub struct AggMsg<T>(pub T);

impl<T: Aggregate> Message for AggMsg<T> {
    fn bit_len(&self) -> usize {
        TAG_BITS + self.0.bits()
    }
}

/// The convergecast phase. Input per node: `(TreeInfo, T)`; output: `Some`
/// of the tree-wide aggregate at each root, `None` elsewhere.
#[derive(Clone, Debug, Default)]
pub struct Convergecast<T> {
    _marker: PhantomData<fn() -> T>,
}

impl<T> Convergecast<T> {
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
    tree: TreeInfo,
    acc: T,
    waiting: usize,
    sent: bool,
}

impl<T: Aggregate> Algorithm for Convergecast<T> {
    type Input = (TreeInfo, T);
    type State = CcState<T>;
    type Msg = AggMsg<T>;
    type Output = Option<T>;

    fn boot(
        &self,
        _ctx: &NodeCtx<'_>,
        (tree, value): (TreeInfo, T),
    ) -> (CcState<T>, Outbox<AggMsg<T>>) {
        let waiting = tree.children.len();
        let state = CcState {
            tree,
            acc: value,
            waiting,
            sent: false,
        };
        (state, Outbox::new())
    }

    fn round(
        &self,
        s: &mut CcState<T>,
        _ctx: &NodeCtx<'_>,
        inbox: &[(Port, AggMsg<T>)],
    ) -> Step<AggMsg<T>> {
        for (_, AggMsg(v)) in inbox {
            s.acc = s.acc.combine(v);
            s.waiting -= 1;
        }
        if s.waiting == 0 && !s.sent {
            s.sent = true;
            match s.tree.parent {
                Some(p) => {
                    let mut o = Outbox::new();
                    o.send(p, AggMsg(s.acc.clone()));
                    Step::Halt(o)
                }
                None => Step::halt(),
            }
        } else {
            Step::idle()
        }
    }

    fn finish(&self, s: CcState<T>, _ctx: &NodeCtx<'_>) -> FinishResult<Option<T>> {
        Ok(s.tree.parent.is_none().then_some(s.acc))
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
    fn sums_node_ids_on_grid() {
        let g = generators::grid2d(4, 5).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let trees = bfs_trees(&g, &mut net);
        let inputs: Vec<(TreeInfo, SumU64)> = trees
            .into_iter()
            .enumerate()
            .map(|(v, t)| (t, SumU64(v as u64)))
            .collect();
        let out = net.run("sum", &Convergecast::new(), inputs).unwrap();
        let root_val = out.outputs[0].expect("node 0 is the BFS root");
        assert_eq!(root_val.0, (0..20).sum::<u64>());
        assert!(out.outputs[1..].iter().all(|o| o.is_none()));
        // Rounds bounded by height + slack.
        assert!(out.metrics.rounds <= 4 + 5 + 2);
    }

    #[test]
    fn min_and_max() {
        let g = generators::cycle(9).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let trees = bfs_trees(&g, &mut net);
        let inputs: Vec<(TreeInfo, (MinU64, MaxU64))> = trees
            .into_iter()
            .enumerate()
            .map(|(v, t)| (t, (MinU64((v as u64 + 3) * 7 % 11), MaxU64(v as u64))))
            .collect();
        let expect_min = (0..9u64).map(|v| (v + 3) * 7 % 11).min().unwrap();
        let out = net.run("minmax", &Convergecast::new(), inputs).unwrap();
        let (mn, mx) = out.outputs[0].expect("root output");
        assert_eq!(mn.0, expect_min);
        assert_eq!(mx.0, 8);
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
        let t = |parent: Option<u32>, children: Vec<u32>, depth: u32| TreeInfo {
            parent: parent.map(Port),
            children: children.into_iter().map(Port).collect(),
            depth,
        };
        let inputs: Vec<(TreeInfo, SumU64)> = vec![
            (t(None, vec![0], 0), SumU64(1)),
            (t(Some(0), vec![1], 1), SumU64(2)),
            (t(Some(0), vec![], 2), SumU64(4)),
            (t(None, vec![1], 0), SumU64(8)),
            (t(Some(0), vec![1], 1), SumU64(16)),
            (t(Some(0), vec![], 2), SumU64(32)),
        ];
        let out = net.run("forest_sum", &Convergecast::new(), inputs).unwrap();
        assert_eq!(out.outputs[0], Some(SumU64(7)));
        assert_eq!(out.outputs[3], Some(SumU64(56)));
        for v in [1, 2, 4, 5] {
            assert_eq!(out.outputs[v], None);
        }
    }
}
