//! Pipelined grouped sums: every node holds `(key, value)` pairs; the root
//! ends up with the per-key totals of its tree. Streams travel in sorted key
//! order and are merge-summed on the way up, so `k` distinct keys cost
//! `O(k + height)` rounds — this is exactly how the paper counts, per
//! merging node `v`, the `⟨v⟩` messages of Step 5 "by pipelining".
//!
//! The stream protocol itself (buffers, readiness, `End` accounting, the
//! per-round emission budget) lives in [`crate::primitives::merge`]; this
//! module only supplies the sum monoid and the root-side output handling.

use crate::algorithm::{Algorithm, FinishResult, Outbox, Step};
use crate::message::{value_bits, Message, TAG_BITS};
use crate::node::{NodeCtx, Port, Tree};
use crate::primitives::merge::{KeyedMonoid, KeyedStreamReduce};
use crate::primitives::stream::StreamMsg;
use std::marker::PhantomData;

/// One `(key, partial sum)` pair in flight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyedSum {
    /// Group key. Full `u64` range: wide enough for packed id pairs
    /// (`lo·k + hi` for `k` ids), which cost `2⌈log₂ k⌉` bits on the
    /// wire.
    pub key: u64,
    /// Partial sum for that key.
    pub value: u64,
}

impl Message for KeyedSum {
    fn bit_len(&self) -> usize {
        TAG_BITS + value_bits(self.key) + value_bits(self.value)
    }
}

/// The sum monoid over [`KeyedSum`]: equal keys add their values
/// (associative and commutative, as [`KeyedMonoid`] requires).
#[derive(Clone, Debug, Default)]
pub struct SumMonoid;

impl KeyedMonoid for SumMonoid {
    type Item = KeyedSum;
    type Key = u64;

    fn key(item: &KeyedSum) -> u64 {
        item.key
    }

    fn combine(a: KeyedSum, b: KeyedSum) -> KeyedSum {
        KeyedSum {
            key: a.key,
            value: a.value + b.value,
        }
    }
}

/// The grouped-sum phase. Input per node: `(Tree, Vec<(key, value)>)`
/// (any order, duplicates allowed); output: `Some(sorted per-key totals)` at
/// each root, `None` elsewhere.
#[derive(Clone, Debug, Default)]
pub struct GroupedSum<'a> {
    _marker: PhantomData<fn() -> &'a ()>,
}

impl GroupedSum<'_> {
    /// Creates the phase object.
    pub fn new() -> Self {
        GroupedSum {
            _marker: PhantomData,
        }
    }
}

/// Node state for [`GroupedSum`]: the shared reducer core plus the root's
/// accumulated output.
#[derive(Debug)]
pub struct GsState {
    core: KeyedStreamReduce<SumMonoid>,
    is_root: bool,
    /// Root only: accumulated output.
    out: Vec<(u64, u64)>,
}

impl<'a> Algorithm for GroupedSum<'a> {
    type Input = (Tree<'a>, Vec<(u64, u64)>);
    type State = GsState;
    type Msg = StreamMsg<KeyedSum>;
    type Output = Option<Vec<(u64, u64)>>;

    fn boot(&self, ctx: &NodeCtx<'_>, (tree, items): Self::Input) -> (GsState, Outbox<Self::Msg>) {
        let own = items
            .into_iter()
            .map(|(key, value)| KeyedSum { key, value })
            .collect();
        (
            GsState {
                is_root: tree.is_root(),
                core: KeyedStreamReduce::new(ctx, tree, own),
                out: Vec::new(),
            },
            Outbox::new(),
        )
    }

    fn round(
        &self,
        s: &mut GsState,
        ctx: &NodeCtx<'_>,
        inbox: &[(Port, StreamMsg<KeyedSum>)],
    ) -> Step<Self::Msg> {
        s.core.absorb(inbox);
        let out = &mut s.out;
        s.core
            .relay_round(ctx.bandwidth_bits, |_| true, |p| out.push((p.key, p.value)))
    }

    fn finish(&self, s: GsState, _ctx: &NodeCtx<'_>) -> FinishResult<Self::Output> {
        Ok(s.is_root.then_some(s.out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::engine::Network;
    use crate::primitives::leader_bfs::{LeaderBfs, LeaderBfsOutput};
    use graphs::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bfs(g: &graphs::WeightedGraph, net: &mut Network<'_>) -> Vec<LeaderBfsOutput> {
        net.run("leader_bfs", &LeaderBfs::new(), vec![(); g.node_count()])
            .unwrap()
            .outputs
    }

    fn naive_grouped(inputs: &[Vec<(u64, u64)>]) -> Vec<(u64, u64)> {
        let mut m = std::collections::BTreeMap::new();
        for l in inputs {
            for &(k, v) in l {
                *m.entry(k).or_insert(0u64) += v;
            }
        }
        m.into_iter().collect()
    }

    #[test]
    fn grouped_sums_match_naive_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [3usize, 10, 40] {
            let g = generators::erdos_renyi_connected(n, 0.2, &mut rng).unwrap();
            let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
            let outs = bfs(&g, &mut net);
            let lists: Vec<Vec<(u64, u64)>> = (0..n)
                .map(|_| {
                    (0..rng.gen_range(0..6))
                        .map(|_| (rng.gen_range(0..8u64), rng.gen_range(1..100u64)))
                        .collect()
                })
                .collect();
            let want = naive_grouped(&lists);
            let inputs: Vec<(Tree, Vec<(u64, u64)>)> = outs
                .iter()
                .map(|o| o.tree())
                .zip(lists.iter().cloned())
                .collect();
            let out = net.run("grouped", &GroupedSum::new(), inputs).unwrap();
            let got = out.outputs[0].clone().expect("root output");
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn pipelining_bound_with_many_keys() {
        // Deep path, many keys at the far end: rounds ≈ k + depth.
        let n = 25;
        let k = 30u64;
        let g = generators::path(n).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let outs = bfs(&g, &mut net);
        let inputs: Vec<(Tree, Vec<(u64, u64)>)> = outs
            .iter()
            .enumerate()
            .map(|(v, o)| {
                let items = if v == n - 1 {
                    (0..k).map(|i| (i, 1u64)).collect()
                } else {
                    vec![]
                };
                (o.tree(), items)
            })
            .collect();
        let out = net.run("grouped_path", &GroupedSum::new(), inputs).unwrap();
        assert_eq!(out.outputs[0].as_ref().unwrap().len(), k as usize);
        assert!(
            out.metrics.rounds <= (n as u64 - 1) + k + 4,
            "rounds = {}",
            out.metrics.rounds
        );
    }

    #[test]
    fn overlapping_keys_merge_along_the_way() {
        // Star: every leaf contributes to the same two keys.
        let n = 10;
        let g = generators::star(n).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let outs = bfs(&g, &mut net);
        let inputs: Vec<(Tree, Vec<(u64, u64)>)> = outs
            .iter()
            .enumerate()
            .map(|(v, o)| (o.tree(), vec![(1, v as u64), (2, 1u64)]))
            .collect();
        let out = net.run("grouped_star", &GroupedSum::new(), inputs).unwrap();
        let got = out.outputs[0].clone().unwrap();
        assert_eq!(got, vec![(1, (0..10).sum::<u64>()), (2, 10)]);
    }

    #[test]
    fn empty_everywhere() {
        let g = generators::cycle(5).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let outs = bfs(&g, &mut net);
        let inputs: Vec<(Tree, Vec<(u64, u64)>)> =
            outs.iter().map(|o| (o.tree(), vec![])).collect();
        let out = net
            .run("grouped_empty", &GroupedSum::new(), inputs)
            .unwrap();
        assert_eq!(out.outputs[0], Some(vec![]));
    }

    #[test]
    fn keys_beyond_u32_survive_the_trip() {
        // Keys above 2³² — the whole point of the u64 widening.
        let g = generators::star(4).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let outs = bfs(&g, &mut net);
        let big = (1u64 << 40) + 17;
        let inputs: Vec<(Tree, Vec<(u64, u64)>)> = outs
            .iter()
            .map(|o| (o.tree(), vec![(big, 3), (1, 1)]))
            .collect();
        let out = net.run("grouped_u64", &GroupedSum::new(), inputs).unwrap();
        assert_eq!(out.outputs[0], Some(vec![(1, 4), (big, 12)]));
    }
}
