//! A Matula-style `(2+ε)` minimum-cut estimator — the sequential stand-in
//! for the approximation quality of Ghaffari–Kuhn's `(2+ε)` algorithm,
//! which experiment E4 sets beside the paper's `(1+ε)` ladder.
//!
//! The Nagamochi–Ibaraki scan (maximum-adjacency order) partitions edges
//! into forests `F₁, F₂, …`; the union of the first `k` forests preserves
//! every cut of value `< k`. Matula's algorithm alternates "contract the
//! edges beyond the first `k` forests" with "re-read the minimum degree"
//! to certify a value `λ̂` with `λ ≤ λ̂ ≤ (2+ε)·λ`.

use crate::MinCutError;
use graphs::{Weight, WeightedGraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Edges that are **safe to contract** at threshold `k`: edge `e = (v, u)`
/// (scanned when `u` had accumulated connectivity `r`) has a unit of weight
/// beyond the first `k` forests iff `r + w > k`, which by Nagamochi–Ibaraki
/// certifies that `u` and `v` are `k`-edge-connected. Contracting them
/// preserves every cut of value `< k`.
fn ni_contractible_mask(g: &WeightedGraph, k: Weight) -> Vec<bool> {
    let n = g.node_count();
    let mut contract = vec![false; g.edge_count()];
    if n == 0 {
        return contract;
    }
    let mut scanned = vec![false; n];
    let mut r: Vec<Weight> = vec![0; n];
    let mut heap: BinaryHeap<(Weight, Reverse<usize>)> = BinaryHeap::new();
    for start in 0..n {
        if scanned[start] {
            continue;
        }
        heap.push((0, Reverse(start)));
        while let Some((key, Reverse(v))) = heap.pop() {
            if scanned[v] || key != r[v] {
                continue;
            }
            scanned[v] = true;
            for a in g.neighbors(graphs::NodeId::from_index(v)) {
                let u = a.neighbor.index();
                if scanned[u] {
                    continue;
                }
                if r[u] + a.weight > k {
                    contract[a.edge.index()] = true;
                }
                r[u] += a.weight;
                heap.push((r[u], Reverse(u)));
            }
        }
    }
    contract
}

/// Matula-style `(2+ε)` estimator: returns `λ̂` with `λ ≤ λ̂ ≤ (2+ε)·λ`.
///
/// Invariants: contraction never decreases the minimum cut, so the smallest
/// minimum weighted degree seen across the contraction sequence is always
/// `≥ λ`; and contraction only happens on non-certificate edges at threshold
/// `k = ⌈λ̂/(2+ε)⌉`, which preserves all cuts `< k` — if the true minimum
/// cut is ever lost, `λ ≥ k` already certified `λ̂ ≤ (2+ε)λ`.
///
/// # Errors
///
/// [`MinCutError::TooSmall`] / [`MinCutError::Disconnected`] as usual.
pub fn matula_estimate(g: &WeightedGraph, eps: f64) -> Result<Weight, MinCutError> {
    if g.node_count() < 2 {
        return Err(MinCutError::TooSmall {
            nodes: g.node_count(),
        });
    }
    if !graphs::traversal::is_connected(g) {
        return Err(MinCutError::Disconnected);
    }
    if eps <= 0.0 {
        return Err(MinCutError::InvalidConfig {
            reason: "eps must be positive".to_string(),
        });
    }
    let mut h = g.clone();
    let mut best: Weight = h
        .min_weighted_degree()
        .expect("non-empty graph has a degree");
    loop {
        // Min degree is only a (real) cut while ≥ 2 super-nodes remain.
        if h.node_count() >= 2 {
            best = best.min(h.min_weighted_degree().unwrap_or(best));
        }
        if h.node_count() <= 2 {
            break;
        }
        let k = ((best as f64) / (2.0 + eps)).ceil().max(1.0) as Weight;
        // Contract every edge with weight beyond the first k forests: its
        // endpoints are k-connected, so cuts < k survive; every cut of the
        // contracted graph is a real cut of `g`, so `best` stays ≥ λ.
        let contract = ni_contractible_mask(&h, k);
        if !contract.iter().any(|&b| b) {
            // Stall: every unit of weight fits in the first k forests, so
            // the total weight is ≤ k(n−1) and the minimum degree is < 2k —
            // `best` is already ≤ (2+ε)λ except possibly for constant-size
            // values; an exact finish on the (tiny) remainder settles it.
            break;
        }
        let mut dsu = trees::DisjointSets::new(h.node_count());
        for (e, u, v, _) in h.edge_tuples() {
            if contract[e.index()] {
                dsu.union(u.index(), v.index());
            }
        }
        let labels: Vec<u32> = (0..h.node_count()).map(|v| dsu.find(v) as u32).collect();
        let c = graphs::ops::contract_by_labels(&h, &labels).expect("labels are well-formed");
        if c.graph.node_count() == h.node_count() {
            break; // no progress
        }
        h = c.graph;
        if h.node_count() >= 2 && h.edge_count() == 0 {
            break;
        }
    }
    // Exact finish on a constant-size remainder keeps the (2+ε) bound tight
    // in the small-λ corner cases (standard implementation practice).
    if (2..=32).contains(&h.node_count()) && graphs::traversal::is_connected(&h) {
        if let Ok(exact) = crate::seq::stoer_wagner::stoer_wagner(&h) {
            best = best.min(exact.value);
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::stoer_wagner::stoer_wagner;
    use graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matula_is_within_factor() {
        let mut rng = StdRng::seed_from_u64(23);
        for n in [8usize, 16, 32, 64] {
            let base = generators::erdos_renyi_connected(n, 0.25, &mut rng).unwrap();
            let g = generators::randomize_weights(&base, 1, 6, &mut rng).unwrap();
            let lambda = stoer_wagner(&g).unwrap().value;
            for eps in [0.1, 0.5, 1.0] {
                let est = matula_estimate(&g, eps).unwrap();
                assert!(est >= lambda, "estimate below λ");
                let bound = ((2.0 + eps) * lambda as f64).ceil() as u64;
                assert!(
                    est <= bound,
                    "n = {n}, eps = {eps}: est {est} > (2+ε)λ = {bound}"
                );
            }
        }
    }

    #[test]
    fn matula_on_planted_cut() {
        let p = generators::clique_pair(10, 3).unwrap();
        let est = matula_estimate(&p.graph, 0.5).unwrap();
        assert!((3..=8).contains(&est), "est = {est}");
    }

    #[test]
    fn guards() {
        let tiny = graphs::WeightedGraph::from_edges(1, []).unwrap();
        assert!(matula_estimate(&tiny, 0.5).is_err());
        let g = generators::cycle(4).unwrap();
        assert!(matula_estimate(&g, 0.0).is_err());
    }
}
