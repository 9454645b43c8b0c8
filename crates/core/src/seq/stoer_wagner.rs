//! Stoer–Wagner global minimum cut: exact, deterministic,
//! `O(n·(m + n log n))` with a lazy binary heap.
//!
//! This is the primary verification oracle of the workspace.

use crate::MinCutError;
use graphs::{CutResult, Weight, WeightedGraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// Computes the exact minimum cut with Stoer–Wagner.
///
/// # Errors
///
/// Returns [`MinCutError::TooSmall`] for graphs with fewer than two nodes
/// and [`MinCutError::Disconnected`] for disconnected graphs.
pub fn stoer_wagner(g: &WeightedGraph) -> Result<CutResult, MinCutError> {
    let n = g.node_count();
    if n < 2 {
        return Err(MinCutError::TooSmall { nodes: n });
    }
    if !graphs::traversal::is_connected(g) {
        return Err(MinCutError::Disconnected);
    }

    // Super-node adjacency as hash maps; `members` tracks original nodes.
    let mut adj: Vec<HashMap<u32, Weight>> = vec![HashMap::new(); n];
    for (_, u, v, w) in g.edge_tuples() {
        *adj[u.index()].entry(v.raw()).or_insert(0) += w;
        *adj[v.index()].entry(u.raw()).or_insert(0) += w;
    }
    let mut members: Vec<Vec<u32>> = (0..n as u32).map(|v| vec![v]).collect();
    let mut alive: Vec<bool> = vec![true; n];
    let mut alive_count = n;

    let mut best_value = Weight::MAX;
    let mut best_side: Vec<u32> = Vec::new();

    while alive_count > 1 {
        // Minimum cut phase: maximum-adjacency order from the first alive
        // node, tracking connection weights with a lazy heap.
        let start = alive.iter().position(|&a| a).expect("some node alive");
        let mut in_a: Vec<bool> = vec![false; n];
        let mut conn: Vec<Weight> = vec![0; n];
        let mut order: Vec<usize> = Vec::with_capacity(alive_count);
        let mut heap: BinaryHeap<(Weight, Reverse<usize>)> = BinaryHeap::new();
        in_a[start] = true;
        order.push(start);
        for (&u, &w) in &adj[start] {
            conn[u as usize] += w;
            heap.push((conn[u as usize], Reverse(u as usize)));
        }
        while order.len() < alive_count {
            let next = loop {
                let (w, Reverse(v)) = heap.pop().expect("connected graph has a next node");
                if !in_a[v] && alive[v] && conn[v] == w {
                    break v;
                }
            };
            in_a[next] = true;
            order.push(next);
            for (&u, &w) in &adj[next] {
                let u = u as usize;
                if !in_a[u] && alive[u] {
                    conn[u] += w;
                    heap.push((conn[u], Reverse(u)));
                }
            }
        }
        let t = *order.last().expect("order non-empty");
        let s = order[order.len() - 2];
        // Cut of the phase: members of t versus the rest.
        let phase_value = conn[t];
        if phase_value < best_value {
            best_value = phase_value;
            best_side = members[t].clone();
        }
        // Merge t into s.
        let t_adj: Vec<(u32, Weight)> = adj[t].iter().map(|(&u, &w)| (u, w)).collect();
        for (u, w) in t_adj {
            let u = u as usize;
            if u == s {
                continue;
            }
            *adj[s].entry(u as u32).or_insert(0) += w;
            let e = adj[u].entry(s as u32).or_insert(0);
            *e += w;
            adj[u].remove(&(t as u32));
        }
        adj[s].remove(&(t as u32));
        adj[t].clear();
        let moved = std::mem::take(&mut members[t]);
        members[s].extend(moved);
        alive[t] = false;
        alive_count -= 1;
    }

    let mut side = vec![false; n];
    for v in best_side {
        side[v as usize] = true;
    }
    debug_assert_eq!(graphs::cut::cut_of_side(g, &side), best_value);
    Ok(CutResult {
        side,
        value: best_value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use graphs::NodeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn known_instances() {
        // Cycle: min cut 2.
        let c = generators::cycle(7).unwrap();
        assert_eq!(stoer_wagner(&c).unwrap().value, 2);
        // Path: min cut 1.
        let p = generators::path(9).unwrap();
        assert_eq!(stoer_wagner(&p).unwrap().value, 1);
        // Complete K5 unit: min cut 4 (singleton).
        let k = generators::complete(5, 1).unwrap();
        assert_eq!(stoer_wagner(&k).unwrap().value, 4);
        // Hypercube dim 4: min cut 4.
        let h = generators::hypercube(4).unwrap();
        assert_eq!(stoer_wagner(&h).unwrap().value, 4);
        // Torus 4x5: 4-regular, min cut 4 (singleton).
        let t = generators::torus2d(4, 5).unwrap();
        assert_eq!(stoer_wagner(&t).unwrap().value, 4);
    }

    #[test]
    fn planted_instances() {
        let p = generators::clique_pair(7, 4).unwrap();
        let r = stoer_wagner(&p.graph).unwrap();
        assert_eq!(r.value, 4);
        assert!(r.is_proper());
        let b = generators::barbell(5, 2).unwrap();
        assert_eq!(stoer_wagner(&b.graph).unwrap().value, 1);
    }

    #[test]
    fn weighted_instance() {
        // Heavy triangle with one light vertex.
        let g =
            graphs::WeightedGraph::from_edges(4, [(0, 1, 10), (1, 2, 10), (0, 2, 10), (2, 3, 3)])
                .unwrap();
        let r = stoer_wagner(&g).unwrap();
        assert_eq!(r.value, 3);
        assert_eq!(r.smaller_side(), vec![NodeId::new(3)]);
    }

    #[test]
    fn side_is_consistent_with_value() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [4usize, 8, 20, 40] {
            let base = generators::erdos_renyi_connected(n, 0.3, &mut rng).unwrap();
            let g = generators::randomize_weights(&base, 1, 9, &mut rng).unwrap();
            let r = stoer_wagner(&g).unwrap();
            assert_eq!(graphs::cut::cut_of_side(&g, &r.side), r.value);
            assert!(r.is_proper());
        }
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let one = graphs::WeightedGraph::from_edges(1, []).unwrap();
        assert!(matches!(
            stoer_wagner(&one),
            Err(MinCutError::TooSmall { nodes: 1 })
        ));
        let disc = graphs::WeightedGraph::from_edges(4, [(0, 1, 1), (2, 3, 1)]).unwrap();
        assert!(matches!(
            stoer_wagner(&disc),
            Err(MinCutError::Disconnected)
        ));
    }

    #[test]
    fn two_node_graph() {
        let g = graphs::WeightedGraph::from_edges(2, [(0, 1, 7)]).unwrap();
        let r = stoer_wagner(&g).unwrap();
        assert_eq!(r.value, 7);
        assert!(r.is_proper());
    }
}
