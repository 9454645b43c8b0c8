//! Instances with a planted (known or certified) minimum cut.
//!
//! These drive the correctness experiments (E1), the `poly(λ)` scaling
//! experiment (E3), and the approximation-quality experiment (E4): we need
//! graphs where the minimum cut is known by construction or cheaply
//! verifiable.

use super::{invalid, GeneratorError};
use crate::{Weight, WeightedGraph};
use rand::Rng;

/// A generated instance with its planted cut.
#[derive(Clone, Debug)]
pub struct PlantedCut {
    /// The instance.
    pub graph: WeightedGraph,
    /// Side bitmap of the planted cut (`true` = left community).
    pub side: Vec<bool>,
    /// Value of the planted cut. For [`clique_pair`] this is **guaranteed**
    /// to be the minimum cut; for [`community_pair`] it is the minimum with
    /// overwhelming probability and should be verified by an oracle in
    /// tests (the experiment harness does).
    pub planted_value: Weight,
}

/// Two cliques `K_h` (unit weights) joined by a matching of `lambda` unit
/// edges. For `h ≥ lambda + 2` the minimum cut is **exactly** `lambda`:
/// any cut splitting a clique pays at least `h − 1 > lambda`, so the planted
/// separation is optimal.
///
/// # Errors
///
/// Fails if `h < lambda + 2` (the guarantee would break), `lambda == 0`,
/// or `lambda > h`.
pub fn clique_pair(h: usize, lambda: usize) -> Result<PlantedCut, GeneratorError> {
    if lambda == 0 {
        return Err(invalid("lambda must be ≥ 1 (graph must be connected)"));
    }
    if h < lambda + 2 {
        return Err(invalid(format!(
            "need h ≥ lambda + 2 for exactness (h = {h}, lambda = {lambda})"
        )));
    }
    if lambda > h {
        return Err(invalid("lambda cannot exceed h (matching)"));
    }
    let n = 2 * h;
    let mut edges = Vec::new();
    for u in 0..h {
        for v in (u + 1)..h {
            edges.push((u as u32, v as u32, 1));
            edges.push(((h + u) as u32, (h + v) as u32, 1));
        }
    }
    for i in 0..lambda {
        edges.push((i as u32, (h + i) as u32, 1));
    }
    let graph = WeightedGraph::from_edges(n, edges)?;
    let mut side = vec![false; n];
    for s in side.iter_mut().take(h) {
        *s = true;
    }
    Ok(PlantedCut {
        graph,
        side,
        planted_value: lambda as Weight,
    })
}

/// Two random `d`-regular communities of `half` nodes each, joined by
/// `lambda` unit cross edges between random distinct endpoint pairs.
///
/// For `d ≥ lambda + 2` and `half ≫ d` the planted cut is the minimum with
/// high probability (random regular graphs are `d`-edge-connected whp);
/// the experiment harness certifies instances with a sequential oracle
/// before use.
///
/// # Errors
///
/// Fails on degenerate parameters (see [`super::random_regular`]) or when
/// `lambda > half`.
pub fn community_pair<R: Rng>(
    half: usize,
    d: usize,
    lambda: usize,
    rng: &mut R,
) -> Result<PlantedCut, GeneratorError> {
    if lambda == 0 {
        return Err(invalid("lambda must be ≥ 1"));
    }
    if lambda > half {
        return Err(invalid("lambda cannot exceed community size"));
    }
    let a = super::random_regular(half, d, rng)?;
    let b = super::random_regular(half, d, rng)?;
    let n = 2 * half;
    let mut edges: Vec<(u32, u32, Weight)> = Vec::new();
    for (_, u, v, w) in a.edge_tuples() {
        edges.push((u.raw(), v.raw(), w));
    }
    for (_, u, v, w) in b.edge_tuples() {
        edges.push((u.raw() + half as u32, v.raw() + half as u32, w));
    }
    // Cross matching on distinct endpoints.
    let mut left: Vec<u32> = (0..half as u32).collect();
    let mut right: Vec<u32> = (half as u32..n as u32).collect();
    use rand::seq::SliceRandom;
    left.shuffle(rng);
    right.shuffle(rng);
    for i in 0..lambda {
        edges.push((left[i], right[i], 1));
    }
    let graph = WeightedGraph::from_edges(n, edges)?;
    let mut side = vec![false; n];
    for s in side.iter_mut().take(half) {
        *s = true;
    }
    Ok(PlantedCut {
        graph,
        side,
        planted_value: lambda as Weight,
    })
}

/// Barbell: two cliques `K_h` joined by a path of `bridge` intermediate
/// nodes (unit weights). The minimum cut is 1 (any bridge edge) and the
/// diameter is `bridge + 3` for `h ≥ 2`. Useful for instances with large
/// diameter and tiny min cut.
///
/// # Errors
///
/// Fails if `h < 3`.
pub fn barbell(h: usize, bridge: usize) -> Result<PlantedCut, GeneratorError> {
    if h < 3 {
        return Err(invalid("barbell requires clique size ≥ 3"));
    }
    let n = 2 * h + bridge;
    let mut edges = Vec::new();
    for u in 0..h {
        for v in (u + 1)..h {
            edges.push((u as u32, v as u32, 1));
            edges.push(((h + bridge + u) as u32, (h + bridge + v) as u32, 1));
        }
    }
    // Path: clique A node 0 — bridge nodes — clique B node (h+bridge).
    let mut prev = 0u32;
    for i in 0..bridge {
        let b = (h + i) as u32;
        edges.push((prev, b, 1));
        prev = b;
    }
    edges.push((prev, (h + bridge) as u32, 1));
    let graph = WeightedGraph::from_edges(n, edges)?;
    let mut side = vec![false; n];
    for s in side.iter_mut().take(h) {
        *s = true;
    }
    Ok(PlantedCut {
        graph,
        side,
        planted_value: 1,
    })
}

/// Lollipop: a clique `K_h` with a path of `tail` nodes hanging off node 0.
/// Minimum cut 1 (tail edges), diameter `tail + 1`.
///
/// # Errors
///
/// Fails if `h < 3` or `tail == 0`.
pub fn lollipop(h: usize, tail: usize) -> Result<PlantedCut, GeneratorError> {
    if h < 3 {
        return Err(invalid("lollipop requires clique size ≥ 3"));
    }
    if tail == 0 {
        return Err(invalid("lollipop requires tail ≥ 1"));
    }
    let n = h + tail;
    let mut edges = Vec::new();
    for u in 0..h {
        for v in (u + 1)..h {
            edges.push((u as u32, v as u32, 1));
        }
    }
    let mut prev = 0u32;
    for i in 0..tail {
        let t = (h + i) as u32;
        edges.push((prev, t, 1));
        prev = t;
    }
    let graph = WeightedGraph::from_edges(n, edges)?;
    // Planted cut: the last tail node alone.
    let mut side = vec![false; n];
    side[n - 1] = true;
    Ok(PlantedCut {
        graph,
        side,
        planted_value: 1,
    })
}

impl PlantedCut {
    /// Sanity check: re-evaluates the planted side and confirms it matches
    /// `planted_value`. (It being *minimum* is checked by oracles in tests.)
    pub fn verify_planted_value(&self) -> bool {
        crate::cut::cut_of_side(&self.graph, &self.side) == self.planted_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::assert_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clique_pair_planted_value() {
        let p = clique_pair(6, 3).unwrap();
        assert_eq!(p.graph.node_count(), 12);
        assert!(p.verify_planted_value());
        assert_connected(&p.graph);
        // Exhaustive check that 3 is the true minimum on this small instance.
        let g = &p.graph;
        let n = g.node_count();
        let mut best = u64::MAX;
        for mask in 1..(1u32 << n) - 1 {
            let side: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            best = best.min(crate::cut::cut_of_side(g, &side));
        }
        assert_eq!(best, 3);
    }

    #[test]
    fn clique_pair_parameter_guards() {
        assert!(clique_pair(4, 3).is_err()); // h < lambda + 2
        assert!(clique_pair(5, 0).is_err());
    }

    #[test]
    fn community_pair_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = community_pair(30, 6, 3, &mut rng).unwrap();
        assert_eq!(p.graph.node_count(), 60);
        assert!(p.verify_planted_value());
        assert_connected(&p.graph);
        assert_eq!(p.side.iter().filter(|&&b| b).count(), 30);
    }

    #[test]
    fn barbell_shape() {
        let p = barbell(5, 3).unwrap();
        assert_eq!(p.graph.node_count(), 13);
        assert!(p.verify_planted_value());
        assert_connected(&p.graph);
        // Worst pair: a non-endpoint clique-A node to a non-endpoint
        // clique-B node: 1 + (bridge + 1) + 1 hops.
        assert_eq!(crate::traversal::exact_diameter(&p.graph), 3 + 3);
    }

    #[test]
    fn lollipop_shape() {
        let p = lollipop(4, 5).unwrap();
        assert_eq!(p.graph.node_count(), 9);
        assert!(p.verify_planted_value());
        assert_connected(&p.graph);
    }
}
