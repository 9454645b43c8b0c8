//! Cut evaluation: given one side of a bipartition, compute the total weight
//! of crossing edges.

use crate::{NodeId, Weight, WeightedGraph};

/// A cut: one side of the bipartition plus its value.
///
/// `side[v] == true` means node `v` is in the set `X`; the value is
/// `C(X) = Σ_{(x,y)∈E, x∈X, y∉X} w(x, y)` as defined in the paper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CutResult {
    /// Membership bitmap of the side `X`.
    pub side: Vec<bool>,
    /// The cut value `C(X)`.
    pub value: Weight,
}

impl CutResult {
    /// Number of nodes in `X`.
    pub fn side_size(&self) -> usize {
        self.side.iter().filter(|&&b| b).count()
    }

    /// Returns `true` if the cut is proper: both sides are non-empty.
    pub fn is_proper(&self) -> bool {
        let k = self.side_size();
        k > 0 && k < self.side.len()
    }

    /// Returns the side containing fewer nodes as a list of node ids
    /// (ties go to the `true` side).
    pub fn smaller_side(&self) -> Vec<NodeId> {
        let k = self.side_size();
        let want = k * 2 <= self.side.len();
        self.side
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == want)
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }
}

/// Computes the value of the cut defined by `side` (`true` = in `X`).
///
/// # Panics
///
/// Panics if `side.len() != g.node_count()`.
pub fn cut_of_side(g: &WeightedGraph, side: &[bool]) -> Weight {
    assert_eq!(
        side.len(),
        g.node_count(),
        "side bitmap length must equal node count"
    );
    let mut total: Weight = 0;
    for (_, u, v, w) in g.edge_tuples() {
        if side[u.index()] != side[v.index()] {
            total += w;
        }
    }
    total
}

/// Builds a [`CutResult`] from a side bitmap, computing the value.
///
/// # Panics
///
/// Panics if `side.len() != g.node_count()`.
pub fn cut_result(g: &WeightedGraph, side: Vec<bool>) -> CutResult {
    let value = cut_of_side(g, &side);
    CutResult { side, value }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightedGraph;

    fn square() -> WeightedGraph {
        // 0-1 (1), 1-2 (2), 2-3 (3), 3-0 (4), diagonal 0-2 (10)
        WeightedGraph::from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4), (0, 2, 10)])
            .unwrap()
    }

    #[test]
    fn singleton_cut_equals_weighted_degree() {
        let g = square();
        for v in g.nodes() {
            let mut side = vec![false; 4];
            side[v.index()] = true;
            assert_eq!(cut_of_side(&g, &side), g.weighted_degree(v));
        }
    }

    #[test]
    fn complement_has_same_value() {
        let g = square();
        let side = vec![true, true, false, false];
        let comp: Vec<bool> = side.iter().map(|b| !b).collect();
        assert_eq!(cut_of_side(&g, &side), cut_of_side(&g, &comp));
    }

    #[test]
    fn whole_graph_cut_is_zero() {
        let g = square();
        assert_eq!(cut_of_side(&g, &[true; 4]), 0);
        assert_eq!(cut_of_side(&g, &[false; 4]), 0);
    }

    #[test]
    fn cut_result_helpers() {
        let g = square();
        let r = cut_result(&g, vec![false, true, false, false]);
        assert_eq!(r.value, 3);
        assert!(r.is_proper());
        assert_eq!(r.side_size(), 1);
        assert_eq!(r.smaller_side(), vec![NodeId::new(1)]);

        let empty = cut_result(&g, vec![false; 4]);
        assert!(!empty.is_proper());
    }

    #[test]
    #[should_panic(expected = "side bitmap length")]
    fn wrong_length_panics() {
        let g = square();
        let _ = cut_of_side(&g, &[true, false]);
    }
}
