//! Lowest common ancestors by sparse-table RMQ over the Euler tour
//! (O(n log n) build, O(1) query): the sequential oracle for the paper's
//! distributed LCA computation (Step 5).

use crate::euler::EulerTour;
use crate::RootedTree;
use graphs::NodeId;

/// O(1)-query LCA via sparse-table range-minimum over the Euler tour.
#[derive(Clone, Debug)]
pub struct SparseTableLca {
    first: Vec<usize>,
    /// `table[k][i]` = index (into the tour) of the minimum-depth entry in
    /// `tour[i .. i + 2^k]`.
    table: Vec<Vec<u32>>,
    depths: Vec<u32>,
    tour: Vec<NodeId>,
}

impl SparseTableLca {
    /// Builds the structure for `tree`.
    pub fn new(tree: &RootedTree) -> Self {
        let e = EulerTour::new(tree);
        let m = e.len();
        let levels = (usize::BITS - m.max(1).leading_zeros()) as usize;
        let mut table: Vec<Vec<u32>> = Vec::with_capacity(levels);
        table.push((0..m as u32).collect());
        let mut k = 1;
        while (1 << k) <= m {
            let half = 1 << (k - 1);
            let prev = &table[k - 1];
            let mut row = Vec::with_capacity(m - (1 << k) + 1);
            for i in 0..=(m - (1 << k)) {
                let a = prev[i];
                let b = prev[i + half];
                row.push(if e.depths[a as usize] <= e.depths[b as usize] {
                    a
                } else {
                    b
                });
            }
            table.push(row);
            k += 1;
        }
        SparseTableLca {
            first: e.first,
            table,
            depths: e.depths,
            tour: e.tour,
        }
    }

    /// Returns the lowest common ancestor of `u` and `v`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn lca(&self, u: NodeId, v: NodeId) -> NodeId {
        let (mut a, mut b) = (self.first[u.index()], self.first[v.index()]);
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let len = b - a + 1;
        let k = (usize::BITS - 1 - len.leading_zeros()) as usize;
        let left = self.table[k][a];
        let right = self.table[k][b + 1 - (1 << k)];
        let best = if self.depths[left as usize] <= self.depths[right as usize] {
            left
        } else {
            right
        };
        self.tour[best as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn node(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn sample() -> RootedTree {
        // 0 — {1, 2}; 1 — {3, 4}; 2 — {5}; 4 — {6}
        RootedTree::from_edges(
            7,
            node(0),
            &[
                (node(0), node(1)),
                (node(0), node(2)),
                (node(1), node(3)),
                (node(1), node(4)),
                (node(2), node(5)),
                (node(4), node(6)),
            ],
        )
        .unwrap()
    }

    /// Naive LCA by walking parent pointers.
    fn naive_lca(tree: &RootedTree, u: NodeId, v: NodeId) -> NodeId {
        let au: Vec<NodeId> = tree.ancestors(u).collect();
        let set: std::collections::HashSet<NodeId> = au.into_iter().collect();
        tree.ancestors(v)
            .find(|a| set.contains(a))
            .expect("trees always share the root")
    }

    #[test]
    fn known_lcas() {
        let t = sample();
        let st = SparseTableLca::new(&t);
        for (u, v, want) in [
            (3, 4, 1),
            (3, 6, 1),
            (3, 5, 0),
            (6, 2, 0),
            (4, 6, 4),
            (0, 6, 0),
            (5, 5, 5),
        ] {
            assert_eq!(st.lca(node(u), node(v)), node(want), "{u},{v}");
        }
    }

    #[test]
    fn sparse_table_agrees_with_naive_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(99);
        for n in [2usize, 5, 17, 64, 200] {
            // Random parent array: parent of v is a random earlier node.
            let mut parents: Vec<Option<NodeId>> = vec![None];
            for v in 1..n {
                parents.push(Some(node(rng.gen_range(0..v as u32))));
            }
            let t = RootedTree::from_parents(node(0), &parents).unwrap();
            let st = SparseTableLca::new(&t);
            for _ in 0..200 {
                let u = node(rng.gen_range(0..n as u32));
                let v = node(rng.gen_range(0..n as u32));
                let want = naive_lca(&t, u, v);
                assert_eq!(st.lca(u, v), want);
            }
        }
    }

    #[test]
    fn lca_on_path_tree() {
        let n = 50;
        let parents: Vec<Option<NodeId>> = (0..n)
            .map(|v| if v == 0 { None } else { Some(node(v - 1)) })
            .collect();
        let t = RootedTree::from_parents(node(0), &parents).unwrap();
        let st = SparseTableLca::new(&t);
        assert_eq!(st.lca(node(30), node(45)), node(30));
        assert_eq!(st.lca(node(49), node(0)), node(0));
    }
}
