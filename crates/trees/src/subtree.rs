//! Subtree machinery: DFS entry/exit intervals, ancestor tests, and subtree
//! aggregation — the sequential mirror of the paper's `δ↓`/`ρ↓` sums.

use crate::RootedTree;
use graphs::NodeId;

/// DFS entry/exit times of a rooted tree: `v` is an ancestor of `u` iff
/// `tin[v] ≤ tin[u] < tout[v]`.
#[derive(Clone, Debug)]
pub struct SubtreeIntervals {
    /// Entry time of each node in a DFS from the root.
    pub tin: Vec<u32>,
    /// Exit time (exclusive) of each node.
    pub tout: Vec<u32>,
}

impl SubtreeIntervals {
    /// Computes entry/exit times (children in sorted order).
    pub fn new(tree: &RootedTree) -> Self {
        let n = tree.len();
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        let mut clock = 0u32;
        let mut stack: Vec<(NodeId, usize)> = vec![(tree.root(), 0)];
        tin[tree.root().index()] = clock;
        clock += 1;
        while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
            let children = tree.children(v);
            if *ci < children.len() {
                let c = children[*ci];
                *ci += 1;
                tin[c.index()] = clock;
                clock += 1;
                stack.push((c, 0));
            } else {
                tout[v.index()] = clock;
                stack.pop();
            }
        }
        SubtreeIntervals { tin, tout }
    }

    /// Returns `true` iff `anc` is an ancestor of `v` (nodes are their own
    /// ancestors, matching the paper's `v ∈ v↓`).
    pub fn is_ancestor(&self, anc: NodeId, v: NodeId) -> bool {
        self.tin[anc.index()] <= self.tin[v.index()] && self.tin[v.index()] < self.tout[anc.index()]
    }

    /// Size of the subtree of `v`.
    pub fn subtree_size(&self, v: NodeId) -> usize {
        (self.tout[v.index()] - self.tin[v.index()]) as usize
    }
}

/// Sums `values` over every subtree: returns `out` with
/// `out[v] = Σ_{u ∈ v↓} values[u]`.
///
/// This is the sequential counterpart of the paper's convergecast of `δ` and
/// `ρ` (Lemma 2.2 needs `δ↓(v)` and `ρ↓(v)`).
///
/// # Panics
///
/// Panics if `values.len() != tree.len()`.
pub fn subtree_sums(tree: &RootedTree, values: &[u64]) -> Vec<u64> {
    assert_eq!(values.len(), tree.len(), "one value per node required");
    let mut out = values.to_vec();
    for v in tree.bottom_up() {
        if let Some(p) = tree.parent(v) {
            out[p.index()] += out[v.index()];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn sample() -> RootedTree {
        // 0 — {1, 2}; 1 — {3, 4}; 2 — {5}
        RootedTree::from_edges(
            6,
            node(0),
            &[
                (node(0), node(1)),
                (node(0), node(2)),
                (node(1), node(3)),
                (node(1), node(4)),
                (node(2), node(5)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn intervals_nest_properly() {
        let t = sample();
        let iv = SubtreeIntervals::new(&t);
        assert!(iv.is_ancestor(node(0), node(5)));
        assert!(iv.is_ancestor(node(1), node(4)));
        assert!(!iv.is_ancestor(node(1), node(5)));
        assert!(iv.is_ancestor(node(3), node(3)));
        assert!(!iv.is_ancestor(node(3), node(1)));
        assert_eq!(iv.subtree_size(node(0)), 6);
        assert_eq!(iv.subtree_size(node(1)), 3);
        assert_eq!(iv.subtree_size(node(5)), 1);
    }

    #[test]
    fn sums_match_manual() {
        let t = sample();
        let vals = [1u64, 10, 100, 1000, 10000, 100000];
        let s = subtree_sums(&t, &vals);
        assert_eq!(s[3], 1000);
        assert_eq!(s[1], 10 + 1000 + 10000);
        assert_eq!(s[2], 100 + 100000);
        assert_eq!(s[0], vals.iter().sum::<u64>());
    }

    #[test]
    fn interval_sizes_match_subtree_sizes() {
        let t = sample();
        let iv = SubtreeIntervals::new(&t);
        let sz = t.subtree_sizes();
        for (v, &size) in sz.iter().enumerate() {
            assert_eq!(iv.subtree_size(node(v as u32)), size as usize);
        }
    }

    #[test]
    #[should_panic(expected = "one value per node")]
    fn wrong_length_panics() {
        let t = sample();
        let _ = subtree_sums(&t, &[1, 2]);
    }
}
