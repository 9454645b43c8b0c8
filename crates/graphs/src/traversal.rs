//! Breadth-first traversal, connectivity, and diameter.

use crate::{NodeId, WeightedGraph};
use std::collections::VecDeque;

/// Result of a single-source BFS: hop distances and BFS-tree parents.
#[derive(Clone, Debug)]
pub struct BfsResult {
    /// `dist[v]` is the hop distance from the source, or `u32::MAX` if
    /// unreachable.
    pub dist: Vec<u32>,
    /// `parent[v]` is the BFS-tree parent, or `None` for the source and
    /// unreachable nodes.
    pub parent: Vec<Option<NodeId>>,
    /// Nodes in visit order (the source first).
    pub order: Vec<NodeId>,
}

/// Runs BFS from `src` over unit-length edges (hop counts).
pub fn bfs(g: &WeightedGraph, src: NodeId) -> BfsResult {
    let n = g.node_count();
    let mut dist = vec![u32::MAX; n];
    let mut parent = vec![None; n];
    let mut order = Vec::with_capacity(n);
    let mut q = VecDeque::new();
    dist[src.index()] = 0;
    q.push_back(src);
    while let Some(v) = q.pop_front() {
        order.push(v);
        for a in g.neighbors(v) {
            let u = a.neighbor;
            if dist[u.index()] == u32::MAX {
                dist[u.index()] = dist[v.index()] + 1;
                parent[u.index()] = Some(v);
                q.push_back(u);
            }
        }
    }
    BfsResult {
        dist,
        parent,
        order,
    }
}

/// Returns `true` if the graph is connected (the empty graph counts as
/// connected, the one-node graph too).
pub fn is_connected(g: &WeightedGraph) -> bool {
    if g.node_count() <= 1 {
        return true;
    }
    let r = bfs(g, NodeId::new(0));
    r.order.len() == g.node_count()
}

/// Exact eccentricity of `v`: the maximum hop distance to any reachable node.
pub fn eccentricity(g: &WeightedGraph, v: NodeId) -> u32 {
    bfs(g, v)
        .dist
        .iter()
        .copied()
        .filter(|&d| d != u32::MAX)
        .max()
        .unwrap_or(0)
}

/// Exact (hop) diameter by running BFS from every node: `O(n·m)`.
///
/// Returns 0 for graphs with fewer than two nodes. For disconnected graphs
/// the result is the maximum finite distance (diameter of the largest
/// eccentricity among components).
pub fn exact_diameter(g: &WeightedGraph) -> u32 {
    g.nodes().map(|v| eccentricity(g, v)).max().unwrap_or(0)
}

/// Lower-bound diameter estimate by the classic double-sweep: BFS from an
/// arbitrary node, then BFS from the farthest node found. Exact on trees;
/// a lower bound in general. `O(m)`.
pub fn two_sweep_diameter(g: &WeightedGraph) -> u32 {
    if g.node_count() == 0 {
        return 0;
    }
    let first = bfs(g, NodeId::new(0));
    let far = first
        .order
        .iter()
        .copied()
        .max_by_key(|v| first.dist[v.index()])
        .unwrap_or(NodeId::new(0));
    eccentricity(g, far)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightedGraph;

    fn path(n: usize) -> WeightedGraph {
        WeightedGraph::from_edges(n, (0..n - 1).map(|i| (i as u32, i as u32 + 1, 1))).unwrap()
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path(5);
        let r = bfs(&g, NodeId::new(0));
        assert_eq!(r.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.parent[3], Some(NodeId::new(2)));
        assert_eq!(r.order.len(), 5);
    }

    #[test]
    fn connectivity() {
        assert!(is_connected(&path(4)));
        let g = WeightedGraph::from_edges(4, [(0, 1, 1), (2, 3, 1)]).unwrap();
        assert!(!is_connected(&g));
    }

    #[test]
    fn diameters() {
        let g = path(7);
        assert_eq!(exact_diameter(&g), 6);
        assert_eq!(two_sweep_diameter(&g), 6);
        let cycle =
            WeightedGraph::from_edges(6, (0..6).map(|i| (i as u32, ((i + 1) % 6) as u32, 1)))
                .unwrap();
        assert_eq!(exact_diameter(&cycle), 3);
        assert!(two_sweep_diameter(&cycle) <= 3);
    }

    #[test]
    fn single_node_graph() {
        let g = WeightedGraph::from_edges(1, []).unwrap();
        assert!(is_connected(&g));
        assert_eq!(exact_diameter(&g), 0);
        assert_eq!(two_sweep_diameter(&g), 0);
    }

    #[test]
    fn eccentricity_of_center() {
        // Star: center 0 has eccentricity 1, leaves 2.
        let g = WeightedGraph::from_edges(5, (1..5).map(|i| (0, i as u32, 1))).unwrap();
        assert_eq!(eccentricity(&g, NodeId::new(0)), 1);
        assert_eq!(eccentricity(&g, NodeId::new(3)), 2);
        assert_eq!(exact_diameter(&g), 2);
    }
}
