//! Per-node local views: ports, neighbor info, node context, and the
//! tree-structure handle shared by the tree primitives.

use graphs::{EdgeId, NodeId, Weight};

/// A node's local name for one of its incident edges: the index into its
/// adjacency list (`0..degree`). Messages are addressed to ports, matching
/// the standard port-numbering formulation of message passing.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Port(pub u32);

impl Port {
    /// The port index as `usize`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// What a node knows about one incident edge: the neighbor's identifier and
/// the edge weight. (Nodes know incident edge weights per the paper's model
/// statement; neighbor identifiers are learnable in one round and assumed
/// known, as is standard.)
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct NeighborInfo {
    /// The neighbor's node identifier.
    pub id: NodeId,
    /// The weight of the connecting edge.
    pub weight: Weight,
    /// The global edge identifier (used only for deterministic tie-breaking,
    /// as an `O(log n)`-bit name both endpoints agree on).
    pub edge: EdgeId,
}

/// The local context handed to node code each round.
///
/// Contains exactly what a CONGEST node may know a priori: its own id, `n`,
/// the bandwidth budget, the current round number (synchronous model), and
/// its incident edges.
#[derive(Clone, Debug)]
pub struct NodeCtx<'a> {
    /// This node's identifier.
    pub node: NodeId,
    /// Number of nodes in the network (globally known, standard assumption).
    pub n: usize,
    /// Per-edge, per-direction, per-round bandwidth in bits.
    pub bandwidth_bits: usize,
    /// Current round (1-based during [`crate::Algorithm::round`]; 0 in
    /// `boot`). All nodes see the same value — the model is synchronous.
    pub round: u64,
    pub(crate) neighbors: &'a [NeighborInfo],
    /// Per-port suspicion flags of the faulty executor's failure
    /// detector (empty — nobody suspected — under fault-free executors
    /// and crash-free plans). Indexed like the adjacency list.
    pub(crate) suspected: &'a [bool],
}

impl NodeCtx<'_> {
    /// Number of incident edges.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// The neighbor reachable through `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    pub fn neighbor(&self, port: Port) -> &NeighborInfo {
        &self.neighbors[port.index()]
    }

    /// All ports in increasing order.
    pub fn ports(&self) -> impl Iterator<Item = Port> + '_ {
        (0..self.neighbors.len() as u32).map(Port)
    }

    /// All `(port, neighbor)` pairs.
    pub fn neighbors(&self) -> impl Iterator<Item = (Port, &NeighborInfo)> + '_ {
        self.neighbors
            .iter()
            .enumerate()
            .map(|(i, ni)| (Port(i as u32), ni))
    }

    /// Looks up the port leading to the neighbor with identifier `id`.
    pub fn port_of(&self, id: NodeId) -> Option<Port> {
        self.neighbors
            .iter()
            .position(|ni| ni.id == id)
            .map(|i| Port(i as u32))
    }

    /// The node's weighted degree `δ(v)`.
    pub fn weighted_degree(&self) -> Weight {
        self.neighbors.iter().map(|ni| ni.weight).sum()
    }

    /// Does this node currently suspect the peer behind `port` of
    /// having crashed? Driven by the faulty executor's timeout-based
    /// failure detector (`docs/sim.md`); always `false` under the
    /// fault-free executors and under crash-free plans. Suspicion is
    /// *eventually accurate*, not instant: a crashed peer is suspected
    /// only after [`crate::sim::FaultPlan::suspect_after`] silent ticks,
    /// and a live peer wrongly suspected is rehabilitated by its next
    /// arriving frame.
    pub fn suspects(&self, port: Port) -> bool {
        self.suspected.get(port.index()).copied().unwrap_or(false)
    }

    /// All currently suspected ports, in increasing order.
    pub fn suspected_ports(&self) -> impl Iterator<Item = Port> + '_ {
        self.suspected
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| Port(i as u32))
    }

    /// The node identifiers of all currently suspected neighbors.
    pub fn suspected_ids(&self) -> Vec<NodeId> {
        self.suspected_ports()
            .map(|p| self.neighbor(p).id)
            .collect()
    }
}

/// A node's local handle on a rooted tree (or forest): which port leads to
/// the parent and which ports lead to children. This is the lingua franca of
/// the tree primitives — [`crate::primitives::leader_bfs::LeaderBfs`]
/// produces one for the global BFS tree, the MST orientation phase produces
/// one per fragment.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TreeInfo {
    /// Port to the parent; `None` at a root.
    pub parent: Option<Port>,
    /// Ports to the children, sorted.
    pub children: Vec<Port>,
    /// Depth of this node (roots have depth 0).
    pub depth: u32,
}

impl TreeInfo {
    /// Returns `true` if this node is a root (no parent).
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    /// Returns `true` if this node is a leaf (no children).
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// A node's pre-order interval in a rooted tree, and its children's: the
/// labels that let a node test ancestorship, and route toward a
/// descendant, from `O(log n)` bits. A subtree's nodes carry the in-times
/// `in_t..=out_t`, the node itself `in_t`. Children are numbered in port
/// order. [`crate::primitives::leader_bfs::LeaderBfs`] labels the BFS
/// tree this way; the cut stage labels each fragment tree.
///
/// Excising nodes from a labelled tree only leaves gaps in the
/// numbering: every interval still holds exactly the in-times of its
/// surviving subtree.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Intervals {
    /// Pre-order entry time.
    pub in_t: u32,
    /// Last entry time of the subtree (`in_t + size − 1` without gaps).
    pub out_t: u32,
    /// `(port, in, out)` of every child.
    pub children: Vec<(Port, u32, u32)>,
}

impl Intervals {
    /// The labels of a node entered at `in_t` whose subtree has `size`
    /// nodes, with its children's subtree sizes in port order: child
    /// subtrees take consecutive ranges after `in_t`.
    pub fn assign(
        in_t: u32,
        size: u32,
        child_sizes: impl IntoIterator<Item = (Port, u32)>,
    ) -> Self {
        let mut next = in_t + 1;
        let children = child_sizes
            .into_iter()
            .map(|(port, size)| {
                next += size;
                (port, next - size, next - 1)
            })
            .collect();
        Intervals {
            in_t,
            out_t: in_t + size - 1,
            children,
        }
    }

    /// Does this node's subtree contain the entry time `t`?
    pub fn contains(&self, t: u32) -> bool {
        self.in_t <= t && t <= self.out_t
    }

    /// Is `t` inside a single child's subtree (returns that child)?
    pub fn child_containing(&self, t: u32) -> Option<Port> {
        self.children
            .iter()
            .find(|&&(_, lo, hi)| lo <= t && t <= hi)
            .map(|&(p, _, _)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_info_flags() {
        let root = TreeInfo {
            parent: None,
            children: vec![Port(0)],
            depth: 0,
        };
        assert!(root.is_root());
        assert!(!root.is_leaf());
        let leaf = TreeInfo {
            parent: Some(Port(1)),
            children: vec![],
            depth: 3,
        };
        assert!(!leaf.is_root());
        assert!(leaf.is_leaf());
        let default = TreeInfo::default();
        assert!(default.is_root() && default.is_leaf());
    }

    #[test]
    fn port_display() {
        assert_eq!(Port(3).to_string(), "p3");
        assert_eq!(Port(3).index(), 3);
    }
}
