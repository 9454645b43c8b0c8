//! Per-node local views: ports, node context, and the tree view shared
//! by the tree primitives.

use graphs::{AdjEntry, NodeId};

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

/// The local context handed to node code each round.
///
/// Contains exactly what a CONGEST node may know a priori: its own id, `n`,
/// the bandwidth budget, the current round number (synchronous model), and
/// its incident edges, each with the neighbor's identifier, the edge
/// weight and the global edge identifier. (Nodes know incident edge
/// weights per the paper's model statement; neighbor identifiers are
/// learnable in one round and assumed known, as is standard; the edge
/// identifier is an `O(log n)`-bit name both endpoints agree on, used only
/// for deterministic tie-breaking.)
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
    /// The graph's own adjacency list of this node: port `p` is entry `p`.
    pub(crate) neighbors: &'a [AdjEntry],
    /// Per-port suspicion flags of the faulty executor's failure
    /// detector (empty — nobody suspected — under the serial executor
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
    pub fn neighbor(&self, port: Port) -> &AdjEntry {
        &self.neighbors[port.index()]
    }

    /// All ports in increasing order.
    pub fn ports(&self) -> impl Iterator<Item = Port> + '_ {
        (0..self.neighbors.len() as u32).map(Port)
    }

    /// All `(port, neighbor)` pairs.
    pub fn neighbors(&self) -> impl Iterator<Item = (Port, &AdjEntry)> + '_ {
        self.neighbors
            .iter()
            .enumerate()
            .map(|(i, ni)| (Port(i as u32), ni))
    }

    /// All ports whose peer this node currently suspects of having
    /// crashed, in increasing order. Driven by the faulty executor's
    /// timeout-based failure detector (`docs/sim.md`); always empty
    /// under the serial executor and under crash-free plans. Suspicion
    /// is *eventually accurate*, not instant: a crashed peer is
    /// suspected only after [`crate::sim::FaultPlan::suspect_after`]
    /// silent ticks, and a live peer wrongly suspected is rehabilitated
    /// by its next arriving frame.
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
            .map(|p| self.neighbor(p).neighbor)
            .collect()
    }
}

/// A node's local view of a rooted tree (or forest), borrowed from the
/// caller's memory: the port to its parent and a row of per-port flags
/// marking its tree edges. The flags may include the parent's port;
/// [`Tree::children`] skips it, so one undirected row of tree-edge flags
/// serves every orientation of the tree. This is the lingua franca of
/// the tree primitives: a caller that keeps its trees as per-port flag
/// rows lends each node its row for the phase, and
/// [`crate::primitives::leader_bfs::LeaderBfsOutput::tree`] is a node's
/// view of the election's BFS tree.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct Tree<'a> {
    /// Port to the parent; `None` at a root.
    pub parent: Option<Port>,
    /// One flag per port: the node's tree edges.
    pub ports: &'a [bool],
}

impl<'a> Tree<'a> {
    /// The view with parent port `parent` over the flag row `ports`.
    pub const fn new(parent: Option<Port>, ports: &'a [bool]) -> Self {
        Tree { parent, ports }
    }

    /// Returns `true` if this node is a root (no parent).
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    /// The ports to the children, ascending: every flagged port except
    /// the parent's.
    pub fn children(self) -> impl Iterator<Item = Port> + 'a {
        (0..self.ports.len() as u32)
            .map(Port)
            .filter(move |&p| self.ports[p.index()] && Some(p) != self.parent)
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_the_flagged_ports_but_the_parent() {
        let ports = [true, false, true, true, false, true];
        let child = Tree::new(Some(Port(2)), &ports);
        assert!(!child.is_root());
        let got: Vec<Port> = child.children().collect();
        assert_eq!(got, [Port(0), Port(3), Port(5)]);
        let root = Tree::new(None, &ports);
        assert!(root.is_root());
        let got: Vec<Port> = root.children().collect();
        assert_eq!(got, [Port(0), Port(2), Port(3), Port(5)]);
        let leaf = Tree::new(Some(Port(1)), &[false, true, false]);
        assert_eq!(leaf.children().count(), 0);
        let default = Tree::default();
        assert!(default.is_root());
        assert_eq!(default.children().count(), 0);
    }

    #[test]
    fn port_display() {
        assert_eq!(Port(3).to_string(), "p3");
        assert_eq!(Port(3).index(), 3);
    }
}
