//! The public entry point of the distributed pipeline:
//! [`exact_mincut`] and its configuration/result types, plus the
//! internal phase orchestration shared with [`crate::dist::approx`] and
//! [`crate::dist::baselines`].
//!
//! The driver mirrors the sequential packing loop of
//! [`crate::seq::tree_packing::packing_mincut`] exactly — same seed
//! candidate (the minimum-weighted-degree singleton), same greedy trees
//! (the relative-load MST is unique), same per-tree argmin, same
//! stopping rule — so the distributed and sequential pipelines agree
//! bit for bit, which the unit tests assert.
//!
//! Between phases the driver performs only **per-node-local**
//! bookkeeping on each node's memory (the engine's documented
//! "persistent local memory" convention) and loop-termination decisions
//! that a real deployment would obtain from an `O(D)` convergecast.
//!
//! That memory is flat columns (`Columns`): per-node ones indexed by
//! node id, per-port ones laid out by the graph's CSR offsets, so node
//! `v`'s port `p` sits at `offsets[v] + p` in each. They live for the
//! whole run, the per-tree ones reset in place for each tree. Every tree
//! the driver keeps — the BFS tree, the fragment forest, the best tree's
//! snapshot, a restored checkpoint tree — is one column-form `Forest`:
//! a parent port per node and a tree-edge flag per port. Phases borrow
//! every node's rows instead of copying them in and out: each tree phase
//! takes node `v`'s [`Tree`] view of a forest, `.exch` writes the
//! neighbors' labels into the port view, `.cd` its child caches,
//! `orient.tf` the `T_F` roles, and the outputs carry only what a phase
//! decided. Edge ids, weights and weighted degrees are read from `g`,
//! the adjacency nodes see through `NodeCtx`. A failed phase can leave
//! the columns half updated; `run_pipeline` then drops the whole
//! pipeline with the error, so nothing reads them again.
//!
//! Phase B of the MST ends at its upcast: the chosen inter-fragment
//! edges reach the leader with both fragments and both endpoints' BFS
//! in-times, and the leader builds the fragment tree `T_F` from them
//! alone, numbering its fragments in pre-order. Its rows name fragments,
//! edges and numbers, never nodes; the leader knows each attachment and
//! connector only by its BFS in-time. The outcome's
//! [`DistMinCutResult::tf_attachments`] names the attachments by node id
//! driver-side, from the nodes' fragments, as
//! [`DistMinCutResult::tree_edges`] is read off the per-node port
//! markings.
//!
//! The leader's table streams (`orient.tf`, `s4b`, `s5d`) and the
//! fragment-wide `s2c.down` fold each row into the receiving node's
//! memory as it arrives — each node computes its share of the table on
//! the fly — so only the leader holds the rows it streams, and no
//! per-node copies exist. Rows that only a few nodes read travel only to
//! them, along the BFS tree's pre-order intervals (the labels the
//! election hands out): a fragment's `orient.tf` row to its attachment
//! and its connector, an `s4b` pair to its first child fragment's
//! attachment, an `s5d` sum to its fragment's attachment. Every node
//! reads `T_F`'s shape, which `orient.tf` packs into a few rows of
//! `⌈log₂ k⌉`-bit parent numbers, and its fragment's attachment in-times
//! in `s2c.down`.

use crate::dist::mst::{
    CandDec, CdInput, FilteredUpcast, FragHook, FragLabel, FragMsg, HookInput, HookRole, InterEdge,
    MstConfig, OptAgg, OptCand,
};
use crate::dist::one_respect::{
    AttItem, FragReroot, IntervalDown, IntervalInput, LcaCase, NbMsg, PairItem, RerootInput,
    SideFlood, SideInput, SideMsg, SizesInput, SizesUp, SumItem, TfItem, TfShape, Token,
    TokensInput, TokensUp, TotItem,
};
use crate::dist::packing::{better, Cand};
use crate::seq::tree_packing::PackingConfig;
use crate::MinCutError;
use congest::primitives::broadcast::{Route, StreamInput};
use congest::primitives::convergecast::{Convergecast, MinPair, SumU64};
use congest::primitives::exchange::DeltaInput;
use congest::primitives::leader_bfs::LeaderBfs;
use congest::primitives::{
    Broadcast, BroadcastItems, GroupedSum, NeighborExchange, PortDeltaExchange, UpcastItems,
};
use congest::{ExecutorKind, Intervals, MetricsLedger, Network, NetworkConfig, Port, Tree};
use graphs::{AdjEntry, CutResult, NodeId, WeightedGraph};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Configuration of [`exact_mincut`]: the network model, the packing
/// policy, and the MST stage setting.
#[derive(Clone, Debug, Default)]
pub struct ExactConfig {
    /// CONGEST model parameters (bandwidth `β`, and which round executor
    /// drives the phases — `network.executor` selects the serial or the
    /// fault-injecting executor; the result is executor-independent, see
    /// `tests/sim_parity.rs`).
    pub network: NetworkConfig,
    /// Greedy tree packing policy (how many trees, mirroring the
    /// sequential packing).
    pub packing: PackingConfig,
    /// Distributed MST stage setting (phase A's fragment cap).
    pub mst: MstConfig,
}

impl ExactConfig {
    /// This config with the given round executor on its network:
    /// [`ExecutorKind::Serial`] (the default) or
    /// [`ExecutorKind::Faulty`] (see [`ExactConfig::with_fault_plan`]).
    pub fn with_executor(self, executor: ExecutorKind) -> Self {
        ExactConfig {
            network: self.network.with_executor(executor),
            ..self
        }
    }

    /// This config driven over a lossy asynchronous network: the
    /// fault-injecting executor (`congest::sim`) under `plan`. The cut,
    /// side, trees, and arg-min are bit-identical to the serial run
    /// (`tests/sim_parity.rs`); the ledger's `sim` counters report what
    /// the α-synchronizer paid for that.
    pub fn with_fault_plan(self, plan: congest::sim::FaultPlan) -> Self {
        ExactConfig {
            network: self.network.with_fault_plan(plan),
            ..self
        }
    }

    /// This config with an observability sink attached to its network.
    /// Every network the pipeline spawns clones the config, so the one
    /// sink sees the whole session (see `congest::obs`).
    pub fn with_obs(self, handle: congest::ObsHandle) -> Self {
        ExactConfig {
            network: self.network.with_obs(handle),
            ..self
        }
    }
}

/// Result of a distributed minimum-cut run.
#[derive(Clone, Debug)]
pub struct DistMinCutResult {
    /// The best (minimum) cut found, with its verified value.
    pub cut: CutResult,
    /// Total CONGEST rounds across all phases — the headline cost.
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Greedy trees packed.
    pub trees_packed: usize,
    /// 1-based index of the tree that first achieved the final value
    /// (0 when the minimum-degree singleton was never beaten).
    pub trees_to_best: usize,
    /// The arg-min node of the winning 1-respecting cut (`None` when the
    /// singleton won).
    pub best_node: Option<NodeId>,
    /// Per-phase metrics of the whole run.
    pub ledger: MetricsLedger,
    /// Edge ids of every packed tree, sorted — one entry per tree, in
    /// packing order. The MST is unique under the relative-load,
    /// weight, edge-id order, so each entry must equal the matching
    /// tree of [`crate::seq::tree_packing::greedy_packing`]; the
    /// `msta_parity` suites compare them tree by tree.
    pub tree_edges: Vec<Vec<graphs::EdgeId>>,
    /// Fragments phase A handed to phase B, one entry per packed tree,
    /// in packing order: the `k` of the fragment tree `T_F`, which sizes
    /// the leader's table streams (`orient.tf` carries `T_F`'s shape to
    /// every node in rows of `⌈log₂ k⌉`-bit parent numbers and one row to
    /// each of the `k − 1` attachments and connectors, `s5d` one row to
    /// each attachment).
    pub phase_a_fragments: Vec<usize>,
    /// The attachments of `T_F`, one list per entry of
    /// `phase_a_fragments`: for every non-root fragment, in the pre-order
    /// of its number (1 to `k − 1`), the node of its parent fragment that
    /// it hangs from. The leader routes that fragment's `orient.tf` and
    /// `s5d` rows to it by its BFS in-time.
    pub tf_attachments: Vec<Vec<NodeId>>,
}

/// Runs the paper's exact distributed minimum-cut pipeline on `g`.
///
/// Packs greedy trees by relative load (Thorup) with a distributed
/// `Õ(√n + D)` MST per tree, finds the minimum cut 1-respecting each
/// tree via the Section-2 fragment machinery, and returns the best cut
/// seen (also considering the minimum-degree singleton). With the
/// default heuristic packing this is exact on every instance family in
/// the test suite; Thorup's bound makes it exact with certainty at
/// impractical tree counts.
///
/// # Errors
///
/// [`MinCutError::TooSmall`] for `n < 2`, [`MinCutError::Disconnected`]
/// for disconnected inputs, and [`MinCutError::Congest`] when the
/// simulated network rejects the run (bandwidth violation, round cap).
/// There is no upper bound on `n`: the case-2 pair aggregation keys
/// pairs of `T_F` fragment numbers, `lo·k + hi < k²` for `k ≤ n`
/// fragments, in `u64`, so every `n` addressable by `u32` node ids is
/// supported.
pub fn exact_mincut(
    g: &WeightedGraph,
    config: &ExactConfig,
) -> Result<DistMinCutResult, MinCutError> {
    let opts = PipelineOpts {
        network: config.network.clone(),
        mst: config.mst.clone(),
        packing: config.packing.clone(),
        sample: None,
    };
    run_pipeline(g, &opts, None, None).map_err(|(e, _)| e)
}

// ---------------------------------------------------------------------------
// Internal pipeline
// ---------------------------------------------------------------------------

/// Options of one pipeline run (shared by exact, approx and baselines).
#[derive(Clone, Debug)]
pub(crate) struct PipelineOpts {
    /// Network model parameters.
    pub network: NetworkConfig,
    /// MST stage setting.
    pub mst: MstConfig,
    /// Packing-size policy, re-evaluated as the best cut value `λ̂`
    /// improves.
    pub packing: PackingConfig,
    /// `Some((p, seed))`: pack trees on the Karger skeleton sampled with
    /// probability `p` (shared coins keyed by `(seed, edge id)`); cuts
    /// are always *evaluated* with the original weights.
    pub sample: Option<(f64, u64)>,
}

/// A driver-side snapshot of the pipeline's validated stage outputs,
/// filled in as the run progresses: the election/BFS stage once
/// [`Pipeline::new`] returns, one tree entry per completed packing
/// iteration. The self-healing driver keeps the latest log across
/// aborted attempts and hands validated pieces of it back as a
/// [`ResumeSpec`] — capture is pure bookkeeping over state the
/// sequential driver already holds, so it costs zero rounds.
///
/// Every tree keeps one form from capture to restore: its edges as
/// undirected node-id pairs, which [`Forest::from_pairs`] orients from
/// whatever leader the restoring attempt has. Ids are in the current
/// graph's id space; the recovery driver translates through its
/// compaction maps.
#[derive(Clone, Debug, Default)]
pub(crate) struct RecoveryLog {
    /// The election stage.
    pub bfs: Option<LoggedBfs>,
    /// One entry per finished packed tree, in packing order.
    pub trees: Vec<LoggedTree>,
}

/// A checkpointed BFS tree: the leader, the tree's edges, and `labels[v]`,
/// `v`'s pre-order interval `(in, out)` from the election. Restoring
/// keeps the labels — each node remembers its own — so excising nodes
/// only leaves gaps in the numbering.
#[derive(Clone, Debug)]
pub(crate) struct LoggedBfs {
    pub leader: u32,
    pub edges: Vec<(u32, u32)>,
    pub labels: Vec<(u32, u32)>,
}

/// A checkpointed packed tree: its edges, and its 1-respecting minimum
/// `(value, (x, y))`, attained by cutting the tree edge `(x, y)`. The
/// edge survives re-rooting: the argmin node is whichever endpoint is
/// the child under the restoring attempt's leader. `None` in a
/// [`ResumeSpec`] ⇒ the minimum is no longer trusted and the restored
/// tree's cut must be re-evaluated distributed.
pub(crate) type LoggedTree = (Vec<(u32, u32)>, Option<(u64, (u32, u32))>);

/// A resume order handed to the pipeline by the self-healing driver:
/// checkpointed structures already validated against the survivor set,
/// to be restored instead of recomputed.
#[derive(Clone, Debug)]
pub(crate) struct ResumeSpec {
    /// Restore the election stage: a BFS tree already known to span the
    /// current graph from a live leader. `None` ⇒ re-elect from scratch.
    pub bfs: Option<LoggedBfs>,
    /// Checkpointed packed trees to restore, oldest first, each spanning
    /// the current graph. A minimum is kept only while it is still
    /// trustworthy: the participant set is unchanged, or every excised
    /// node was pendant in the checkpoint's graph (a degree-1 node's
    /// only edge crosses no survivor subtree cut, so every surviving cut
    /// value is untouched by the excision).
    pub trees: Vec<LoggedTree>,
    /// Name prefix of the resume validation phases
    /// (`recover.e{epoch}.resume`).
    pub prefix: String,
}

/// A rooted forest in column form, the one shape in which the driver
/// keeps a tree: a parent port per node, and a flag per CSR slot that
/// marks both directions of every tree edge. Node `v`'s view of it,
/// [`Forest::tree`], borrows its parent port and its row of flags, so a
/// phase reads the tree where it lies. The BFS tree, the fragment
/// forest, the best tree's snapshot and a restored checkpoint tree all
/// take this form.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Forest {
    /// Per node: the port to its parent (`None` at a root).
    parent: Vec<Option<Port>>,
    /// Per slot: the port's edge is a tree edge.
    ports: Vec<bool>,
}

impl Forest {
    /// The empty forest on `g`: every node a root, no tree edge.
    fn new(g: &WeightedGraph) -> Self {
        Forest {
            parent: vec![None; g.node_count()],
            ports: vec![false; g.adjacency().len()],
        }
    }

    /// The tree whose edges are `pairs`, undirected node-id pairs,
    /// oriented from `root`: each node flags the ports of its pairs and
    /// takes the one toward `root` as its parent port. Every node knows
    /// its neighbors a priori, so the conversion costs zero messages.
    /// The driver's one conversion of a checkpointed tree into its
    /// columns.
    fn from_pairs(g: &WeightedGraph, pairs: &[(u32, u32)], root: NodeId) -> Self {
        let off = g.offsets();
        let port = |v: u32, u: u32| {
            let adj = g.neighbors(NodeId::new(v));
            let p = adj.iter().position(|a| a.neighbor.raw() == u);
            Port(p.expect("tree edges are graph edges") as u32)
        };
        let mut f = Forest::new(g);
        for &(x, y) in pairs {
            f.ports[off[x as usize] as usize + port(x, y).index()] = true;
            f.ports[off[y as usize] as usize + port(y, x).index()] = true;
        }
        let mut stack = vec![root.index()];
        while let Some(v) = stack.pop() {
            let adj = g.neighbors(NodeId::from_index(v));
            for c in Tree::new(f.parent[v], &f.ports[slots(off, v)]).children() {
                let u = adj[c.index()].neighbor;
                f.parent[u.index()] = Some(port(u.raw(), v as u32));
                stack.push(u.index());
            }
        }
        debug_assert_eq!(
            f.parent.iter().flatten().count() + 1,
            f.parent.len(),
            "the pairs span the graph"
        );
        f
    }

    /// Node `v`'s view of the forest.
    fn tree(&self, off: &[u32], v: usize) -> Tree<'_> {
        Tree::new(self.parent[v], &self.ports[slots(off, v)])
    }

    /// Every node's view, in node order.
    fn trees<'a>(&'a self, off: &'a [u32]) -> impl Iterator<Item = Tree<'a>> + 'a {
        (0..self.parent.len()).map(move |v| self.tree(off, v))
    }

    /// Empties the forest in place.
    fn clear(&mut self) {
        self.parent.fill(None);
        self.ports.fill(false);
    }
}

/// Node `v`'s slots in a per-slot column: its ports, laid out by the
/// graph's CSR offsets.
fn slots(off: &[u32], v: usize) -> Range<usize> {
    off[v] as usize..off[v + 1] as usize
}

/// A per-slot column cut into one mutable row per node, in node order.
fn rows_mut<'a, T>(mut col: &'a mut [T], off: &'a [u32]) -> impl Iterator<Item = &'a mut [T]> {
    off.windows(2).map(move |w| {
        let (row, rest) = std::mem::take(&mut col).split_at_mut((w[1] - w[0]) as usize);
        col = rest;
        row
    })
}

/// The edges of the tree whose parent port at node `v` is `parent(v)`,
/// each node with its parent, as the undirected node-id pairs a
/// checkpoint keeps (checkpoint capture).
fn pairs(g: &WeightedGraph, parent: impl Fn(usize) -> Option<Port>) -> Vec<(u32, u32)> {
    (0..g.node_count())
        .filter_map(|v| {
            let p = parent(v)?;
            Some((
                v as u32,
                g.neighbors(NodeId::from_index(v))[p.index()].neighbor.raw(),
            ))
        })
        .collect()
}

/// Distributed re-validation of a restored tree rooted at `root`: one
/// convergecast counting the nodes the tree's edges actually reach. A
/// count short of `n` means the restored structure is stale (a logic
/// error — the recovery driver validates structurally before
/// restoring); a node that died since the checkpoint surfaces as the
/// usual suspicion abort, which the recovery loop catches.
fn validate_restored(
    net: &mut Network<'_>,
    name: &str,
    tree: &Forest,
    root: NodeId,
) -> Result<(), MinCutError> {
    let inputs: Vec<(Tree, SumU64)> = tree
        .trees(net.graph().offsets())
        .map(|t| (t, SumU64(1)))
        .collect();
    let SumU64(count) = net.run(name, &Convergecast::new(), inputs)?.outputs[root.index()];
    let n = tree.parent.len();
    if count != n as u64 {
        return Err(MinCutError::InvalidConfig {
            reason: format!("restored checkpoint tree reached {count} of {n} survivors"),
        });
    }
    Ok(())
}

/// The port of a node's adjacency `adj` that carries edge `e`, if any.
fn port_of_edge(adj: &[AdjEntry], e: u32) -> Option<Port> {
    adj.iter()
        .position(|a| a.edge.raw() == e)
        .map(|p| Port(p as u32))
}

/// Every node's memory, as flat columns that live for the whole run;
/// the per-tree ones are reset in place for each tree. Per-node columns
/// are indexed by node id. Per-slot columns hold node `v`'s port `p` at
/// `offsets[v] + p`, the graph's own CSR layout
/// ([`WeightedGraph::offsets`]), so node `v`'s row of one is
/// `col[slots(offsets, v)]`. Edge ids, weights and weighted degrees are
/// not copied: nodes read them from `g`, as through `NodeCtx`.
///
/// Each phase borrows every node's rows for its run: trees as
/// [`Tree`] views of a [`Forest`], labels and flags shared, and the
/// rows a phase writes (the port view, the `.cd` child cache, the `T_F`
/// roles) mutably, written in place. A failed phase can leave them half
/// updated, which is harmless: [`run_pipeline`] drops the pipeline with
/// the error and never reads them again.
#[derive(Debug)]
struct Columns {
    // -- for the run --
    /// The leader's BFS tree.
    bfs: Forest,
    /// Per node: its own and its BFS children's pre-order intervals,
    /// the labels the leader's routed rows travel by.
    labels: Vec<Intervals>,
    /// Per slot: the edge's packing weight.
    pack_w: Vec<u64>,
    /// Per slot: trees packed so far that use the edge.
    loads: Vec<u64>,
    /// The best tree seen so far: `side`'s flood scaffold.
    snap: Forest,
    // -- per node, per tree: phase A --
    /// Phase-A fragment id.
    frag: Vec<u32>,
    /// The fragment reached the size cap.
    frozen: Vec<bool>,
    /// Fragment-tree depth (maintained by the hook handshake; drives
    /// the `.cd` send schedule).
    depth: Vec<u32>,
    /// `.cd`: aggregate last sent up (delta cache).
    cd_sent: Vec<Option<OptAgg>>,
    /// `.cd`: the fragment was restructured since the last pass — speak
    /// unconditionally.
    cd_purge: Vec<bool>,
    /// The fragment forest: each node's fragment-tree parent port and
    /// the flags of its fragment-tree edges.
    forest: Forest,
    // -- per slot, per tree: phase A --
    /// The neighbor's `(frag, frozen)` as this node last heard or
    /// inferred it.
    view: Vec<FragMsg>,
    /// The neighbor must be told this node's `(frag, frozen)` at the
    /// next `.exch` (boundary ports of a relabel/freeze; old-fragment
    /// neighbors infer the change locally).
    ann: Vec<bool>,
    /// `.cd`: last aggregate received from the port.
    cd_children: Vec<Option<OptAgg>>,
    // -- per tree: orientation and the cut stage --
    /// Per node: its `T_F` parent port, the inter-fragment edge at the
    /// connector of a non-root fragment.
    tf_parent: Vec<Option<Port>>,
    /// Per slot: at an attachment, the number of the child fragment
    /// whose connector the port reaches.
    tf_child: Vec<Option<u32>>,
    /// Per node: its fragment's number in `T_F`'s pre-order (from
    /// `orient`; the root fragment is 0).
    num: Vec<u32>,
    /// Per slot: at a fragment-tree parent, the child's subtree size,
    /// from `s2a`. `s2a` writes every child's entry before `s2b` reads
    /// it, so the column is never reset.
    sizes: Vec<u32>,
    /// Per node: its in-fragment pre-order interval `(in, out)`, from
    /// `s2b`.
    span: Vec<(u32, u32)>,
    /// Per fragment number: the in-fragment in-time of the fragment's
    /// attachment, from `s2c`. Every member of the parent fragment
    /// learns it, and the column is the one copy of their identical
    /// tables, as [`Pipeline::shape`] is of the shape.
    att: Vec<Option<u32>>,
    /// Per node: `C(v↓)`, from `s5e`.
    cval: Vec<u64>,
}

impl Columns {
    /// Columns for `g` over the BFS tree `bfs` with its `labels`, every
    /// per-tree entry in its reset state.
    fn new(g: &WeightedGraph, pack_edge: &[u64], bfs: Forest, labels: Vec<Intervals>) -> Self {
        let (n, slots) = (g.node_count(), g.adjacency().len());
        let mut cols = Columns {
            bfs,
            labels,
            pack_w: g
                .adjacency()
                .iter()
                .map(|a| pack_edge[a.edge.index()])
                .collect(),
            loads: vec![0; slots],
            snap: Forest::new(g),
            frag: vec![0; n],
            frozen: vec![false; n],
            depth: vec![0; n],
            cd_sent: vec![None; n],
            cd_purge: vec![false; n],
            forest: Forest::new(g),
            view: vec![
                FragMsg {
                    frag: 0,
                    frozen: false
                };
                slots
            ],
            ann: vec![false; slots],
            cd_children: vec![None; slots],
            tf_parent: vec![None; n],
            tf_child: vec![None; slots],
            num: vec![0; n],
            sizes: vec![0; slots],
            span: vec![(0, 0); n],
            att: Vec::new(),
            cval: vec![0; n],
        };
        cols.reset(g);
        cols
    }

    /// Resets the per-tree columns before packing the next tree: every
    /// node is its own fragment, unfrozen, with empty caches and no
    /// `T_F` role.
    fn reset(&mut self, g: &WeightedGraph) {
        for (v, f) in self.frag.iter_mut().enumerate() {
            *f = v as u32;
        }
        self.frozen.fill(false);
        self.depth.fill(0);
        self.cd_sent.fill(None);
        self.cd_purge.fill(false);
        self.forest.clear();
        // Level-0 fragment ids are node ids, and neighbor ids are
        // a-priori local knowledge in CONGEST — so phase A's initial
        // per-port view costs zero messages.
        for (view, a) in self.view.iter_mut().zip(g.adjacency()) {
            *view = FragMsg {
                frag: a.neighbor.raw(),
                frozen: false,
            };
        }
        self.ann.fill(false);
        self.cd_children.fill(None);
        self.tf_parent.fill(None);
        self.tf_child.fill(None);
        self.num.fill(0);
        self.span.fill((0, 0));
        self.att.clear();
        self.cval.fill(0);
    }

    /// Node `v`'s global-tree parent port: its in-fragment parent, or
    /// the inter-fragment edge at a connector (`None` at the leader).
    fn t_parent(&self, v: usize) -> Option<Port> {
        self.forest.parent[v].or(self.tf_parent[v])
    }

    /// Whether node `v`'s slot `s` is a global-tree edge: a
    /// fragment-tree edge or one of its `T_F` edges.
    fn t_port(&self, off: &[u32], v: usize, s: usize) -> bool {
        self.forest.ports[s]
            || self.tf_child[s].is_some()
            || self.tf_parent[v].is_some_and(|p| off[v] as usize + p.index() == s)
    }
}

/// The local best phase-A candidate of a node in fragment `frag`, from
/// its adjacency `adj` and its rows of the port view, packing weights
/// and loads: the minimum-key incident edge with packing weight that
/// leaves the fragment, with the fragment across it.
fn local_cand(
    frag: u32,
    adj: &[AdjEntry],
    view: &[FragMsg],
    pack_w: &[u64],
    loads: &[u64],
) -> Option<OptCand> {
    let mut best: Option<(usize, Cand)> = None;
    for (p, a) in adj.iter().enumerate() {
        if view[p].frag != frag && pack_w[p] > 0 {
            let cand = Cand {
                load: loads[p],
                weight: pack_w[p],
                edge: a.edge.raw(),
            };
            if better(best.map(|(_, c)| c), Some(cand)) == Some(cand) {
                best = Some((p, cand));
            }
        }
    }
    best.map(|(p, cand)| OptCand {
        cand,
        target_frag: view[p].frag,
        target_frozen: view[p].frozen,
    })
}

/// Inputs of a table stream down the BFS tree `bfs` with its `labels`:
/// the leader streams the routed rows of `table`, and the nodes each
/// row reaches fold it into their accumulator, one of `accs` per node
/// in node order.
fn bfs_stream<'a, T, A>(
    bfs: &'a Forest,
    labels: &'a [Intervals],
    off: &'a [u32],
    leader: NodeId,
    mut table: Vec<(Route, T)>,
    accs: impl IntoIterator<Item = A>,
) -> Vec<StreamInput<'a, T, A>> {
    bfs.trees(off)
        .zip(labels)
        .zip(accs)
        .enumerate()
        .map(|(v, ((tree, iv), acc))| {
            let list = if v == leader.index() {
                std::mem::take(&mut table)
            } else {
                Vec::new()
            };
            (tree, iv, list, acc)
        })
        .collect()
}

/// Safety cap on phase-A levels. Phase A does not bound its level count
/// by `O(log n)` (each level merges at least one pair per choice-graph
/// component; see [`crate::dist::mst`]); fragments still below the size
/// cap after this many levels are handed to phase B, which remains
/// correct.
const MAX_PHASE_A_LEVELS: usize = 96;

/// The pipeline state: the simulated network plus every node's memory.
struct Pipeline<'g> {
    g: &'g WeightedGraph,
    net: Network<'g>,
    mst: MstConfig,
    cols: Columns,
    leader: NodeId,
    n: usize,
    /// The current tree's `T_F` shape, numbered in pre-order. Every node
    /// receives it in `orient.tf` (its rounds and messages are paid), but
    /// keeps only its own and its neighbors' fragment numbers; the cut
    /// stage's classification reads this one copy instead of `n`
    /// identical ones.
    shape: TfShape,
    /// The leader's row of each non-root fragment, fragment `f` at
    /// `f − 1`.
    tf: Vec<TfRow>,
}

/// The leader's row of one non-root fragment of `T_F`: what `orient.tf`
/// routes to the two endpoints of the fragment's tree edge, by the BFS
/// in-times the chosen edge carried up.
#[derive(Clone, Copy, Debug)]
struct TfRow {
    frag: u32,
    edge: u32,
    /// The attachment's BFS in-time: the fragment's `s4b` pairs and its
    /// `s5d` sum are routed there.
    att: u32,
    /// The connector's BFS in-time.
    conn: u32,
}

impl<'g> Pipeline<'g> {
    /// The pipeline over the leader's labelled BFS tree: every node's
    /// static memory is its local knowledge plus its view of that tree
    /// and its labels. The tree comes from the election, or, given a
    /// resume order that restores it, from the checkpoint: installed
    /// with its labels and re-validated by one convergecast
    /// (`{prefix}.bfs`). On failure the ledger accumulated so far rides
    /// along with the error (see [`run_pipeline`]).
    fn new(
        g: &'g WeightedGraph,
        network: NetworkConfig,
        mst: MstConfig,
        pack_edge: &[u64],
        resume: Option<&ResumeSpec>,
    ) -> Result<Self, (MinCutError, MetricsLedger)> {
        let mut net =
            Network::new(g, network).map_err(|e| (MinCutError::from(e), MetricsLedger::new()))?;
        let off = g.offsets();
        let mut bfs = Forest::new(g);
        let established = match resume.and_then(|s| Some((s.bfs.as_ref()?, &s.prefix))) {
            None => net
                .run("leader_bfs", &LeaderBfs::new(), vec![(); g.node_count()])
                .map_err(MinCutError::from)
                .map(|out| {
                    let leader = out.outputs[0].leader;
                    let labels = out
                        .outputs
                        .into_iter()
                        .enumerate()
                        .map(|(v, o)| {
                            bfs.parent[v] = o.parent;
                            bfs.ports[slots(off, v)].copy_from_slice(&o.ports);
                            o.iv
                        })
                        .collect();
                    (leader, labels)
                }),
            Some((logged, prefix)) => {
                let leader = NodeId::new(logged.leader);
                bfs = Forest::from_pairs(g, &logged.edges, leader);
                let labels = (0..g.node_count())
                    .map(|v| {
                        let (in_t, out_t) = logged.labels[v];
                        let adj = g.neighbors(NodeId::from_index(v));
                        let children = bfs
                            .tree(off, v)
                            .children()
                            .map(|p| {
                                let (lo, hi) = logged.labels[adj[p.index()].neighbor.index()];
                                (p, lo, hi)
                            })
                            .collect();
                        Intervals {
                            in_t,
                            out_t,
                            children,
                        }
                    })
                    .collect();
                let name = format!("{prefix}.bfs");
                validate_restored(&mut net, &name, &bfs, leader).map(|()| (leader, labels))
            }
        };
        let (leader, labels) = established.map_err(|e| (e, net.ledger().clone()))?;
        Ok(Pipeline {
            g,
            net,
            mst,
            cols: Columns::new(g, pack_edge, bfs, labels),
            leader,
            n: g.node_count(),
            shape: TfShape::new(&[]),
            tf: Vec::new(),
        })
    }

    /// The labelled BFS tree (checkpoint capture).
    fn logged_bfs(&self) -> LoggedBfs {
        LoggedBfs {
            leader: self.leader.raw(),
            edges: pairs(self.g, |v| self.cols.bfs.parent[v]),
            labels: self
                .cols
                .labels
                .iter()
                .map(|iv| (iv.in_t, iv.out_t))
                .collect(),
        }
    }

    /// Node `v`'s adjacency entry toward its parent in the current
    /// global tree (`None` at the leader).
    fn t_up(&self, v: usize) -> Option<&AdjEntry> {
        let p = self.cols.t_parent(v)?;
        Some(&self.g.neighbors(NodeId::from_index(v))[p.index()])
    }

    /// The current global tree's sorted edge ids (its `tree_edges`
    /// outcome entry).
    fn tree_edges(&self) -> Vec<graphs::EdgeId> {
        let mut ids: Vec<graphs::EdgeId> = (0..self.n)
            .filter_map(|v| Some(self.t_up(v)?.edge))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The minimum-weighted-degree singleton: the packing's seed
    /// candidate and initial `λ̂`, via one convergecast.
    fn init_deg(&mut self) -> Result<(u64, NodeId), MinCutError> {
        let g = self.g;
        let inputs: Vec<(Tree, MinPair)> = self
            .cols
            .bfs
            .trees(g.offsets())
            .zip(g.nodes())
            .map(|(t, v)| (t, MinPair(g.weighted_degree(v), v.raw().into())))
            .collect();
        let out = self.net.run("init.deg", &Convergecast::new(), inputs)?;
        let MinPair(d, v) = out.outputs[self.leader.index()];
        Ok((d, NodeId::new(v as u32)))
    }

    /// Resets the per-tree memory before packing the next tree.
    fn reset_tree(&mut self) {
        self.shape = TfShape::new(&[]);
        self.tf.clear();
        self.cols.reset(self.g);
    }

    /// Phase A, capped fragment growth (see [`crate::dist::mst`] and
    /// `docs/mst.md`): boundary-only label refresh, one fused `.cd` pass
    /// per level (delta-convergecast up, decision broadcast down only
    /// when the fragment hooks or freezes), deterministic
    /// lowest-differing-bit mating, and frozen fragments out of the
    /// loop entirely. Its state is the per-tree part of [`Columns`],
    /// updated in place: each phase borrows every node's rows, and the
    /// driver applies what the outputs decided.
    ///
    /// The per-level `maxdepth` scalar handed to every node is driver
    /// control plane — a loop-scheduling decision a real deployment
    /// would obtain from an `O(D)` convergecast, like the termination
    /// checks above it (see the module docs).
    fn mst_phase_a_opt(&mut self) -> Result<(), MinCutError> {
        let cap = self.mst.effective_cap(self.n) as u64;
        let g = self.g;
        let off = g.offsets();
        let Columns {
            frag,
            frozen,
            depth,
            cd_sent,
            cd_purge,
            forest: Forest {
                parent,
                ports: tree,
            },
            view,
            ann,
            cd_children,
            pack_w,
            loads,
            ..
        } = &mut self.cols;
        for level in 0..MAX_PHASE_A_LEVELS {
            if frag.iter().all(|&f| f == frag[0]) || frozen.iter().all(|&f| f) {
                return Ok(());
            }
            // 1. Label refresh, per-port delta discipline: a relabeled or
            // freshly frozen node announces only on the ports its
            // announce flags marked (boundary edges of the change) — its
            // old-fragment neighbors relabeled with it and inferred the
            // new view for free. Level 0 is silent by construction
            // (fragment ids are node ids, already in every port view),
            // and a globally silent refresh skips the phase.
            if ann.contains(&true) {
                let inputs: Vec<DeltaInput<FragMsg>> = rows_mut(view, off)
                    .enumerate()
                    .map(|(v, view)| DeltaInput {
                        value: FragMsg {
                            frag: frag[v],
                            frozen: frozen[v],
                        },
                        announce: &ann[slots(off, v)],
                        view,
                    })
                    .collect();
                let name = format!("mstA.l{level}.exch");
                self.net.run(&name, &PortDeltaExchange::new(), inputs)?;
                ann.fill(false);
            }
            // 2. Fused candidate/decision pass over the unfrozen
            // fragment trees.
            let maxdepth = depth
                .iter()
                .zip(frozen.iter())
                .filter(|&(_, &fz)| !fz)
                .map(|(&d, _)| d)
                .max()
                .unwrap_or(0);
            let inputs: Vec<CdInput> = rows_mut(cd_children, off)
                .enumerate()
                .map(|(v, children)| {
                    let s = slots(off, v);
                    let adj = g.neighbors(NodeId::from_index(v));
                    let local = if frozen[v] {
                        None
                    } else {
                        let (vw, pw, ld) =
                            (&view[s.clone()], &pack_w[s.clone()], &loads[s.clone()]);
                        local_cand(frag[v], adj, vw, pw, ld)
                    };
                    CdInput {
                        tree: Tree::new(parent[v], &tree[s]),
                        depth: depth[v],
                        maxdepth,
                        frag: frag[v],
                        cap,
                        frozen: frozen[v],
                        local,
                        purge: cd_purge[v],
                        sent: cd_sent[v],
                        children,
                    }
                })
                .collect();
            let name = format!("mstA.l{level}.cd");
            let decs = self.net.run(&name, &CandDec::default(), inputs)?.outputs;
            let mut any_hook = false;
            for (v, o) in decs.iter().enumerate() {
                cd_sent[v] = o.sent;
                cd_purge[v] = false;
                let Some(d) = o.dec else { continue };
                any_hook |= d.hook_edge.is_some();
                if d.frozen && !frozen[v] {
                    frozen[v] = true;
                    // Fragment-internal neighbors froze with us (same
                    // broadcast); boundary neighbors hear it at the
                    // next refresh — unless they are frozen too (they
                    // never consult their phase-A views again; the
                    // full `mstB.exch` refreshes them) or the edge has
                    // no packing weight (it can never be a candidate
                    // of either side).
                    for s in slots(off, v) {
                        if view[s].frag == frag[v] {
                            view[s].frozen = true;
                        } else if !view[s].frozen && pack_w[s] > 0 {
                            ann[s] = true;
                        }
                    }
                }
            }
            if !any_hook {
                continue;
            }
            // 3. Hook handshake + re-root floods. Every fragment that is
            // not itself hooking accepts — deterministic mating admits
            // no 2-cycles.
            let inputs: Vec<HookInput> = (0..self.n)
                .map(|v| {
                    let s = slots(off, v);
                    let hook_edge = decs[v].dec.and_then(|d| d.hook_edge);
                    let role = match hook_edge {
                        Some(e) => match port_of_edge(g.neighbors(NodeId::from_index(v)), e) {
                            Some(p) if view[s.start + p.index()].frag != frag[v] => {
                                HookRole::Connector {
                                    port: p,
                                    target_frag: view[s.start + p.index()].frag,
                                }
                            }
                            _ => HookRole::Await,
                        },
                        None => HookRole::Passive,
                    };
                    HookInput {
                        tree: &tree[s],
                        role,
                        eligible: hook_edge.is_none(),
                        frozen: frozen[v],
                        depth: depth[v],
                    }
                })
                .collect();
            let name = format!("mstA.l{level}.hook");
            let out = self.net.run(&name, &FragHook::default(), inputs)?;
            for (v, h) in out.outputs.into_iter().enumerate() {
                let s = slots(off, v);
                if let Some((f, fz)) = h.new_frag {
                    let old = frag[v];
                    frag[v] = f;
                    frozen[v] = fz;
                    // Only nodes whose parent flipped (the old-root →
                    // connector path of the re-root) have a restructured
                    // subtree; off-path members keep their child caches
                    // and stay silent next level unless their aggregate
                    // really changed.
                    if parent[v] != h.new_parent {
                        cd_purge[v] = true;
                    }
                    parent[v] = h.new_parent;
                    if let Some(p) = h.new_parent {
                        tree[s.start + p.index()] = true;
                    }
                    depth[v] = h.new_depth.expect("re-root floods carry a depth");
                    // Neighbors in the old fragment relabeled with us —
                    // their view of this node updates by the same local
                    // inference we apply to our view of them. Everyone
                    // else gets an announcement next level, with the same
                    // two exceptions as the freeze announcement: frozen
                    // neighbors and zero-packing-weight edges never read
                    // this view again.
                    for s in s.clone() {
                        if view[s].frag == old {
                            view[s] = FragMsg {
                                frag: f,
                                frozen: fz,
                            };
                            ann[s] = false;
                        } else {
                            ann[s] = !view[s].frozen && pack_w[s] > 0;
                        }
                    }
                }
                for p in h.accepted {
                    tree[s.start + p.index()] = true;
                }
            }
        }
        Ok(())
    }

    /// Phase B (see [`crate::dist::mst`]): one label exchange and the
    /// cycle-filtered upcast of the inter-fragment edges to the leader.
    /// Returns the leader's chosen edges, the `T_F` edges.
    fn mst_phase_b(&mut self) -> Result<Vec<InterEdge>, MinCutError> {
        // Every node tells every neighbor its final phase-A fragment and
        // its BFS in-time, which the neighbor's offered edge carries.
        let cols = &self.cols;
        let inputs: Vec<FragLabel> = cols
            .frag
            .iter()
            .zip(&cols.labels)
            .map(|(&frag, iv)| FragLabel {
                frag,
                bfs_in: iv.in_t,
            })
            .collect();
        let out = self
            .net
            .run("mstB.exch", &NeighborExchange::new(), inputs)?;
        // The lower-id endpoint of every inter-fragment edge with packing
        // weight offers it (neighbor ids are local knowledge).
        let g = self.g;
        let off = g.offsets();
        let inputs: Vec<(Tree, Vec<InterEdge>)> = cols
            .bfs
            .trees(off)
            .zip(out.outputs)
            .enumerate()
            .map(|(v, (tree, labels))| {
                let adj = g.neighbors(NodeId::from_index(v));
                let frag = cols.frag[v];
                let mut offered = Vec::new();
                for ((a, label), s) in adj.iter().zip(labels).zip(slots(off, v)) {
                    let label = label.expect("every neighbor sends");
                    if label.frag != frag && cols.pack_w[s] > 0 && (v as u32) < a.neighbor.raw() {
                        offered.push(InterEdge {
                            cand: Cand {
                                load: cols.loads[s],
                                weight: cols.pack_w[s],
                                edge: a.edge.raw(),
                            },
                            frags: (frag, label.frag),
                            ends: (cols.labels[v].in_t, label.bfs_in),
                        });
                    }
                }
                (tree, offered)
            })
            .collect();
        let mut out = self
            .net
            .run("mstB.up", &FilteredUpcast::default(), inputs)?;
        let chosen = out.outputs[self.leader.index()]
            .take()
            .expect("leader is the BFS root");
        // Every fragment has exactly one root: the node without a
        // fragment-tree parent.
        let k = cols.forest.parent.iter().filter(|p| p.is_none()).count();
        if chosen.len() + 1 < k {
            return Err(MinCutError::InvalidConfig {
                reason: format!(
                    "distributed MST joined {} of {k} fragments (disconnected packing graph?)",
                    chosen.len() + 1
                ),
            });
        }
        Ok(chosen)
    }

    /// Orientation: the leader roots `T_F` at its own fragment and
    /// numbers it in pre-order, streams its shape to every node and each
    /// fragment's row to the fragment's two ends, and every fragment
    /// re-roots at its connector, which hands its members the number.
    fn orient(&mut self, chosen: Vec<InterEdge>) -> Result<(), MinCutError> {
        // Leader-local: number T_F in pre-order from the leader's
        // fragment. Each chosen edge names both fragments and both
        // endpoints' BFS in-times; whichever fragment ends up the parent,
        // its endpoint is the attachment and the other the connector.
        let mut adj: BTreeMap<u32, Vec<TfRow>> = BTreeMap::new();
        for e in &chosen {
            let ((f0, f1), (b0, b1)) = (e.frags, e.ends);
            let edge = e.cand.edge;
            adj.entry(f0).or_default().push(TfRow {
                frag: f1,
                edge,
                att: b0,
                conn: b1,
            });
            adj.entry(f1).or_default().push(TfRow {
                frag: f0,
                edge,
                att: b1,
                conn: b0,
            });
        }
        let root_frag = self.cols.frag[self.leader.index()];
        let mut seen = BTreeSet::from([root_frag]);
        let mut parents = Vec::new();
        let mut stack: Vec<(u32, Option<TfRow>)> = vec![(0, None)];
        while let Some((parent, row)) = stack.pop() {
            let frag = row.map_or(root_frag, |r| r.frag);
            if let Some(r) = row {
                parents.push(parent);
                self.tf.push(r);
            }
            let num = self.tf.len() as u32;
            for &child in adj.get(&frag).into_iter().flatten().rev() {
                if seen.insert(child.frag) {
                    stack.push((num, Some(child)));
                }
            }
        }
        self.shape = TfShape::new(&parents);
        // One stream over the BFS tree. The shape rows reach every node;
        // the cut stage reads the leader's copy of them. Each fragment's
        // row reaches only the two endpoints of its edge, which mark the
        // port: the one inside the row's fragment is its connector and
        // takes the number, the other is the attachment and notes the
        // child fragment's number beside the port.
        type Roles<'m> = (
            &'m mut Option<Port>,
            &'m mut u32,
            &'m mut [Option<u32>],
            u32,
            &'m [AdjEntry],
        );
        let roles = |(parent, num, child, frag, adj): &mut Roles<'_>, item: &TfItem| {
            let TfItem::Row {
                frag: f,
                edge,
                num: n,
            } = *item
            else {
                return;
            };
            let p = port_of_edge(adj, edge).expect("a row reaches its edge's endpoints");
            if *frag == f {
                **parent = Some(p);
                **num = n;
            } else {
                child[p.index()] = Some(n);
            }
        };
        let table = self.tf_stream();
        let g = self.g;
        let off = g.offsets();
        let cols = &mut self.cols;
        let accs = cols
            .tf_parent
            .iter_mut()
            .zip(cols.num.iter_mut())
            .zip(rows_mut(&mut cols.tf_child, off))
            .zip(&cols.frag)
            .enumerate()
            .map(|(v, (((parent, num), child), &frag))| {
                (parent, num, child, frag, g.neighbors(NodeId::from_index(v)))
            });
        let inputs = bfs_stream(&cols.bfs, &cols.labels, off, self.leader, table, accs);
        self.net
            .run("orient.tf", &BroadcastItems::new(roles), inputs)?;
        // Re-root every fragment at its connector (the leader for the
        // root fragment, number 0), flooding the fragment's number.
        let inputs: Vec<RerootInput> = (0..self.n)
            .map(|v| {
                let starts = v == self.leader.index() || cols.tf_parent[v].is_some();
                RerootInput {
                    tree: &cols.forest.ports[slots(off, v)],
                    initiator: starts.then_some(cols.num[v]),
                }
            })
            .collect();
        let out = self
            .net
            .run("orient.flood", &FragReroot::default(), inputs)?;
        for (v, (parent, num)) in out.outputs.into_iter().enumerate() {
            cols.forest.parent[v] = parent;
            cols.num[v] = num;
        }
        Ok(())
    }

    /// The `orient.tf` stream: the shape rows to every node, packed to
    /// the network's bandwidth, then each non-root fragment's row routed
    /// to its attachment and its connector.
    fn tf_stream(&self) -> Vec<(Route, TfItem)> {
        let shape = self.shape.rows(self.net.bandwidth_bits());
        let rows = self.tf.iter().zip(1..).map(|(r, num)| {
            let row = TfItem::Row {
                frag: r.frag,
                edge: r.edge,
                num,
            };
            (Route::Two(r.att, r.conn), row)
        });
        shape
            .into_iter()
            .map(|s| (Route::All, s))
            .chain(rows)
            .collect()
    }

    /// The Section-2 cut stage on the current tree: every node ends up
    /// with `C(v↓)`; returns the leader's `(min, argmin)` over `v ≠ root`.
    fn cut_stage(&mut self) -> Result<(u64, NodeId), MinCutError> {
        let n = self.n;
        let g = self.g;
        let off = g.offsets();
        let cols = &mut self.cols;
        // s2a: in-fragment subtree sizes, each child's at its port.
        let inputs: Vec<SizesInput> = cols
            .forest
            .trees(off)
            .zip(rows_mut(&mut cols.sizes, off))
            .map(|(tree, sizes)| SizesInput { tree, sizes })
            .collect();
        let sizes = self.net.run("s2a", &SizesUp::default(), inputs)?.outputs;
        // s2b: in-fragment Euler intervals.
        let inputs: Vec<IntervalInput> = cols
            .forest
            .trees(off)
            .zip(sizes)
            .enumerate()
            .map(|(v, (tree, size))| IntervalInput {
                tree,
                size,
                sizes: &cols.sizes[slots(off, v)],
            })
            .collect();
        cols.span = self
            .net
            .run("s2b", &IntervalDown::default(), inputs)?
            .outputs;
        // s2c: gather + spread the attachment in-times per fragment,
        // keyed by the number of the child fragment hung at each.
        let inputs: Vec<(Tree, Vec<AttItem>)> = cols
            .forest
            .trees(off)
            .enumerate()
            .map(|(v, tree)| {
                let in_t = cols.span[v].0;
                let items = cols.tf_child[slots(off, v)]
                    .iter()
                    .flatten()
                    .map(|&num| AttItem { num, in_t })
                    .collect();
                (tree, items)
            })
            .collect();
        let up = self.net.run("s2c.up", &UpcastItems::new(), inputs)?.outputs;
        // Every member of a fragment notes each attachment in-time of
        // its fragment as the row passes; the members' identical notes
        // share the one `att` column.
        cols.att.resize(self.shape.k(), None);
        let att = Cell::from_mut(&mut cols.att[..]).as_slice_of_cells();
        let note = |att: &mut &[Cell<Option<u32>>], a: &AttItem| {
            att[a.num as usize].set(Some(a.in_t));
        };
        let unlabelled = Intervals::default();
        let inputs: Vec<_> = cols
            .forest
            .trees(off)
            .zip(up)
            .map(|(tree, list)| {
                let rows = list
                    .into_iter()
                    .flatten()
                    .map(|a| (Route::All, a))
                    .collect();
                (tree, &unlabelled, rows, att)
            })
            .collect();
        self.net
            .run("s2c.down", &BroadcastItems::new(note), inputs)?;
        // s3: per-edge exchange of in-times and fragment numbers.
        let inputs = cols
            .span
            .iter()
            .zip(&cols.num)
            .map(|(&(in_t, _), &num)| NbMsg { in_t, num })
            .collect();
        let out = self.net.run("s3", &NeighborExchange::new(), inputs)?;
        // Local LCA case analysis: each endpoint places its edge in `T_F`
        // from the two fragment numbers and the shape `orient.tf`
        // delivered.
        let k = self.shape.k() as u64;
        let mut tokens: Vec<Vec<Token>> = vec![Vec::new(); n];
        let mut pairs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
        for (v, nb) in out.outputs.into_iter().enumerate() {
            let (in_t, num) = (cols.span[v].0, cols.num[v]);
            let adj = g.neighbors(NodeId::from_index(v));
            for (other, a) in nb.into_iter().zip(adj) {
                let other = other.expect("every neighbor sends");
                let w = a.weight;
                if other.num == num {
                    // Case 1 (same fragment): the deeper-in-preorder
                    // endpoint routes a token toward the LCA.
                    if in_t > other.in_t {
                        tokens[v].push(Token {
                            t_in: other.in_t,
                            w,
                        });
                    }
                    continue;
                }
                match self.shape.classify(num, other.num) {
                    // Case 3 with the LCA in my fragment: target the
                    // attachment of the child fragment toward the other
                    // side.
                    LcaCase::InMine { child } => {
                        let a_in =
                            cols.att[child as usize].expect("attachment table covers the child");
                        tokens[v].push(Token { t_in: a_in, w });
                    }
                    // Case 2: the LCA is a merging node in a third
                    // fragment; aggregate by the pair of child fragments
                    // below it. The smaller endpoint id emits.
                    LcaCase::Merging { g1, g2 } => {
                        if (v as u32) < a.neighbor.raw() {
                            let (lo, hi) = (g1.min(g2), g1.max(g2));
                            // Fragment numbers are below k, so one u64
                            // key `lo·k + hi < k²` holds the pair.
                            pairs[v].push((u64::from(lo) * k + u64::from(hi), w));
                        }
                    }
                    // The other endpoint originates.
                    LcaCase::InTheirs => {}
                }
            }
        }
        // s4a/s4b: merging-node contributions through the leader.
        let inputs: Vec<(Tree, Vec<(u64, u64)>)> = cols.bfs.trees(off).zip(pairs).collect();
        let mut out = self.net.run("s4a", &GroupedSum::new(), inputs)?;
        let pair_totals = out.outputs[self.leader.index()]
            .take()
            .expect("leader is the BFS root");
        // Each pair travels to the attachment of its first child
        // fragment, which holds the in-fragment in-time of the second's
        // attachment (both hang below the merging node, in its fragment)
        // and turns the pair into an `s5` token aimed at it: the token
        // stops at the pair's LCA, the merging node. The leader knows
        // each attachment by its BFS in-time.
        let items: Vec<(Route, PairItem)> = pair_totals
            .into_iter()
            .map(|(key, w)| {
                let (g1, g2) = ((key / k) as usize, (key % k) as u32);
                (Route::One(self.tf[g1 - 1].att), PairItem { num: g2, w })
            })
            .collect();
        let aim = |(att, toks): &mut (&[Option<u32>], &mut Vec<Token>), item: &PairItem| {
            let t_in = att[item.num as usize].expect("attachment table covers g2");
            toks.push(Token { t_in, w: item.w });
        };
        let accs = tokens.iter_mut().map(|toks| (&cols.att[..], toks));
        let inputs = bfs_stream(&cols.bfs, &cols.labels, off, self.leader, items, accs);
        self.net.run("s4b", &BroadcastItems::new(aim), inputs)?;
        // s5: route the case-1/3 tokens and the pair tokens to their LCAs;
        // the end wave brings each fragment's (Σδ, Σρ) to its root.
        let inputs: Vec<TokensInput> = cols
            .forest
            .trees(off)
            .zip(&cols.span)
            .zip(tokens)
            .zip(g.nodes())
            .map(|(((tree, &iv), tokens), v)| TokensInput {
                tree,
                iv,
                delta: g.weighted_degree(v),
                tokens,
            })
            .collect();
        let (rho, tots): (Vec<u64>, Vec<_>) = self
            .net
            .run("s5", &TokensUp::default(), inputs)?
            .outputs
            .into_iter()
            .unzip();
        // s5c: totals to the leader.
        let inputs: Vec<(Tree, Vec<TotItem>)> = cols
            .bfs
            .trees(off)
            .zip(tots)
            .zip(&cols.num)
            .map(|((tree, tot), &num)| {
                let items = tot
                    .map(|(d, r)| vec![TotItem { num, d, r }])
                    .unwrap_or_default();
                (tree, items)
            })
            .collect();
        let mut out = self.net.run("s5c", &UpcastItems::new(), inputs)?;
        let tot_items = out.outputs[self.leader.index()]
            .take()
            .expect("leader is the BFS root");
        // Leader-local: T_F subtree sums, in one reverse pass over the
        // pre-order numbers (each fragment's subtree is complete before
        // it is added to its parent).
        let mut sums = vec![(0u64, 0u64); self.shape.k()];
        for t in tot_items {
            sums[t.num as usize] = (t.d, t.r);
        }
        for f in (1..sums.len()).rev() {
            let (d, r) = sums[f];
            let parent = &mut sums[self.shape.parent(f as u32) as usize];
            parent.0 += d;
            parent.1 += r;
        }
        // s5d: route each non-root fragment's subtree sums to its
        // attachment, which adds up its child fragments' masses
        // `(Wδ, Wρ)`. (The root fragment hangs from no node.)
        let items: Vec<(Route, SumItem)> = self
            .tf
            .iter()
            .zip(&sums[1..])
            .map(|(r, &(sd, sr))| (Route::One(r.att), SumItem { sd, sr }))
            .collect();
        let masses = |(wd, wr): &mut (u64, u64), s: &SumItem| {
            *wd += s.sd;
            *wr += s.sr;
        };
        let accs = std::iter::repeat_n((0, 0), n);
        let inputs = bfs_stream(&cols.bfs, &cols.labels, off, self.leader, items, accs);
        let w: Vec<(u64, u64)> = self
            .net
            .run("s5d", &BroadcastItems::new(masses), inputs)?
            .outputs;
        // s5e: in-fragment subtree sums of (δ + Wδ, ρ + Wρ) give the
        // global (δ↓, ρ↓) at every node.
        let inputs: Vec<(Tree, (u64, u64))> = cols
            .forest
            .trees(off)
            .zip(g.nodes())
            .map(|(tree, v)| {
                let (wd, wr) = w[v.index()];
                (tree, (g.weighted_degree(v) + wd, rho[v.index()] + wr))
            })
            .collect();
        let down = self.net.run("s5e", &Convergecast::new(), inputs)?.outputs;
        for (v, (c, (d, r))) in cols.cval.iter_mut().zip(down).enumerate() {
            debug_assert!(d >= 2 * r, "Karger identity underflow at node {v}");
            *c = d - 2 * r;
        }
        // s5f: global argmin (the root's C is 0 by definition; excluded).
        let inputs: Vec<(Tree, MinPair)> = cols
            .bfs
            .trees(off)
            .zip(&cols.cval)
            .enumerate()
            .map(|(v, (tree, &c))| {
                let c = if v == self.leader.index() {
                    u64::MAX
                } else {
                    c
                };
                (tree, MinPair(c, v as u64))
            })
            .collect();
        let out = self.net.run("s5f", &Convergecast::new(), inputs)?;
        let MinPair(minc, argmin) = out.outputs[self.leader.index()];
        Ok((minc, NodeId::new(argmin as u32)))
    }

    /// The leader announces whether the tree it evaluated improved the
    /// global best (`s5g`), which is what tells every node to snapshot
    /// it in [`Pipeline::finish_tree`].
    fn announce(&mut self, improved: bool) -> Result<(), MinCutError> {
        let inputs: Vec<(Tree, Option<bool>)> = self
            .cols
            .bfs
            .trees(self.g.offsets())
            .enumerate()
            .map(|(v, tree)| (tree, (v == self.leader.index()).then_some(improved)))
            .collect();
        self.net.run("s5g", &Broadcast::new(), inputs)?;
        Ok(())
    }

    /// Every node bumps the loads of its incident edges of the installed
    /// tree, and snapshots the tree if it improved the global best: the
    /// same bookkeeping for a packed tree and a restored one.
    fn finish_tree(&mut self, improved: bool) {
        let off = self.g.offsets();
        let cols = &mut self.cols;
        for v in 0..self.n {
            for s in slots(off, v) {
                let t = cols.t_port(off, v, s);
                if improved {
                    cols.snap.ports[s] = t;
                }
                if t {
                    cols.loads[s] += 1;
                }
            }
            if improved {
                cols.snap.parent[v] = cols.t_parent(v);
            }
        }
    }

    /// Extracts the winning side: a broadcast of the winner plus — for
    /// subtree winners — one wave down the snapshotted tree.
    fn side(
        &mut self,
        best_node: Option<NodeId>,
        singleton: NodeId,
    ) -> Result<Vec<bool>, MinCutError> {
        let msg = SideMsg {
            singleton: best_node.is_none(),
            v: best_node.unwrap_or(singleton).raw(),
        };
        let off = self.g.offsets();
        let inputs: Vec<(Tree, Option<SideMsg>)> = self
            .cols
            .bfs
            .trees(off)
            .enumerate()
            .map(|(v, tree)| (tree, (v == self.leader.index()).then_some(msg)))
            .collect();
        let out = self.net.run("side.bc", &Broadcast::new(), inputs)?;
        let announced = out.outputs;
        if msg.singleton {
            return Ok((0..self.n).map(|v| v as u32 == announced[v].v).collect());
        }
        let inputs: Vec<SideInput> = self
            .cols
            .snap
            .trees(off)
            .zip(announced)
            .map(|(tree, a)| SideInput { tree, vstar: a.v })
            .collect();
        let out = self.net.run("side.flood", &SideFlood::default(), inputs)?;
        Ok(out.outputs)
    }
}

/// Runs the packing pipeline (see [`PipelineOpts`]), with the
/// self-healing driver's checkpoint seam: `resume` restores
/// pre-validated structures from an earlier attempt's [`RecoveryLog`],
/// and `log` captures this attempt's own stage outputs as they complete.
/// A restored BFS tree replaces the election; each restored packed tree
/// enters the packing loop in place of one MST and takes the packed
/// trees' path from there, its cut stage skipped while its minimum is
/// trusted. `exact_mincut`, the approximation and the baselines pass
/// `None` for both and pay nothing for the seam.
///
/// On failure the metrics ledger accumulated up to that point rides
/// along with the error; the callers that need only the error drop it.
/// The self-healing driver ([`crate::dist::recover`]) needs both: the
/// typed [`congest::CongestError::NodeSuspected`] carries the
/// virtual-round clock for rebasing the crash schedule, and the partial
/// ledger is what makes an aborted attempt's cost visible in the merged
/// accounting.
pub(crate) fn run_pipeline(
    g: &WeightedGraph,
    opts: &PipelineOpts,
    resume: Option<&ResumeSpec>,
    log: Option<&mut RecoveryLog>,
) -> Result<DistMinCutResult, (MinCutError, MetricsLedger)> {
    let n = g.node_count();
    if n < 2 {
        return Err((MinCutError::TooSmall { nodes: n }, MetricsLedger::new()));
    }
    // No upper bound on n here: the case-2 pair aggregation packs pairs
    // of child-fragment numbers into u64 stream keys (`lo·k + hi < k²`,
    // at most 2⌈log₂ n⌉ bits), so every n addressable by u32 node ids is
    // in range for exact and approx drivers alike.
    if !graphs::traversal::is_connected(g) {
        return Err((MinCutError::Disconnected, MetricsLedger::new()));
    }
    // Packing weights (skeleton or original), shared-coin sampled.
    let pack_edge: Vec<u64> = match opts.sample {
        None => g.edges().map(|e| g.weight(e)).collect(),
        Some((p, seed)) => g
            .edges()
            .map(|e| crate::seq::sampling::binomial(g.weight(e), p, seed, e.raw() as u64))
            .collect(),
    };
    // The packing subgraph must span the nodes.
    {
        let mut dsu = trees::DisjointSets::new(n);
        for (e, u, v, _) in g.edge_tuples() {
            if pack_edge[e.index()] > 0 {
                dsu.union(u.index(), v.index());
            }
        }
        if dsu.set_count() > 1 {
            return Err((MinCutError::Disconnected, MetricsLedger::new()));
        }
    }

    let mut pl = Pipeline::new(
        g,
        opts.network.clone(),
        opts.mst.clone(),
        &pack_edge,
        resume,
    )?;
    drive_packing(&mut pl, opts, resume, log).map_err(|e| (e, pl.net.ledger().clone()))
}

/// The packing loop proper, on an initialised pipeline: restores the
/// checkpointed trees, packs trees until the target is met, and
/// assembles the outcome. Split out of [`run_pipeline`] so a failure
/// leaves `pl` — and its ledger — accessible to the caller.
fn drive_packing(
    pl: &mut Pipeline<'_>,
    opts: &PipelineOpts,
    resume: Option<&ResumeSpec>,
    mut log: Option<&mut RecoveryLog>,
) -> Result<DistMinCutResult, MinCutError> {
    let n = pl.n;
    let restored = resume.map_or(&[][..], |s| &s.trees);
    // Fail-fast distributed re-validation: a trusted tree replays its
    // cut value without re-running the cut stage, so its structure is
    // the evidence — validate the deepest trusted entry whether the BFS
    // tree was restored or freshly elected (the pendant-excision trust
    // path arrives with no BFS tree: the dead leader invalidated it but
    // not the finished trees' cut values). A node that died since the
    // checkpoint aborts here, before any evidence is acted on; an
    // untrusted tree validates itself by running its cut stage.
    if let (Some(spec), Some((edges, _))) = (resume, restored.iter().rfind(|(_, c)| c.is_some())) {
        let tree = Forest::from_pairs(pl.g, edges, pl.leader);
        let name = format!("{}.trees", spec.prefix);
        validate_restored(&mut pl.net, &name, &tree, pl.leader)?;
    }
    if let Some(log) = log.as_deref_mut() {
        log.bfs = Some(pl.logged_bfs());
        log.trees.clear();
    }
    let (mut best_value, singleton) = pl.init_deg()?;
    if resume.is_some() {
        pl.net.obs_emit("recover.resume", restored.len() as u64);
    }
    let mut best_node: Option<NodeId> = None;
    let mut trees_to_best = 0usize;
    let mut packed = 0usize;
    let mut tree_edges: Vec<Vec<graphs::EdgeId>> = Vec::new();
    let mut phase_a_fragments: Vec<usize> = Vec::new();
    let mut tf_attachments: Vec<Vec<NodeId>> = Vec::new();
    // The checkpointed trees come first, whatever the target; then the
    // packing goes on until the target is met.
    let mut restored = restored.iter();
    loop {
        let checkpoint = restored.next();
        if checkpoint.is_none() && packed >= opts.packing.target_trees(n, best_value) {
            break;
        }
        pl.reset_tree();
        let trusted = match checkpoint {
            // A restored spanning tree is installed as one fragment
            // rooted at the leader: every node carries fragment number 0
            // in the one-fragment `T_F`, and there are no inter-fragment
            // edges, so `cut_stage` on it computes the exact global
            // 1-respecting minimum (the single-fragment degradation of
            // the fragment decomposition — every incident edge is a
            // same-fragment case). Its MST stages are skipped.
            Some((edges, cut)) => {
                pl.cols.forest = Forest::from_pairs(pl.g, edges, pl.leader);
                *cut
            }
            None => {
                pl.mst_phase_a_opt()?;
                let chosen = pl.mst_phase_b()?;
                pl.orient(chosen)?;
                phase_a_fragments.push(pl.shape.k());
                // The leader knows each attachment by its BFS in-time;
                // the outcome names it by node id, the endpoint of the
                // row's edge outside the row's fragment.
                let attachment = |r: &TfRow| {
                    let (a, b) = pl.g.endpoints(graphs::EdgeId::new(r.edge));
                    if pl.cols.frag[a.index()] == r.frag {
                        b
                    } else {
                        a
                    }
                };
                tf_attachments.push(pl.tf.iter().map(attachment).collect());
                None
            }
        };
        let (minc, argmin) = match trusted {
            // The checkpointed argmin names a tree edge; its argmin node
            // is whichever endpoint is the child under this attempt's
            // rooting (a fresh leader may have flipped the orientation).
            Some((c, (x, y))) => {
                let up = |v: u32| pl.t_up(v as usize).map(|a| a.neighbor.raw());
                let a = if up(x) == Some(y) {
                    x
                } else {
                    debug_assert_eq!(up(y), Some(x));
                    y
                };
                (c, NodeId::new(a))
            }
            None => {
                let (minc, argmin) = pl.cut_stage()?;
                pl.announce(minc < best_value)?;
                (minc, argmin)
            }
        };
        packed += 1;
        let improved = minc < best_value;
        if improved {
            best_value = minc;
            best_node = Some(argmin);
            trees_to_best = packed;
        }
        pl.finish_tree(improved);
        tree_edges.push(pl.tree_edges());
        if let Some(log) = log.as_deref_mut() {
            let up = pl.t_up(argmin.index()).expect("the argmin is not the root");
            let edges = pairs(pl.g, |v| pl.cols.t_parent(v));
            let cut = (minc, (argmin.raw(), up.neighbor.raw()));
            log.trees.push((edges, Some(cut)));
            pl.net.obs_emit("recover.checkpoint", packed as u64);
        }
    }
    let side = pl.side(best_node, singleton)?;
    let cut = CutResult {
        side,
        value: best_value,
    };
    debug_assert_eq!(
        graphs::cut::cut_of_side(pl.g, &cut.side),
        cut.value,
        "the announced side must evaluate to the announced value"
    );
    Ok(DistMinCutResult {
        cut,
        trees_packed: packed,
        trees_to_best,
        best_node,
        rounds: pl.net.ledger().total_rounds(),
        messages: pl.net.ledger().total_messages(),
        ledger: pl.net.ledger().clone(),
        tree_edges,
        phase_a_fragments,
        tf_attachments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::stoer_wagner;
    use crate::seq::tree_packing::{greedy_packing, packing_mincut};
    use graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn opts_fixed(k: usize) -> PipelineOpts {
        PipelineOpts {
            network: NetworkConfig::default(),
            mst: MstConfig::default(),
            packing: PackingConfig::fixed(k),
            sample: None,
        }
    }

    /// The distributed MST of every packing iteration equals the unique
    /// sequential relative-load MST — same edges, same weight.
    #[test]
    fn distributed_mst_matches_sequential_packing_trees() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut cases = vec![
            generators::torus2d(5, 5).unwrap(),
            generators::clique_pair(8, 3).unwrap().graph,
            generators::caterpillar(8, 2).unwrap(),
        ];
        let base = generators::erdos_renyi_connected(30, 0.2, &mut rng).unwrap();
        cases.push(generators::randomize_weights(&base, 1, 8, &mut rng).unwrap());
        for g in &cases {
            let k = 3;
            let want = greedy_packing(g, k).unwrap();
            let pack_edge: Vec<u64> = g.edges().map(|e| g.weight(e)).collect();
            let mut pl = Pipeline::new(
                g,
                NetworkConfig::default(),
                MstConfig::default(),
                &pack_edge,
                None,
            )
            .unwrap();
            pl.init_deg().unwrap();
            for tree_want in want.iter().take(k) {
                pl.reset_tree();
                pl.mst_phase_a_opt().unwrap();
                let chosen = pl.mst_phase_b().unwrap();
                pl.orient(chosen).unwrap();
                let got = pl.tree_edges();
                let mut want_sorted = tree_want.clone();
                want_sorted.sort_unstable();
                assert_eq!(got, want_sorted, "n = {}", g.node_count());
                // Weights agree with the sequential MST as well.
                let got_w: u64 = got.iter().map(|&e| g.weight(e)).sum();
                let want_w: u64 = want_sorted.iter().map(|&e| g.weight(e)).sum();
                assert_eq!(got_w, want_w);
                // Advance the loads exactly like the packing loop.
                pl.cut_stage().unwrap();
                pl.announce(false).unwrap();
                pl.finish_tree(false);
            }
        }
    }

    /// The distributed 1-respecting stage computes the same `C(v↓)` as
    /// Karger's sequential dynamic program on the same tree. A fragment
    /// cap of 2 leaves many small fragments, so some attachment hosts
    /// two child fragments, which the cut stage tells apart only by
    /// their fragment ids.
    #[test]
    fn distributed_one_respecting_matches_karger_dp_oracle() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut cases = vec![
            generators::cycle(17).unwrap(),
            generators::grid2d(4, 6).unwrap(),
            generators::torus2d(4, 4).unwrap(),
            generators::clique_pair(7, 2).unwrap().graph,
            generators::das_sarma_style(2, 8).unwrap(),
        ];
        for n in [14usize, 26] {
            let base = generators::erdos_renyi_connected(n, 0.25, &mut rng).unwrap();
            cases.push(generators::randomize_weights(&base, 1, 6, &mut rng).unwrap());
        }
        let mut shared_attachment = false;
        for (g, mst) in cases
            .iter()
            .flat_map(|g| [(g, MstConfig::default()), (g, MstConfig { cap: Some(2) })])
        {
            let pack_edge: Vec<u64> = g.edges().map(|e| g.weight(e)).collect();
            let mut pl = Pipeline::new(g, NetworkConfig::default(), mst, &pack_edge, None).unwrap();
            pl.init_deg().unwrap();
            pl.reset_tree();
            pl.mst_phase_a_opt().unwrap();
            let chosen = pl.mst_phase_b().unwrap();
            pl.orient(chosen).unwrap();
            let off = g.offsets();
            shared_attachment |= (0..g.node_count())
                .any(|v| pl.cols.tf_child[slots(off, v)].iter().flatten().count() > 1);
            let (minc, argmin) = pl.cut_stage().unwrap();
            // Sequential oracle on the same tree, rooted at the leader.
            let edges = pl.tree_edges();
            let tree = trees::spanning::to_rooted(g, &edges, NodeId::new(0)).unwrap();
            let cuts = crate::seq::karger_dp::one_respecting_cuts(g, &tree);
            for (v, &want) in cuts.iter().enumerate() {
                assert_eq!(
                    pl.cols.cval[v],
                    want,
                    "C(v↓) mismatch at node {v} (n = {})",
                    g.node_count()
                );
            }
            let want = crate::seq::karger_dp::min_one_respecting(g, &tree).unwrap();
            assert_eq!((minc, argmin), want);
        }
        assert!(
            shared_attachment,
            "some attachment must host two child fragments"
        );
    }

    /// Strict bandwidth at the largest fragment count: a cap of 2 leaves
    /// up to n/2 fragments, so `T_F`'s shape takes the most rows, of the
    /// widest numbers. Every `orient.tf` item fits the edge, the shape
    /// takes ⌈(k − 2)/c⌉ rows of c numbers, c is as many as fit, and the
    /// whole strict pipeline stays within the budget.
    #[test]
    fn strict_bandwidth_holds_at_the_largest_fragment_count() {
        use congest::primitives::StreamMsg;
        use congest::Message;
        // (graph, budget, k, numbers a row): the 10 numbers of 4 bits
        // fit one 64-bit row; 493 of 9 bits go 7 to an 80-bit row.
        for (g, budget, want_k, want_c) in [
            (generators::torus2d(6, 6).unwrap(), 64, 12, 10),
            (generators::torus2d(32, 32).unwrap(), 80, 495, 7),
        ] {
            let network = NetworkConfig::default();
            assert_eq!(network.bandwidth_bits(g.node_count()), budget);
            let mst = MstConfig { cap: Some(2) };
            let pack_edge: Vec<u64> = g.edges().map(|e| g.weight(e)).collect();
            let mut pl = Pipeline::new(&g, network, mst.clone(), &pack_edge, None).unwrap();
            pl.init_deg().unwrap();
            pl.reset_tree();
            pl.mst_phase_a_opt().unwrap();
            let chosen = pl.mst_phase_b().unwrap();
            pl.orient(chosen).unwrap();
            let k = pl.shape.k();
            assert_eq!(k, want_k);
            let stream = pl.tf_stream();
            for item in &stream {
                let bits = StreamMsg::Item(item.clone()).bit_len();
                assert!(bits <= budget, "{item:?} takes {bits} bits");
            }
            let c = crate::dist::one_respect::shape_row_capacity(k, budget);
            assert_eq!(c, want_c);
            let rows = stream.iter().filter(|(r, _)| *r == Route::All).count();
            assert_eq!(rows, (k - 2).div_ceil(c), "k = {k}, {c} numbers a row");
            if c < k - 2 {
                let wider = TfItem::Shape {
                    width: congest::id_bits(k) as u32,
                    parents: vec![0; c + 1].into(),
                };
                assert!(StreamMsg::Item((Route::All, wider)).bit_len() > budget);
            }

            let cfg = ExactConfig {
                mst,
                ..Default::default()
            };
            let r = exact_mincut(&g, &cfg).unwrap();
            assert_eq!(r.phase_a_fragments[0], k);
            assert!(r.ledger.max_message_bits() <= budget);
        }
    }

    /// Full parity with the sequential packing pipeline: same value,
    /// same side, same tree counts.
    #[test]
    fn exact_mincut_mirrors_sequential_packing_mincut() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut cases = vec![
            generators::cycle(12).unwrap(),
            generators::torus2d(4, 5).unwrap(),
            generators::clique_pair(6, 2).unwrap().graph,
        ];
        let base = generators::erdos_renyi_connected(22, 0.25, &mut rng).unwrap();
        cases.push(generators::randomize_weights(&base, 1, 5, &mut rng).unwrap());
        for g in &cases {
            let seq = packing_mincut(g, &PackingConfig::default()).unwrap();
            let dist = exact_mincut(g, &ExactConfig::default()).unwrap();
            assert_eq!(dist.cut.value, seq.cut.value);
            assert_eq!(dist.cut.side, seq.cut.side);
            assert_eq!(dist.trees_packed, seq.trees_packed);
            assert_eq!(dist.trees_to_best, seq.trees_to_best);
            assert_eq!(dist.best_node, seq.best_node);
        }
    }

    /// A restored BFS checkpoint keeps the labels the election handed
    /// out. Excising a dead leaf leaves a gap in the numbering, and the
    /// routed rows still reach exactly the nodes a fresh election's
    /// labels would lead them to: same cut, same trees, and the same
    /// messages on every stem after the election.
    #[test]
    fn restored_bfs_labels_with_gaps_route_like_fresh_ones() {
        let g = generators::torus2d(5, 5).unwrap();
        let n = g.node_count();
        // The checkpoint's graph: the torus plus a pendant leaf at node
        // 7, which then dies and is excised (it has the largest id, so
        // the survivors keep theirs).
        let edges = g.edge_tuples().map(|(_, u, v, w)| (u.raw(), v.raw(), w));
        let full = WeightedGraph::from_edges(n + 1, edges.chain([(7, n as u32, 1)])).unwrap();
        let pack_edge: Vec<u64> = full.edges().map(|e| full.weight(e)).collect();
        let pl = Pipeline::new(
            &full,
            NetworkConfig::default(),
            MstConfig::default(),
            &pack_edge,
            None,
        )
        .unwrap();
        let logged = pl.logged_bfs();
        let bfs = LoggedBfs {
            leader: logged.leader,
            edges: logged
                .edges
                .iter()
                .copied()
                .filter(|&(x, y)| x.max(y) < n as u32)
                .collect(),
            labels: logged.labels[..n].to_vec(),
        };
        let dead_in = logged.labels[n].0;
        assert!(
            bfs.labels.iter().all(|&(t, _)| t != dead_in) && dead_in < n as u32,
            "the leaf's in-time is a gap inside the numbering"
        );
        let spec = ResumeSpec {
            bfs: Some(bfs),
            trees: Vec::new(),
            prefix: "recover.e1.resume".to_string(),
        };
        let pack_g: Vec<u64> = g.edges().map(|e| g.weight(e)).collect();
        let network = NetworkConfig::default();
        let restored = Pipeline::new(&g, network, MstConfig::default(), &pack_g, Some(&spec))
            .map_err(|(e, _)| e)
            .unwrap();
        assert_eq!(
            restored.logged_bfs().labels,
            spec.bfs.as_ref().unwrap().labels
        );
        let opts = opts_fixed(2);
        let fresh = run_pipeline(&g, &opts, None, None)
            .map_err(|(e, _)| e)
            .unwrap();
        let restored = run_pipeline(&g, &opts, Some(&spec), None)
            .map_err(|(e, _)| e)
            .unwrap();
        assert_eq!(restored.cut.value, fresh.cut.value);
        assert_eq!(restored.cut.side, fresh.cut.side);
        assert_eq!(restored.tree_edges, fresh.tree_edges);
        assert_eq!(restored.best_node, fresh.best_node);
        // The restored run validates its BFS tree (`recover`) where the
        // fresh one elects (`leader_bfs`); every later stem must match.
        let stems = |r: &DistMinCutResult| -> Vec<(String, u64)> {
            let after_election = r.ledger.grouped_by_stem().into_iter().skip(1);
            after_election.map(|(s, g)| (s, g.messages)).collect()
        };
        assert_eq!(restored.ledger.phases()[0].name, "recover.e1.resume.bfs");
        assert_eq!(fresh.ledger.phases()[0].name, "leader_bfs");
        assert_eq!(stems(&restored), stems(&fresh));
    }

    /// Restored trees install from [`Forest::from_pairs`], and the trees
    /// packed after them see the loads they leave: resuming an
    /// uninterrupted run's first two trees, with their cut values
    /// replayed as evidence or their cut stage re-run on the restored
    /// structure — both, one of each in either order — packs the same
    /// later trees and finds the same cut and side.
    #[test]
    fn resumed_trees_leave_the_loads_of_an_uninterrupted_run() {
        let g = generators::clique_pair(6, 2).unwrap().graph;
        let opts = opts_fixed(4);
        let mut log = RecoveryLog::default();
        let fresh = run_pipeline(&g, &opts, None, Some(&mut log))
            .map_err(|(e, _)| e)
            .unwrap();
        for trusted in [[true, true], [false, false], [true, false], [false, true]] {
            let trees = log.trees[..2]
                .iter()
                .zip(trusted)
                .map(|((edges, cut), t)| (edges.clone(), cut.filter(|_| t)))
                .collect();
            let spec = ResumeSpec {
                bfs: log.bfs.clone(),
                trees,
                prefix: "recover.e1.resume".to_string(),
            };
            let resumed = run_pipeline(&g, &opts, Some(&spec), None)
                .map_err(|(e, _)| e)
                .unwrap();
            assert_eq!(resumed.tree_edges, fresh.tree_edges, "trusted: {trusted:?}");
            assert_eq!(resumed.cut.value, fresh.cut.value, "trusted: {trusted:?}");
            assert_eq!(resumed.cut.side, fresh.cut.side, "trusted: {trusted:?}");
        }
    }

    /// What the restore path installs for a checkpointed tree is what
    /// the tree left behind when it ran: for every tree of the packing
    /// above, the tree's pairs, installed as one fragment, take the
    /// bookkeeping to the snapshot and the loads the packed tree left.
    #[test]
    fn a_snapshot_survives_the_restore_path() {
        let g = generators::clique_pair(6, 2).unwrap().graph;
        let pack_edge: Vec<u64> = g.edges().map(|e| g.weight(e)).collect();
        let network = NetworkConfig::default();
        let mst = MstConfig::default();
        let mut pl = Pipeline::new(&g, network, mst, &pack_edge, None).unwrap();
        pl.init_deg().unwrap();
        for tree in 0..4 {
            pl.reset_tree();
            pl.mst_phase_a_opt().unwrap();
            let chosen = pl.mst_phase_b().unwrap();
            pl.orient(chosen).unwrap();
            pl.cut_stage().unwrap();
            let before = pl.cols.loads.clone();
            pl.finish_tree(true);
            let (snap, after) = (pl.cols.snap.clone(), pl.cols.loads.clone());
            let edges = pairs(&g, |v| pl.cols.t_parent(v));
            assert_eq!(
                edges.len(),
                g.node_count() - 1,
                "tree {tree} spans the graph"
            );
            pl.reset_tree();
            pl.cols.forest = Forest::from_pairs(&g, &edges, pl.leader);
            pl.cols.loads = before;
            pl.finish_tree(true);
            assert_eq!(pl.cols.snap, snap, "tree {tree}");
            assert_eq!(pl.cols.loads, after, "tree {tree}");
        }
    }

    /// The one conversion of a checkpointed tree: for every tree of a
    /// small packing and every node as the root, the forest built from
    /// the tree's pairs gives each non-root a parent port one hop toward
    /// the root, and flags exactly the tree's edges, in both directions.
    #[test]
    fn pairs_orient_from_every_root() {
        for g in [
            generators::clique_pair(6, 2).unwrap().graph,
            generators::torus2d(4, 4).unwrap(),
        ] {
            let off = g.offsets();
            for tree in greedy_packing(&g, 4).unwrap() {
                let edges: Vec<(u32, u32)> = tree
                    .iter()
                    .map(|&e| {
                        let (x, y) = g.endpoints(e);
                        (x.raw(), y.raw())
                    })
                    .collect();
                for root in g.nodes() {
                    let f = Forest::from_pairs(&g, &edges, root);
                    let want = trees::spanning::to_rooted(&g, &tree, root).unwrap();
                    for v in g.nodes() {
                        let adj = g.neighbors(v);
                        let up = f.parent[v.index()].map(|p| adj[p.index()].neighbor);
                        assert_eq!(up, want.parent(v), "root {root:?}, node {v:?}");
                        for (a, s) in adj.iter().zip(slots(off, v.index())) {
                            assert_eq!(f.ports[s], tree.contains(&a.edge), "slot {s}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let single = WeightedGraph::from_edges(1, []).unwrap();
        assert!(matches!(
            exact_mincut(&single, &ExactConfig::default()),
            Err(MinCutError::TooSmall { nodes: 1 })
        ));
        let disconnected = WeightedGraph::from_edges(4, [(0, 1, 1), (2, 3, 1)]).unwrap();
        assert!(matches!(
            exact_mincut(&disconnected, &ExactConfig::default()),
            Err(MinCutError::Disconnected)
        ));
    }

    #[test]
    fn two_node_graph_works() {
        let g = WeightedGraph::from_edges(2, [(0, 1, 5)]).unwrap();
        let r = exact_mincut(&g, &ExactConfig::default()).unwrap();
        assert_eq!(r.cut.value, 5);
        assert!(r.cut.is_proper());
        assert_eq!(stoer_wagner(&g).unwrap().value, 5);
    }

    #[test]
    fn fixed_packing_size_is_respected() {
        let g = generators::torus2d(4, 4).unwrap();
        let outcome = run_pipeline(&g, &opts_fixed(2), None, None)
            .map_err(|(e, _)| e)
            .unwrap();
        assert_eq!(outcome.trees_packed, 2);
        assert!(outcome.cut.is_proper());
    }
}
