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
//! bookkeeping on each node's `NodeMem` (the engine's documented
//! "persistent local memory" convention) and loop-termination decisions
//! that a real deployment would obtain from an `O(D)` convergecast.
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
    CandDec, CdInput, DecMsg, FilteredUpcast, FragHook, FragLabel, FragMsg, HookInput, HookRole,
    InterEdge, MstConfig, OptAgg, OptCand,
};
use crate::dist::one_respect::{
    AttItem, FragReroot, IntervalDown, IntervalInput, LcaCase, NbMsg, PairItem, RerootInput,
    SideFlood, SideInput, SideMsg, SizesUp, SumItem, TfItem, TfShape, Token, TokensInput, TokensUp,
    TotItem,
};
use crate::dist::packing::{better, Cand};
use crate::seq::tree_packing::PackingConfig;
use crate::MinCutError;
use congest::primitives::broadcast::{Route, StreamInput};
use congest::primitives::convergecast::{Convergecast, MinPair, SumU64};
use congest::primitives::leader_bfs::LeaderBfs;
use congest::primitives::subtree::SubtreeSums;
use congest::primitives::{
    Broadcast, BroadcastItems, GroupedSum, NeighborExchange, PortDeltaExchange, UpcastItems,
};
use congest::{ExecutorKind, Intervals, MetricsLedger, Network, NetworkConfig, Port, TreeInfo};
use graphs::{CutResult, NodeId, WeightedGraph};
use std::collections::{BTreeMap, BTreeSet};

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
/// Ids are in the current graph's id space; the recovery driver
/// translates through its compaction maps.
#[derive(Clone, Debug, Default)]
pub(crate) struct RecoveryLog {
    /// The elected leader.
    pub leader: Option<u32>,
    /// The BFS tree with its labels.
    pub bfs: Option<LoggedBfs>,
    /// One entry per finished packed tree, in packing order.
    pub trees: Vec<LoggedTree>,
}

/// A checkpointed BFS tree: `parents[v] = Some(u)` ⇒ `u` is `v`'s
/// parent (`None` at the leader), and `labels[v]` is `v`'s pre-order
/// interval `(in, out)` from the election. Restoring keeps the labels —
/// each node remembers its own — so excising nodes only leaves gaps in
/// the numbering.
#[derive(Clone, Debug, Default)]
pub(crate) struct LoggedBfs {
    pub parents: Vec<Option<u32>>,
    pub labels: Vec<(u32, u32)>,
}

/// One checkpointed packed tree: the global tree's parent map plus its
/// 1-respecting minimum `(value, argmin)`.
pub(crate) type LoggedTree = (Vec<Option<u32>>, (u64, u32));

/// One restorable packed tree in a [`ResumeSpec`]: an undirected edge
/// list plus the optionally still-trusted checkpointed minimum
/// `(value, (x, y))` — see [`ResumeSpec::trees`].
pub(crate) type RestoredTree = (Vec<(u32, u32)>, Option<(u64, (u32, u32))>);

/// A resume order handed to the pipeline by the self-healing driver:
/// checkpointed structures already validated against the survivor set,
/// to be restored instead of recomputed.
#[derive(Clone, Debug)]
pub(crate) struct ResumeSpec {
    /// Restore the election stage: `(leader, BFS tree)`, already known
    /// to be a spanning tree of the current graph rooted at a live
    /// leader. `None` ⇒ re-elect from scratch (the checkpointed leader
    /// died).
    pub bfs: Option<(u32, LoggedBfs)>,
    /// Checkpointed packed trees to restore, oldest first, as
    /// undirected edge lists (the driver re-roots them at whatever
    /// leader the attempt ends up with). `Some((value, (x, y)))` ⇒ the
    /// checkpointed 1-respecting minimum is still trustworthy and is
    /// attained by cutting tree edge `(x, y)` — either because the
    /// participant set is unchanged, or because every excised node was
    /// pendant in the checkpoint's graph (a degree-1 node's only edge
    /// crosses no survivor subtree cut, so every surviving cut value is
    /// untouched by the excision). The edge form survives re-rooting:
    /// the argmin node is whichever endpoint is the child under the
    /// new orientation. `None` ⇒ the restored tree's cut must be
    /// re-evaluated distributed.
    pub trees: Vec<RestoredTree>,
    /// Name prefix of the resume validation phases
    /// (`recover.e{epoch}.resume`).
    pub prefix: String,
}

/// Orients an undirected spanning-tree edge list into a parent map
/// rooted at `root` (driver-side re-rooting: checkpointed trees stay
/// usable under a freshly elected leader).
fn reroot(n: usize, edges: &[(u32, u32)], root: u32) -> Vec<Option<u32>> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a as usize].push(b);
        adj[b as usize].push(a);
    }
    let mut parents: Vec<Option<u32>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[root as usize] = true;
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        for &u in &adj[v as usize] {
            if !seen[u as usize] {
                seen[u as usize] = true;
                parents[u as usize] = Some(v);
                queue.push_back(u);
            }
        }
    }
    debug_assert!(seen.iter().all(|&s| s), "resume spec trees span the graph");
    parents
}

/// Per-node [`TreeInfo`] views of a parent map (ports and depths
/// derived locally — every node knows its neighbors a priori, so the
/// restoration costs zero messages). The driver's one conversion from a
/// checkpointed parent map to ports: every restored tree is installed
/// from its output.
fn tree_infos(g: &WeightedGraph, parents: &[Option<u32>]) -> Vec<TreeInfo> {
    let n = parents.len();
    let port_to = |v: usize, u: u32| -> Port {
        Port(
            g.neighbors(NodeId::from_index(v))
                .iter()
                .position(|a| a.neighbor.raw() == u)
                .expect("tree edges are graph edges") as u32,
        )
    };
    let mut infos: Vec<TreeInfo> = (0..n)
        .map(|v| TreeInfo {
            parent: parents[v].map(|u| port_to(v, u)),
            children: Vec::new(),
            depth: 0,
        })
        .collect();
    let mut kids: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (v, &p) in parents.iter().enumerate() {
        if let Some(u) = p {
            infos[u as usize]
                .children
                .push(port_to(u as usize, v as u32));
            kids[u as usize].push(v as u32);
        }
    }
    let root = (0..n).find(|&v| parents[v].is_none()).expect("rooted tree");
    let mut queue = std::collections::VecDeque::from([root as u32]);
    while let Some(v) = queue.pop_front() {
        let d = infos[v as usize].depth + 1;
        infos[v as usize].children.sort_unstable();
        for &c in &kids[v as usize] {
            infos[c as usize].depth = d;
            queue.push_back(c);
        }
    }
    infos
}

/// Per-node persistent local memory threaded through the phases.
#[derive(Clone, Debug, Default)]
struct NodeMem {
    // -- static for the run (local knowledge) --
    bfs: TreeInfo,
    /// This node's and its children's pre-order intervals in the BFS
    /// tree: the labels the leader's routed rows travel by.
    bfs_iv: Intervals,
    edge_ids: Vec<u32>,
    weights: Vec<u64>,
    pack_w: Vec<u64>,
    delta: u64,
    loads: Vec<u64>,
    // -- per packed tree --
    frag: u32,
    frozen: bool,
    parent: Option<Port>,
    tree_ports: BTreeSet<Port>,
    inter_ports: BTreeSet<Port>,
    inter_parent: Option<Port>,
    /// The ports of the child-fragment connectors attached here, sorted,
    /// each with that child fragment's number.
    inter_children: Vec<(Port, u32)>,
    /// This node's fragment's number in `T_F`'s pre-order (from
    /// `orient`; the root fragment is 0).
    num: u32,
    port_frag: Vec<u32>,
    port_frozen: Vec<bool>,
    /// mstA: ports whose neighbor must still be told this node's
    /// `(frag, frozen)` at the next `.exch` (boundary ports of a
    /// relabel/freeze; old-fragment neighbors infer the change locally).
    ann_mask: Vec<bool>,
    /// mstA: this node's fragment-tree depth (maintained by the hook
    /// handshake; drives the `.cd` send schedule).
    depth: u32,
    /// mstA: aggregate last sent up in `.cd` (delta cache).
    cd_sent: Option<OptAgg>,
    /// mstA: last aggregate received per port in `.cd`.
    cd_children: Vec<Option<OptAgg>>,
    /// mstA: the fragment was restructured since the last `.cd` pass —
    /// drop the caches and speak unconditionally.
    cd_purge: bool,
    iv: Option<Intervals>,
    /// s2c: the in-fragment in-times of this fragment's attachments,
    /// keyed by the number of the child fragment hung at each.
    att: BTreeMap<u32, u32>,
    cval: u64,
    // -- snapshot of the best tree seen so far --
    snap_parent: Option<Port>,
    snap_children: Vec<Port>,
}

impl NodeMem {
    /// The in-fragment tree info (fragment forest view).
    fn ftree(&self) -> TreeInfo {
        TreeInfo {
            parent: self.parent,
            children: self
                .tree_ports
                .iter()
                .copied()
                .filter(|p| Some(*p) != self.parent)
                .collect(),
            depth: 0,
        }
    }

    /// The global-tree parent port (in-fragment parent, or the
    /// inter-fragment edge at a fragment root; `None` at the leader).
    fn t_parent(&self) -> Option<Port> {
        self.parent.or(self.inter_parent)
    }

    /// The global-tree child ports (in-fragment children plus attached
    /// child-fragment connectors).
    fn t_children(&self) -> Vec<Port> {
        let mut c = self.ftree().children;
        c.extend(self.inter_children.iter().map(|&(p, _)| p));
        c.sort_unstable();
        c
    }

    /// The port carrying global edge id `e`, if incident.
    fn port_of_edge(&self, e: u32) -> Option<Port> {
        self.edge_ids
            .iter()
            .position(|&x| x == e)
            .map(|i| Port(i as u32))
    }
}

/// Inputs of a table stream down the BFS tree: the leader streams the
/// routed rows of `table`, and the nodes each row reaches fold it into
/// the accumulator `acc` builds from their id and memory.
fn bfs_stream<'m, T, A>(
    mems: &'m mut [NodeMem],
    leader: NodeId,
    mut table: Vec<(Route, T)>,
    mut acc: impl FnMut(usize, &'m mut NodeMem) -> A,
) -> Vec<StreamInput<T, A>> {
    mems.iter_mut()
        .enumerate()
        .map(|(v, m)| {
            let list = if v == leader.index() {
                std::mem::take(&mut table)
            } else {
                Vec::new()
            };
            (m.bfs.clone(), m.bfs_iv.clone(), list, acc(v, m))
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
    mems: Vec<NodeMem>,
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
    /// Elects the leader, builds its BFS tree, and initialises every
    /// node's static memory. On failure the ledger accumulated so far
    /// rides along with the error (see [`run_pipeline`]).
    fn new(
        g: &'g WeightedGraph,
        network: NetworkConfig,
        mst: MstConfig,
        pack_edge: &[u64],
    ) -> Result<Self, (MinCutError, MetricsLedger)> {
        let mut net =
            Network::new(g, network).map_err(|e| (MinCutError::from(e), MetricsLedger::new()))?;
        let bfs = match net.run("leader_bfs", &LeaderBfs::new(), vec![(); g.node_count()]) {
            Ok(out) => out,
            Err(e) => {
                let ledger = net.ledger().clone();
                return Err((MinCutError::from(e), ledger));
            }
        };
        let leader = bfs.outputs[0].leader;
        let trees = bfs.outputs.into_iter().map(|o| (o.tree, o.iv)).collect();
        Ok(Self::with_bfs(g, net, mst, pack_edge, leader, trees))
    }

    /// [`Pipeline::new`] minus the election: restores a checkpointed
    /// BFS tree (leader, parent map and labels) instead of running
    /// `leader_bfs`. The caller must follow up with
    /// [`Pipeline::validate_restored`] — the distributed re-validation
    /// that every restored node is actually alive and reachable along
    /// the restored edges.
    fn new_restored(
        g: &'g WeightedGraph,
        network: NetworkConfig,
        mst: MstConfig,
        pack_edge: &[u64],
        leader: u32,
        bfs: &LoggedBfs,
    ) -> Result<Self, (MinCutError, MetricsLedger)> {
        let net =
            Network::new(g, network).map_err(|e| (MinCutError::from(e), MetricsLedger::new()))?;
        let trees = tree_infos(g, &bfs.parents)
            .into_iter()
            .enumerate()
            .map(|(v, tree)| {
                let (in_t, out_t) = bfs.labels[v];
                let adj = g.neighbors(NodeId::from_index(v));
                let children = tree
                    .children
                    .iter()
                    .map(|&p| {
                        let (lo, hi) = bfs.labels[adj[p.index()].neighbor.index()];
                        (p, lo, hi)
                    })
                    .collect();
                let iv = Intervals {
                    in_t,
                    out_t,
                    children,
                };
                (tree, iv)
            })
            .collect();
        Ok(Self::with_bfs(
            g,
            net,
            mst,
            pack_edge,
            NodeId::new(leader),
            trees,
        ))
    }

    /// The pipeline over an established, labelled BFS tree (`bfs[v]` is
    /// node `v`'s view of it): every node's static memory is its local
    /// knowledge plus its BFS view.
    fn with_bfs(
        g: &'g WeightedGraph,
        net: Network<'g>,
        mst: MstConfig,
        pack_edge: &[u64],
        leader: NodeId,
        bfs: Vec<(TreeInfo, Intervals)>,
    ) -> Self {
        let mems = g
            .nodes()
            .zip(bfs)
            .map(|(v, (bfs, bfs_iv))| {
                let adj = g.neighbors(v);
                NodeMem {
                    bfs,
                    bfs_iv,
                    edge_ids: adj.iter().map(|a| a.edge.raw()).collect(),
                    weights: adj.iter().map(|a| a.weight).collect(),
                    pack_w: adj.iter().map(|a| pack_edge[a.edge.index()]).collect(),
                    delta: g.weighted_degree(v),
                    loads: vec![0; adj.len()],
                    ..Default::default()
                }
            })
            .collect();
        Pipeline {
            g,
            net,
            mst,
            mems,
            leader,
            n: g.node_count(),
            shape: TfShape::new(&[]),
            tf: Vec::new(),
        }
    }

    /// Distributed re-validation of a restored tree: one convergecast
    /// counting the nodes the tree's edges actually reach. A count
    /// short of `n` means the restored structure is stale (a logic
    /// error — the driver validates structurally before restoring);
    /// a node that died since the checkpoint surfaces as the usual
    /// suspicion abort, which the recovery loop catches.
    fn validate_restored(
        &mut self,
        name: &str,
        parents: &[Option<u32>],
    ) -> Result<(), MinCutError> {
        let infos = tree_infos(self.g, parents);
        let inputs: Vec<(TreeInfo, SumU64)> =
            (0..self.n).map(|v| (infos[v].clone(), SumU64(1))).collect();
        let out = self.net.run(name, &Convergecast::new(), inputs)?;
        let root = (0..self.n)
            .find(|&v| parents[v].is_none())
            .expect("rooted tree");
        let count = out.outputs[root].map_or(0, |SumU64(c)| c);
        if count != self.n as u64 {
            return Err(MinCutError::InvalidConfig {
                reason: format!(
                    "restored checkpoint tree reached {count} of {} survivors",
                    self.n
                ),
            });
        }
        Ok(())
    }

    /// Installs a restored spanning tree as **one fragment** rooted at
    /// the leader: after the reset every node carries fragment number 0
    /// in the one-fragment `T_F`, and there are no inter-fragment edges,
    /// so `cut_stage` on this memory computes the exact global
    /// 1-respecting minimum of the restored tree (the single-fragment
    /// degradation of the fragment decomposition — every incident edge
    /// is a same-fragment case).
    fn install_tree(&mut self, tree: &[TreeInfo]) {
        debug_assert_eq!(
            tree[self.leader.index()].parent,
            None,
            "re-rooted at the leader"
        );
        self.reset_tree();
        for (m, t) in self.mems.iter_mut().zip(tree) {
            m.parent = t.parent;
            m.tree_ports = t.children.iter().copied().chain(t.parent).collect();
        }
    }

    /// Replays a checkpointed tree's per-port load increments (what its
    /// `finish_tree` did when it originally completed): both endpoints
    /// of every tree edge count one more use. Evidence-resume
    /// bookkeeping — zero rounds.
    fn replay_tree_loads(&mut self, tree: &[TreeInfo]) {
        for (m, t) in self.mems.iter_mut().zip(tree) {
            for p in t.children.iter().copied().chain(t.parent) {
                m.loads[p.index()] += 1;
            }
        }
    }

    /// Re-installs the best-tree snapshot (`side()`'s flood scaffold)
    /// from a checkpointed tree — what `finish_tree(true)` stored when
    /// that tree originally improved the bound.
    fn install_snap(&mut self, tree: &[TreeInfo]) {
        for (m, t) in self.mems.iter_mut().zip(tree) {
            m.snap_parent = t.parent;
            m.snap_children = t.children.clone();
        }
    }

    /// The current global tree as a parent map (checkpoint capture).
    fn tree_parents(&self) -> Vec<Option<u32>> {
        (0..self.n)
            .map(|v| {
                self.mems[v].t_parent().map(|p| {
                    self.g.neighbors(NodeId::from_index(v))[p.index()]
                        .neighbor
                        .raw()
                })
            })
            .collect()
    }

    /// The labelled BFS tree (checkpoint capture).
    fn logged_bfs(&self) -> LoggedBfs {
        let parents = (0..self.n)
            .map(|v| {
                self.mems[v].bfs.parent.map(|p| {
                    self.g.neighbors(NodeId::from_index(v))[p.index()]
                        .neighbor
                        .raw()
                })
            })
            .collect();
        let labels = self
            .mems
            .iter()
            .map(|m| (m.bfs_iv.in_t, m.bfs_iv.out_t))
            .collect();
        LoggedBfs { parents, labels }
    }

    /// The sorted edge ids of a tree (the `tree_edges` outcome entry for
    /// restored trees).
    fn edge_ids_of(&self, tree: &[TreeInfo]) -> Vec<graphs::EdgeId> {
        let mut ids: Vec<graphs::EdgeId> = self
            .mems
            .iter()
            .zip(tree)
            .filter_map(|(m, t)| t.parent.map(|p| graphs::EdgeId::new(m.edge_ids[p.index()])))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The minimum-weighted-degree singleton: the packing's seed
    /// candidate and initial `λ̂`, via one convergecast.
    fn init_deg(&mut self) -> Result<(u64, NodeId), MinCutError> {
        let inputs: Vec<(TreeInfo, MinPair)> = self
            .mems
            .iter()
            .enumerate()
            .map(|(v, m)| (m.bfs.clone(), MinPair(m.delta, v as u64)))
            .collect();
        let out = self.net.run("init.deg", &Convergecast::new(), inputs)?;
        let MinPair(d, v) = out.outputs[self.leader.index()].expect("leader is the BFS root");
        Ok((d, NodeId::new(v as u32)))
    }

    /// Resets the per-tree memory before packing the next tree.
    fn reset_tree(&mut self) {
        let g = self.g;
        self.shape = TfShape::new(&[]);
        self.tf.clear();
        for (v, m) in self.mems.iter_mut().enumerate() {
            let deg = m.edge_ids.len();
            m.frag = v as u32;
            m.frozen = false;
            m.parent = None;
            m.tree_ports.clear();
            m.inter_ports.clear();
            m.inter_parent = None;
            m.inter_children.clear();
            m.num = 0;
            // Level-0 fragment ids are node ids, and neighbor ids are
            // a-priori local knowledge in CONGEST — so phase A's initial
            // per-port view costs zero messages.
            m.port_frag = g
                .neighbors(NodeId::from_index(v))
                .iter()
                .map(|a| a.neighbor.raw())
                .collect();
            m.port_frozen = vec![false; deg];
            m.ann_mask = vec![false; deg];
            m.depth = 0;
            m.cd_sent = None;
            m.cd_children = vec![None; deg];
            m.cd_purge = false;
            m.iv = None;
            m.att.clear();
            m.cval = 0;
        }
    }

    /// The local best phase-A candidate of node `v`: the minimum-key
    /// incident edge with packing weight that leaves `v`'s fragment, and
    /// its port.
    fn local_cand(&self, v: usize) -> Option<(Port, Cand)> {
        let m = &self.mems[v];
        let mut best: Option<(Port, Cand)> = None;
        for (p, &other) in m.port_frag.iter().enumerate() {
            if other != m.frag && m.pack_w[p] > 0 {
                let cand = Cand {
                    load: m.loads[p],
                    weight: m.pack_w[p],
                    edge: m.edge_ids[p],
                };
                if better(best.map(|(_, c)| c), Some(cand)) == Some(cand) {
                    best = Some((Port(p as u32), cand));
                }
            }
        }
        best
    }

    /// Phase A, capped fragment growth (see [`crate::dist::mst`] and
    /// `docs/mst.md`): boundary-only label refresh, one fused `.cd` pass
    /// per level (delta-convergecast up, decision broadcast down only
    /// when the fragment hooks or freezes), deterministic
    /// lowest-differing-bit mating, and frozen fragments out of the
    /// loop entirely.
    ///
    /// The per-level `maxdepth` scalar handed to every node is driver
    /// control plane — a loop-scheduling decision a real deployment
    /// would obtain from an `O(D)` convergecast, like the termination
    /// checks above it (see the module docs).
    fn mst_phase_a_opt(&mut self) -> Result<(), MinCutError> {
        let cap = self.mst.effective_cap(self.n) as u64;
        for level in 0..MAX_PHASE_A_LEVELS {
            let frags: BTreeSet<u32> = self.mems.iter().map(|m| m.frag).collect();
            if frags.len() == 1 || self.mems.iter().all(|m| m.frozen) {
                return Ok(());
            }
            // 1. Label refresh, per-port delta discipline: a relabeled or
            // freshly frozen node announces only on the ports its
            // `ann_mask` marked (boundary edges of the change) — its
            // old-fragment neighbors relabeled with it and inferred the
            // new view for free. Level 0 is silent by construction
            // (fragment ids are node ids, already in every port view),
            // and a globally silent refresh skips the phase.
            let inputs: Vec<Vec<Option<FragMsg>>> = self
                .mems
                .iter()
                .map(|m| {
                    let cur = FragMsg {
                        frag: m.frag,
                        frozen: m.frozen,
                    };
                    m.ann_mask.iter().map(|&a| a.then_some(cur)).collect()
                })
                .collect();
            if inputs.iter().any(|i| i.iter().any(Option::is_some)) {
                let name = format!("mstA.l{level}.exch");
                let out = self.net.run(&name, &PortDeltaExchange::new(), inputs)?;
                for (m, o) in self.mems.iter_mut().zip(out.outputs) {
                    m.ann_mask.iter_mut().for_each(|a| *a = false);
                    for (p, got) in o.into_iter().enumerate() {
                        if let Some(f) = got {
                            m.port_frag[p] = f.frag;
                            m.port_frozen[p] = f.frozen;
                        }
                    }
                }
            }
            // 2. Fused candidate/decision pass over the unfrozen
            // fragment trees.
            let maxdepth = self
                .mems
                .iter()
                .filter(|m| !m.frozen)
                .map(|m| m.depth)
                .max()
                .unwrap_or(0);
            let inputs: Vec<CdInput> = (0..self.n)
                .map(|v| {
                    let m = &self.mems[v];
                    let local = if m.frozen {
                        None
                    } else {
                        self.local_cand(v).map(|(p, c)| OptCand {
                            cand: c,
                            target_frag: m.port_frag[p.index()],
                            target_frozen: m.port_frozen[p.index()],
                        })
                    };
                    CdInput {
                        tree: m.ftree(),
                        depth: m.depth,
                        maxdepth,
                        frag: m.frag,
                        cap,
                        frozen: m.frozen,
                        local,
                        purge: m.cd_purge,
                        sent: m.cd_sent,
                        children: m.cd_children.clone(),
                    }
                })
                .collect();
            let name = format!("mstA.l{level}.cd");
            let out = self.net.run(&name, &CandDec, inputs)?;
            let mut decs: Vec<Option<DecMsg>> = Vec::with_capacity(self.n);
            let mut any_hook = false;
            for (v, o) in out.outputs.into_iter().enumerate() {
                let m = &mut self.mems[v];
                decs.push(o.dec);
                m.cd_sent = o.sent;
                m.cd_children = o.children;
                m.cd_purge = false;
                if let Some(d) = o.dec {
                    any_hook |= d.hook_edge.is_some();
                    if d.frozen && !m.frozen {
                        m.frozen = true;
                        // Fragment-internal neighbors froze with us (same
                        // broadcast); boundary neighbors hear it at the
                        // next refresh — unless they are frozen too (they
                        // never consult their phase-A views again; the
                        // full `mstB.exch` refreshes them) or the edge has
                        // no packing weight (it can never be a candidate
                        // of either side).
                        for p in 0..m.port_frag.len() {
                            if m.port_frag[p] == m.frag {
                                m.port_frozen[p] = true;
                            } else if !m.port_frozen[p] && m.pack_w[p] > 0 {
                                m.ann_mask[p] = true;
                            }
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
                    let m = &self.mems[v];
                    let hook_edge = decs[v].and_then(|d| d.hook_edge);
                    let role = match hook_edge {
                        Some(e) => match m.port_of_edge(e) {
                            Some(p) if m.port_frag[p.index()] != m.frag => HookRole::Connector {
                                port: p,
                                target_frag: m.port_frag[p.index()],
                            },
                            _ => HookRole::Await,
                        },
                        None => HookRole::Passive,
                    };
                    HookInput {
                        tree_ports: m.tree_ports.iter().copied().collect(),
                        role,
                        eligible: hook_edge.is_none(),
                        frozen: m.frozen,
                        depth: m.depth,
                    }
                })
                .collect();
            let name = format!("mstA.l{level}.hook");
            let out = self.net.run(&name, &FragHook, inputs)?;
            for (m, h) in self.mems.iter_mut().zip(out.outputs) {
                if let Some((f, fz)) = h.new_frag {
                    let old = m.frag;
                    m.frag = f;
                    m.frozen = fz;
                    // Only nodes whose parent flipped (the old-root →
                    // connector path of the re-root) have a restructured
                    // subtree; off-path members keep their child caches
                    // and stay silent next level unless their aggregate
                    // really changed.
                    if m.parent != h.new_parent {
                        m.cd_purge = true;
                    }
                    m.parent = h.new_parent;
                    if let Some(p) = h.new_parent {
                        m.tree_ports.insert(p);
                    }
                    m.depth = h.new_depth.expect("re-root floods carry a depth");
                    // Neighbors in the old fragment relabeled with us —
                    // their view of this node updates by the same local
                    // inference we apply to our view of them. Everyone
                    // else gets an announcement next level, with the same
                    // two exceptions as the freeze announcement: frozen
                    // neighbors and zero-packing-weight edges never read
                    // this view again.
                    for p in 0..m.port_frag.len() {
                        if m.port_frag[p] == old {
                            m.port_frag[p] = f;
                            m.port_frozen[p] = fz;
                            m.ann_mask[p] = false;
                        } else {
                            m.ann_mask[p] = !m.port_frozen[p] && m.pack_w[p] > 0;
                        }
                    }
                }
                for p in h.accepted {
                    m.tree_ports.insert(p);
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
        let inputs: Vec<FragLabel> = self
            .mems
            .iter()
            .map(|m| FragLabel {
                frag: m.frag,
                bfs_in: m.bfs_iv.in_t,
            })
            .collect();
        let out = self
            .net
            .run("mstB.exch", &NeighborExchange::new(), inputs)?;
        // The lower-id endpoint of every inter-fragment edge with packing
        // weight offers it (neighbor ids are local knowledge).
        let g = self.g;
        let inputs: Vec<(TreeInfo, Vec<InterEdge>)> = self
            .mems
            .iter()
            .zip(out.outputs)
            .enumerate()
            .map(|(v, (m, labels))| {
                let adj = g.neighbors(NodeId::from_index(v));
                let mut offered = Vec::new();
                for (p, label) in labels.into_iter().enumerate() {
                    let label = label.expect("every neighbor sends");
                    if label.frag != m.frag && m.pack_w[p] > 0 && (v as u32) < adj[p].neighbor.raw()
                    {
                        offered.push(InterEdge {
                            cand: Cand {
                                load: m.loads[p],
                                weight: m.pack_w[p],
                                edge: m.edge_ids[p],
                            },
                            frags: (m.frag, label.frag),
                            ends: (m.bfs_iv.in_t, label.bfs_in),
                        });
                    }
                }
                (m.bfs.clone(), offered)
            })
            .collect();
        let mut out = self.net.run("mstB.up", &FilteredUpcast, inputs)?;
        let chosen = out.outputs[self.leader.index()]
            .take()
            .expect("leader is the BFS root");
        let k = self
            .mems
            .iter()
            .map(|m| m.frag)
            .collect::<BTreeSet<_>>()
            .len();
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
        let root_frag = self.mems[self.leader.index()].frag;
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
        let roles = |m: &mut &mut NodeMem, item: &TfItem| {
            let TfItem::Row { frag, edge, num } = *item else {
                return;
            };
            let p = m
                .port_of_edge(edge)
                .expect("a row reaches its edge's endpoints");
            m.inter_ports.insert(p);
            if m.frag == frag {
                m.inter_parent = Some(p);
                m.num = num;
            } else {
                let at = m.inter_children.partition_point(|&(q, _)| q < p);
                m.inter_children.insert(at, (p, num));
            }
        };
        let table = self.tf_stream();
        let inputs = bfs_stream(&mut self.mems, self.leader, table, |_, m| m);
        self.net
            .run("orient.tf", &BroadcastItems::new(roles), inputs)?;
        // Re-root every fragment at its connector (the leader for the
        // root fragment, number 0), flooding the fragment's number.
        let inputs: Vec<RerootInput> = (0..self.n)
            .map(|v| {
                let m = &self.mems[v];
                let starts = v == self.leader.index() || m.inter_parent.is_some();
                RerootInput {
                    tree_ports: m.tree_ports.iter().copied().collect(),
                    initiator: starts.then_some(m.num),
                }
            })
            .collect();
        let out = self.net.run("orient.flood", &FragReroot, inputs)?;
        for (m, (parent, num)) in self.mems.iter_mut().zip(out.outputs) {
            m.parent = parent;
            m.num = num;
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
        // s2a: in-fragment subtree sizes.
        let inputs: Vec<TreeInfo> = self.mems.iter().map(NodeMem::ftree).collect();
        let sizes = self.net.run("s2a", &SizesUp, inputs)?.outputs;
        // s2b: in-fragment Euler intervals.
        let inputs: Vec<IntervalInput> = self
            .mems
            .iter()
            .zip(sizes.iter())
            .map(|(m, (size, child_sizes))| IntervalInput {
                tree: m.ftree(),
                size: *size,
                child_sizes: child_sizes.clone(),
            })
            .collect();
        let ivs = self.net.run("s2b", &IntervalDown, inputs)?.outputs;
        for (m, iv) in self.mems.iter_mut().zip(ivs) {
            m.iv = Some(iv);
        }
        // s2c: gather + spread the attachment in-times per fragment,
        // keyed by the number of the child fragment hung at each.
        let inputs: Vec<(TreeInfo, Vec<AttItem>)> = self
            .mems
            .iter()
            .map(|m| {
                let in_t = m.iv.as_ref().expect("intervals set").in_t;
                let items = m
                    .inter_children
                    .iter()
                    .map(|&(_, num)| AttItem { num, in_t })
                    .collect();
                (m.ftree(), items)
            })
            .collect();
        let up = self.net.run("s2c.up", &UpcastItems::new(), inputs)?.outputs;
        let insert = |m: &mut &mut NodeMem, a: &AttItem| {
            m.att.insert(a.num, a.in_t);
        };
        let inputs: Vec<_> = self
            .mems
            .iter_mut()
            .zip(up)
            .map(|(m, list)| {
                let rows = list
                    .into_iter()
                    .flatten()
                    .map(|a| (Route::All, a))
                    .collect();
                (m.ftree(), Intervals::default(), rows, m)
            })
            .collect();
        self.net
            .run("s2c.down", &BroadcastItems::new(insert), inputs)?;
        // s3: per-edge exchange of in-times and fragment numbers.
        let out = self.net.run(
            "s3",
            &NeighborExchange::new(),
            self.mems
                .iter()
                .map(|m| NbMsg {
                    in_t: m.iv.as_ref().expect("intervals set").in_t,
                    num: m.num,
                })
                .collect(),
        )?;
        // Local LCA case analysis: each endpoint places its edge in `T_F`
        // from the two fragment numbers and the shape `orient.tf`
        // delivered.
        let k = self.shape.k() as u64;
        let mut tokens: Vec<Vec<Token>> = vec![Vec::new(); n];
        let mut pairs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
        for (v, nb) in out.outputs.into_iter().enumerate() {
            let m = &self.mems[v];
            let iv = m.iv.as_ref().expect("intervals set");
            for (p, other) in nb.into_iter().enumerate() {
                let other = other.expect("every neighbor sends");
                let w = m.weights[p];
                if other.num == m.num {
                    // Case 1 (same fragment): the deeper-in-preorder
                    // endpoint routes a token toward the LCA.
                    if iv.in_t > other.in_t {
                        tokens[v].push(Token {
                            t_in: other.in_t,
                            w,
                        });
                    }
                    continue;
                }
                match self.shape.classify(m.num, other.num) {
                    // Case 3 with the LCA in my fragment: target the
                    // attachment of the child fragment toward the other
                    // side.
                    LcaCase::InMine { child } => {
                        let a_in = *m
                            .att
                            .get(&child)
                            .expect("attachment table covers the child");
                        tokens[v].push(Token { t_in: a_in, w });
                    }
                    // Case 2: the LCA is a merging node in a third
                    // fragment; aggregate by the pair of child fragments
                    // below it. The smaller endpoint id emits.
                    LcaCase::Merging { g1, g2 } => {
                        let nbr_id = self.g.neighbors(NodeId::from_index(v))[p].neighbor.raw();
                        if (v as u32) < nbr_id {
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
        let inputs: Vec<(TreeInfo, Vec<(u64, u64)>)> = (0..n)
            .map(|v| (self.mems[v].bfs.clone(), std::mem::take(&mut pairs[v])))
            .collect();
        let out = self.net.run("s4a", &GroupedSum::new(), inputs)?;
        let pair_totals = out.outputs[self.leader.index()]
            .clone()
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
        let aim = |(att, toks): &mut (&BTreeMap<u32, u32>, Vec<Token>), item: &PairItem| {
            let t_in = *att.get(&item.num).expect("attachment table covers g2");
            toks.push(Token { t_in, w: item.w });
        };
        let inputs = bfs_stream(&mut self.mems, self.leader, items, |_, m| {
            (&m.att, Vec::new())
        });
        let out = self.net.run("s4b", &BroadcastItems::new(aim), inputs)?;
        for (toks, (_, aimed)) in tokens.iter_mut().zip(out.outputs) {
            toks.extend(aimed);
        }
        // s5: route the case-1/3 tokens and the pair tokens to their LCAs;
        // the end wave brings each fragment's (Σδ, Σρ) to its root.
        let inputs: Vec<TokensInput> = (0..n)
            .map(|v| {
                let m = &self.mems[v];
                let iv = m.iv.as_ref().expect("intervals set");
                TokensInput {
                    tree: m.ftree(),
                    iv: (iv.in_t, iv.out_t),
                    delta: m.delta,
                    tokens: std::mem::take(&mut tokens[v]),
                }
            })
            .collect();
        let (rho, tots): (Vec<u64>, Vec<_>) = self
            .net
            .run("s5", &TokensUp, inputs)?
            .outputs
            .into_iter()
            .unzip();
        // s5c: totals to the leader.
        let inputs: Vec<(TreeInfo, Vec<TotItem>)> = (0..n)
            .map(|v| {
                let m = &self.mems[v];
                let items = tots[v]
                    .map(|(d, r)| vec![TotItem { num: m.num, d, r }])
                    .unwrap_or_default();
                (m.bfs.clone(), items)
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
        let inputs = bfs_stream(&mut self.mems, self.leader, items, |_, _| (0, 0));
        let w: Vec<(u64, u64)> = self
            .net
            .run("s5d", &BroadcastItems::new(masses), inputs)?
            .outputs;
        // s5e: in-fragment subtree sums of (δ + Wδ, ρ + Wρ) give the
        // global (δ↓, ρ↓) at every node.
        let inputs: Vec<(TreeInfo, (u64, u64))> = (0..n)
            .map(|v| {
                let m = &self.mems[v];
                (m.ftree(), (m.delta + w[v].0, rho[v] + w[v].1))
            })
            .collect();
        let down = self.net.run("s5e", &SubtreeSums::new(), inputs)?.outputs;
        for (v, (m, (d, r))) in self.mems.iter_mut().zip(down).enumerate() {
            debug_assert!(d >= 2 * r, "Karger identity underflow at node {v}");
            m.cval = d - 2 * r;
        }
        // s5f: global argmin (the root's C is 0 by definition; excluded).
        let inputs: Vec<(TreeInfo, MinPair)> = (0..n)
            .map(|v| {
                let c = if v == self.leader.index() {
                    u64::MAX
                } else {
                    self.mems[v].cval
                };
                (self.mems[v].bfs.clone(), MinPair(c, v as u64))
            })
            .collect();
        let out = self.net.run("s5f", &Convergecast::new(), inputs)?;
        let MinPair(minc, argmin) =
            out.outputs[self.leader.index()].expect("leader is the BFS root");
        Ok((minc, NodeId::new(argmin as u32)))
    }

    /// Announces whether this tree improved the global best; improving
    /// trees are snapshotted, and every node bumps the loads of its
    /// incident tree edges.
    fn finish_tree(&mut self, improved: bool) -> Result<(), MinCutError> {
        let inputs: Vec<(TreeInfo, Option<bool>)> = (0..self.n)
            .map(|v| {
                let m = &self.mems[v];
                (
                    (v == self.leader.index()).then_some(improved),
                    m.bfs.clone(),
                )
            })
            .map(|(flag, bfs)| (bfs, flag))
            .collect();
        let out = self.net.run("s5g", &Broadcast::new(), inputs)?;
        for (m, flag) in self.mems.iter_mut().zip(out.outputs) {
            if flag {
                m.snap_parent = m.t_parent();
                m.snap_children = m.t_children();
            }
            let ports: Vec<Port> = m
                .tree_ports
                .iter()
                .chain(m.inter_ports.iter())
                .copied()
                .collect();
            for p in ports {
                m.loads[p.index()] += 1;
            }
        }
        Ok(())
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
        let inputs: Vec<(TreeInfo, Option<SideMsg>)> = (0..self.n)
            .map(|v| {
                (
                    self.mems[v].bfs.clone(),
                    (v == self.leader.index()).then_some(msg),
                )
            })
            .collect();
        let out = self.net.run("side.bc", &Broadcast::new(), inputs)?;
        let announced = out.outputs;
        if msg.singleton {
            return Ok((0..self.n).map(|v| v as u32 == announced[v].v).collect());
        }
        let inputs: Vec<SideInput> = (0..self.n)
            .map(|v| {
                let m = &self.mems[v];
                SideInput {
                    parent: m.snap_parent,
                    children: m.snap_children.clone(),
                    vstar: announced[v].v,
                }
            })
            .collect();
        let out = self.net.run("side.flood", &SideFlood, inputs)?;
        Ok(out.outputs)
    }

    /// The current tree's edge set (test/debug view assembled from the
    /// per-node port markings).
    #[cfg(test)]
    fn tree_edges(&self) -> Vec<graphs::EdgeId> {
        let mut edges: BTreeSet<u32> = BTreeSet::new();
        for m in &self.mems {
            for &p in m.tree_ports.iter().chain(m.inter_ports.iter()) {
                edges.insert(m.edge_ids[p.index()]);
            }
        }
        edges.into_iter().map(graphs::EdgeId::new).collect()
    }
}

/// Runs the packing pipeline (see [`PipelineOpts`]), with the
/// self-healing driver's checkpoint seam: `resume` restores
/// pre-validated structures from an earlier attempt's [`RecoveryLog`]
/// (skipping the stages that produced them), and `log` captures this
/// attempt's own stage outputs as they complete. `exact_mincut`, the
/// approximation and the baselines pass `None` for both and pay nothing
/// for the seam.
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

    let mut pl = match resume.and_then(|s| s.bfs.as_ref()) {
        Some((leader, bfs)) => Pipeline::new_restored(
            g,
            opts.network.clone(),
            opts.mst.clone(),
            &pack_edge,
            *leader,
            bfs,
        )?,
        None => Pipeline::new(g, opts.network.clone(), opts.mst.clone(), &pack_edge)?,
    };
    // Fail-fast distributed re-validation of the restored structures: a
    // node that died since the checkpoint aborts here (cheaply), before
    // any restored evidence is acted on. The structural re-runs of the
    // shrunk-survivor path validate themselves (each restored tree's
    // cut stage runs in full), so the explicit phases only cover the
    // evidence path.
    if let Some(spec) = resume {
        if let Some((_, bfs)) = &spec.bfs {
            if let Err(e) = pl.validate_restored(&format!("{}.bfs", spec.prefix), &bfs.parents) {
                let ledger = pl.net.ledger().clone();
                return Err((e, ledger));
            }
        }
        // Trusted trees replay their cut values without re-running the
        // cut stage, so their structure is the evidence — validate the
        // deepest trusted entry whether the BFS tree was restored or
        // freshly elected (the pendant-excision trust path arrives
        // here with `bfs: None`: the dead leader invalidated the BFS
        // tree but not the finished trees' cut values).
        if let Some((edges, _)) = spec.trees.iter().rev().find(|(_, c)| c.is_some()) {
            let parents = reroot(n, edges, pl.leader.raw());
            if let Err(e) = pl.validate_restored(&format!("{}.trees", spec.prefix), &parents) {
                let ledger = pl.net.ledger().clone();
                return Err((e, ledger));
            }
        }
    }
    match drive_packing(&mut pl, opts, resume, log) {
        Ok(outcome) => Ok(outcome),
        Err(e) => {
            let ledger = pl.net.ledger().clone();
            Err((e, ledger))
        }
    }
}

/// The packing loop proper, on an initialised pipeline: packs trees until
/// the target is met and assembles the outcome. Split out of
/// [`run_pipeline`] so a failure leaves `pl` — and its ledger —
/// accessible to the caller.
fn drive_packing(
    pl: &mut Pipeline<'_>,
    opts: &PipelineOpts,
    resume: Option<&ResumeSpec>,
    mut log: Option<&mut RecoveryLog>,
) -> Result<DistMinCutResult, MinCutError> {
    let n = pl.n;
    if let Some(log) = log.as_deref_mut() {
        log.leader = Some(pl.leader.raw());
        log.bfs = Some(pl.logged_bfs());
        log.trees.clear();
    }
    let (mut best_value, singleton) = pl.init_deg()?;
    let mut best_node: Option<NodeId> = None;
    let mut trees_to_best = 0usize;
    let mut packed = 0usize;
    let mut tree_edges: Vec<Vec<graphs::EdgeId>> = Vec::new();
    let mut phase_a_fragments: Vec<usize> = Vec::new();
    let mut tf_attachments: Vec<Vec<NodeId>> = Vec::new();
    // Restore the checkpointed trees before packing new ones. Trusted
    // entries (unchanged participant set) replay their bookkeeping —
    // loads, best-so-far, the side-flood snapshot — at zero rounds; the
    // rest re-run their cut stage on the restored structure (the MST
    // stages, the expensive part, are skipped either way).
    if let Some(spec) = resume {
        pl.net.obs_emit("recover.resume", spec.trees.len() as u64);
        let mut snap: Option<Vec<TreeInfo>> = None;
        for (edges, cut) in &spec.trees {
            let parents = reroot(n, edges, pl.leader.raw());
            let tree = tree_infos(pl.g, &parents);
            tree_edges.push(pl.edge_ids_of(&tree));
            packed += 1;
            let (minc, argmin, replayed) = match cut {
                Some((c, (x, y))) => {
                    pl.replay_tree_loads(&tree);
                    // The checkpointed argmin names a tree edge; its
                    // argmin *node* is whichever endpoint is the child
                    // under this attempt's rooting (a fresh leader may
                    // have flipped the orientation).
                    let a = if parents[*x as usize] == Some(*y) {
                        *x
                    } else {
                        debug_assert_eq!(parents[*y as usize], Some(*x));
                        *y
                    };
                    (*c, NodeId::new(a), true)
                }
                None => {
                    pl.install_tree(&tree);
                    let (minc, argmin) = pl.cut_stage()?;
                    pl.finish_tree(minc < best_value)?;
                    (minc, argmin, false)
                }
            };
            if minc < best_value {
                best_value = minc;
                best_node = Some(argmin);
                trees_to_best = packed;
                // A structural tree that improves the bound snapshots
                // itself inside `finish_tree`; a replayed one runs no
                // phases, so the driver re-installs its snapshot after
                // the loop (only if it is still the best).
                snap = replayed.then_some(tree);
            }
            if let Some(log) = log.as_deref_mut() {
                log.trees.push((parents, (minc, argmin.raw())));
                pl.net.obs_emit("recover.checkpoint", packed as u64);
            }
        }
        if let Some(tree) = &snap {
            pl.install_snap(tree);
        }
    }
    while packed < opts.packing.target_trees(n, best_value) {
        pl.reset_tree();
        pl.mst_phase_a_opt()?;
        let chosen = pl.mst_phase_b()?;
        pl.orient(chosen)?;
        phase_a_fragments.push(pl.shape.k());
        // The leader knows each attachment by its BFS in-time; the
        // outcome names it by node id, the endpoint of the row's edge
        // outside the row's fragment.
        let attachment = |r: &TfRow| {
            let (a, b) = pl.g.endpoints(graphs::EdgeId::new(r.edge));
            if pl.mems[a.index()].frag == r.frag {
                b
            } else {
                a
            }
        };
        tf_attachments.push(pl.tf.iter().map(attachment).collect());
        // Snapshot the finished tree's edge set (orientation installs
        // the inter-fragment links and re-roots the fragments, so only
        // now does every node but the leader hold its global-parent
        // edge).
        let mut edges: Vec<graphs::EdgeId> = pl
            .mems
            .iter()
            .filter_map(|m| {
                m.t_parent()
                    .map(|p| graphs::EdgeId::new(m.edge_ids[p.index()]))
            })
            .collect();
        edges.sort_unstable();
        tree_edges.push(edges);
        let (minc, argmin) = pl.cut_stage()?;
        packed += 1;
        let improved = minc < best_value;
        if improved {
            best_value = minc;
            best_node = Some(argmin);
            trees_to_best = packed;
        }
        pl.finish_tree(improved)?;
        if let Some(log) = log.as_deref_mut() {
            log.trees.push((pl.tree_parents(), (minc, argmin.raw())));
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
                pl.finish_tree(false).unwrap();
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
            let mut pl = Pipeline::new(g, NetworkConfig::default(), mst, &pack_edge).unwrap();
            pl.init_deg().unwrap();
            pl.reset_tree();
            pl.mst_phase_a_opt().unwrap();
            let chosen = pl.mst_phase_b().unwrap();
            pl.orient(chosen).unwrap();
            shared_attachment |= pl.mems.iter().any(|m| m.inter_children.len() > 1);
            let (minc, argmin) = pl.cut_stage().unwrap();
            // Sequential oracle on the same tree, rooted at the leader.
            let edges = pl.tree_edges();
            let tree = trees::spanning::to_rooted(g, &edges, NodeId::new(0)).unwrap();
            let cuts = crate::seq::karger_dp::one_respecting_cuts(g, &tree);
            for (v, &want) in cuts.iter().enumerate() {
                assert_eq!(
                    pl.mems[v].cval,
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
            let mut pl = Pipeline::new(&g, network, mst.clone(), &pack_edge).unwrap();
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
        )
        .unwrap();
        let logged = pl.logged_bfs();
        let bfs = LoggedBfs {
            parents: logged.parents[..n].to_vec(),
            labels: logged.labels[..n].to_vec(),
        };
        let dead_in = logged.labels[n].0;
        assert!(
            bfs.labels.iter().all(|&(t, _)| t != dead_in) && dead_in < n as u32,
            "the leaf's in-time is a gap inside the numbering"
        );
        let pack_g: Vec<u64> = g.edges().map(|e| g.weight(e)).collect();
        let restored = Pipeline::new_restored(
            &g,
            NetworkConfig::default(),
            MstConfig::default(),
            &pack_g,
            0,
            &bfs,
        )
        .map_err(|(e, _)| e)
        .unwrap();
        assert_eq!(restored.logged_bfs().labels, bfs.labels);
        let spec = ResumeSpec {
            bfs: Some((0, bfs)),
            trees: Vec::new(),
            prefix: "recover.e1.resume".to_string(),
        };
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

    /// Restored trees install from [`tree_infos`], and the trees packed
    /// after them see the loads they leave: resuming an uninterrupted
    /// run's first two trees, with their cut values replayed as
    /// evidence or their cut stage re-run on the restored structure,
    /// packs the same later trees and finds the same cut and side.
    #[test]
    fn resumed_trees_leave_the_loads_of_an_uninterrupted_run() {
        let g = generators::clique_pair(6, 2).unwrap().graph;
        let opts = opts_fixed(4);
        let mut log = RecoveryLog::default();
        let fresh = run_pipeline(&g, &opts, None, Some(&mut log))
            .map_err(|(e, _)| e)
            .unwrap();
        for trusted in [true, false] {
            let trees = log.trees[..2]
                .iter()
                .map(|(parents, (value, argmin))| {
                    let edges = (0..parents.len() as u32)
                        .filter_map(|v| parents[v as usize].map(|u| (v, u)))
                        .collect();
                    let cut = parents[*argmin as usize].map(|u| (*value, (*argmin, u)));
                    (edges, cut.filter(|_| trusted))
                })
                .collect();
            let spec = ResumeSpec {
                bfs: Some((log.leader.unwrap(), log.bfs.clone().unwrap())),
                trees,
                prefix: "recover.e1.resume".to_string(),
            };
            let resumed = run_pipeline(&g, &opts, Some(&spec), None)
                .map_err(|(e, _)| e)
                .unwrap();
            assert_eq!(resumed.tree_edges, fresh.tree_edges, "trusted: {trusted}");
            assert_eq!(resumed.cut.value, fresh.cut.value, "trusted: {trusted}");
            assert_eq!(resumed.cut.side, fresh.cut.side, "trusted: {trusted}");
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
