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
//! The leader's table streams (`mstB.i*.merge`, `orient.tf`,
//! `s2c.down`, `s4b`, `s5d`) fold each row into the receiving node's
//! memory as it arrives — each node computes its share of the table on
//! the fly — so only the leader holds the `k` rows it streams, and the
//! `k·n` per-node copies never exist. Rows that only a few nodes read
//! travel only to them, along the BFS tree's pre-order intervals (the
//! labels the election hands out): an `mstB` `Chosen` row to the
//! edge's two endpoints, an `s4b` pair to its first attachment, an
//! `s5d` sum to its fragment's attachment. Rows every node reads —
//! `mstB` `Remap` rows, the `T_F` table of `orient.tf`, a fragment's
//! attachment in-times in `s2c.down` — still reach every node.

use crate::dist::mst::{
    BorCand, CandDec, CdInput, CompMsg, DecMsg, FragHook, FragMsg, HookInput, HookRole, MergeItem,
    MstConfig, OptAgg, OptCand, ReportItem,
};
use crate::dist::one_respect::{
    AttItem, FragReroot, IntervalDown, IntervalInput, NbMsg, PairItem, RerootInput, SideFlood,
    SideInput, SideMsg, SizesUp, SumItem, TfRec, Token, TokensInput, TokensUp, TotItem,
};
use crate::dist::packing::{better, Cand, PackingTarget};
use crate::seq::tree_packing::PackingConfig;
use crate::MinCutError;
use congest::primitives::broadcast::{Route, StreamInput};
use congest::primitives::convergecast::{Convergecast, MinPair, SumU64};
use congest::primitives::leader_bfs::LeaderBfs;
use congest::primitives::subtree::SubtreeSums;
use congest::primitives::{
    Broadcast, BroadcastItems, DeltaExchange, GroupedBest, GroupedSum, NeighborExchange,
    PortDeltaExchange, UpcastItems,
};
use congest::{ExecutorKind, Intervals, MetricsLedger, Network, NetworkConfig, Port, TreeInfo};
use graphs::{CutResult, NodeId, WeightedGraph};
use std::collections::{BTreeMap, BTreeSet};

/// Configuration of [`exact_mincut`]: the network model, the packing
/// policy, and the MST stage setting.
#[derive(Clone, Debug, Default)]
pub struct ExactConfig {
    /// CONGEST model parameters (bandwidth `β`, strictness, round cap,
    /// and which round executor drives the phases — `network.executor`
    /// selects serial or deterministic-parallel execution; the result is
    /// executor-independent, see `tests/executor_parity.rs`).
    pub network: NetworkConfig,
    /// Greedy tree packing policy (how many trees, mirroring the
    /// sequential packing).
    pub packing: PackingConfig,
    /// Distributed MST stage setting (phase A's fragment cap).
    pub mst: MstConfig,
}

impl ExactConfig {
    /// This config with the given round executor on its network.
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
    /// the leader's table streams (`orient.tf` carries `k − 1` rows to
    /// every node, `s5d` one row to each of `k − 1` attachments).
    pub phase_a_fragments: Vec<usize>,
    /// The attachments of `T_F`, one list per entry of
    /// `phase_a_fragments`: for every non-root fragment, in `orient.tf`
    /// row order, the node of its parent fragment that it hangs from.
    /// The leader routes that fragment's `s5d` row to it.
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
/// simulated network rejects the run (bandwidth violation in strict
/// mode, round cap). There is no upper bound on `n`: pair aggregation
/// keys are `u64`-wide, so every `n` addressable by `u32` node ids is
/// supported.
pub fn exact_mincut(
    g: &WeightedGraph,
    config: &ExactConfig,
) -> Result<DistMinCutResult, MinCutError> {
    run_pipeline(
        g,
        &PipelineOpts {
            network: config.network.clone(),
            mst: config.mst.clone(),
            target: PackingTarget::TrackBest(config.packing.clone()),
            sample: None,
        },
    )
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
    /// Packing-size policy.
    pub target: PackingTarget,
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
/// restoration costs zero messages).
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
    comp: u32,
    frozen: bool,
    parent: Option<Port>,
    tree_ports: BTreeSet<Port>,
    inter_ports: BTreeSet<Port>,
    inter_parent: Option<Port>,
    inter_children: Vec<Port>,
    port_frag: Vec<u32>,
    port_frozen: Vec<bool>,
    port_comp: Vec<u32>,
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
    /// Last `(comp, frag)` announced (mstB delta exchange).
    ann_comp: Option<(u32, u32)>,
    /// Per port, the neighbor's BFS in-time (from each tree's first
    /// `mstB` announcement).
    port_bfs_in: Vec<u32>,
    iv: Option<Intervals>,
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
        c.extend(self.inter_children.iter().copied());
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
    /// The current tree's `T_F` table: the leader's input to the
    /// `orient.tf` broadcast. Every node receives the whole table in
    /// that phase (its rounds and messages are paid), but keeps only its
    /// own rows' consequences; the cut stage's chain analysis reads this
    /// one copy instead of `n` identical ones.
    tf: Vec<TfRec>,
    /// The leader's view of the BFS in-times of the `T_F` edge
    /// endpoints (from `mstB.report`): where it routes the `s4b` pairs
    /// and the `s5d` sums.
    tf_bfs_in: BTreeMap<u32, u32>,
}

impl<'g> Pipeline<'g> {
    /// Elects the leader, builds its BFS tree, and initialises every
    /// node's static memory. On failure the ledger accumulated so far
    /// rides along with the error (see [`run_pipeline_checkpointed`]).
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
            tf: Vec::new(),
            tf_bfs_in: BTreeMap::new(),
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

    /// The port of `v` toward neighbor `u`.
    fn port_to(&self, v: usize, u: u32) -> Port {
        Port(
            self.g
                .neighbors(NodeId::from_index(v))
                .iter()
                .position(|a| a.neighbor.raw() == u)
                .expect("tree edges are graph edges") as u32,
        )
    }

    /// Installs a restored spanning tree as **one fragment** rooted at
    /// the leader: every node carries the same fragment label and there
    /// are no inter-fragment edges, so `cut_stage` on this memory
    /// computes the exact global 1-respecting minimum of the restored
    /// tree (the single-fragment degradation of the fragment
    /// decomposition — every incident edge is a same-fragment case).
    fn install_tree(&mut self, parents: &[Option<u32>]) {
        debug_assert_eq!(
            parents[self.leader.index()],
            None,
            "re-rooted at the leader"
        );
        self.reset_tree();
        let root = self.leader.raw();
        let mut child_ports: Vec<Vec<Port>> = vec![Vec::new(); self.n];
        let mut parent_ports: Vec<Option<Port>> = vec![None; self.n];
        for v in 0..self.n {
            if let Some(u) = parents[v] {
                parent_ports[v] = Some(self.port_to(v, u));
                child_ports[u as usize].push(self.port_to(u as usize, v as u32));
            }
        }
        for (v, m) in self.mems.iter_mut().enumerate() {
            m.frag = root;
            m.port_frag = vec![root; m.edge_ids.len()];
            m.parent = parent_ports[v];
            m.tree_ports = child_ports[v]
                .iter()
                .copied()
                .chain(parent_ports[v])
                .collect();
        }
    }

    /// Replays a checkpointed tree's per-port load increments (what its
    /// `finish_tree` did when it originally completed): both endpoints
    /// of every tree edge count one more use. Evidence-resume
    /// bookkeeping — zero rounds.
    fn replay_tree_loads(&mut self, parents: &[Option<u32>]) {
        for (v, &p) in parents.iter().enumerate().take(self.n) {
            if let Some(u) = p {
                let pv = self.port_to(v, u);
                let pu = self.port_to(u as usize, v as u32);
                self.mems[v].loads[pv.index()] += 1;
                self.mems[u as usize].loads[pu.index()] += 1;
            }
        }
    }

    /// Re-installs the best-tree snapshot (`side()`'s flood scaffold)
    /// from a checkpointed parent map — what `finish_tree(true)` stored
    /// when that tree originally improved the bound.
    fn install_snap(&mut self, parents: &[Option<u32>]) {
        let mut child_ports: Vec<Vec<Port>> = vec![Vec::new(); self.n];
        let mut parent_ports: Vec<Option<Port>> = vec![None; self.n];
        for v in 0..self.n {
            if let Some(u) = parents[v] {
                parent_ports[v] = Some(self.port_to(v, u));
                child_ports[u as usize].push(self.port_to(u as usize, v as u32));
            }
        }
        for (v, m) in self.mems.iter_mut().enumerate() {
            m.snap_parent = parent_ports[v];
            m.snap_children = std::mem::take(&mut child_ports[v]);
            m.snap_children.sort_unstable();
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

    /// The sorted edge ids of a parent map (the `tree_edges` outcome
    /// entry for restored trees).
    fn edge_ids_of(&self, parents: &[Option<u32>]) -> Vec<graphs::EdgeId> {
        let mut ids: Vec<graphs::EdgeId> = (0..self.n)
            .filter_map(|v| {
                parents[v]
                    .map(|u| graphs::EdgeId::new(self.mems[v].edge_ids[self.port_to(v, u).index()]))
            })
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
        self.tf.clear();
        self.tf_bfs_in.clear();
        for (v, m) in self.mems.iter_mut().enumerate() {
            let deg = m.edge_ids.len();
            m.frag = v as u32;
            m.comp = v as u32;
            m.frozen = false;
            m.parent = None;
            m.tree_ports.clear();
            m.inter_ports.clear();
            m.inter_parent = None;
            m.inter_children.clear();
            // Level-0 fragment ids are node ids, and neighbor ids are
            // a-priori local knowledge in CONGEST — so phase A's initial
            // per-port view costs zero messages.
            m.port_frag = g
                .neighbors(NodeId::from_index(v))
                .iter()
                .map(|a| a.neighbor.raw())
                .collect();
            m.port_frozen = vec![false; deg];
            m.port_comp = vec![0; deg];
            m.ann_mask = vec![false; deg];
            m.depth = 0;
            m.cd_sent = None;
            m.cd_children = vec![None; deg];
            m.cd_purge = false;
            m.ann_comp = None;
            m.iv = None;
            m.att.clear();
            m.cval = 0;
        }
    }

    /// The local best packing candidate of node `v`: the minimum-key
    /// incident edge leaving `v`'s group, where `mine` is `v`'s group
    /// label and `port_labels[p]` the label across port `p` (fragments
    /// in phase A, components in phase B). Returns the port too.
    fn local_cand(&self, v: usize, mine: u32, port_labels: &[u32]) -> Option<(Port, Cand)> {
        let m = &self.mems[v];
        let mut best: Option<(Port, Cand)> = None;
        for (p, &other) in port_labels.iter().enumerate() {
            if other != mine && m.pack_w[p] > 0 {
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
                        self.local_cand(v, m.frag, &m.port_frag)
                            .map(|(p, c)| OptCand {
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
                        // never consult their phase-A views again; mstB's
                        // full i0 refresh picks them up) or the edge has
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

    /// Phase B: Borůvka over the BFS tree, components merged at the
    /// leader. Returns the leader's `T_F` edge reports.
    fn mst_phase_b(&mut self) -> Result<Vec<ReportItem>, MinCutError> {
        for m in self.mems.iter_mut() {
            m.comp = m.frag;
        }
        let mut iter = 0usize;
        loop {
            // Exchange (component, fragment) labels — same delta
            // discipline as `mstA.*.exch`: iteration 0 announces
            // everywhere (and thereby refreshes the port fragment view
            // with the final phase-A fragments, and tells every neighbor
            // the sender's BFS in-time); afterwards only nodes whose
            // component was remapped speak.
            let name = format!("mstB.i{iter}.exch");
            let inputs: Vec<Option<CompMsg>> = self
                .mems
                .iter()
                .map(|m| {
                    (m.ann_comp != Some((m.comp, m.frag))).then_some(CompMsg {
                        comp: m.comp,
                        frag: m.frag,
                        bfs_in: m.ann_comp.is_none().then_some(m.bfs_iv.in_t),
                    })
                })
                .collect();
            let out = self.net.run(&name, &DeltaExchange::new(), inputs)?;
            for (m, o) in self.mems.iter_mut().zip(out.outputs) {
                m.ann_comp = Some((m.comp, m.frag));
                // Allocated here rather than with the static memory: on
                // the 70,602-node instance, allocating it before phase A
                // raised peak RSS by 10 MiB through the heap's layout.
                m.port_bfs_in.resize(o.len(), 0);
                for (p, got) in o.into_iter().enumerate() {
                    if let Some(c) = got {
                        m.port_comp[p] = c.comp;
                        m.port_frag[p] = c.frag;
                        if let Some(t) = c.bfs_in {
                            m.port_bfs_in[p] = t;
                        }
                    }
                }
            }
            // Per-component minimum outgoing candidates to the leader.
            let inputs: Vec<(TreeInfo, Vec<BorCand>)> = (0..self.n)
                .map(|v| {
                    let m = &self.mems[v];
                    let items = self
                        .local_cand(v, m.comp, &m.port_comp)
                        .map(|(p, c)| {
                            vec![BorCand {
                                comp: m.comp,
                                cand: c,
                                other_comp: m.port_comp[p.index()],
                                ends: (m.bfs_iv.in_t, m.port_bfs_in[p.index()]),
                            }]
                        })
                        .unwrap_or_default();
                    (m.bfs.clone(), items)
                })
                .collect();
            let name = format!("mstB.i{iter}.cand");
            let out = self.net.run(&name, &GroupedBest::new(), inputs)?;
            let cands = out.outputs[self.leader.index()]
                .clone()
                .expect("leader is the BFS root");
            if cands.is_empty() {
                // No outgoing edge anywhere: the MST is complete.
                break;
            }
            // The leader merges components and announces the result.
            let mut dsu = trees::DisjointSets::new(self.n);
            let live: BTreeSet<u32> = cands.iter().flat_map(|c| [c.comp, c.other_comp]).collect();
            let mut chosen: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
            for c in &cands {
                dsu.union(c.comp as usize, c.other_comp as usize);
                chosen.insert(c.cand.edge, c.ends);
            }
            // Deterministic representative: the smallest member id.
            let mut rep: BTreeMap<usize, u32> = BTreeMap::new();
            for &c in &live {
                let r = dsu.find(c as usize);
                let e = rep.entry(r).or_insert(c);
                *e = (*e).min(c);
            }
            let mut items: Vec<(Route, MergeItem)> = Vec::new();
            for &c in &live {
                let to = rep[&dsu.find(c as usize)];
                if to != c {
                    items.push((Route::All, MergeItem::Remap { from: c, to }));
                }
            }
            items.extend(
                chosen
                    .iter()
                    .map(|(&edge, &(a, b))| (Route::Two(a, b), MergeItem::Chosen { edge })),
            );
            // Every node applies the remaps as they stream past, and the
            // two endpoints of each chosen edge, the only nodes its row
            // reaches, mark their port.
            let merge = |m: &mut &mut NodeMem, item: &MergeItem| match *item {
                MergeItem::Remap { from, to } => {
                    if m.comp == from {
                        m.comp = to;
                    }
                }
                MergeItem::Chosen { edge } => {
                    if let Some(p) = m.port_of_edge(edge) {
                        m.inter_ports.insert(p);
                    }
                }
            };
            let inputs = bfs_stream(&mut self.mems, self.leader, items, |_, m| m);
            let name = format!("mstB.i{iter}.merge");
            self.net.run(&name, &BroadcastItems::new(merge), inputs)?;
            iter += 1;
            if iter > self.n {
                return Err(MinCutError::InvalidConfig {
                    reason: "distributed MST failed to converge (disconnected packing graph?)"
                        .to_string(),
                });
            }
        }
        // Chosen-edge endpoints report their side so the leader can
        // assemble T_F with exact endpoints.
        let inputs: Vec<(TreeInfo, Vec<ReportItem>)> = (0..self.n)
            .map(|v| {
                let m = &self.mems[v];
                let items = m
                    .inter_ports
                    .iter()
                    .map(|p| ReportItem {
                        edge: m.edge_ids[p.index()],
                        frag: m.frag,
                        node: v as u32,
                        bfs_in: m.bfs_iv.in_t,
                    })
                    .collect();
                (m.bfs.clone(), items)
            })
            .collect();
        let out = self.net.run("mstB.report", &UpcastItems::new(), inputs)?;
        Ok(out.outputs[self.leader.index()]
            .clone()
            .expect("leader is the BFS root"))
    }

    /// Orientation: the leader roots `T_F` at its own fragment,
    /// broadcasts the table, and every fragment re-roots at its
    /// connector.
    fn orient(&mut self, reports: Vec<ReportItem>) -> Result<(), MinCutError> {
        // Leader-local: assemble and root T_F.
        let mut by_edge: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
        for r in &reports {
            by_edge.entry(r.edge).or_default().push((r.frag, r.node));
            self.tf_bfs_in.insert(r.node, r.bfs_in);
        }
        let mut adj: BTreeMap<u32, Vec<(u32, u32, u32, u32)>> = BTreeMap::new();
        for (&edge, ends) in &by_edge {
            debug_assert_eq!(ends.len(), 2, "each chosen edge has two reports");
            let (f1, x1) = ends[0];
            let (f2, x2) = ends[1];
            adj.entry(f1).or_default().push((f2, edge, x1, x2));
            adj.entry(f2).or_default().push((f1, edge, x2, x1));
        }
        let root_frag = self.mems[self.leader.index()].frag;
        let mut recs: Vec<TfRec> = Vec::new();
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        seen.insert(root_frag);
        let mut queue: std::collections::VecDeque<u32> = [root_frag].into();
        while let Some(pf) = queue.pop_front() {
            for &(gf, edge, a, c) in adj.get(&pf).into_iter().flatten() {
                if seen.insert(gf) {
                    recs.push(TfRec {
                        frag: gf,
                        parent: pf,
                        c,
                        a,
                        edge,
                    });
                    queue.push_back(gf);
                }
            }
        }
        // Broadcast the table over the BFS tree: the cut stage reads all
        // of `T_F` at every node. Each node also derives its role from
        // the rows as they pass: the connector edge of its own fragment,
        // and the edge of every child fragment attached at it.
        let roles = |(me, m): &mut (u32, &mut NodeMem), r: &TfRec| {
            if r.c == *me {
                m.inter_parent = Some(m.port_of_edge(r.edge).expect("connector owns its edge"));
            }
            if r.a == *me {
                let p = m.port_of_edge(r.edge).expect("attachment owns its edge");
                let at = m.inter_children.partition_point(|&q| q < p);
                m.inter_children.insert(at, p);
            }
        };
        let table = recs.iter().map(|&r| (Route::All, r)).collect();
        let inputs = bfs_stream(&mut self.mems, self.leader, table, |v, m| (v as u32, m));
        self.tf = recs;
        self.net
            .run("orient.tf", &BroadcastItems::new(roles), inputs)?;
        // Re-root every fragment at its connector (the leader for the
        // root fragment).
        let inputs: Vec<RerootInput> = (0..self.n)
            .map(|v| {
                let m = &self.mems[v];
                RerootInput {
                    tree_ports: m.tree_ports.iter().copied().collect(),
                    initiator: v == self.leader.index() || m.inter_parent.is_some(),
                }
            })
            .collect();
        let out = self.net.run("orient.flood", &FragReroot, inputs)?;
        for (m, parent) in self.mems.iter_mut().zip(out.outputs) {
            m.parent = parent;
        }
        Ok(())
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
        // s2c: gather + spread the attachment in-times per fragment.
        let inputs: Vec<(TreeInfo, Vec<AttItem>)> = (0..n)
            .map(|v| {
                let m = &self.mems[v];
                let items = if m.inter_children.is_empty() {
                    vec![]
                } else {
                    vec![AttItem {
                        node: v as u32,
                        in_t: m.iv.as_ref().expect("intervals set").in_t,
                    }]
                };
                (m.ftree(), items)
            })
            .collect();
        let up = self.net.run("s2c.up", &UpcastItems::new(), inputs)?.outputs;
        let insert = |m: &mut &mut NodeMem, a: &AttItem| {
            m.att.insert(a.node, a.in_t);
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
        // s3: per-edge exchange of in-times (fragments are already known
        // per port from the mstB delta exchanges).
        let out = self.net.run(
            "s3",
            &NeighborExchange::new(),
            self.mems
                .iter()
                .map(|m| NbMsg {
                    in_t: m.iv.as_ref().expect("intervals set").in_t,
                })
                .collect(),
        )?;
        let nb: Vec<Vec<u32>> = out
            .outputs
            .into_iter()
            .map(|o| {
                o.into_iter()
                    .map(|x| x.expect("every neighbor sends").in_t)
                    .collect()
            })
            .collect();
        // Local LCA case analysis (chains are derived from the T_F table
        // every node received in `orient.tf`).
        let tf_parent: BTreeMap<u32, TfRec> = self.tf.iter().map(|r| (r.frag, *r)).collect();
        let chain = |f: u32| -> Vec<u32> {
            let mut c = vec![f];
            let mut cur = f;
            while let Some(r) = tf_parent.get(&cur) {
                cur = r.parent;
                c.push(cur);
            }
            c
        };
        let chains: BTreeMap<u32, Vec<u32>> = self
            .mems
            .iter()
            .map(|m| m.frag)
            .chain(self.mems.iter().flat_map(|m| m.port_frag.iter().copied()))
            .map(|f| (f, chain(f)))
            .collect();
        let deepest_common = |a: &[u32], b: &[u32]| -> u32 {
            let mut last = *a.last().expect("chains end at the root fragment");
            let mut i = a.len();
            let mut j = b.len();
            while i > 0 && j > 0 && a[i - 1] == b[j - 1] {
                last = a[i - 1];
                i -= 1;
                j -= 1;
            }
            last
        };
        let child_below = |chain: &[u32], fstar: u32| -> u32 {
            let pos = chain
                .iter()
                .position(|&f| f == fstar)
                .expect("fstar on chain");
            debug_assert!(pos > 0, "child_below of the chain's own fragment");
            chain[pos - 1]
        };
        let mut tokens: Vec<Vec<Token>> = vec![Vec::new(); n];
        let mut pairs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
        for v in 0..n {
            let m = &self.mems[v];
            let iv = m.iv.as_ref().expect("intervals set");
            let my_chain = &chains[&m.frag];
            for (p, &other_in_t) in nb[v].iter().enumerate() {
                let w = m.weights[p];
                let other_frag = m.port_frag[p];
                if other_frag == m.frag {
                    // Case 1 (same fragment): the deeper-in-preorder
                    // endpoint routes a token toward the LCA.
                    if iv.in_t > other_in_t {
                        tokens[v].push(Token {
                            t_in: other_in_t,
                            w,
                        });
                    }
                    continue;
                }
                let their_chain = &chains[&other_frag];
                let fstar = deepest_common(my_chain, their_chain);
                if fstar == m.frag {
                    // Case 3 with the LCA in my fragment: target the
                    // attachment of the other side's chain.
                    let g_child = child_below(their_chain, fstar);
                    let a = tf_parent[&g_child].a;
                    let a_in = *m.att.get(&a).expect("attachment table covers a");
                    tokens[v].push(Token { t_in: a_in, w });
                } else if fstar != other_frag {
                    // Case 2: the LCA is a merging node in a third
                    // fragment; aggregate by the attachment pair. The
                    // smaller endpoint id emits.
                    let nbr_id = self.g.neighbors(NodeId::from_index(v))[p].neighbor.raw();
                    if (v as u32) < nbr_id {
                        let a1 = tf_parent[&child_below(my_chain, fstar)].a;
                        let a2 = tf_parent[&child_below(their_chain, fstar)].a;
                        let (lo, hi) = (a1.min(a2), a1.max(a2));
                        // Pack the attachment pair into one u64 key:
                        // `lo·n + hi < n²` costs 2⌈log₂ n⌉ key bits, so
                        // any n addressable by u32 node ids fits.
                        pairs[v].push((lo as u64 * n as u64 + hi as u64, w));
                    }
                }
                // fstar == other_frag: the other endpoint originates.
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
        // Each pair travels to its first attachment, which holds the
        // second's in-fragment in-time (both hang below the merging
        // node, in its fragment) and turns the pair into an `s5` token
        // aimed at it: the token stops at the pair's LCA, the merging
        // node.
        let items: Vec<(Route, PairItem)> = pair_totals
            .into_iter()
            .map(|(key, w)| {
                let a1 = (key / n as u64) as u32;
                let a2 = (key % n as u64) as u32;
                (Route::One(self.tf_bfs_in[&a1]), PairItem { a2, w })
            })
            .collect();
        let aim = |(att, toks): &mut (&BTreeMap<u32, u32>, Vec<Token>), item: &PairItem| {
            let t_in = *att.get(&item.a2).expect("attachment table covers a2");
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
                    .map(|(d, r)| vec![TotItem { frag: m.frag, d, r }])
                    .unwrap_or_default();
                (m.bfs.clone(), items)
            })
            .collect();
        let out = self.net.run("s5c", &UpcastItems::new(), inputs)?;
        let tot_items = out.outputs[self.leader.index()]
            .clone()
            .expect("leader is the BFS root");
        // Leader-local: T_F subtree sums.
        let tf = &self.tf;
        let tot_map: BTreeMap<u32, (u64, u64)> =
            tot_items.iter().map(|t| (t.frag, (t.d, t.r))).collect();
        let mut children_of: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for r in tf {
            children_of.entry(r.parent).or_default().push(r.frag);
        }
        let mut sums: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        // Process fragments bottom-up: repeated passes are unnecessary —
        // recurse iteratively with an explicit stack.
        let root_frag = self.mems[self.leader.index()].frag;
        let mut stack = vec![(root_frag, false)];
        while let Some((f, expanded)) = stack.pop() {
            if expanded {
                let base = tot_map[&f];
                let mut acc = base;
                for c in children_of.get(&f).into_iter().flatten() {
                    let s = sums[c];
                    acc.0 += s.0;
                    acc.1 += s.1;
                }
                sums.insert(f, acc);
            } else {
                stack.push((f, true));
                for &c in children_of.get(&f).into_iter().flatten() {
                    stack.push((c, false));
                }
            }
        }
        // s5d: route each non-root fragment's subtree sums to its
        // attachment, which adds up its child fragments' masses
        // `(Wδ, Wρ)`. (The root fragment hangs from no node.)
        let items: Vec<(Route, SumItem)> = self
            .tf
            .iter()
            .map(|r| {
                let (sd, sr) = sums[&r.frag];
                (Route::One(self.tf_bfs_in[&r.a]), SumItem { sd, sr })
            })
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

/// Runs the packing pipeline; see [`PipelineOpts`].
pub(crate) fn run_pipeline(
    g: &WeightedGraph,
    opts: &PipelineOpts,
) -> Result<DistMinCutResult, MinCutError> {
    run_pipeline_checkpointed(g, opts, None, None).map_err(|(e, _)| e)
}

/// [`run_pipeline`] with the self-healing driver's checkpoint seam:
/// `resume` restores pre-validated structures from an earlier attempt's
/// [`RecoveryLog`] (skipping the stages that produced them), and `log`
/// captures this attempt's own stage outputs as they complete. Both
/// default to off — `exact_mincut` and the baselines pay nothing for
/// the seam.
///
/// On failure the metrics ledger accumulated up to that point rides
/// along with the error. The self-healing driver
/// ([`crate::dist::recover`]) needs both: the typed
/// [`congest::CongestError::NodeSuspected`] carries the virtual-round
/// clock for rebasing the crash schedule, and the partial ledger is what
/// makes an aborted attempt's cost visible in the merged accounting.
pub(crate) fn run_pipeline_checkpointed(
    g: &WeightedGraph,
    opts: &PipelineOpts,
    resume: Option<&ResumeSpec>,
    log: Option<&mut RecoveryLog>,
) -> Result<DistMinCutResult, (MinCutError, MetricsLedger)> {
    let n = g.node_count();
    if n < 2 {
        return Err((MinCutError::TooSmall { nodes: n }, MetricsLedger::new()));
    }
    // No upper bound on n here: the case-2 pair aggregation packs
    // attachment pairs into u64 stream keys (2⌈log₂ n⌉ bits), so every
    // n addressable by u32 node ids is in range for exact and approx
    // drivers alike.
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
/// [`run_pipeline_checkpointed`] so a failure leaves `pl` — and its
/// ledger — accessible to the caller.
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
        let mut snap: Option<Vec<Option<u32>>> = None;
        for (edges, cut) in &spec.trees {
            let parents = reroot(n, edges, pl.leader.raw());
            tree_edges.push(pl.edge_ids_of(&parents));
            packed += 1;
            let (minc, argmin, replayed) = match cut {
                Some((c, (x, y))) => {
                    pl.replay_tree_loads(&parents);
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
                    pl.install_tree(&parents);
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
                snap = replayed.then(|| parents.clone());
            }
            if let Some(log) = log.as_deref_mut() {
                log.trees.push((parents, (minc, argmin.raw())));
                pl.net.obs_emit("recover.checkpoint", packed as u64);
            }
        }
        if let Some(parents) = &snap {
            pl.install_snap(parents);
        }
    }
    while packed < opts.target.target(n, best_value) {
        pl.reset_tree();
        pl.mst_phase_a_opt()?;
        let reports = pl.mst_phase_b()?;
        pl.orient(reports)?;
        phase_a_fragments.push(pl.tf.len() + 1);
        tf_attachments.push(pl.tf.iter().map(|r| NodeId::new(r.a)).collect());
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
            target: PackingTarget::Fixed(k),
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
                let reports = pl.mst_phase_b().unwrap();
                pl.orient(reports).unwrap();
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
    /// Karger's sequential dynamic program on the same tree.
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
        for g in &cases {
            let pack_edge: Vec<u64> = g.edges().map(|e| g.weight(e)).collect();
            let mut pl = Pipeline::new(
                g,
                NetworkConfig::default(),
                MstConfig::default(),
                &pack_edge,
            )
            .unwrap();
            pl.init_deg().unwrap();
            pl.reset_tree();
            pl.mst_phase_a_opt().unwrap();
            let reports = pl.mst_phase_b().unwrap();
            pl.orient(reports).unwrap();
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
    /// labels would lead them to: same cut, same trees, same traffic.
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
        let fresh = run_pipeline(&g, &opts).unwrap();
        let restored = run_pipeline_checkpointed(&g, &opts, Some(&spec), None)
            .map_err(|(e, _)| e)
            .unwrap();
        assert_eq!(restored.cut.value, fresh.cut.value);
        assert_eq!(restored.cut.side, fresh.cut.side);
        assert_eq!(restored.tree_edges, fresh.tree_edges);
        assert_eq!(restored.best_node, fresh.best_node);
        for stem in ["mstB", "s4b", "s5d"] {
            assert_eq!(
                restored.ledger.messages_matching(stem),
                fresh.ledger.messages_matching(stem),
                "{stem}"
            );
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
        let outcome = run_pipeline(
            &g,
            &PipelineOpts {
                target: PackingTarget::Fixed(2),
                ..opts_fixed(2)
            },
        )
        .unwrap();
        assert_eq!(outcome.trees_packed, 2);
        assert!(outcome.cut.is_proper());
    }
}
