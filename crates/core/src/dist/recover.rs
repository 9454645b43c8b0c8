//! The self-healing driver: crash detection, checkpointed recovery and
//! rejoin wrapped around the exact pipeline.
//!
//! [`recover_mincut`] runs [`crate::dist::driver::exact_mincut`]'s
//! pipeline under a fault-scheduling [`FaultPlan`] and survives
//! fail-stop faults — including the death of the elected leader —
//! transient partitions, and scheduled rejoins, by an *epoch* loop:
//!
//! 1. **Attempt.** Run the full pipeline with
//!    [`SuspicionPolicy::Abort`]: the first time the transport's timeout
//!    detector suspects a silent peer, the phase aborts with the typed
//!    [`CongestError::NodeSuspected`], whose `round` field is the
//!    session's virtual-round clock at the abort. As the attempt
//!    progresses, the driver snapshots each completed stage's validated
//!    output — the election/BFS tree, every finished packed tree with
//!    its 1-respecting minimum — into a recovery log (driver-side
//!    bookkeeping over state it already holds: zero rounds).
//! 2. **Census.** Rebase the plan by the abort clock (crashes that
//!    already fired become dead-from-boot) and run a
//!    [`FailureDetector`] pass under [`SuspicionPolicy::Continue`]
//!    (`census.e{epoch}.r{pass}`): every surviving node idles through
//!    the suspicion window and reports which neighbors its detector
//!    suspects. A node can die *mid-census*; when the schedule says one
//!    fired during the pass, the census is re-run to a fixpoint (the
//!    next pass sees it dead-from-boot) under a small pass bound.
//! 3. **Classify.** Suspects split three ways. A suspect whose crash is
//!    still active and permanent is **dead**. A suspect whose
//!    [`CrashEvent`](congest::sim::CrashEvent) carries a now-due
//!    `rejoin` is **rejoined**: it stays in the participant set and is
//!    re-admitted through a join handshake (`census.e{epoch}.join`, the
//!    [`JoinEcho`] adopting flood — veterans announce the session tag,
//!    rejoiners adopt and forward it; the driver asserts every rejoiner
//!    adopted it). A suspect with a *pending* rejoin is kept too — it
//!    re-enters at a later epoch boundary. And when the census finds
//!    nobody dead at all but the aborted plan had begun a partition
//!    window ([`FaultPlan::partition_begun_by`]), the abort is blamed
//!    on the partition: the participants are unchanged and the attempt
//!    simply retries (the window is one-shot — rebasing consumed it).
//!    The driver therefore never certifies a λ computed on a
//!    half-partition: the abort discarded that attempt, and the retry
//!    runs on the healed network.
//! 4. **Excise and resume.** Truly dead nodes (plus any survivors they
//!    separate from the anchor component) are excised; ids are
//!    compacted, the schedule renamed ([`FaultPlan::remapped`] — which
//!    *parks* rejoin-pending events of excised nodes rather than
//!    dropping them) and shifted ([`FaultPlan::rebased`]). The next
//!    attempt then resumes from the deepest checkpoint whose structures
//!    survive the excision instead of restarting from round 0:
//!    * the BFS tree is restored when the leader and every survivor's
//!      parent chain survived (skipping re-election), and re-validated
//!      by one distributed convergecast (`recover.e{epoch}.resume.bfs`);
//!    * checkpointed packed trees are kept as long as their edge sets,
//!      restricted to the survivors, still span them (validated by
//!      union-find; a dead *leaf* — even a dead leader — keeps the tree
//!      usable, re-rooted driver-side at the current leader);
//!    * with the participant set unchanged (rejoin, partition retry),
//!      the checkpointed cut values are *evidence*: loads and
//!      best-so-far are replayed at zero rounds and only a validation
//!      convergecast runs (`recover.e{epoch}.resume.trees`);
//!    * the same evidence replay applies when every excised node was
//!      *pendant* (degree 1) in the checkpoint's graph: a pendant's
//!      only edge crosses no survivor subtree cut, so every surviving
//!      1-respecting value is provably unchanged by the excision —
//!      unless the checkpointed argmin itself died (its cut vanished
//!      with it), which voids the entry;
//!    * with any other shrunk survivor set the structures are kept but
//!      the cut values are stale: each restored tree re-runs its
//!      (cheap) cut stage as one fragment, skipping the expensive MST
//!      stages.
//!
//!    Validation falls back one stage at a time: invalid trees drop the
//!    suffix from the first failure, an invalid BFS falls back to
//!    re-election, and with nothing restorable the attempt runs from
//!    scratch exactly as before.
//!
//! The loop ends when an attempt completes; the recovered cut is then
//! **certified** against the sequential Stoer–Wagner oracle on the
//! surviving subgraph (enabled by default). If a *resumed* attempt
//! fails certification, the checkpoints are discarded and the epoch
//! retries from scratch — stale evidence can cost rounds, never
//! correctness; a from-scratch mismatch is a real error.
//!
//! # Accounting
//!
//! Every phase of every failed attempt is folded into the merged
//! [`MetricsLedger`] under a `recover.e{epoch}.` name prefix (resume
//! validation phases are born with it); census and join phases carry
//! `census.e{epoch}.*` names. The successful attempt's phases keep
//! their canonical names. Recovery cost is one query away:
//! `recover.` + `census.` sums surface as
//! [`RecoveredMinCut::recovery_rounds`] /
//! [`RecoveredMinCut::recovery_messages`], and the per-epoch split as
//! [`RecoveredMinCut::wasted_rounds`] /
//! [`RecoveredMinCut::wasted_messages`].
//!
//! Everything is deterministic: the same graph and the same plan yield
//! byte-identical merged ledgers (asserted in `tests/self_healing.rs`).

use crate::dist::driver::{
    run_pipeline_checkpointed, ExactConfig, LoggedBfs, LoggedTree, PipelineOpts, RecoveryLog,
    RestoredTree, ResumeSpec,
};
use crate::dist::packing::PackingTarget;
use crate::seq::stoer_wagner;
use crate::MinCutError;
use congest::primitives::failure_detector::{FailureDetector, JoinEcho};
use congest::sim::{FaultPlan, SuspicionPolicy};
use congest::{CongestError, MetricsLedger, Network};
use graphs::{CutResult, NodeId, WeightedGraph};
use std::collections::BTreeSet;

/// Census passes per epoch before the dead set is declared stable. Each
/// pass rebases the schedule past itself, so a node that died mid-pass
/// is dead-from-boot in the next; two passes settle any single
/// mid-census death and the third is slack for cascades.
const MAX_CENSUS_PASSES: usize = 3;

/// The pipeline stage a resumed attempt restarted from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// The election/BFS checkpoint was restored (no finished trees
    /// survived excision).
    Bfs,
    /// This many checkpointed packed trees were restored (the BFS stage
    /// was either restored too or cheaply re-elected).
    Packed(usize),
}

/// Configuration of [`recover_mincut`].
#[derive(Clone, Debug)]
pub struct RecoverConfig {
    /// The pipeline configuration (network model, packing policy, MST
    /// fragment cap). Its executor choice is overridden: the
    /// attempts run under the fault-injecting executor with [`plan`]
    /// (with the abort-on-suspicion policy forced).
    ///
    /// [`plan`]: RecoverConfig::plan
    pub base: ExactConfig,
    /// The adversary: link faults, partitions, corruption, and the
    /// crash/rejoin schedule, in **global virtual rounds** counted
    /// across the whole recovery session (failed attempts, censuses and
    /// handshakes included).
    pub plan: FaultPlan,
    /// Maximum pipeline attempts before giving up (min 1). Each epoch
    /// either excises at least one node or consumes a one-shot
    /// adversary event (a partition window, a pending rejoin), so this
    /// caps how much adversity the driver absorbs before declaring the
    /// instance unrecoverable.
    pub max_epochs: usize,
    /// Certify the recovered cut against the sequential Stoer–Wagner
    /// oracle on the surviving subgraph (default `true`). Disable only
    /// for benchmarks where the oracle's `O(nm + n² log n)` cost drowns
    /// the signal.
    pub certify: bool,
    /// Resume aborted sessions from stage checkpoints (default `true`).
    /// Disable to force every epoch to restart from round 0 — the
    /// from-scratch baseline the chaos gate compares against.
    pub checkpoint: bool,
}

impl Default for RecoverConfig {
    /// Default pipeline config, a lossless crash-free plan, at most 8
    /// epochs, certification and checkpointing on.
    fn default() -> Self {
        RecoverConfig {
            base: ExactConfig::default(),
            plan: FaultPlan::lossless(),
            max_epochs: 8,
            certify: true,
            checkpoint: true,
        }
    }
}

impl RecoverConfig {
    /// This config with the given fault plan.
    pub fn with_plan(self, plan: FaultPlan) -> Self {
        RecoverConfig { plan, ..self }
    }

    /// This config with checkpointed resume on or off.
    pub fn with_checkpoint(self, checkpoint: bool) -> Self {
        RecoverConfig { checkpoint, ..self }
    }

    /// This config with an observability sink attached to its base
    /// network — and therefore to every attempt, census, and join
    /// network the driver spawns (they all clone the base config).
    pub fn with_obs(self, handle: congest::ObsHandle) -> Self {
        RecoverConfig {
            base: self.base.with_obs(handle),
            ..self
        }
    }
}

/// Result of a self-healing run: the minimum cut of the surviving
/// subgraph, plus the recovery accounting.
#[derive(Clone, Debug)]
pub struct RecoveredMinCut {
    /// The best cut of the **surviving** subgraph. `cut.side[i]` refers
    /// to the node whose original id is `survivors[i]`.
    pub cut: CutResult,
    /// Original ids of the surviving nodes, ascending — the new-id →
    /// original-id map of the final subgraph.
    pub survivors: Vec<NodeId>,
    /// Original ids of the excised nodes, ascending: diagnosed crashed
    /// nodes plus any survivors the crashes separated from the surviving
    /// component.
    pub dead: Vec<NodeId>,
    /// Original ids of nodes that died and were re-admitted through the
    /// rejoin handshake, ascending. Disjoint from `dead`.
    pub rejoined: Vec<NodeId>,
    /// Pipeline attempts executed (1 = no crash was ever suspected).
    pub epochs: usize,
    /// The stage checkpoint the **successful** attempt resumed from
    /// (`None` = it ran from scratch — also the crash-free case).
    pub resumed_from: Option<Stage>,
    /// The Stoer–Wagner λ of the surviving subgraph, when certification
    /// ran (it always equals `cut.value` — a mismatch is an error).
    pub oracle: Option<u64>,
    /// Total virtual rounds across the whole session, recovery included.
    pub rounds: u64,
    /// Total messages across the whole session, recovery included.
    pub messages: u64,
    /// Rounds spent on recovery alone: aborted attempts, resume
    /// validations, censuses and join handshakes.
    pub recovery_rounds: u64,
    /// Messages spent on recovery alone.
    pub recovery_messages: u64,
    /// Per-epoch recovery rounds: entry `k` sums the `recover.e{k+1}.*`
    /// and `census.e{k+1}.*` phases (aborted attempt, resume overhead,
    /// census, handshake of that epoch).
    pub wasted_rounds: Vec<u64>,
    /// Per-epoch recovery messages, same split as `wasted_rounds`.
    pub wasted_messages: Vec<u64>,
    /// The merged per-phase ledger: `recover.e{epoch}.*` /
    /// `census.e{epoch}.*` entries for the recovery work, canonical
    /// names for the successful attempt.
    pub ledger: MetricsLedger,
}

/// The master checkpoint snapshot kept across epochs, in **original**
/// graph ids (the one id space stable under compaction). Always one
/// coherent attempt's log — structures from different packing sequences
/// are never mixed.
struct MasterLog {
    /// Original ids of the participants when the log was captured,
    /// ascending. Cut values are evidence only for this exact set.
    participants: Vec<u32>,
    /// Original id of the leader of that attempt.
    leader: Option<u32>,
    /// The labelled BFS tree, indexed by original id.
    bfs: Option<LoggedBfs>,
    /// Finished packed trees, in packing order: parent map (original
    /// ids) plus the tree's 1-respecting minimum `(value, argmin)`.
    trees: Vec<LoggedTree>,
}

/// Translates an attempt's [`RecoveryLog`] (current ids) into the
/// original id space through the compaction map `orig`.
fn to_orig(log: &RecoveryLog, orig: &[u32], n0: usize) -> MasterLog {
    let tr = |parents: &[Option<u32>]| -> Vec<Option<u32>> {
        let mut out = vec![None; n0];
        for (v, p) in parents.iter().enumerate() {
            out[orig[v] as usize] = p.map(|u| orig[u as usize]);
        }
        out
    };
    MasterLog {
        participants: orig.to_vec(),
        leader: log.leader.map(|l| orig[l as usize]),
        bfs: log.bfs.as_ref().map(|b| {
            let mut labels = vec![(0, 0); n0];
            for (v, &l) in b.labels.iter().enumerate() {
                labels[orig[v] as usize] = l;
            }
            LoggedBfs {
                parents: tr(&b.parents),
                labels,
            }
        }),
        trees: log
            .trees
            .iter()
            .map(|(p, (c, a))| (tr(p), (*c, orig[*a as usize])))
            .collect(),
    }
}

/// Validates the master log against the current survivor set and builds
/// the deepest restorable [`ResumeSpec`], falling back one stage at a
/// time: trees are kept as the longest prefix still spanning the
/// survivors; the BFS restore requires the leader and every parent
/// chain alive; cut values are trusted when the participant set is
/// exactly unchanged, or when every excised node was pendant in the
/// checkpoint's graph (see below). Returns `None` when nothing
/// survived validation.
fn build_resume(
    g: &WeightedGraph,
    m: &MasterLog,
    orig: &[u32],
    n0: usize,
    epoch: usize,
) -> Option<(ResumeSpec, Stage)> {
    let k = orig.len();
    let mut cur_of: Vec<Option<u32>> = vec![None; n0];
    for (v, &o) in orig.iter().enumerate() {
        cur_of[o as usize] = Some(v as u32);
    }
    let full = m.participants == orig;
    // Pendant-excision trust: when every node excised since the
    // checkpoint was pendant (degree 1) in the checkpoint's graph — the
    // induced subgraph on `m.participants` — its only edge crossed no
    // surviving subtree cut, so every finished tree's 1-respecting
    // minimum over the survivors is byte-for-byte unchanged and stays
    // evidence even though the participant set shrank.
    let excised: Vec<u32> = m
        .participants
        .iter()
        .copied()
        .filter(|&o| cur_of[o as usize].is_none())
        .collect();
    let shrunk =
        !excised.is_empty() && orig.iter().all(|o| m.participants.binary_search(o).is_ok());
    let pendant_trust = shrunk
        && excised.iter().all(|&d| {
            g.neighbors(NodeId::new(d))
                .iter()
                .filter(|a| m.participants.binary_search(&a.neighbor.raw()).is_ok())
                .count()
                == 1
        });
    let bfs = m
        .leader
        .and_then(|l| cur_of[l as usize])
        .and_then(|leader_cur| {
            let b = m.bfs.as_ref()?;
            let mut parents: Vec<Option<u32>> = vec![None; k];
            for (v, &o) in orig.iter().enumerate() {
                match b.parents[o as usize] {
                    None => {
                        if Some(o) != m.leader {
                            return None;
                        }
                    }
                    Some(u) => {
                        parents[v] = Some(cur_of[u as usize]?);
                    }
                }
            }
            // Each survivor keeps its labels: the excised nodes only
            // leave gaps in the numbering.
            let labels = orig.iter().map(|&o| b.labels[o as usize]).collect();
            Some((leader_cur, LoggedBfs { parents, labels }))
        });
    let mut kept: Vec<RestoredTree> = Vec::new();
    for (p, (c, a)) in &m.trees {
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (v, &o) in orig.iter().enumerate() {
            if let Some(u) = p[o as usize] {
                if let Some(ucur) = cur_of[u as usize] {
                    edges.push((v as u32, ucur));
                }
            }
        }
        // Spanning-tree check on the survivors: k-1 surviving edges
        // connecting all k (a dead leaf costs its one edge and nothing
        // else; a dead cut vertex disconnects the restriction).
        if edges.len() + 1 != k {
            break;
        }
        let mut dsu = trees::DisjointSets::new(k);
        for &(x, y) in &edges {
            dsu.union(x as usize, y as usize);
        }
        if dsu.set_count() != 1 {
            break;
        }
        // The trusted payload carries the best *edge* `(argmin, its
        // checkpointed parent)` rather than the argmin node alone: the
        // attempt re-roots the tree at whatever leader it elects, and
        // only the edge identity survives a flipped orientation. A
        // dead endpoint voids the entry (the minimum may have been the
        // excised pendant's own cut) and falls back to a re-run.
        let trusted = ((full && bfs.is_some()) || pendant_trust)
            .then(|| {
                let x = cur_of[*a as usize]?;
                let y = cur_of[p[*a as usize]? as usize]?;
                Some((*c, (x, y)))
            })
            .flatten();
        kept.push((edges, trusted));
    }
    if bfs.is_none() && kept.is_empty() {
        return None;
    }
    let stage = if kept.is_empty() {
        Stage::Bfs
    } else {
        Stage::Packed(kept.len())
    };
    Some((
        ResumeSpec {
            bfs,
            trees: kept,
            prefix: format!("recover.e{epoch}.resume"),
        },
        stage,
    ))
}

/// Runs the exact distributed min-cut pipeline on `g` under
/// `cfg.plan`'s faults, recovering from crashes, partitions and
/// rejoins; see the module docs.
///
/// # Errors
///
/// Everything [`crate::dist::driver::exact_mincut`] can return, plus
/// [`MinCutError::InvalidConfig`] when recovery does not converge
/// within [`RecoverConfig::max_epochs`] epochs, when a from-scratch
/// attempt fails certification, or when the rejoin handshake misses a
/// rejoiner, and [`MinCutError::TooSmall`] when fewer than two nodes
/// survive. Errors other than [`CongestError::NodeSuspected`] —
/// bandwidth violations, retransmission exhaustion — are *not*
/// recoverable and propagate from the failing attempt unchanged.
pub fn recover_mincut(
    g: &WeightedGraph,
    cfg: &RecoverConfig,
) -> Result<RecoveredMinCut, MinCutError> {
    let n0 = g.node_count();
    let mut merged = MetricsLedger::new();
    let mut cur = g.clone();
    // orig[v] = the original id of the current subgraph's node v.
    let mut orig: Vec<u32> = (0..n0 as u32).collect();
    let mut dead: Vec<u32> = Vec::new();
    let mut rejoined: BTreeSet<u32> = BTreeSet::new();
    let mut plan = cfg.plan.clone();
    plan.on_suspect = SuspicionPolicy::Abort;
    let max_epochs = cfg.max_epochs.max(1);
    let mut master: Option<MasterLog> = None;

    for epoch in 1..=max_epochs {
        let resume = if cfg.checkpoint {
            master
                .as_ref()
                .and_then(|m| build_resume(g, m, &orig, n0, epoch))
        } else {
            None
        };
        let (spec, stage) = match resume {
            Some((spec, stage)) => (Some(spec), Some(stage)),
            None => (None, None),
        };
        let opts = PipelineOpts {
            network: cfg.base.network.clone().with_fault_plan(plan.clone()),
            mst: cfg.base.mst.clone(),
            target: PackingTarget::TrackBest(cfg.base.packing.clone()),
            sample: None,
        };
        let mut attempt_log = RecoveryLog::default();
        let err =
            match run_pipeline_checkpointed(&cur, &opts, spec.as_ref(), Some(&mut attempt_log)) {
                Ok(outcome) => {
                    let oracle = if cfg.certify {
                        let sw = stoer_wagner(&cur)?;
                        if sw.value != outcome.cut.value {
                            if spec.is_some() {
                                // The safety valve: resumed evidence that
                                // fails the oracle is discarded, the
                                // poisoned attempt is booked as recovery
                                // waste, and the epoch retries from
                                // scratch. Stale checkpoints can cost
                                // rounds, never correctness.
                                merged.extend_from(
                                    &outcome.ledger,
                                    Some(&format!("recover.e{epoch}.")),
                                );
                                plan = plan.rebased(outcome.ledger.total_rounds());
                                master = None;
                                continue;
                            }
                            return Err(MinCutError::InvalidConfig {
                                reason: format!(
                                    "survivor certification failed: recovered λ = {} but the \
                                 sequential oracle finds {} on the surviving subgraph",
                                    outcome.cut.value, sw.value
                                ),
                            });
                        }
                        Some(sw.value)
                    } else {
                        None
                    };
                    merged.extend_from(&outcome.ledger, None);
                    dead.sort_unstable();
                    let wasted_rounds: Vec<u64> = (1..=epoch)
                        .map(|k| {
                            merged.rounds_matching(&format!("recover.e{k}."))
                                + merged.rounds_matching(&format!("census.e{k}."))
                        })
                        .collect();
                    let wasted_messages: Vec<u64> = (1..=epoch)
                        .map(|k| {
                            merged.messages_matching(&format!("recover.e{k}."))
                                + merged.messages_matching(&format!("census.e{k}."))
                        })
                        .collect();
                    return Ok(RecoveredMinCut {
                        cut: outcome.cut,
                        survivors: orig.iter().map(|&v| NodeId::new(v)).collect(),
                        dead: dead.iter().map(|&v| NodeId::new(v)).collect(),
                        rejoined: rejoined.iter().map(|&v| NodeId::new(v)).collect(),
                        epochs: epoch,
                        resumed_from: stage,
                        oracle,
                        rounds: merged.total_rounds(),
                        messages: merged.total_messages(),
                        recovery_rounds: merged.rounds_matching("recover.")
                            + merged.rounds_matching("census."),
                        recovery_messages: merged.messages_matching("recover.")
                            + merged.messages_matching("census."),
                        wasted_rounds,
                        wasted_messages,
                        ledger: merged,
                    });
                }
                Err((e, attempt_ledger)) => {
                    // Resume validation phases are born with the
                    // `recover.e{epoch}.` prefix and keep it once.
                    merged.extend_from(&attempt_ledger, Some(&format!("recover.e{epoch}.")));
                    // Keep the richest coherent checkpoint snapshot: a
                    // deeper log supersedes; a shallower abort (it died
                    // before re-reaching the old depth) keeps the old one.
                    if attempt_log.bfs.is_some()
                        && master
                            .as_ref()
                            .is_none_or(|m| attempt_log.trees.len() >= m.trees.len())
                    {
                        master = Some(to_orig(&attempt_log, &orig, n0));
                    }
                    e
                }
            };
        let MinCutError::Congest(CongestError::NodeSuspected { round, .. }) = &err else {
            // Non-crash failures (bandwidth, retransmission exhaustion,
            // degenerate inputs) are not recoverable by excision.
            return Err(err);
        };
        let abort_round = *round;
        let attempt_plan = plan.clone();
        // Census to a fixpoint: rebase past the aborted attempt, then
        // past each pass; re-run while the schedule says a node died
        // *during* the pass (the re-run sees it dead-from-boot).
        let mut census_plan = plan.rebased(abort_round).continue_on_suspicion();
        let mut pass = 0usize;
        let reports = loop {
            pass += 1;
            let detector = FailureDetector::for_plan(&census_plan);
            let net_cfg = cfg
                .base
                .network
                .clone()
                .with_fault_plan(census_plan.clone());
            let mut net = Network::new(&cur, net_cfg)?;
            let name = format!("census.e{epoch}.r{pass}");
            let reports = net
                .run(&name, &detector, vec![(); cur.node_count()])?
                .outputs;
            let pass_rounds = net.ledger().total_rounds();
            net.obs_emit("census.pass", pass as u64);
            merged.extend_from(net.ledger(), None);
            let mid_pass_death = census_plan
                .crashes
                .iter()
                .any(|e| 0 < e.at_round && e.at_round <= pass_rounds);
            census_plan = census_plan.rebased(pass_rounds);
            if !mid_pass_death || pass >= MAX_CENSUS_PASSES {
                break reports;
            }
        };
        plan = census_plan;
        plan.on_suspect = SuspicionPolicy::Abort;

        // Diagnose and classify: dead / rejoined-now / pending-rejoin /
        // partition ghost.
        let n = cur.node_count();
        let mut is_dead = vec![false; n];
        for r in reports.iter().filter(|r| r.completed) {
            for s in &r.suspects {
                is_dead[s.index()] = true;
            }
        }
        let any_suspected = is_dead.iter().any(|&d| d);
        let mut rejoining: Vec<u32> = Vec::new();
        for v in 0..n {
            if !is_dead[v] {
                continue;
            }
            let v32 = v as u32;
            match plan.crash_round_of(v32, 0) {
                // No active crash left: a zombie whose scheduled rejoin
                // came due is re-admitted; a *live* suspect (a
                // partition ghost — it completed its census) was never
                // dead at all.
                None => {
                    is_dead[v] = false;
                    if !reports[v].completed {
                        rejoining.push(v32);
                    }
                }
                // Still down but scheduled to return: keep it — it
                // re-enters at a later epoch boundary.
                Some(_)
                    if plan
                        .crashes
                        .iter()
                        .any(|e| e.node == v32 && e.rejoin.is_some()) =>
                {
                    is_dead[v] = false;
                }
                Some(_) => {}
            }
        }
        if !any_suspected {
            if !attempt_plan.partition_begun_by(abort_round) {
                // The abort was real but the census sees a healthy
                // network and no partition explains it — retrying would
                // loop. Surface the original error.
                return Err(err);
            }
            // Partition blame: the window (one-shot, now consumed by
            // the rebase) caused the abort. Retry on the same
            // participants.
            continue;
        }

        if is_dead.iter().any(|&d| d) {
            // The surviving component: flood from the smallest-id
            // completed node through non-dead nodes (kept rejoiners and
            // pending-rejoin nodes are topologically present).
            let Some(start) = (0..n).find(|&v| reports[v].completed && !is_dead[v]) else {
                return Err(MinCutError::TooSmall { nodes: 0 });
            };
            let mut in_comp = vec![false; n];
            in_comp[start] = true;
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(v) = queue.pop_front() {
                for a in cur.neighbors(NodeId::from_index(v)) {
                    let u = a.neighbor.index();
                    if !is_dead[u] && !in_comp[u] {
                        in_comp[u] = true;
                        queue.push_back(u);
                    }
                }
            }
            let k = in_comp.iter().filter(|&&s| s).count();
            if k < 2 {
                return Err(MinCutError::TooSmall { nodes: k });
            }
            // Excise: compact ids, rebuild the graph, rename the
            // schedule (rejoin-pending events of excised nodes are
            // parked, not dropped).
            let mut new_id = vec![u32::MAX; n];
            let mut next = 0u32;
            for v in 0..n {
                if in_comp[v] {
                    new_id[v] = next;
                    next += 1;
                } else {
                    dead.push(orig[v]);
                }
            }
            let edges = cur
                .edge_tuples()
                .filter(|(_, u, v, _)| in_comp[u.index()] && in_comp[v.index()])
                .map(|(_, u, v, w)| (new_id[u.index()], new_id[v.index()], w));
            let sub = WeightedGraph::from_edges(k, edges.collect::<Vec<_>>())
                .expect("induced subgraph of a valid graph is valid");
            orig = (0..n).filter(|&v| in_comp[v]).map(|v| orig[v]).collect();
            plan = plan.remapped(|u| {
                let u = u as usize;
                (u < new_id.len() && new_id[u] != u32::MAX).then(|| new_id[u])
            });
            rejoining = rejoining
                .iter()
                .filter_map(|&v| {
                    let id = new_id[v as usize];
                    (id != u32::MAX).then_some(id)
                })
                .collect();
            cur = sub;
        }

        // The rejoin handshake: re-admitted nodes catch the session tag
        // up from any live veteran; the adoption assertion *is* the
        // re-admission.
        if !rejoining.is_empty() {
            let nn = cur.node_count();
            let is_rejoining = |v: u32| rejoining.contains(&v);
            let veteran = |v: u32| plan.crash_round_of(v, 0).is_none() && !is_rejoining(v);
            let Some(anchor) = (0..nn as u32).find(|&v| veteran(v)) else {
                return Err(MinCutError::TooSmall { nodes: 0 });
            };
            let tag = (epoch as u64) * (nn as u64) + u64::from(anchor);
            let join_plan = plan.clone().continue_on_suspicion();
            let net_cfg = cfg.base.network.clone().with_fault_plan(join_plan);
            let mut net = Network::new(&cur, net_cfg)?;
            let inputs: Vec<Option<u64>> =
                (0..nn as u32).map(|v| veteran(v).then_some(tag)).collect();
            let name = format!("census.e{epoch}.join");
            let outs = net.run(&name, &JoinEcho::new(nn as u64), inputs)?.outputs;
            let join_rounds = net.ledger().total_rounds();
            net.obs_emit("census.join", rejoining.len() as u64);
            merged.extend_from(net.ledger(), None);
            plan = plan.rebased(join_rounds);
            for &v in &rejoining {
                if outs[v as usize] != Some(tag) {
                    return Err(MinCutError::InvalidConfig {
                        reason: format!(
                            "rejoin handshake did not reach node {} (original id {})",
                            v, orig[v as usize]
                        ),
                    });
                }
                rejoined.insert(orig[v as usize]);
            }
        }
    }
    Err(MinCutError::InvalidConfig {
        reason: format!("crash recovery did not converge within {max_epochs} epochs"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::driver::exact_mincut;
    use congest::sim::CrashEvent;
    use graphs::generators;

    /// Virtual rounds consumed before the first `mstA` phase of a clean
    /// run — used to aim a crash mid-MST.
    fn rounds_before_mst(g: &WeightedGraph) -> u64 {
        let clean = exact_mincut(g, &ExactConfig::default()).unwrap();
        clean
            .ledger
            .phases()
            .iter()
            .take_while(|p| !p.name.starts_with("mstA"))
            .map(|p| p.rounds)
            .sum()
    }

    #[test]
    fn crash_free_plan_takes_one_epoch_and_matches_exact() {
        let g = generators::torus2d(4, 4).unwrap();
        // An unreachable crash arms the detector without killing anyone.
        let plan = FaultPlan::with_drop(30, 9)
            .delayed(1)
            .with_crash(3, 1 << 40);
        let r = recover_mincut(&g, &RecoverConfig::default().with_plan(plan.clone())).unwrap();
        assert_eq!(r.epochs, 1);
        assert!(r.dead.is_empty());
        assert!(r.rejoined.is_empty());
        assert_eq!(r.resumed_from, None);
        assert_eq!(r.survivors.len(), 16);
        assert_eq!(r.recovery_rounds, 0);
        assert_eq!(r.recovery_messages, 0);
        assert_eq!(r.wasted_rounds, vec![0]);
        assert_eq!(r.wasted_messages, vec![0]);
        let direct = exact_mincut(&g, &ExactConfig::default().with_fault_plan(plan)).unwrap();
        assert_eq!(r.cut.value, direct.cut.value);
        assert_eq!(r.cut.side, direct.cut.side);
        assert_eq!(r.ledger.phases(), direct.ledger.phases());
        assert_eq!(r.oracle, Some(r.cut.value));
    }

    #[test]
    fn leader_death_mid_mst_recovers_and_certifies() {
        let g = generators::torus2d(4, 4).unwrap();
        // The min-id election makes node 0 the leader; kill it two
        // rounds into the first MST phase.
        let crash_at = rounds_before_mst(&g) + 2;
        let plan = FaultPlan::lossless().with_crash(0, crash_at);
        let r = recover_mincut(&g, &RecoverConfig::default().with_plan(plan)).unwrap();
        assert_eq!(r.epochs, 2);
        assert_eq!(r.dead, vec![NodeId::new(0)]);
        assert_eq!(r.survivors.len(), 15);
        assert!(!r.survivors.contains(&NodeId::new(0)));
        // The leader died before any tree finished, and it roots the
        // BFS tree — nothing is restorable, the retry runs from
        // scratch.
        assert_eq!(r.resumed_from, None);
        assert_eq!(r.oracle, Some(r.cut.value), "certified against the oracle");
        assert!(r.recovery_rounds > 0);
        assert!(r.rounds > r.recovery_rounds);
        assert_eq!(r.wasted_rounds.len(), 2);
        assert!(r.wasted_rounds[0] > 0, "epoch 1 was aborted and censused");
        assert_eq!(r.wasted_rounds[1], 0, "epoch 2 ran from scratch, clean");
        assert_eq!(
            r.wasted_rounds.iter().sum::<u64>(),
            r.recovery_rounds,
            "the per-epoch split covers exactly the recovery total"
        );
        assert!(r.ledger.total_suspicions() > 0);
        assert_eq!(r.ledger.total_false_suspicions(), 0, "lossless links");
    }

    #[test]
    fn leader_kill_reports_a_wall_for_every_stem() {
        // The merged ledger keeps each phase's wall clock: the aborted
        // attempt (`recover.*`), the census, and the successful retry.
        let g = generators::torus2d(4, 4).unwrap();
        let crash_at = rounds_before_mst(&g) + 2;
        let plan = FaultPlan::lossless().with_crash(0, crash_at);
        let r = recover_mincut(&g, &RecoverConfig::default().with_plan(plan)).unwrap();
        assert_eq!(r.epochs, 2);
        let stems = r.ledger.grouped_by_stem();
        for needle in ["recover", "census", "leader_bfs", "mstA", "s5d", "side"] {
            assert!(stems.iter().any(|(s, _)| s == needle), "{needle} ran");
        }
        for (stem, _) in &stems {
            let wall = r.ledger.wall_ms_of_stem(stem);
            assert!(wall > 0.0, "stem {stem} reports wall_ms = {wall}");
        }
    }

    #[test]
    fn group_crash_excises_separated_survivors_too() {
        // A path: killing interior nodes separates the tail from the
        // head's component; the driver must excise both.
        let g = generators::path(8).unwrap();
        let plan = FaultPlan::lossless().with_crash_group(&[3, 4], 0);
        let r = recover_mincut(&g, &RecoverConfig::default().with_plan(plan)).unwrap();
        // Survivors: the component of node 0 → {0, 1, 2}; nodes 5..8
        // are alive but unreachable and get excised with the dead.
        assert_eq!(
            r.survivors,
            (0..3).map(NodeId::new).collect::<Vec<_>>(),
            "the smallest-id completed node anchors the surviving component"
        );
        assert_eq!(r.dead.len(), 5);
        assert_eq!(r.cut.value, 1);
        assert_eq!(r.oracle, Some(1));
    }

    #[test]
    fn lossy_leader_kill_is_deterministic() {
        let g = generators::torus2d(4, 4).unwrap();
        let crash_at = rounds_before_mst(&g) + 2;
        let plan = FaultPlan::with_drop(50, 0xC4A5)
            .delayed(2)
            .with_crash(0, crash_at);
        let cfg = RecoverConfig::default().with_plan(plan);
        let a = recover_mincut(&g, &cfg).unwrap();
        let b = recover_mincut(&g, &cfg).unwrap();
        assert_eq!(a.cut.value, b.cut.value);
        assert_eq!(a.cut.side, b.cut.side);
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(
            a.ledger.phases(),
            b.ledger.phases(),
            "same plan ⇒ byte-identical merged ledgers"
        );
    }

    #[test]
    fn unrecoverable_errors_propagate() {
        let g = generators::path(3).unwrap();
        // Total frame loss exhausts the retransmission budget — that is
        // not a crash and must surface, not loop. The budget is shrunk
        // below the suspicion window so exhaustion fires first (with
        // the default budget, total blackout is indistinguishable from
        // everyone crashing and the detector aborts instead).
        let plan = FaultPlan {
            max_attempts: 4,
            ..FaultPlan::with_drop(1000, 1).with_crash(0, 1 << 40)
        };
        let err = recover_mincut(&g, &RecoverConfig::default().with_plan(plan)).unwrap_err();
        assert!(matches!(
            err,
            MinCutError::Congest(CongestError::RetransmitExhausted { .. })
        ));
    }

    #[test]
    fn non_leader_death_mid_packing_resumes_from_checkpoints() {
        // Kill a node that is a LEAF of the first packed tree, after
        // that tree finished — the checkpointed tree minus a leaf still
        // spans the survivors, so the retry must restore it — and
        // compare checkpointed resume against the from-scratch
        // baseline: same certified answer, strictly fewer post-abort
        // rounds.
        let g = generators::torus2d(4, 4).unwrap();
        let base = ExactConfig::default();
        let opts = PipelineOpts {
            network: base.network.clone(),
            mst: base.mst.clone(),
            target: PackingTarget::TrackBest(base.packing.clone()),
            sample: None,
        };
        let mut log = RecoveryLog::default();
        let clean = run_pipeline_checkpointed(&g, &opts, None, Some(&mut log))
            .map_err(|(e, _)| e)
            .unwrap();
        assert!(!log.trees.is_empty(), "the clean run checkpoints its trees");
        let (parents, _) = &log.trees[0];
        let mut is_parent = [false; 16];
        for p in parents.iter().flatten() {
            is_parent[*p as usize] = true;
        }
        let victim = (0..16u32)
            .rev()
            .find(|&v| !is_parent[v as usize] && parents[v as usize].is_some())
            .expect("every tree has a non-root leaf");
        // Crash after the second tree's mstA begins: 1 tree checkpointed.
        let mut seen_trees = 0;
        let mut crash_at = 0;
        for p in clean.ledger.phases() {
            if p.name == "s5g" {
                seen_trees += 1;
            }
            crash_at += p.rounds;
            if seen_trees == 1 && p.name.starts_with("mstA") {
                break;
            }
        }
        let plan = FaultPlan::lossless().with_crash(victim, crash_at + 1);
        let ckpt = recover_mincut(&g, &RecoverConfig::default().with_plan(plan.clone())).unwrap();
        let scratch = recover_mincut(
            &g,
            &RecoverConfig::default()
                .with_plan(plan)
                .with_checkpoint(false),
        )
        .unwrap();
        assert_eq!(ckpt.cut.value, scratch.cut.value);
        assert_eq!(ckpt.oracle, scratch.oracle);
        assert_eq!(ckpt.dead, vec![NodeId::new(victim)]);
        assert_eq!(scratch.resumed_from, None);
        assert!(
            matches!(ckpt.resumed_from, Some(Stage::Packed(k)) if k >= 1),
            "at least the finished tree must be restored, got {:?}",
            ckpt.resumed_from
        );
        // The resumed epoch skips the restored trees' MST stages.
        let work = |r: &RecoveredMinCut| r.rounds - r.wasted_rounds[0];
        assert!(
            work(&ckpt) < work(&scratch),
            "resume must be cheaper: {} vs {}",
            work(&ckpt),
            work(&scratch)
        );
    }

    #[test]
    fn pendant_leader_death_replays_cut_values_as_evidence() {
        // A torus relabeled to 1..17 plus a pendant leader: node 0 hangs
        // off node 1 by a single heavy edge. Every spanning tree
        // contains node 0 exactly through that edge, so no survivor
        // subtree cut is touched by its excision — the finished trees'
        // checkpointed minima must be replayed as trusted evidence
        // (zero-round replay + one validation convergecast), not
        // re-evaluated.
        let base = generators::torus2d(4, 4).unwrap();
        let mut edges: Vec<(u32, u32, u64)> = base
            .edge_tuples()
            .map(|(_, u, v, w)| (u.raw() + 1, v.raw() + 1, w))
            .collect();
        edges.push((0, 1, 100));
        let g = WeightedGraph::from_edges(17, edges).unwrap();
        // Pack exactly three trees and kill the leader two rounds after
        // the second finishes (its "s5g" improvement broadcast) — two
        // checkpointed trees, one still to pack.
        let base = ExactConfig {
            packing: crate::seq::tree_packing::PackingConfig {
                size: crate::seq::tree_packing::PackingSize::Fixed(3),
                max_trees: 3,
            },
            ..Default::default()
        };
        let clean = exact_mincut(&g, &base).unwrap();
        let mut finished = 0;
        let mut crash_at = 0u64;
        for p in clean.ledger.phases() {
            crash_at += p.rounds;
            if p.name == "s5g" {
                finished += 1;
                if finished == 2 {
                    break;
                }
            }
        }
        let plan = FaultPlan::lossless().with_crash(0, crash_at + 2);
        let cfg = RecoverConfig {
            base,
            ..Default::default()
        }
        .with_plan(plan);
        let ckpt = recover_mincut(&g, &cfg).unwrap();
        let scratch = recover_mincut(&g, &cfg.clone().with_checkpoint(false)).unwrap();
        assert_eq!(ckpt.dead, vec![NodeId::new(0)]);
        assert_eq!(ckpt.survivors.len(), 16);
        assert_eq!(ckpt.cut.value, 4, "λ of the bare torus remnant");
        assert_eq!(ckpt.oracle, Some(4));
        assert_eq!(scratch.cut.value, 4);
        assert!(
            matches!(ckpt.resumed_from, Some(Stage::Packed(k)) if k >= 1),
            "the finished tree must be restored, got {:?}",
            ckpt.resumed_from
        );
        // The dead leader rules out a BFS restore, yet the trusted
        // trees still get their fail-fast validation convergecast.
        assert_eq!(ckpt.ledger.phases_matching("recover.e2.resume.bfs"), 0);
        assert!(
            ckpt.ledger.phases_matching("recover.e2.resume.trees") > 0,
            "trusted evidence is validated before it is acted on"
        );
        // Evidence replay runs no cut stage for the restored tree: the
        // final epoch books one fewer `s5g` than the from-scratch path.
        let final_s5g =
            |r: &RecoveredMinCut| r.ledger.phases().iter().filter(|p| p.name == "s5g").count();
        assert!(
            final_s5g(&ckpt) < final_s5g(&scratch),
            "a replayed tree must not re-run its cut stage: {} vs {}",
            final_s5g(&ckpt),
            final_s5g(&scratch)
        );
        let work = |r: &RecoveredMinCut| r.rounds - r.wasted_rounds[0];
        assert!(
            2 * work(&ckpt) <= work(&scratch),
            "evidence replay must at least halve the rebuild: {} vs {}",
            work(&ckpt),
            work(&scratch)
        );
    }

    #[test]
    fn scheduled_rejoin_is_readmitted_with_unchanged_lambda() {
        let g = generators::torus2d(4, 4).unwrap();
        let crash_at = rounds_before_mst(&g) + 2;
        // Node 5 dies mid-MST and rejoins shortly after the abort — due
        // by the time the census settles.
        let plan = FaultPlan::lossless().with_crashes(vec![CrashEvent {
            node: 5,
            at_round: crash_at,
            rejoin: Some(crash_at + 20),
        }]);
        let r = recover_mincut(&g, &RecoverConfig::default().with_plan(plan)).unwrap();
        assert_eq!(r.epochs, 2, "one abort, one clean retry");
        assert!(r.dead.is_empty(), "nobody is excised");
        assert_eq!(r.rejoined, vec![NodeId::new(5)]);
        assert_eq!(r.survivors.len(), 16, "the full graph survives");
        let clean = exact_mincut(&g, &ExactConfig::default()).unwrap();
        assert_eq!(r.cut.value, clean.cut.value, "λ of the full graph");
        assert_eq!(r.oracle, Some(r.cut.value));
        assert!(
            r.ledger.phases_matching("census.e1.join") > 0,
            "the rejoin handshake ran"
        );
        assert!(
            r.resumed_from.is_some(),
            "unchanged participants ⇒ checkpointed resume, got {:?}",
            r.resumed_from
        );
    }

    #[test]
    fn partition_abort_retries_without_excision() {
        let g = generators::torus2d(4, 4).unwrap();
        // Cut a band of edges long past the suspicion threshold: the
        // attempt aborts, but the census (run after the one-shot window
        // is consumed) finds everyone alive.
        let cut_edges: Vec<(u32, u32)> = vec![(0, 1), (4, 5), (8, 9), (12, 13)];
        let plan = FaultPlan::lossless().with_partition(cut_edges, 10, 10_000);
        let r = recover_mincut(&g, &RecoverConfig::default().with_plan(plan)).unwrap();
        assert_eq!(r.epochs, 2, "abort + clean retry");
        assert!(r.dead.is_empty(), "a partition is not a death");
        assert!(r.rejoined.is_empty());
        assert_eq!(r.survivors.len(), 16);
        let clean = exact_mincut(&g, &ExactConfig::default()).unwrap();
        assert_eq!(
            r.cut.value, clean.cut.value,
            "never certifies a half-partition λ"
        );
        assert_eq!(r.oracle, Some(r.cut.value));
        // The abort itself is the partition's only surviving trace: the
        // engine discards an aborted phase's meters, and the census
        // runs on a rebased plan whose one-shot window is consumed — so
        // the proof of the blame path is a second epoch with nobody
        // excised plus a censused (nonzero) recovery bill.
        assert!(r.recovery_rounds > 0, "the abort and census were booked");
        assert!(
            r.ledger.phases_matching("census.e1.") > 0,
            "the census ran and found a healthy network"
        );
    }
}
