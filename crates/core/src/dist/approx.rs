//! The `(1+ε)`-approximate distributed minimum cut via Karger skeleton
//! sampling — the paper's headline improvement over the `(2+ε)` class.
//!
//! The algorithm guesses the minimum cut by a halving ladder
//! `λ̂₀ ≥ λ̂₀/2 ≥ …` starting from the minimum-weighted-degree upper
//! bound. Each rung samples every unit of weight with probability
//! `p = min(1, c·ln n / (ε²·λ̂))` using shared coins keyed by the edge
//! id (both endpoints sample identically without communication), packs
//! trees on the *skeleton*, and evaluates the 1-respecting cuts with the
//! **original** weights — so every candidate is a true cut of `g` and
//! the result is always sound. Once `p` reaches 1 the skeleton is the
//! graph itself, the rung degenerates to the exact algorithm, and the
//! ladder stops; at the test-suite sizes this happens immediately, which
//! is why the approximation is "effectively exact" there.

use crate::dist::driver::{run_pipeline, PipelineOpts};
use crate::dist::mst::MstConfig;
use crate::dist::packing::PackingTarget;
use crate::seq::sampling::{sampling_probability, skeleton_target};
use crate::seq::tree_packing::PackingConfig;
use crate::MinCutError;
use congest::{MetricsLedger, NetworkConfig};
use graphs::{CutResult, WeightedGraph};

/// Configuration of [`approx_mincut`].
#[derive(Clone, Debug)]
pub struct ApproxConfig {
    /// Approximation slack: the returned value is `≤ (1+ε)·λ` w.h.p.
    pub eps: f64,
    /// CONGEST model parameters, including which round executor drives
    /// the phases (`network.executor`) — results are executor-independent.
    pub network: NetworkConfig,
    /// Distributed MST stage setting (phase A's fragment cap).
    pub mst: MstConfig,
    /// Shared-coin seed of the skeleton sampling.
    pub seed: u64,
    /// The constant `c` of the skeleton target `c·ln n / ε²`.
    pub skeleton_c: f64,
    /// Trees per sampled rung (`None`: `⌈2 ln n⌉`). The final `p = 1`
    /// rung always uses the exact algorithm's adaptive policy.
    pub trees_per_rung: Option<usize>,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig {
            eps: 0.25,
            network: NetworkConfig::default(),
            mst: MstConfig::default(),
            seed: 0x4150_5258,
            skeleton_c: 3.0,
            trees_per_rung: None,
        }
    }
}

/// One rung of the guess ladder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LadderGuess {
    /// The minimum-cut guess of this rung.
    pub lambda_hat: u64,
    /// The sampling probability used (`1.0` = exact rung).
    pub p: f64,
}

/// Result of [`approx_mincut`].
#[derive(Clone, Debug)]
pub struct ApproxResult {
    /// The best cut found (a true, verified cut of the input graph).
    pub cut: CutResult,
    /// Total CONGEST rounds across all rungs.
    pub rounds: u64,
    /// Total messages across all rungs.
    pub messages: u64,
    /// The ladder actually run, from the largest guess downward.
    pub guesses: Vec<LadderGuess>,
    /// Per-phase metrics of every rung, concatenated.
    pub ledger: MetricsLedger,
}

/// Runs the `(1+ε)`-approximate distributed minimum cut on `g`.
///
/// # Errors
///
/// [`MinCutError::InvalidConfig`] for `ε ≤ 0`, plus everything
/// [`crate::dist::driver::exact_mincut`] can return.
pub fn approx_mincut(
    g: &WeightedGraph,
    config: &ApproxConfig,
) -> Result<ApproxResult, MinCutError> {
    if config.eps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(MinCutError::InvalidConfig {
            reason: format!("eps must be positive, got {}", config.eps),
        });
    }
    let n = g.node_count();
    if n < 2 {
        return Err(MinCutError::TooSmall { nodes: n });
    }
    let target = skeleton_target(n, config.eps, config.skeleton_c);
    let rung_trees = config
        .trees_per_rung
        .unwrap_or_else(|| (2.0 * (n.max(2) as f64).ln()).ceil() as usize);
    let mut lambda_hat = g.min_weighted_degree().expect("n ≥ 2").max(1);
    let mut guesses = Vec::new();
    let mut best: Option<PipelineBest> = None;
    let mut rounds = 0u64;
    let mut messages = 0u64;
    let mut ledger = MetricsLedger::new();
    for rung in 0u64.. {
        let p = sampling_probability(lambda_hat, target);
        guesses.push(LadderGuess { lambda_hat, p });
        let exact_rung = p >= 1.0;
        let opts = PipelineOpts {
            network: config.network.clone(),
            mst: config.mst.clone(),
            target: if exact_rung {
                PackingTarget::TrackBest(PackingConfig::default())
            } else {
                PackingTarget::Fixed(rung_trees)
            },
            sample: (!exact_rung).then_some((p, config.seed ^ rung)),
        };
        match run_pipeline(g, &opts) {
            Ok(outcome) => {
                rounds += outcome.rounds;
                messages += outcome.messages;
                ledger.extend_from(&outcome.ledger, None);
                if best
                    .as_ref()
                    .is_none_or(|b| outcome.cut.value < b.cut.value)
                {
                    best = Some(PipelineBest { cut: outcome.cut });
                }
            }
            // A too-aggressive skeleton can disconnect; the rung is
            // simply uninformative and the ladder continues.
            Err(MinCutError::Disconnected) if !exact_rung => {}
            Err(e) => return Err(e),
        }
        if exact_rung || lambda_hat == 1 {
            break;
        }
        lambda_hat /= 2;
    }
    let best = match best {
        Some(b) => b,
        None => {
            // Possible when ε is so large that p < 1 even at λ̂ = 1 and
            // every sampled skeleton disconnected: finish with one
            // exact rung so a result is always produced.
            guesses.push(LadderGuess {
                lambda_hat: 1,
                p: 1.0,
            });
            let outcome = run_pipeline(
                g,
                &PipelineOpts {
                    network: config.network.clone(),
                    mst: config.mst.clone(),
                    target: PackingTarget::TrackBest(PackingConfig::default()),
                    sample: None,
                },
            )?;
            rounds += outcome.rounds;
            messages += outcome.messages;
            ledger.extend_from(&outcome.ledger, None);
            PipelineBest { cut: outcome.cut }
        }
    };
    Ok(ApproxResult {
        cut: best.cut,
        rounds,
        messages,
        guesses,
        ledger,
    })
}

struct PipelineBest {
    cut: CutResult,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::stoer_wagner;
    use graphs::generators;

    #[test]
    fn exact_on_small_instances_via_p1_rung() {
        let g = generators::torus2d(4, 4).unwrap();
        let r = approx_mincut(&g, &ApproxConfig::default()).unwrap();
        assert_eq!(r.cut.value, 4);
        assert!(r.cut.is_proper());
        assert!(!r.guesses.is_empty());
        assert!(r.guesses.iter().all(|g| g.p > 0.0 && g.p <= 1.0));
        assert_eq!(r.guesses.last().unwrap().p, 1.0);
    }

    #[test]
    fn value_is_always_a_true_cut_value_above_optimum() {
        let p = generators::clique_pair(7, 3).unwrap();
        let opt = stoer_wagner(&p.graph).unwrap().value;
        for eps in [0.5, 0.125] {
            let cfg = ApproxConfig {
                eps,
                ..Default::default()
            };
            let r = approx_mincut(&p.graph, &cfg).unwrap();
            assert!(r.cut.value >= opt);
            assert_eq!(graphs::cut::cut_of_side(&p.graph, &r.cut.side), r.cut.value);
        }
    }

    #[test]
    fn huge_eps_with_all_skeletons_disconnected_still_returns_a_cut() {
        // ε so large that p < 1 even at λ̂ = 1; on a cycle every sampled
        // skeleton disconnects, so only the fallback exact rung answers.
        let g = generators::cycle(8).unwrap();
        let cfg = ApproxConfig {
            eps: 4.0,
            ..Default::default()
        };
        let r = approx_mincut(&g, &cfg).unwrap();
        assert_eq!(r.cut.value, 2);
        assert_eq!(r.guesses.last().unwrap().p, 1.0);
    }

    #[test]
    fn rejects_nonpositive_eps() {
        let g = generators::cycle(5).unwrap();
        for eps in [0.0, -1.0, f64::NAN] {
            let cfg = ApproxConfig {
                eps,
                ..Default::default()
            };
            assert!(matches!(
                approx_mincut(&g, &cfg),
                Err(MinCutError::InvalidConfig { .. })
            ));
        }
    }
}
