//! Distributed baselines the paper improves upon.
//!
//! * [`gk_baseline`] — in the spirit of **Ghaffari–Kuhn** (the `(2+ε)`
//!   quality class): a cheap run over the original graph with a small
//!   fixed tree budget (`⌈ln n⌉ + 1` trees instead of the exact
//!   algorithm's `Θ(λ log n)`), always considering the minimum-degree
//!   singleton. Fewer trees mean fewer rounds but no exactness
//!   guarantee — the quality/round trade-off experiment E4/E9 measures.
//! * [`su_baseline`] — in the spirit of **Su's concurrent sampling**
//!   (arXiv:1408.0557 lineage): one skeleton sampled at the `(2+ε)`-style
//!   rate, a fixed tree budget on the skeleton, candidates evaluated on
//!   the original weights. Sampling loses exactness by design (as the
//!   paper notes about sampling-based approaches) while staying sound.
//!
//! Both baselines return true, verified cuts of the input graph and run
//! entirely through the CONGEST simulator, so their round counts are
//! comparable with the exact pipeline's.

use crate::dist::driver::{run_pipeline, PipelineOpts};
use crate::dist::mst::MstConfig;
use crate::dist::packing::PackingTarget;
use crate::seq::sampling::{sampling_probability, skeleton_target};
use crate::MinCutError;
use congest::{MetricsLedger, NetworkConfig};
use graphs::{CutResult, WeightedGraph};

/// Shared configuration of the baselines.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Quality slack of the baseline's sampling rate.
    pub eps: f64,
    /// CONGEST model parameters, including which round executor drives
    /// the phases (`network.executor`) — results are executor-independent.
    pub network: NetworkConfig,
    /// Distributed MST stage setting (phase A's fragment cap).
    pub mst: MstConfig,
    /// Shared-coin seed (Su-style sampling).
    pub seed: u64,
    /// Packed trees per run (`None`: `⌈ln n⌉ + 1`).
    pub trees: Option<usize>,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            eps: 0.5,
            network: NetworkConfig::default(),
            mst: MstConfig::default(),
            seed: 0x4241_5345,
            trees: None,
        }
    }
}

impl BaselineConfig {
    fn tree_budget(&self, n: usize) -> usize {
        self.trees
            .unwrap_or_else(|| (n.max(2) as f64).ln().ceil() as usize + 1)
    }
}

/// Result of a baseline run.
#[derive(Clone, Debug)]
pub struct BaselineResult {
    /// The cut found (a true, verified cut of the input graph).
    pub cut: CutResult,
    /// Total CONGEST rounds.
    pub rounds: u64,
    /// Total messages.
    pub messages: u64,
    /// Per-phase metrics.
    pub ledger: MetricsLedger,
}

fn run_baseline(g: &WeightedGraph, opts: &PipelineOpts) -> Result<BaselineResult, MinCutError> {
    let outcome = run_pipeline(g, opts)?;
    Ok(BaselineResult {
        cut: outcome.cut,
        rounds: outcome.rounds,
        messages: outcome.messages,
        ledger: outcome.ledger,
    })
}

/// The Ghaffari–Kuhn-style `(2+ε)`-class baseline: a fixed small tree
/// budget on the original graph.
///
/// # Errors
///
/// Same as [`crate::dist::driver::exact_mincut`].
pub fn gk_baseline(
    g: &WeightedGraph,
    config: &BaselineConfig,
) -> Result<BaselineResult, MinCutError> {
    run_baseline(
        g,
        &PipelineOpts {
            network: config.network.clone(),
            mst: config.mst.clone(),
            target: PackingTarget::Fixed(config.tree_budget(g.node_count())),
            sample: None,
        },
    )
}

/// The Su-style concurrent-sampling baseline: one skeleton at the
/// `(2+ε)`-style rate, fixed tree budget, evaluated on original weights.
/// Falls back to the unsampled graph when the skeleton disconnects.
///
/// # Errors
///
/// Same as [`crate::dist::driver::exact_mincut`].
pub fn su_baseline(
    g: &WeightedGraph,
    config: &BaselineConfig,
) -> Result<BaselineResult, MinCutError> {
    let n = g.node_count();
    if n < 2 {
        return Err(MinCutError::TooSmall { nodes: n });
    }
    let lambda_hat = g.min_weighted_degree().expect("n ≥ 2").max(1);
    let p = sampling_probability(lambda_hat, skeleton_target(n, config.eps, 2.0));
    let opts = PipelineOpts {
        network: config.network.clone(),
        mst: config.mst.clone(),
        target: PackingTarget::Fixed(config.tree_budget(n)),
        sample: (p < 1.0).then_some((p, config.seed)),
    };
    match run_baseline(g, &opts) {
        Err(MinCutError::Disconnected) if opts.sample.is_some() => run_baseline(
            g,
            &PipelineOpts {
                sample: None,
                ..opts
            },
        ),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::stoer_wagner;
    use crate::verify::check_cut;
    use graphs::generators;

    #[test]
    fn baselines_return_sound_cuts() {
        let p = generators::clique_pair(7, 2).unwrap();
        let opt = stoer_wagner(&p.graph).unwrap().value;
        for r in [
            gk_baseline(&p.graph, &BaselineConfig::default()).unwrap(),
            su_baseline(&p.graph, &BaselineConfig::default()).unwrap(),
        ] {
            check_cut(&p.graph, &r.cut).unwrap();
            assert!(r.cut.value >= opt);
            assert!(r.rounds > 0);
        }
    }

    #[test]
    fn gk_budget_is_smaller_than_exact_default() {
        // The point of the baseline: fewer trees, fewer rounds.
        let g = generators::torus2d(5, 5).unwrap();
        let gk = gk_baseline(&g, &BaselineConfig::default()).unwrap();
        let exact =
            crate::dist::driver::exact_mincut(&g, &crate::dist::driver::ExactConfig::default())
                .unwrap();
        assert!(gk.rounds < exact.rounds);
        assert!(gk.cut.value >= exact.cut.value);
    }
}
