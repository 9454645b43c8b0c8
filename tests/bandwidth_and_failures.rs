//! Failure injection and bandwidth sweeps: the enforcement actually bites,
//! and the pipeline is bandwidth-robust at the model's intended budget.

use mincut_repro::congest::{CongestError, NetworkConfig};
use mincut_repro::graphs::generators;
use mincut_repro::mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut_repro::mincut::MinCutError;

fn config_with_factor(factor: usize) -> ExactConfig {
    ExactConfig {
        network: NetworkConfig::with_bandwidth_factor(factor),
        ..Default::default()
    }
}

#[test]
fn tiny_budget_fails_fast_in_strict_mode() {
    // One bit per word: even a single id does not fit. The run must die
    // with a BandwidthExceeded error, not a wrong answer.
    let g = generators::torus2d(5, 5).unwrap();
    let err = exact_mincut(&g, &config_with_factor(1)).unwrap_err();
    match err {
        MinCutError::Congest(CongestError::BandwidthExceeded { bits, budget, .. }) => {
            assert!(bits > budget);
        }
        other => panic!("expected BandwidthExceeded, got {other}"),
    }
}

#[test]
fn budget_sweep_at_and_above_the_model_constant() {
    // The default β = 8 runs strictly; larger factors must too, and the
    // answers agree bit-for-bit (determinism). A wider edge packs more
    // stream items per message, so rounds may fall as β grows, never
    // rise.
    let g = generators::clique_pair(8, 3).unwrap().graph;
    let mut cuts = Vec::new();
    let mut rounds = Vec::new();
    for factor in [8usize, 12, 32] {
        let r = exact_mincut(&g, &config_with_factor(factor)).unwrap();
        cuts.push((r.cut.value, r.cut.side.clone()));
        rounds.push(r.rounds);
    }
    assert!(cuts.windows(2).all(|w| w[0] == w[1]));
    assert!(rounds.windows(2).all(|w| w[1] <= w[0]), "rounds {rounds:?}");
    assert_eq!(cuts[0].0, 3);
}

#[test]
fn deterministic_across_runs() {
    // Everything is seeded: two identical runs produce identical ledgers.
    let g = generators::das_sarma_style(3, 8).unwrap();
    let a = exact_mincut(&g, &ExactConfig::default()).unwrap();
    let b = exact_mincut(&g, &ExactConfig::default()).unwrap();
    assert_eq!(a.cut.value, b.cut.value);
    assert_eq!(a.cut.side, b.cut.side);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.messages, b.messages);
}
