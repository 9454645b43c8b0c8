//! End-to-end: the (1+ε) approximation and the baselines are valid cuts
//! within their advertised quality envelopes.

use mincut_repro::congest::{phase, MetricsLedger};
use mincut_repro::graphs::{cut::cut_of_side, generators};
use mincut_repro::mincut::dist::approx::{approx_mincut, ApproxConfig};
use mincut_repro::mincut::dist::baselines::{gk_baseline, su_baseline, BaselineConfig};
use mincut_repro::mincut::seq::stoer_wagner;
use mincut_repro::mincut::verify::check_cut;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every phase the run ledgered has a registered stem.
fn assert_phases_registered(ledger: &MetricsLedger) {
    for p in ledger.phases() {
        assert!(
            phase::is_registered(&p.name),
            "unregistered phase {:?}",
            p.name
        );
    }
}

#[test]
fn approx_sound_and_near_optimal() {
    let mut rng = StdRng::seed_from_u64(31);
    for (n, p, wmax) in [(20usize, 0.3, 3u64), (36, 0.2, 5)] {
        let base = generators::erdos_renyi_connected(n, p, &mut rng).unwrap();
        let g = generators::randomize_weights(&base, 1, wmax, &mut rng).unwrap();
        let opt = stoer_wagner(&g).unwrap().value;
        for eps in [0.5, 0.25] {
            let cfg = ApproxConfig {
                eps,
                ..Default::default()
            };
            let r = approx_mincut(&g, &cfg).unwrap();
            check_cut(&g, &r.cut).unwrap();
            assert_phases_registered(&r.ledger);
            assert!(r.cut.value >= opt, "below optimum");
            // (1+ε) holds w.h.p.; with the p=1 ladder rung these sizes are
            // effectively exact — allow the formal slack anyway.
            assert!(
                r.cut.value as f64 <= (1.0 + eps) * opt as f64 + 1e-9,
                "eps={eps}: {} > (1+ε)·{opt}",
                r.cut.value
            );
        }
    }
}

#[test]
fn approx_reports_its_ladder() {
    let p = generators::clique_pair(8, 2).unwrap();
    let r = approx_mincut(&p.graph, &ApproxConfig::default()).unwrap();
    assert_phases_registered(&r.ledger);
    assert!(!r.guesses.is_empty());
    assert!(r.guesses.iter().all(|g| g.p > 0.0 && g.p <= 1.0));
    // λ̂ halves down the ladder.
    for w in r.guesses.windows(2) {
        assert!(w[1].lambda_hat <= w[0].lambda_hat);
    }
}

#[test]
fn baselines_are_valid_cuts() {
    let mut rng = StdRng::seed_from_u64(8);
    let base = generators::erdos_renyi_connected(26, 0.25, &mut rng).unwrap();
    let g = generators::randomize_weights(&base, 1, 3, &mut rng).unwrap();
    let opt = stoer_wagner(&g).unwrap().value;
    let su = su_baseline(&g, &BaselineConfig::default()).unwrap();
    check_cut(&g, &su.cut).unwrap();
    assert_phases_registered(&su.ledger);
    assert!(su.cut.value >= opt);
    let gk = gk_baseline(&g, &BaselineConfig::default()).unwrap();
    check_cut(&g, &gk.cut).unwrap();
    assert_phases_registered(&gk.ledger);
    assert!(gk.cut.value >= opt);
    // The GK-style baseline is the (2+ε)-quality competitor: generous
    // envelope to keep the test seed-robust.
    assert!(
        gk.cut.value <= 4 * opt,
        "GK value {} vs opt {opt}",
        gk.cut.value
    );
}

#[test]
fn approx_on_torus_is_proper() {
    let g = generators::torus2d(5, 6).unwrap();
    let r = approx_mincut(&g, &ApproxConfig::default()).unwrap();
    assert_phases_registered(&r.ledger);
    assert!(r.cut.is_proper());
    assert_eq!(cut_of_side(&g, &r.cut.side), r.cut.value);
    assert_eq!(r.cut.value, 4); // exact on this size (p = 1 rung)
}
