//! End-to-end: the exact distributed algorithm against the Stoer–Wagner
//! oracle across graph families and seeds.

use mincut_repro::congest::phase;
use mincut_repro::graphs::{cut::cut_of_side, generators};
use mincut_repro::mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut_repro::mincut::seq::stoer_wagner;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_exact(g: &mincut_repro::graphs::WeightedGraph, label: &str) {
    let want = stoer_wagner(g).expect("oracle").value;
    let got = exact_mincut(g, &ExactConfig::default()).expect("distributed run");
    assert_eq!(
        cut_of_side(g, &got.cut.side),
        got.cut.value,
        "{label}: reported value must match the side"
    );
    assert!(got.cut.is_proper(), "{label}: cut must be proper");
    assert_eq!(got.cut.value, want, "{label}: distributed != oracle");
    for p in got.ledger.phases() {
        assert!(
            phase::is_registered(&p.name),
            "{label}: unregistered phase {:?}",
            p.name
        );
    }
}

#[test]
fn structured_families() {
    assert_exact(&generators::cycle(24).unwrap(), "cycle24");
    assert_exact(&generators::grid2d(6, 7).unwrap(), "grid6x7");
    assert_exact(&generators::torus2d(5, 5).unwrap(), "torus5x5");
    assert_exact(&generators::hypercube(5).unwrap(), "hypercube5");
    assert_exact(&generators::complete(10, 2).unwrap(), "K10w2");
    assert_exact(&generators::caterpillar(8, 2).unwrap(), "caterpillar");
}

#[test]
fn planted_families() {
    for (h, lambda) in [(8, 1), (8, 3), (10, 5)] {
        let p = generators::clique_pair(h, lambda).unwrap();
        assert_exact(&p.graph, &format!("clique_pair({h},{lambda})"));
    }
    let b = generators::barbell(6, 5).unwrap();
    assert_exact(&b.graph, "barbell");
    let l = generators::lollipop(6, 6).unwrap();
    assert_exact(&l.graph, "lollipop");
}

#[test]
fn weighted_random_graphs() {
    let mut rng = StdRng::seed_from_u64(2014);
    for (i, n) in [16usize, 30, 48].into_iter().enumerate() {
        let base = generators::erdos_renyi_connected(n, 0.2, &mut rng).unwrap();
        let g = generators::randomize_weights(&base, 1, 8, &mut rng).unwrap();
        assert_exact(&g, &format!("gnp#{i}"));
    }
}

#[test]
fn geometric_network() {
    let mut rng = StdRng::seed_from_u64(99);
    let g = generators::random_geometric(70, 0.25, &mut rng).unwrap();
    assert_exact(&g, "geometric");
}

#[test]
fn das_sarma_family() {
    let g = generators::das_sarma_style(3, 8).unwrap();
    assert_exact(&g, "das_sarma(3,8)");
}

#[test]
fn community_pairs_across_lambda() {
    let mut rng = StdRng::seed_from_u64(5);
    for lambda in [1usize, 2, 4] {
        let p = generators::community_pair(16, 6, lambda, &mut rng).unwrap();
        // Certify the instance first (community pairs are planted w.h.p.).
        let oracle = stoer_wagner(&p.graph).unwrap().value;
        assert_eq!(oracle, lambda as u64, "instance certification");
        assert_exact(&p.graph, &format!("community λ={lambda}"));
    }
}
