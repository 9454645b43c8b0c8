//! Skeleton sampling (Karger \[Kar94\], as used by the paper and by
//! [Tho07, Lemma 7]): sampling each unit of weight with probability `p`
//! scales every cut to `≈ p·C` with `(1 ± ε)` relative error w.h.p. once
//! `p·λ = Ω(log n / ε²)`. Running the exact small-λ algorithm on the
//! skeleton yields a `(1+ε)`-approximate minimum cut of the original graph.
//!
//! Shared randomness: both endpoints of an edge must sample identically
//! without communicating. We derive every coin from `splitmix64` applied to
//! `(seed, edge id)` — the standard public-coin assumption, stated in
//! DESIGN.md.

use graphs::{Weight, WeightedGraph};

/// The splitmix64 mixing function — a fast, high-quality 64-bit hash used
/// to derive shared coins.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// A uniform `f64` in `[0, 1)` derived from a hash of `(seed, stream, i)`.
pub fn hash_unit(seed: u64, stream: u64, i: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(stream.wrapping_add(0x51AF_3C1D) ^ splitmix64(i)));
    // 53 random mantissa bits.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic `Binomial(n, p)` sample derived from hashed coins.
///
/// Exact Bernoulli summation for `n ≤ 4096`; Gaussian approximation with
/// continuity correction (clamped to `[0, n]`) beyond — at that size the
/// approximation error is far below the sampling noise the algorithms
/// tolerate.
pub fn binomial(n: u64, p: f64, seed: u64, stream: u64) -> u64 {
    let p = p.clamp(0.0, 1.0);
    if p == 0.0 || n == 0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    if n <= 4096 {
        let mut c = 0;
        for i in 0..n {
            if hash_unit(seed, stream, i) < p {
                c += 1;
            }
        }
        c
    } else {
        let mean = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        // Box–Muller from two hashed uniforms.
        let u1 = hash_unit(seed, stream, 0).max(f64::MIN_POSITIVE);
        let u2 = hash_unit(seed, stream, 1);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let x = (mean + sd * z + 0.5).floor();
        x.clamp(0.0, n as f64) as u64
    }
}

/// Builds the Karger skeleton: each edge's weight is resampled as
/// `Binomial(w, p)` with shared coins keyed by `(seed, edge id)`; edges that
/// sample to zero disappear.
///
/// Both endpoints of an edge can perform this computation locally with zero
/// communication, which is how the distributed sampler uses it.
pub fn skeleton(g: &WeightedGraph, p: f64, seed: u64) -> WeightedGraph {
    graphs::ops::reweight(g, |e, w| binomial(w, p, seed, e.raw() as u64))
}

/// The sampling probability that makes the skeleton's expected minimum cut
/// about `target` (Karger: `target = Θ(log n / ε²)` suffices for `(1 ± ε)`
/// concentration of **all** cuts).
pub fn sampling_probability(lambda_hat: Weight, target: f64) -> f64 {
    if lambda_hat == 0 {
        return 1.0;
    }
    (target / lambda_hat as f64).clamp(0.0, 1.0)
}

/// The standard target `c·ln n / ε²` for the skeleton minimum cut.
pub fn skeleton_target(n: usize, eps: f64, c: f64) -> f64 {
    c * (n.max(2) as f64).ln() / (eps * eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;

    #[test]
    fn splitmix_is_stable_and_spread() {
        // Fixed values (regression guard: shared coins must never change
        // between versions, or distributed endpoints would disagree).
        assert_eq!(splitmix64(0), 16294208416658607535);
        assert_eq!(splitmix64(1), 10451216379200822465);
        let a = hash_unit(1, 2, 3);
        let b = hash_unit(1, 2, 4);
        assert!((0.0..1.0).contains(&a));
        assert!((0.0..1.0).contains(&b));
        assert_ne!(a, b);
        // Determinism.
        assert_eq!(hash_unit(9, 9, 9), hash_unit(9, 9, 9));
    }

    #[test]
    fn binomial_edge_cases() {
        assert_eq!(binomial(10, 0.0, 1, 1), 0);
        assert_eq!(binomial(10, 1.0, 1, 1), 10);
        assert_eq!(binomial(0, 0.5, 1, 1), 0);
        let x = binomial(100, 0.3, 5, 7);
        assert!(x <= 100);
    }

    #[test]
    fn binomial_concentrates() {
        // Mean over many streams approaches n·p.
        let n = 200u64;
        let p = 0.25;
        let total: u64 = (0..200).map(|s| binomial(n, p, 42, s)).sum();
        let mean = total as f64 / 200.0;
        assert!((mean - 50.0).abs() < 3.0, "mean = {mean}");
    }

    #[test]
    fn large_binomial_uses_gaussian_sanely() {
        let n = 1_000_000u64;
        let p = 0.5;
        let x = binomial(n, p, 3, 4);
        let mean = 500_000.0;
        let sd = (n as f64 * 0.25).sqrt();
        assert!((x as f64 - mean).abs() < 6.0 * sd);
    }

    #[test]
    fn skeleton_scales_cuts() {
        // Torus with min cut 8; skeleton at p = 1/2 should have cuts near
        // half their original values.
        let g = generators::torus2d(8, 8).unwrap();
        let s = skeleton(&g, 0.5, 99);
        assert!(s.node_count() == g.node_count());
        let ratio = s.total_weight() as f64 / g.total_weight() as f64;
        assert!((ratio - 0.5).abs() < 0.1, "ratio = {ratio}");
    }

    #[test]
    fn skeleton_is_deterministic_per_seed() {
        let g = generators::grid2d(5, 5).unwrap();
        assert_eq!(skeleton(&g, 0.3, 7), skeleton(&g, 0.3, 7));
        // And (overwhelmingly likely) differs across seeds.
        assert_ne!(skeleton(&g, 0.3, 7), skeleton(&g, 0.3, 8));
    }

    #[test]
    fn probability_helpers() {
        assert_eq!(sampling_probability(0, 10.0), 1.0);
        assert_eq!(sampling_probability(5, 100.0), 1.0);
        let p = sampling_probability(1000, 10.0);
        assert!((p - 0.01).abs() < 1e-12);
        assert!(skeleton_target(1000, 0.5, 3.0) > 0.0);
    }
}
