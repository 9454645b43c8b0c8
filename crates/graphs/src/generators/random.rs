//! Random graph families: connected Erdős–Rényi and random geometric
//! graphs.

use super::{connect_components, invalid, GeneratorError};
use crate::{Weight, WeightedGraph};
use rand::Rng;

/// Erdős–Rényi `G(n, p)` made connected by linking leftover components with
/// random unit edges. Unit weights.
///
/// # Errors
///
/// Fails if `n == 0` or `p` is not in `[0, 1]`.
pub fn erdos_renyi_connected<R: Rng>(
    n: usize,
    p: f64,
    rng: &mut R,
) -> Result<WeightedGraph, GeneratorError> {
    if n == 0 {
        return Err(invalid("G(n, p) requires n ≥ 1"));
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(invalid("p must be in [0, 1]"));
    }
    let mut edges = Vec::new();
    sample_gnp_edges(n, p, rng, &mut edges);
    connect_components(n, &mut edges, rng);
    Ok(WeightedGraph::from_edges(n, edges)?)
}

/// Random geometric graph: `n` points uniform in the unit square, an edge
/// between points at Euclidean distance `< radius`, then patched to be
/// connected. Unit weights. Models wireless/ad-hoc networks — the paper's
/// motivating setting of communication networks.
///
/// # Errors
///
/// Fails if `n == 0` or `radius` is not positive.
pub fn random_geometric<R: Rng>(
    n: usize,
    radius: f64,
    rng: &mut R,
) -> Result<WeightedGraph, GeneratorError> {
    if n == 0 {
        return Err(invalid("geometric graph requires n ≥ 1"));
    }
    if radius <= 0.0 {
        return Err(invalid("radius must be positive"));
    }
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    // Grid hashing for near-linear neighbor search.
    let cell = radius.max(1e-9);
    let cells_per_side = (1.0 / cell).ceil().max(1.0) as i64;
    let key = |x: f64, y: f64| -> (i64, i64) {
        (
            ((x / cell) as i64).min(cells_per_side - 1),
            ((y / cell) as i64).min(cells_per_side - 1),
        )
    };
    let mut buckets: std::collections::HashMap<(i64, i64), Vec<u32>> =
        std::collections::HashMap::new();
    for (i, &(x, y)) in pts.iter().enumerate() {
        buckets.entry(key(x, y)).or_default().push(i as u32);
    }
    let r2 = radius * radius;
    let mut edges = Vec::new();
    for (i, &(x, y)) in pts.iter().enumerate() {
        let (cx, cy) = key(x, y);
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(list) = buckets.get(&(cx + dx, cy + dy)) {
                    for &j in list {
                        if (j as usize) > i {
                            let (px, py) = pts[j as usize];
                            let (ddx, ddy) = (px - x, py - y);
                            if ddx * ddx + ddy * ddy < r2 {
                                edges.push((i as u32, j, 1));
                            }
                        }
                    }
                }
            }
        }
    }
    connect_components(n, &mut edges, rng);
    Ok(WeightedGraph::from_edges(n, edges)?)
}

fn sample_gnp_edges<R: Rng>(n: usize, p: f64, rng: &mut R, edges: &mut Vec<(u32, u32, Weight)>) {
    if p <= 0.0 {
        return;
    }
    if p >= 1.0 {
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u as u32, v as u32, 1));
            }
        }
        return;
    }
    // Geometric skipping (Batagelj–Brandes) for sparse p.
    let log_q = (1.0 - p).ln();
    let mut v: i64 = 1;
    let mut w: i64 = -1;
    let n = n as i64;
    while v < n {
        let r: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        w += 1 + (r.ln() / log_q).floor() as i64;
        while w >= v && v < n {
            w -= v;
            v += 1;
        }
        if v < n {
            edges.push((w as u32, v as u32, 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::assert_connected;
    use crate::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gnp_edge_count_is_plausible() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200;
        let p = 0.1;
        let g = erdos_renyi_connected(n, p, &mut rng).unwrap();
        let expected = (n * (n - 1) / 2) as f64 * p;
        let m = g.edge_count() as f64;
        assert!(
            (m - expected).abs() < 5.0 * expected.sqrt() + 10.0,
            "m = {m}, expected ≈ {expected}"
        );
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut edges = |p| erdos_renyi_connected(10, p, &mut rng).map(|g| g.edge_count());
        // At p = 0 the connectivity patch alone joins the 10 singletons
        // into a tree.
        assert_eq!(edges(0.0), Ok(9));
        assert_eq!(edges(1.0), Ok(45));
        assert!(erdos_renyi_connected(0, 0.5, &mut rng).is_err());
        assert!(erdos_renyi_connected(5, 1.5, &mut rng).is_err());
    }

    #[test]
    fn connected_variant_is_connected() {
        let mut rng = StdRng::seed_from_u64(7);
        for &n in &[1usize, 2, 10, 100] {
            let g = erdos_renyi_connected(n, 0.01, &mut rng).unwrap();
            assert!(is_connected(&g), "n = {n}");
        }
    }

    #[test]
    fn geometric_is_connected_and_local() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = random_geometric(150, 0.15, &mut rng).unwrap();
        assert_connected(&g);
        assert!(g.edge_count() > 0);
    }

    #[test]
    fn generators_are_deterministic_given_seed() {
        let g1 = erdos_renyi_connected(64, 0.05, &mut StdRng::seed_from_u64(5)).unwrap();
        let g2 = erdos_renyi_connected(64, 0.05, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(g1, g2);
    }
}
