//! Deterministic structured families: paths, cycles, stars, cliques, grids,
//! tori, hypercubes, caterpillars.

use super::{invalid, GeneratorError};
use crate::{Weight, WeightedGraph};

/// Path `0 − 1 − … − (n−1)` with unit weights.
///
/// # Errors
///
/// Fails if `n == 0`.
pub fn path(n: usize) -> Result<WeightedGraph, GeneratorError> {
    if n == 0 {
        return Err(invalid("path requires n ≥ 1"));
    }
    let edges = (0..n.saturating_sub(1)).map(|i| (i as u32, i as u32 + 1, 1));
    Ok(WeightedGraph::from_edges(n, edges)?)
}

/// Cycle on `n ≥ 3` nodes with unit weights.
///
/// # Errors
///
/// Fails if `n < 3`.
pub fn cycle(n: usize) -> Result<WeightedGraph, GeneratorError> {
    if n < 3 {
        return Err(invalid("cycle requires n ≥ 3"));
    }
    let edges = (0..n).map(|i| (i as u32, ((i + 1) % n) as u32, 1));
    Ok(WeightedGraph::from_edges(n, edges)?)
}

/// Star with center 0 and `n − 1` leaves, unit weights.
///
/// # Errors
///
/// Fails if `n < 2`.
pub fn star(n: usize) -> Result<WeightedGraph, GeneratorError> {
    if n < 2 {
        return Err(invalid("star requires n ≥ 2"));
    }
    let edges = (1..n).map(|i| (0, i as u32, 1));
    Ok(WeightedGraph::from_edges(n, edges)?)
}

/// Complete graph `K_n` with uniform weight `w`.
///
/// # Errors
///
/// Fails if `n < 2` or `w == 0`.
pub fn complete(n: usize, w: Weight) -> Result<WeightedGraph, GeneratorError> {
    if n < 2 {
        return Err(invalid("complete graph requires n ≥ 2"));
    }
    if w == 0 {
        return Err(invalid("weight must be positive"));
    }
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u as u32, v as u32, w));
        }
    }
    Ok(WeightedGraph::from_edges(n, edges)?)
}

/// `rows × cols` grid (no wraparound), unit weights. Node `(r, c)` has index
/// `r·cols + c`. Diameter is `rows + cols − 2`.
///
/// # Errors
///
/// Fails if either dimension is zero.
pub fn grid2d(rows: usize, cols: usize) -> Result<WeightedGraph, GeneratorError> {
    if rows == 0 || cols == 0 {
        return Err(invalid("grid requires positive dimensions"));
    }
    let idx = |r: usize, c: usize| (r * cols + c) as u32;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((idx(r, c), idx(r, c + 1), 1));
            }
            if r + 1 < rows {
                edges.push((idx(r, c), idx(r + 1, c), 1));
            }
        }
    }
    Ok(WeightedGraph::from_edges(rows * cols, edges)?)
}

/// `rows × cols` torus (grid with wraparound), unit weights. The graph is
/// 4-regular, and the minimum cut is 4 (any singleton; slicing a full ring
/// costs `2·min(rows, cols) ≥ 6`). Diameter is `⌊rows/2⌋ + ⌊cols/2⌋`.
///
/// # Errors
///
/// Fails unless both dimensions are ≥ 3 (smaller tori degenerate into
/// multi-edges).
pub fn torus2d(rows: usize, cols: usize) -> Result<WeightedGraph, GeneratorError> {
    if rows < 3 || cols < 3 {
        return Err(invalid("torus requires both dimensions ≥ 3"));
    }
    let idx = |r: usize, c: usize| (r * cols + c) as u32;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            edges.push((idx(r, c), idx(r, (c + 1) % cols), 1));
            edges.push((idx(r, c), idx((r + 1) % rows, c), 1));
        }
    }
    Ok(WeightedGraph::from_edges(rows * cols, edges)?)
}

/// 3-dimensional torus `Z_a × Z_b × Z_c` (unit weights, degree 6) plus
/// `chords` deterministic long-range weight-7 chords among high-id
/// nodes.
///
/// The bare torus is vertex-transitive, so its edge connectivity equals
/// its degree: λ = 6 exactly. Chords only *add* edges (no cut value can
/// decrease) and their weight exceeds 6, so every singleton of a
/// non-chord node still costs 6 — the minimum cut stays exactly 6 by
/// construction. The chords scatter any spanning-tree fragment
/// decomposition, forcing LCAs into third fragments — the workload of
/// the large-`n` regression test and its benchmark row, which must
/// measure the *same* instance (hence one shared builder). Chord
/// endpoints come from a fixed xorshift stream restricted to the
/// high-id half, so case-2 pair keys land on large ids (large packed
/// keys).
///
/// # Errors
///
/// Fails unless all three dimensions are ≥ 3 (smaller tori degenerate
/// into multi-edges); chords that would self-loop are skipped, not
/// errors.
pub fn torus3d_with_chords(
    a: usize,
    b: usize,
    c: usize,
    chords: usize,
) -> Result<WeightedGraph, GeneratorError> {
    if a < 3 || b < 3 || c < 3 {
        return Err(invalid("3D torus requires all dimensions ≥ 3"));
    }
    let n = a * b * c;
    let id = |x: usize, y: usize, z: usize| -> u32 { ((x * b + y) * c + z) as u32 };
    let mut edges = Vec::with_capacity(3 * n + chords);
    for x in 0..a {
        for y in 0..b {
            for z in 0..c {
                edges.push((id(x, y, z), id((x + 1) % a, y, z), 1));
                edges.push((id(x, y, z), id(x, (y + 1) % b, z), 1));
                edges.push((id(x, y, z), id(x, y, (z + 1) % c), 1));
            }
        }
    }
    let mut s = 0x9E3779B97F4A7C15u64;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for _ in 0..chords {
        let u = (n / 2 + (next() as usize) % (n / 2)) as u32;
        let v = (n / 2 + (next() as usize) % (n / 2)) as u32;
        if u != v {
            edges.push((u.min(v), u.max(v), 7));
        }
    }
    Ok(WeightedGraph::from_edges(n, edges)?)
}

/// Hypercube on `2^dim` nodes, unit weights. Minimum cut is `dim`
/// (isolating any single vertex; the hypercube is `dim`-regular and
/// `dim`-edge-connected). Diameter is `dim`.
///
/// # Errors
///
/// Fails if `dim == 0` or `dim ≥ 31`.
pub fn hypercube(dim: usize) -> Result<WeightedGraph, GeneratorError> {
    if dim == 0 {
        return Err(invalid("hypercube requires dim ≥ 1"));
    }
    if dim >= 31 {
        return Err(invalid("hypercube dim too large"));
    }
    let n = 1usize << dim;
    let mut edges = Vec::with_capacity(n * dim / 2);
    for v in 0..n {
        for b in 0..dim {
            let u = v ^ (1 << b);
            if v < u {
                edges.push((v as u32, u as u32, 1));
            }
        }
    }
    Ok(WeightedGraph::from_edges(n, edges)?)
}

/// Caterpillar: a spine path of `spine` nodes, each with `legs` leaf nodes
/// attached, unit weights. Useful as a deep-but-bushy tree topology; the
/// minimum cut is 1 (any leaf).
///
/// # Errors
///
/// Fails if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Result<WeightedGraph, GeneratorError> {
    if spine == 0 {
        return Err(invalid("caterpillar requires spine ≥ 1"));
    }
    let n = spine * (1 + legs);
    let mut edges = Vec::new();
    for i in 0..spine.saturating_sub(1) {
        edges.push((i as u32, (i + 1) as u32, 1));
    }
    let mut next = spine as u32;
    for i in 0..spine {
        for _ in 0..legs {
            edges.push((i as u32, next, 1));
            next += 1;
        }
    }
    Ok(WeightedGraph::from_edges(n, edges)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::assert_connected;
    use crate::traversal::exact_diameter;

    #[test]
    fn path_shape() {
        let g = path(6).unwrap();
        assert_eq!(g.edge_count(), 5);
        assert_eq!(exact_diameter(&g), 5);
        assert_connected(&g);
        assert!(path(0).is_err());
        assert_eq!(path(1).unwrap().edge_count(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(8).unwrap();
        assert_eq!(g.edge_count(), 8);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        assert_eq!(exact_diameter(&g), 4);
        assert!(cycle(2).is_err());
    }

    #[test]
    fn star_shape() {
        let g = star(9).unwrap();
        assert_eq!(g.degree(crate::NodeId::new(0)), 8);
        assert_eq!(exact_diameter(&g), 2);
    }

    #[test]
    fn complete_shape() {
        let g = complete(5, 2).unwrap();
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.weighted_degree(crate::NodeId::new(2)), 8);
        assert!(complete(1, 1).is_err());
        assert!(complete(3, 0).is_err());
    }

    #[test]
    fn grid_and_torus() {
        let g = grid2d(3, 4).unwrap();
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert_eq!(exact_diameter(&g), 5);

        let t = torus2d(3, 4).unwrap();
        assert_eq!(t.node_count(), 12);
        assert_eq!(t.edge_count(), 24);
        assert!(t.nodes().all(|v| t.degree(v) == 4));
        assert_eq!(exact_diameter(&t), 3);
        assert!(torus2d(2, 5).is_err());
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4).unwrap();
        assert_eq!(g.node_count(), 16);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert_eq!(exact_diameter(&g), 4);
        assert!(hypercube(0).is_err());
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(4, 3).unwrap();
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 15); // a tree
        assert_connected(&g);
    }
}
