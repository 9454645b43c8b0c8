//! Graph family generators used by the test suite and the experiment
//! harness.
//!
//! Every randomized generator takes an explicit `&mut impl Rng` so runs are
//! reproducible from a seed. Generators that can fail (impossible parameter
//! combinations) return [`GeneratorError`]; structurally infallible ones
//! return the graph directly.
//!
//! Families provided:
//!
//! * [`structured`] — paths, cycles, stars, complete graphs, 2-D grids and
//!   tori, hypercubes, caterpillars;
//! * [`random`] — Erdős–Rényi `G(n, p)` forced connected, random
//!   geometric graphs;
//! * [`regular`] — random `d`-regular graphs (configuration model);
//! * [`planted`] — instances with a planted minimum cut: clique pairs,
//!   community pairs, barbells, lollipops;
//! * [`lower_bound`] — Das-Sarma-style instances (small diameter, large
//!   `√n` complexity) for the tightness experiment;
//! * [`weights`] — weight randomisation of an existing topology.

pub mod lower_bound;
pub mod planted;
pub mod random;
pub mod regular;
pub mod structured;
pub mod weights;

pub use lower_bound::das_sarma_style;
pub use planted::{barbell, clique_pair, community_pair, lollipop, PlantedCut};
pub use random::{erdos_renyi_connected, random_geometric};
pub use regular::random_regular;
pub use structured::{
    caterpillar, complete, cycle, grid2d, hypercube, path, star, torus2d, torus3d_with_chords,
};
pub use weights::randomize_weights;

use crate::{GraphError, WeightedGraph};
use std::error::Error;
use std::fmt;

/// Errors from graph generators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeneratorError {
    /// The requested parameters cannot produce a valid graph.
    InvalidParameters {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The underlying graph construction failed.
    Graph(GraphError),
}

impl fmt::Display for GeneratorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeneratorError::InvalidParameters { reason } => {
                write!(f, "invalid generator parameters: {reason}")
            }
            GeneratorError::Graph(e) => write!(f, "graph construction failed: {e}"),
        }
    }
}

impl Error for GeneratorError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GeneratorError::Graph(e) => Some(e),
            GeneratorError::InvalidParameters { .. } => None,
        }
    }
}

impl From<GraphError> for GeneratorError {
    fn from(e: GraphError) -> Self {
        GeneratorError::Graph(e)
    }
}

pub(crate) fn invalid(reason: impl Into<String>) -> GeneratorError {
    GeneratorError::InvalidParameters {
        reason: reason.into(),
    }
}

/// Adds unit-weight edges joining the connected components of `edges` into a
/// single component: every component after the first gets one random edge to
/// a node of the growing connected part. Used by the `*_connected` variants.
pub(crate) fn connect_components<R: rand::Rng>(
    n: usize,
    edges: &mut Vec<(u32, u32, crate::Weight)>,
    rng: &mut R,
) {
    if n <= 1 {
        return;
    }
    // Union-find over current edges.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for &(u, v, _) in edges.iter() {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent[ru as usize] = rv;
        }
    }
    // Pick one representative per component; connect them in random order.
    let mut reps: Vec<u32> = Vec::new();
    for v in 0..n as u32 {
        if find(&mut parent, v) == v {
            reps.push(v);
        }
    }
    use rand::seq::SliceRandom;
    reps.shuffle(rng);
    for pair in reps.windows(2) {
        edges.push((pair[0], pair[1], 1));
        let (a, b) = (find(&mut parent, pair[0]), find(&mut parent, pair[1]));
        parent[a as usize] = b;
    }
}

/// Convenience: asserts a generated graph is connected (used in tests).
pub fn assert_connected(g: &WeightedGraph) {
    assert!(
        crate::traversal::is_connected(g),
        "generated graph must be connected (n = {}, m = {})",
        g.node_count(),
        g.edge_count()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn connect_components_produces_connected_graph() {
        let mut rng = StdRng::seed_from_u64(3);
        // Three isolated pairs.
        let mut edges = vec![(0, 1, 1), (2, 3, 1), (4, 5, 1)];
        connect_components(6, &mut edges, &mut rng);
        let g = WeightedGraph::from_edges(6, edges).unwrap();
        assert_connected(&g);
        // Exactly two joining edges were added.
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn connect_components_noop_when_connected() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut edges = vec![(0, 1, 1), (1, 2, 1)];
        connect_components(3, &mut edges, &mut rng);
        assert_eq!(edges.len(), 2);
    }

    #[test]
    fn generator_error_display() {
        let e = invalid("n must be positive");
        assert!(e.to_string().contains("n must be positive"));
        let g: GeneratorError = GraphError::TooManyEdges.into();
        assert!(g.to_string().contains("graph construction failed"));
    }
}
