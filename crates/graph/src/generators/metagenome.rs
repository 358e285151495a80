//! Metagenome-assembly-like graphs.
//!
//! Stand-in for the soil metagenomic graph `M3`: extremely sparse (average
//! degree ~2), with an enormous number of tiny components (7.6M components
//! over 53M vertices in the paper) — many of them long paths, the worst
//! case for hooking-based algorithms. §VI-E explains that M3 is the one
//! graph where LACC's advantage narrows: low m/n makes it
//! communication-bound and components converge slowly, so this generator
//! is the adversarial input in our evaluation too.

use crate::{BuildError, CsrGraph, EdgeList, Vid};
use rand::Rng;

/// Generates a graph of about `n` vertices consisting of many short paths
/// (contig-like), a few long paths, and sparse random "repeat" edges
/// linking a small fraction of them.
///
/// * `mean_path_len` — expected length of a contig path.
/// * `repeat_fraction` — fraction of vertices that get an extra random
///   edge (models shared k-mers between contigs).
pub fn metagenome_graph(
    n: usize,
    mean_path_len: usize,
    repeat_fraction: f64,
    seed: u64,
) -> CsrGraph {
    try_metagenome_graph(n, mean_path_len, repeat_fraction, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// [`metagenome_graph`], returning a [`BuildError`] where the host cannot
/// hold the graph.
pub fn try_metagenome_graph(
    n: usize,
    mean_path_len: usize,
    repeat_fraction: f64,
    seed: u64,
) -> Result<CsrGraph, BuildError> {
    assert!(mean_path_len >= 1);
    assert!((0.0..=1.0).contains(&repeat_fraction));
    let mut rng = super::rng(seed);
    let mut el = EdgeList::new(n);
    // At most n − 1 path edges, then the repeats.
    let num_repeats = (n as f64 * repeat_fraction) as usize;
    el.try_reserve(n.saturating_sub(1).saturating_add(num_repeats))?;
    let mut v: Vid = 0;
    while v < n {
        // Geometric-ish path length around the mean, with an occasional
        // long contig (10x) to create a size tail.
        let len = if rng.random_bool(0.02) {
            mean_path_len * 10
        } else {
            1 + rng.random_range(0..(2 * mean_path_len))
        };
        let end = (v + len).min(n);
        for u in v..end.saturating_sub(1) {
            el.push(u, u + 1);
        }
        v = end;
    }
    if n >= 2 {
        for _ in 0..num_repeats {
            let a = rng.random_range(0..n) as Vid;
            let b = rng.random_range(0..n) as Vid;
            el.push(a, b);
        }
    }
    CsrGraph::try_from_edges(el)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DisjointSets;

    fn num_components(g: &CsrGraph) -> usize {
        let mut ds = DisjointSets::new(g.num_vertices());
        for (u, v) in g.edges() {
            ds.union(u, v);
        }
        ds.num_sets()
    }

    #[test]
    fn very_sparse_many_components() {
        let g = metagenome_graph(50_000, 7, 0.01, 3);
        assert_eq!(g.num_vertices(), 50_000);
        assert!(
            g.average_degree() < 3.0,
            "avg degree {}",
            g.average_degree()
        );
        let comps = num_components(&g);
        // M3-like regime: component count is a sizable fraction of n.
        assert!(comps > 3_000, "components {comps}");
        assert!(g.validate().is_ok());
    }

    #[test]
    fn an_edge_count_past_usize_is_refused() {
        let e = try_metagenome_graph(usize::MAX, 7, 0.5, 1).unwrap_err();
        assert!(matches!(e, BuildError::OutOfMemory { .. }), "{e}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            metagenome_graph(1000, 5, 0.02, 9),
            metagenome_graph(1000, 5, 0.02, 9)
        );
    }

    #[test]
    fn zero_repeats_pure_paths() {
        let g = metagenome_graph(200, 4, 0.0, 1);
        // Pure disjoint paths: max degree 2.
        let max_deg = (0..200).map(|v| g.degree(v)).max().unwrap();
        assert!(max_deg <= 2);
    }
}
