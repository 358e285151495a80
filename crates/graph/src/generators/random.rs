//! Erdős–Rényi random graphs.

use crate::{BuildError, CsrGraph, EdgeList, Vid};
use rand::Rng;

/// G(n, m): a random graph with `n` vertices and (up to) `m` undirected
/// edges sampled uniformly with replacement (duplicates and self loops are
/// dropped during canonicalization, so the realized edge count can be
/// slightly below `m`).
pub fn erdos_renyi_gnm(n: usize, m: usize, seed: u64) -> CsrGraph {
    try_erdos_renyi_gnm(n, m, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// [`erdos_renyi_gnm`], returning a [`BuildError`] where the host cannot
/// hold the graph.
pub fn try_erdos_renyi_gnm(n: usize, m: usize, seed: u64) -> Result<CsrGraph, BuildError> {
    let mut rng = super::rng(seed);
    let mut el = EdgeList::new(n);
    if n >= 2 {
        el.try_reserve(m)?;
        for _ in 0..m {
            let u = rng.random_range(0..n) as Vid;
            let v = rng.random_range(0..n) as Vid;
            el.push(u, v);
        }
    }
    CsrGraph::try_from_edges(el)
}

/// G(n, p): each of the `n(n-1)/2` possible edges present independently
/// with probability `p`. Suitable only for small `n` (quadratic scan).
pub fn erdos_renyi_gnp(n: usize, p: f64, seed: u64) -> CsrGraph {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let mut rng = super::rng(seed);
    let mut el = EdgeList::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random_bool(p) {
                el.push(u, v);
            }
        }
    }
    CsrGraph::from_edges(el)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_respects_bounds() {
        let g = erdos_renyi_gnm(100, 300, 1);
        assert_eq!(g.num_vertices(), 100);
        assert!(g.num_undirected_edges() <= 300);
        assert!(g.num_undirected_edges() > 200, "too many collisions");
        assert!(g.validate().is_ok());
    }

    #[test]
    fn gnm_deterministic() {
        assert_eq!(erdos_renyi_gnm(50, 100, 7), erdos_renyi_gnm(50, 100, 7));
        assert_ne!(erdos_renyi_gnm(50, 100, 7), erdos_renyi_gnm(50, 100, 8));
    }

    #[test]
    fn gnp_extremes() {
        let empty = erdos_renyi_gnp(20, 0.0, 3);
        assert_eq!(empty.num_directed_edges(), 0);
        let full = erdos_renyi_gnp(20, 1.0, 3);
        assert_eq!(full.num_undirected_edges(), 20 * 19 / 2);
    }

    #[test]
    fn gnm_tiny_universes() {
        assert_eq!(erdos_renyi_gnm(0, 10, 1).num_vertices(), 0);
        assert_eq!(erdos_renyi_gnm(1, 10, 1).num_directed_edges(), 0);
    }
}
