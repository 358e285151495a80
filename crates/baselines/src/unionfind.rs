//! Serial union-find connected components.

use crate::Vid;
use lacc_graph::{CsrGraph, DisjointSets};

/// Labels each vertex with the smallest vertex id in its component using
/// union-find — the optimal `O(m α(n))` serial algorithm and the ground
/// truth all parallel algorithms are validated against.
pub fn union_find_cc(g: &CsrGraph) -> Vec<Vid> {
    let mut ds = DisjointSets::new(g.num_vertices());
    for (u, v) in g.edges() {
        if u < v {
            ds.union(u, v);
        }
    }
    ds.canonical_labels()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacc_graph::generators::random_forest;

    #[test]
    fn forest_labels_are_minima() {
        let g = random_forest(100, 5, 1);
        let labels = union_find_cc(&g);
        for (u, v) in g.edges() {
            assert_eq!(labels[u], labels[v]);
        }
        for (v, &l) in labels.iter().enumerate() {
            assert!(l <= v);
        }
    }
}
