//! Graph census utilities: the data behind Table III and the generator
//! validation in EXPERIMENTS.md.

use crate::{CsrGraph, DisjointSets};

/// Summary statistics of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of directed edges (as reported in Table III).
    pub directed_edges: usize,
    /// Number of connected components (union-find census).
    pub components: usize,
    /// Size of the largest component.
    pub largest_component: usize,
    /// Number of isolated vertices.
    pub isolated_vertices: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Average degree (2m/n).
    pub avg_degree: f64,
}

/// Computes full census statistics for a graph.
pub fn graph_stats(g: &CsrGraph) -> GraphStats {
    let n = g.num_vertices();
    let mut ds = DisjointSets::new(n);
    for (u, v) in g.edges() {
        ds.union(u, v);
    }
    let mut comp_size = vec![0usize; n];
    for v in 0..n {
        comp_size[ds.find(v)] += 1;
    }
    let largest = comp_size.iter().copied().max().unwrap_or(0);
    let isolated = (0..n).filter(|&v| g.degree(v) == 0).count();
    let max_degree = (0..n).map(|v| g.degree(v)).max().unwrap_or(0);
    GraphStats {
        vertices: n,
        directed_edges: g.num_directed_edges(),
        components: ds.num_sets(),
        largest_component: largest,
        isolated_vertices: isolated,
        max_degree,
        avg_degree: g.average_degree(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::path_graph;
    use crate::EdgeList;

    #[test]
    fn stats_for_path() {
        let s = graph_stats(&path_graph(10));
        assert_eq!(s.vertices, 10);
        assert_eq!(s.directed_edges, 18);
        assert_eq!(s.components, 1);
        assert_eq!(s.largest_component, 10);
        assert_eq!(s.isolated_vertices, 0);
        assert_eq!(s.max_degree, 2);
    }

    #[test]
    fn stats_with_isolated_vertices() {
        let mut el = EdgeList::new(5);
        el.push(0, 1);
        let s = graph_stats(&CsrGraph::from_edges(el));
        assert_eq!(s.components, 4);
        assert_eq!(s.isolated_vertices, 3);
        assert_eq!(s.largest_component, 2);
    }
}
