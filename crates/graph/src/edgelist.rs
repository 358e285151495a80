//! A mutable list of undirected edges.
//!
//! Generators and file readers produce [`EdgeList`]s; algorithms consume
//! the immutable [`crate::CsrGraph`] built from them.

use crate::{BuildError, Vid};

/// An edge list over vertices `0..n`.
///
/// Edges are stored as ordered pairs but interpreted as undirected; the
/// cleanup methods ([`symmetrize`](EdgeList::symmetrize),
/// [`dedup`](EdgeList::dedup), [`remove_self_loops`](EdgeList::remove_self_loops))
/// bring a raw list into the canonical form expected by
/// [`CsrGraph::from_edges`](crate::CsrGraph::from_edges).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeList {
    n: usize,
    edges: Vec<(Vid, Vid)>,
}

impl EdgeList {
    /// Creates an empty edge list over `n` vertices.
    pub fn new(n: usize) -> Self {
        EdgeList {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates an edge list from raw pairs, panicking on out-of-range ids.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (Vid, Vid)>) -> Self {
        let mut el = EdgeList::new(n);
        for (u, v) in pairs {
            el.push(u, v);
        }
        el
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of stored (directed) edge entries.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if no edges are stored.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Adds the edge `{u, v}`.
    ///
    /// # Panics
    /// If `u` or `v` is not in `0..n`.
    pub fn push(&mut self, u: Vid, v: Vid) {
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        self.edges.push((u, v));
    }

    /// Makes room for `additional` more edges, or returns
    /// [`BuildError::OutOfMemory`] where growing the list would abort the
    /// process.
    pub(crate) fn try_reserve(&mut self, additional: usize) -> Result<(), BuildError> {
        self.edges
            .try_reserve_exact(additional)
            .map_err(|_| BuildError::OutOfMemory {
                what: "the edge list",
                len: self.edges.len().saturating_add(additional),
            })
    }

    /// The stored edges.
    pub fn edges(&self) -> &[(Vid, Vid)] {
        &self.edges
    }

    /// Adds the reverse of every stored edge, making the list symmetric.
    pub fn symmetrize(&mut self) {
        let orig = self.edges.len();
        self.edges.reserve(orig);
        for i in 0..orig {
            let (u, v) = self.edges[i];
            if u != v {
                self.edges.push((v, u));
            }
        }
    }

    /// Removes duplicate edges (exact ordered-pair duplicates).
    pub fn dedup(&mut self) {
        self.edges.sort_unstable();
        self.edges.dedup();
    }

    /// Removes self loops `(v, v)`.
    pub fn remove_self_loops(&mut self) {
        self.edges.retain(|&(u, v)| u != v);
    }

    /// Applies the full cleanup pipeline: drop self loops, symmetrize,
    /// dedup. After this the list is a canonical symmetric simple graph.
    pub fn canonicalize(&mut self) {
        self.remove_self_loops();
        self.symmetrize();
        self.dedup();
    }

    /// Relabels every endpoint through `perm` (`new_id = perm[old_id]`).
    ///
    /// # Panics
    /// If `perm.len() != n`.
    pub fn apply_permutation(&mut self, perm: &[Vid]) {
        assert_eq!(perm.len(), self.n, "permutation length mismatch");
        for e in &mut self.edges {
            *e = (perm[e.0], perm[e.1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_len() {
        let mut el = EdgeList::new(3);
        el.push(0, 1);
        el.push(1, 2);
        assert_eq!(el.len(), 2);
        assert_eq!(el.num_vertices(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_out_of_range_panics() {
        let mut el = EdgeList::new(2);
        el.push(0, 2);
    }

    #[test]
    fn symmetrize_adds_reverses_but_not_loops() {
        let mut el = EdgeList::from_pairs(3, [(0, 1), (2, 2)]);
        el.symmetrize();
        assert_eq!(el.edges(), &[(0, 1), (2, 2), (1, 0)]);
    }

    #[test]
    fn dedup_removes_duplicates() {
        let mut el = EdgeList::from_pairs(3, [(0, 1), (0, 1), (1, 0)]);
        el.dedup();
        assert_eq!(el.edges(), &[(0, 1), (1, 0)]);
    }

    #[test]
    fn canonicalize_pipeline() {
        let mut el = EdgeList::from_pairs(4, [(1, 1), (0, 2), (2, 0), (3, 0), (0, 2)]);
        el.canonicalize();
        assert_eq!(el.edges(), &[(0, 2), (0, 3), (2, 0), (3, 0)]);
    }

    #[test]
    fn apply_permutation_relabels() {
        let mut el = EdgeList::from_pairs(3, [(0, 1), (1, 2)]);
        el.apply_permutation(&[2, 0, 1]);
        assert_eq!(el.edges(), &[(2, 0), (0, 1)]);
    }
}
