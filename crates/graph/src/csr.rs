//! Compressed-sparse-row adjacency structure.
//!
//! [`CsrGraph`] is the canonical immutable graph representation consumed by
//! every connected-components algorithm in the workspace. It always stores
//! a *symmetric* simple graph: building it from an [`EdgeList`]
//! canonicalizes (self loops removed, both directions present, no
//! duplicates), matching the paper's storage of symmetric adjacency
//! matrices (Table III counts directed edges for the same reason).
//!
//! The target array is generic over the index word width [`Idx`]: the
//! default `CsrGraph` stores `usize` targets ([`Vid`], what the readers,
//! generators and serial algorithms build), while `CsrGraph<u32>` stores
//! the 4-byte words the distributed stack's matrix blocks hold, halving
//! adjacency memory traffic. Narrowing conversions are checked — see
//! [`CsrGraph::try_from_edges`] and [`CsrGraph::try_narrow`].

use crate::idx::{ensure_fits, Idx, IdxOverflow};
use crate::{EdgeList, Vid};

/// A symmetric graph in CSR form with `I`-width target indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph<I: Idx = Vid> {
    n: usize,
    offsets: Vec<usize>,
    targets: Vec<I>,
}

impl<I: Idx> CsrGraph<I> {
    /// Builds a CSR graph from an edge list, canonicalizing it on the way
    /// (see [`try_from_pairs`](Self::try_from_pairs)).
    ///
    /// Panics if the vertex count exceeds the index width `I`; use
    /// [`try_from_edges`](Self::try_from_edges) for a recoverable error.
    pub fn from_edges(el: EdgeList) -> Self {
        match Self::try_from_edges(el) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`from_edges`](Self::from_edges) with a checked conversion to the
    /// index width `I`.
    pub fn try_from_edges(el: EdgeList) -> Result<Self, IdxOverflow> {
        Self::try_from_pairs(el.num_vertices(), el.edges())
    }

    /// Builds the symmetric simple graph of an arbitrary edge multiset over
    /// `0..n`: both orientations stored, duplicates (in either orientation)
    /// merged, self loops dropped.
    ///
    /// No global sort: a counting pass sizes every row, a scatter pass
    /// writes each edge into both endpoint rows, and each row is then
    /// sorted and deduplicated on its own while the array is compacted in
    /// place — `O(m + Σ d log d)` with no scratch beyond the CSR itself.
    ///
    /// Errs — before allocating anything — when `n` does not fit `I`.
    ///
    /// # Panics
    /// If an endpoint is not in `0..n` (also before allocating).
    pub fn try_from_pairs(n: usize, pairs: &[(Vid, Vid)]) -> Result<Self, IdxOverflow> {
        ensure_fits::<I>(n, "CSR graph")?;
        if let Some(&(u, v)) = pairs.iter().find(|&&(u, v)| u >= n || v >= n) {
            panic!("edge ({u},{v}) out of range for n={n}");
        }
        // Count: offsets[v] = entries row v will receive, duplicates included.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in pairs {
            if u != v {
                offsets[u] += 1;
                offsets[v] += 1;
            }
        }
        let mut total = 0usize;
        for o in &mut offsets {
            total += std::mem::replace(o, total);
        }
        // Scatter both orientations, using offsets[v] as row v's cursor:
        // afterwards it holds the *end* of row v.
        let mut targets = vec![I::zero(); total];
        for &(u, v) in pairs {
            if u != v {
                targets[offsets[u]] = I::from_usize(v);
                offsets[u] += 1;
                targets[offsets[v]] = I::from_usize(u);
                offsets[v] += 1;
            }
        }
        // Sort and dedup each row, compacting forward (write <= start always
        // holds, so no row is overwritten before it is read).
        let (mut start, mut write) = (0usize, 0usize);
        for row_start in &mut offsets[..n] {
            let end = std::mem::replace(row_start, write);
            targets[start..end].sort_unstable();
            for k in start..end {
                let t = targets[k];
                if k == start || t != targets[write - 1] {
                    targets[write] = t;
                    write += 1;
                }
            }
            start = end;
        }
        offsets[n] = write;
        targets.truncate(write);
        targets.shrink_to_fit();
        let g = CsrGraph {
            n,
            offsets,
            targets,
        };
        debug_assert_eq!(g.validate(), Ok(()));
        Ok(g)
    }

    /// Builds a CSR graph from an edge list already in canonical form
    /// (symmetric, deduplicated, loop-free); panics in debug builds if the
    /// input is not canonical. With [`EdgeList::canonicalize`] this is the
    /// sort-based reference [`try_from_pairs`](Self::try_from_pairs) is
    /// tested against. Panics if the vertex count exceeds `I`; use
    /// [`try_from_canonical_edges`](Self::try_from_canonical_edges) to
    /// recover.
    pub fn from_canonical_edges(el: &EdgeList) -> Self {
        match Self::try_from_canonical_edges(el) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Checked variant of
    /// [`from_canonical_edges`](Self::from_canonical_edges): returns a
    /// descriptive [`IdxOverflow`] — before allocating anything sized by
    /// the vertex count — when the graph does not fit `I`.
    pub fn try_from_canonical_edges(el: &EdgeList) -> Result<Self, IdxOverflow> {
        let n = el.num_vertices();
        ensure_fits::<I>(n, "CSR graph")?;
        let mut offsets = vec![0usize; n + 1];
        for &(u, _) in el.edges() {
            offsets[u + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![I::zero(); el.len()];
        let mut cursor = offsets.clone();
        for &(u, v) in el.edges() {
            debug_assert_ne!(u, v, "self loop in canonical edge list");
            targets[cursor[u]] = I::from_usize(v);
            cursor[u] += 1;
        }
        // Sort each adjacency row for deterministic traversal and binary
        // search support.
        for v in 0..n {
            targets[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        let g = CsrGraph {
            n,
            offsets,
            targets,
        };
        debug_assert!(g.is_symmetric(), "edge list was not symmetric");
        Ok(g)
    }

    /// Re-stores the same graph at index width `J`, checking that the
    /// vertex count fits. The structure is copied verbatim (no
    /// re-canonicalization), so the result is structurally identical.
    pub fn try_narrow<J: Idx>(&self) -> Result<CsrGraph<J>, IdxOverflow> {
        ensure_fits::<J>(self.n, "CSR graph")?;
        Ok(CsrGraph {
            n: self.n,
            offsets: self.offsets.clone(),
            targets: self
                .targets
                .iter()
                .map(|&t| J::from_usize(t.idx()))
                .collect(),
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of stored directed edges (twice the undirected edge count).
    pub fn num_directed_edges(&self) -> usize {
        self.targets.len()
    }

    /// Number of undirected edges.
    pub fn num_undirected_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Neighbors of `v`, sorted ascending.
    pub fn neighbors(&self, v: Vid) -> &[I] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: Vid) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Average degree `2m/n` (0.0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.targets.len() as f64 / self.n as f64
        }
    }

    /// The CSR offsets array (length `n + 1`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The CSR targets array (length = number of directed edges).
    pub fn targets(&self) -> &[I] {
        &self.targets
    }

    /// True if `{u, v}` is an edge (binary search).
    pub fn has_edge(&self, u: Vid, v: Vid) -> bool {
        self.neighbors(u).binary_search(&I::from_usize(v)).is_ok()
    }

    /// Iterates over all directed edges `(u, v)` as widened [`Vid`] pairs.
    pub fn edges(&self) -> impl Iterator<Item = (Vid, Vid)> + '_ {
        (0..self.n).flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v.idx())))
    }

    /// Converts back to an edge list (directed entries).
    pub fn to_edgelist(&self) -> EdgeList {
        EdgeList::from_pairs(self.n, self.edges())
    }

    /// Checks structural symmetry: `(u,v)` present iff `(v,u)` present.
    pub fn is_symmetric(&self) -> bool {
        self.edges().all(|(u, v)| self.has_edge(v, u))
    }

    /// Validates internal invariants (monotone offsets, in-range targets,
    /// sorted rows, no self loops, no duplicates). Returns a description of
    /// the first violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.len() != self.n + 1 {
            return Err(format!(
                "offsets length {} != n+1 {}",
                self.offsets.len(),
                self.n + 1
            ));
        }
        if self.offsets[0] != 0 || *self.offsets.last().unwrap() != self.targets.len() {
            return Err("offsets endpoints wrong".into());
        }
        for v in 0..self.n {
            if self.offsets[v] > self.offsets[v + 1] {
                return Err(format!("offsets not monotone at {v}"));
            }
            let row = self.neighbors(v);
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {v} not strictly sorted"));
                }
            }
            for &t in row {
                if t.idx() >= self.n {
                    return Err(format!("target {t} out of range in row {v}"));
                }
                if t.idx() == v {
                    return Err(format!("self loop at {v}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        CsrGraph::from_edges(EdgeList::from_pairs(3, [(0, 1), (1, 2), (2, 0)]))
    }

    #[test]
    fn triangle_structure() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_directed_edges(), 6);
        assert_eq!(g.num_undirected_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(2), 2);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn from_edges_canonicalizes() {
        // Duplicates, loops, one direction only.
        let el = EdgeList::from_pairs(4, [(0, 1), (0, 1), (2, 2), (3, 1)]);
        let g = CsrGraph::<Vid>::from_edges(el);
        assert_eq!(g.num_undirected_edges(), 2);
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(1, 3));
        assert!(!g.has_edge(2, 2));
        assert!(g.is_symmetric());
    }

    /// The sort-based reference: canonicalize the whole list, then the
    /// canonical-input constructor.
    fn oracle<I: Idx>(n: usize, pairs: &[(Vid, Vid)]) -> CsrGraph<I> {
        let mut el = EdgeList::from_pairs(n, pairs.iter().copied());
        el.canonicalize();
        CsrGraph::from_canonical_edges(&el)
    }

    #[test]
    fn counting_build_matches_sorting_oracle_on_edge_cases() {
        let cases: [(usize, &[(Vid, Vid)]); 5] = [
            (0, &[]),
            (5, &[]),
            (3, &[(0, 0), (1, 1), (2, 2), (1, 1)]),
            // Duplicates in both orientations around an isolated vertex 2.
            (5, &[(3, 1), (1, 3), (3, 1), (0, 4), (4, 0), (4, 4), (1, 0)]),
            // A hub whose row shrinks under dedup, shifting every later row.
            (4, &[(0, 1), (0, 1), (1, 0), (0, 2), (2, 3), (3, 2), (0, 3)]),
        ];
        for (n, pairs) in cases {
            let g = CsrGraph::<Vid>::try_from_pairs(n, pairs).unwrap();
            assert_eq!(g, oracle(n, pairs), "n={n} {pairs:?}");
            assert_eq!(g.validate(), Ok(()));
            let narrow = CsrGraph::<u32>::try_from_pairs(n, pairs).unwrap();
            assert_eq!(narrow, oracle(n, pairs), "u32 n={n} {pairs:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics() {
        let _ = CsrGraph::<Vid>::try_from_pairs(2, &[(0, 1), (0, 2)]);
    }

    #[test]
    fn empty_and_isolated() {
        let g = CsrGraph::<Vid>::from_edges(EdgeList::new(5));
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_directed_edges(), 0);
        assert_eq!(g.neighbors(3), &[] as &[Vid]);
        assert!(g.validate().is_ok());

        let g0 = CsrGraph::<Vid>::from_edges(EdgeList::new(0));
        assert_eq!(g0.num_vertices(), 0);
        assert_eq!(g0.average_degree(), 0.0);
    }

    #[test]
    fn has_edge_and_iteration() {
        let g = triangle();
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all.len(), 6);
        assert!(all.contains(&(2, 1)));
    }

    #[test]
    fn roundtrip_through_edgelist() {
        let g = triangle();
        let g2 = CsrGraph::from_edges(g.to_edgelist());
        assert_eq!(g, g2);
    }

    #[test]
    fn average_degree() {
        let g = triangle();
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn narrow_width_matches_default() {
        let el = EdgeList::from_pairs(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]);
        let wide = CsrGraph::<Vid>::from_edges(el.clone());
        let narrow = CsrGraph::<u32>::from_edges(el);
        assert_eq!(wide.num_directed_edges(), narrow.num_directed_edges());
        assert_eq!(narrow.neighbors(4), &[3u32, 5u32]);
        assert!(narrow.validate().is_ok());
        // Structural identity after widening back.
        let widened: Vec<_> = narrow.edges().collect();
        let original: Vec<_> = wide.edges().collect();
        assert_eq!(widened, original);
        // And try_narrow roundtrips.
        let renarrowed = wide.try_narrow::<u32>().unwrap();
        assert_eq!(renarrowed, narrow);
    }

    #[test]
    fn overflow_is_a_descriptive_error_not_truncation() {
        // EdgeList::new is cheap (no per-vertex allocation), so we can ask
        // for a universe beyond u32 without exhausting memory. The checked
        // constructor must refuse *before* allocating offsets.
        let huge = EdgeList::new(u32::MAX as usize + 10);
        let err = CsrGraph::<u32>::try_from_edges(huge).unwrap_err();
        assert_eq!(err.width(), "u32");
        assert_eq!(err.required(), u32::MAX as usize + 10);
        let msg = err.to_string();
        assert!(
            msg.contains("u32") && msg.contains("stores vertex ids as u32"),
            "{msg}"
        );

        let huge = EdgeList::new(u32::MAX as usize + 10);
        assert!(CsrGraph::<u32>::try_from_canonical_edges(&huge).is_err());

        // Narrowing an in-range graph succeeds; the guard is about counts,
        // not edge density.
        let small = CsrGraph::<Vid>::from_edges(EdgeList::from_pairs(3, [(0, 1)]));
        assert!(small.try_narrow::<u32>().is_ok());
    }
}
