//! Random symmetric vertex permutations.
//!
//! CombBLAS randomly permutes the rows and columns of the adjacency matrix
//! before distributing it on the 2D grid (§V-B): this load-balances both
//! nonzeros and vector segments. A distributed run applies the relabeling
//! while each rank builds its matrix block; [`Permutation::permute_graph`]
//! materializes the relabeled graph and is the reference that build is
//! tested against.

use crate::{CsrGraph, Vid};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A bijection on `0..n` with its inverse.
#[derive(Clone, Debug)]
pub struct Permutation {
    forward: Vec<Vid>,
    inverse: Vec<Vid>,
}

impl Permutation {
    /// The identity permutation.
    pub fn identity(n: usize) -> Self {
        let forward: Vec<Vid> = (0..n).collect();
        Permutation {
            inverse: forward.clone(),
            forward,
        }
    }

    /// A uniformly random permutation (Fisher–Yates).
    pub fn random(n: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut forward: Vec<Vid> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            forward.swap(i, j);
        }
        Self::from_forward(forward)
    }

    /// Builds from an explicit forward map, computing the inverse.
    ///
    /// # Panics
    /// If `forward` is not a bijection on `0..n`.
    pub fn from_forward(forward: Vec<Vid>) -> Self {
        let n = forward.len();
        let mut inverse = vec![usize::MAX; n];
        for (old, &new) in forward.iter().enumerate() {
            assert!(new < n, "image {new} out of range");
            assert_eq!(inverse[new], usize::MAX, "not injective at {new}");
            inverse[new] = old;
        }
        Permutation { forward, inverse }
    }

    /// Size of the domain.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True on the empty domain.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// New id of old vertex `v`.
    pub fn apply(&self, v: Vid) -> Vid {
        self.forward[v]
    }

    /// Old id of new vertex `v`.
    pub fn invert(&self, v: Vid) -> Vid {
        self.inverse[v]
    }

    /// The forward map as a slice.
    pub fn forward(&self) -> &[Vid] {
        &self.forward
    }

    /// Relabels a graph: vertex `v` becomes `apply(v)`.
    pub fn permute_graph(&self, g: &CsrGraph) -> CsrGraph {
        assert_eq!(self.len(), g.num_vertices());
        let mut el = g.to_edgelist();
        el.apply_permutation(&self.forward);
        // The relabeled list is still canonical (symmetric, simple), so the
        // cheap constructor applies.
        CsrGraph::from_canonical_edges(&el)
    }

    /// Maps a labeling on permuted ids back to original ids: given
    /// `labels_new[new_id]` (whose *values* are also new ids), produces
    /// `labels_old[old_id]` with values in old ids.
    pub fn unpermute_labels(&self, labels_new: &[Vid]) -> Vec<Vid> {
        assert_eq!(labels_new.len(), self.len());
        (0..self.len())
            .map(|old| self.inverse[labels_new[self.forward[old]]])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::path_graph;
    use crate::unionfind::canonicalize_labels;

    #[test]
    fn identity_roundtrip() {
        let p = Permutation::identity(5);
        assert_eq!(p.apply(3), 3);
        assert_eq!(p.invert(3), 3);
    }

    #[test]
    fn random_is_bijection() {
        let p = Permutation::random(100, 42);
        let mut seen = [false; 100];
        for v in 0..100 {
            let img = p.apply(v);
            assert!(!seen[img]);
            seen[img] = true;
            assert_eq!(p.invert(img), v);
        }
    }

    #[test]
    #[should_panic(expected = "not injective")]
    fn rejects_non_bijection() {
        Permutation::from_forward(vec![0, 0, 1]);
    }

    #[test]
    fn permute_graph_preserves_structure() {
        let g = path_graph(10);
        let p = Permutation::random(10, 7);
        let h = p.permute_graph(&g);
        assert_eq!(h.num_undirected_edges(), g.num_undirected_edges());
        for (u, v) in g.edges() {
            assert!(h.has_edge(p.apply(u), p.apply(v)));
        }
        assert!(h.validate().is_ok());
    }

    #[test]
    fn unpermute_labels_restores_partition() {
        let g = path_graph(6);
        let p = Permutation::random(6, 3);
        let h = p.permute_graph(&g);
        // Compute components on h with union-find, map back, compare to the
        // trivially known single component.
        let mut ds = crate::DisjointSets::new(6);
        for (u, v) in h.edges() {
            ds.union(u, v);
        }
        let labels_new = ds.canonical_labels();
        let labels_old = p.unpermute_labels(&labels_new);
        let canon = canonicalize_labels(&labels_old);
        assert!(canon.iter().all(|&l| l == 0));
    }
}
