//! Symmetric vertex permutations.
//!
//! CombBLAS randomly permutes the rows and columns of the adjacency matrix
//! before distributing it on the 2D grid (§V-B): this load-balances both
//! nonzeros and vector segments. A distributed run draws that permutation
//! with [`Permutation::load_balancing`], which also plants the graph's hubs
//! at the lowest ids, and applies the relabeling while each rank builds its
//! matrix block; [`Permutation::permute_graph`] materializes the relabeled
//! graph and is the reference that build is tested against.

use crate::{CsrGraph, Vid};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// At most this many hubs are planted by [`Permutation::load_balancing`].
const MAX_HUBS: usize = 16;

/// A vertex is a hub when its degree is at least this many times the mean
/// degree.
const HUB_DEGREE_FACTOR: usize = 8;

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

    /// The load-balancing permutation of a distributed run: exactly
    /// [`random`](Self::random)`(n, seed)`, then the graph's hubs swapped
    /// onto new ids `0, 1, 2, …`.
    ///
    /// A hub is a vertex whose degree is at least 8 times the mean:
    /// `deg(v) · n ≥ 8 · nnz`, with `nnz` the stored entries. At most 16
    /// are planted, in descending degree with ties broken by the lower
    /// original id; the `i`-th trades new ids with the vertex that drew
    /// `i`. Every engine hooks toward the smaller id, so the hubs'
    /// neighbourhoods hook onto them from the first round. A graph with no
    /// hub gets `random(n, seed)` itself. The cost is one degree scan and
    /// a selection among the hubs, both O(n).
    pub fn load_balancing(g: &CsrGraph, seed: u64) -> Self {
        let n = g.num_vertices();
        let mut perm = Self::random(n, seed);
        // In u128, `deg · n` and `8 · nnz` cannot overflow for any graph a
        // `usize` can index; an edgeless graph has no hub.
        let gate = HUB_DEGREE_FACTOR as u128 * g.num_directed_edges() as u128;
        let mut hubs: Vec<Vid> = (0..n)
            .filter(|&v| g.degree(v) > 0 && g.degree(v) as u128 * n as u128 >= gate)
            .collect();
        let order = |&v: &Vid| (std::cmp::Reverse(g.degree(v)), v);
        if hubs.len() > MAX_HUBS {
            hubs.select_nth_unstable_by_key(MAX_HUBS - 1, order);
            hubs.truncate(MAX_HUBS);
        }
        hubs.sort_unstable_by_key(order);
        for (new, hub) in hubs.into_iter().enumerate() {
            let (drawn, holder) = (perm.forward[hub], perm.inverse[new]);
            perm.forward.swap(hub, holder);
            perm.inverse.swap(new, drawn);
        }
        perm
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
    use crate::generators::{path_graph, rmat, RmatParams};
    use crate::unionfind::canonicalize_labels;
    use crate::EdgeList;

    /// Stars with the given `(centre, first leaf, leaves)`, on `n` vertices.
    fn stars(n: usize, stars: &[(Vid, Vid, usize)]) -> CsrGraph {
        let edges = stars
            .iter()
            .flat_map(|&(c, first, k)| (first..first + k).map(move |leaf| (c, leaf)));
        CsrGraph::from_edges(EdgeList::from_pairs(n, edges))
    }

    /// `forward` and `inverse` are inverse bijections on `0..n`.
    fn assert_bijection(p: &Permutation) {
        let n = p.len();
        let mut seen = vec![false; n];
        for v in 0..n {
            let img = p.apply(v);
            assert!(!seen[img], "{img} hit twice");
            seen[img] = true;
            assert_eq!(p.invert(img), v);
        }
    }

    #[test]
    fn identity_roundtrip() {
        let p = Permutation::identity(5);
        assert_eq!(p.apply(3), 3);
        assert_eq!(p.invert(3), 3);
    }

    #[test]
    fn random_is_bijection() {
        assert_bijection(&Permutation::random(100, 42));
    }

    /// Only `hubs` and the vertices that drew their new ids differ from
    /// the draw `r`.
    fn assert_only_swapped(p: &Permutation, r: &Permutation, hubs: &[Vid]) {
        for v in (0..p.len()).filter(|&v| p.apply(v) != r.apply(v)) {
            assert!(hubs.contains(&v) || r.apply(v) < hubs.len(), "{v} moved");
        }
    }

    #[test]
    fn load_balancing_is_a_bijection() {
        let g = rmat(10, 8, RmatParams::graph500(), 3);
        let p = Permutation::load_balancing(&g, 5);
        assert_bijection(&p);
        // rmat's hubs are planted, so the draw moved.
        assert_ne!(
            p.forward(),
            Permutation::random(g.num_vertices(), 5).forward()
        );
    }

    #[test]
    fn load_balancing_plants_hubs_by_degree_then_id() {
        // 199 edges on 400 vertices: a hub needs 400 · deg ≥ 8 · 398, so
        // deg ≥ 8. Centres 7 and 40 tie at 50; the centres of the stars of
        // 7 leaves and fewer stay below the gate.
        let g = stars(
            400,
            &[
                (300, 100, 60),
                (40, 160, 50),
                (7, 210, 50),
                (99, 260, 10),
                (5, 270, 7),
                (277, 278, 7),
                (285, 286, 7),
                (293, 294, 6),
                (301, 302, 2),
            ],
        );
        assert_eq!(g.num_directed_edges(), 398);
        let (p, r) = (
            Permutation::load_balancing(&g, 9),
            Permutation::random(400, 9),
        );
        assert_bijection(&p);
        let hubs = [300, 7, 40, 99];
        for (new, &hub) in hubs.iter().enumerate() {
            assert_eq!(p.apply(hub), new, "hub {hub}");
        }
        assert_only_swapped(&p, &r, &hubs);
        // The gate is inclusive: a 15-leaf star on 16 vertices has
        // 16 · 15 = 8 · 30 exactly.
        let g = stars(16, &[(15, 0, 15)]);
        assert_eq!(Permutation::load_balancing(&g, 9).apply(15), 0);
    }

    #[test]
    fn load_balancing_plants_at_most_sixteen_hubs() {
        // 17 stars of 10 leaves, centres 0, 11, …, 176, on 300 vertices:
        // 300 · 10 ≥ 8 · 340, so all 17 centres qualify; the 16 lowest are
        // planted and centre 176 keeps a drawn id past them.
        let centres: Vec<(Vid, Vid, usize)> = (0..17).map(|i| (11 * i, 11 * i + 1, 10)).collect();
        let g = stars(300, &centres);
        let (p, r) = (
            Permutation::load_balancing(&g, 2),
            Permutation::random(300, 2),
        );
        assert_bijection(&p);
        let planted: Vec<Vid> = centres[..16].iter().map(|&(c, ..)| c).collect();
        for (new, &centre) in planted.iter().enumerate() {
            assert_eq!(p.apply(centre), new, "centre {centre}");
        }
        assert!(
            r.apply(176) >= 16,
            "the draw must not hand 176 a planted id"
        );
        assert_only_swapped(&p, &r, &planted);
    }

    #[test]
    fn load_balancing_without_hubs_is_the_random_draw() {
        // A path's degrees are at most 2 / (2 - 2/n) times the mean; an
        // edgeless graph has no hub though `0 · n ≥ 8 · 0`; a 14-leaf star
        // on 15 vertices misses the gate (15 · 14 = 210 < 8 · 28 = 224);
        // no graph on n ≤ 2 vertices has a hub.
        for g in [
            path_graph(100),
            CsrGraph::from_edges(EdgeList::new(50)),
            stars(15, &[(14, 0, 14)]),
            CsrGraph::from_edges(EdgeList::new(0)),
            CsrGraph::from_edges(EdgeList::new(1)),
            CsrGraph::from_edges(EdgeList::new(2)),
            path_graph(2),
        ] {
            let n = g.num_vertices();
            let p = Permutation::load_balancing(&g, 4);
            assert_eq!(p.len(), n);
            assert_eq!(p.forward(), Permutation::random(n, 4).forward());
            assert_bijection(&p);
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
