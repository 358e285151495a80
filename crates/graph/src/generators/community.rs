//! Community graphs: many components with power-law size distribution.
//!
//! Stand-in for the protein-similarity networks (archaea, eukarya,
//! iso_m100): tens of thousands to millions of connected components whose
//! sizes follow a heavy tail, with dense Erdős–Rényi-like structure inside
//! each component. These are the graphs where LACC's sparsity exploitation
//! (Lemma 1) shines — Figure 7 shows most vertices converging within a few
//! iterations.

use crate::csr::try_filled;
use crate::{BuildError, CsrGraph, EdgeList, Vid};
use rand::Rng;

/// Generates a graph of `num_components` disjoint communities over ~`n`
/// vertices total.
///
/// Component sizes are drawn from a discrete power law with exponent
/// `alpha` (larger ⇒ more small components); within each component of size
/// `s`, `(degree * s / 2)` random intra-component edges are sampled and a
/// random spanning path is added so the community really is one component.
pub fn community_graph(
    n: usize,
    num_components: usize,
    degree: f64,
    alpha: f64,
    seed: u64,
) -> CsrGraph {
    try_community_graph(n, num_components, degree, alpha, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// [`community_graph`], returning a [`BuildError`] where the host cannot
/// hold the graph, and [`BuildError::InvalidParams`] where no graph has
/// exactly `num_components` communities (more of them than vertices, or
/// none for a vertex) or `degree` or `alpha` is out of range.
pub fn try_community_graph(
    n: usize,
    num_components: usize,
    degree: f64,
    alpha: f64,
    seed: u64,
) -> Result<CsrGraph, BuildError> {
    let refuse = |why: String| Err(BuildError::InvalidParams(why));
    if num_components > n || (num_components == 0 && n > 0) {
        return refuse(format!(
            "{num_components} components cannot split {n} vertices: \
             components must be at least 1 and at most the vertex count"
        ));
    }
    if !(degree.is_finite() && degree >= 0.0) {
        return refuse(format!(
            "degree must be finite and nonnegative, got {degree}"
        ));
    }
    if !(alpha.is_finite() && alpha > 0.0) {
        return refuse(format!("alpha must be finite and positive, got {alpha}"));
    }
    let mut rng = super::rng(seed);

    // Draw power-law weights, then scale to sizes summing to n.
    let mut weights: Vec<f64> = (0..num_components)
        .map(|_| {
            let u: f64 = rng.random::<f64>().max(1e-12);
            u.powf(-1.0 / alpha)
        })
        .collect();
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w = (*w / total) * n as f64;
    }
    let mut sizes: Vec<usize> = weights
        .iter()
        .map(|w| w.floor().max(1.0) as usize)
        .collect();
    // Adjust so sizes sum exactly to n (shave from the largest or pad the
    // smallest).
    let mut sum: usize = sizes.iter().sum();
    while sum > n {
        let i = sizes
            .iter()
            .enumerate()
            .max_by_key(|(_, &s)| s)
            .map(|(i, _)| i)
            .unwrap();
        if sizes[i] > 1 {
            sizes[i] -= 1;
            sum -= 1;
        } else {
            break;
        }
    }
    while sum < n {
        sizes[0] += 1;
        sum += 1;
    }

    let mut el = EdgeList::new(n);
    let mut base: Vid = 0;
    for &s in &sizes {
        if s >= 2 {
            // Random spanning path for guaranteed connectivity.
            let mut order = try_filled("a community's spanning path", s, 0)?;
            // Extra intra-community random edges reach the target degree.
            let extra = ((degree * s as f64 / 2.0) as usize).saturating_sub(s - 1);
            el.try_reserve((s - 1).saturating_add(extra))?;
            for (slot, v) in order.iter_mut().zip(base..) {
                *slot = v;
            }
            for i in (1..s).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            for w in order.windows(2) {
                el.push(w[0], w[1]);
            }
            for _ in 0..extra {
                let u = base + rng.random_range(0..s);
                let v = base + rng.random_range(0..s);
                el.push(u as Vid, v as Vid);
            }
        }
        base += s;
    }
    CsrGraph::try_from_edges(el)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DisjointSets;

    fn component_sizes(g: &CsrGraph) -> Vec<usize> {
        let mut ds = DisjointSets::new(g.num_vertices());
        for (u, v) in g.edges() {
            ds.union(u, v);
        }
        let labels = ds.canonical_labels();
        let mut counts = std::collections::HashMap::new();
        for l in labels {
            *counts.entry(l).or_insert(0usize) += 1;
        }
        let mut sizes: Vec<usize> = counts.into_values().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    #[test]
    fn component_count_close_to_target() {
        let g = community_graph(5_000, 200, 4.0, 1.5, 9);
        assert_eq!(g.num_vertices(), 5_000);
        let sizes = component_sizes(&g);
        // Every generated community is internally connected, and they are
        // vertex-disjoint, so the count is exact (singletons allowed).
        assert_eq!(sizes.len(), 200);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn heavy_tail() {
        let g = community_graph(10_000, 500, 3.0, 1.2, 4);
        let sizes = component_sizes(&g);
        // Largest community should be far bigger than the median.
        let median = sizes[sizes.len() / 2];
        assert!(
            sizes[0] > 10 * median.max(1),
            "sizes[0]={} median={}",
            sizes[0],
            median
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            community_graph(1000, 50, 3.0, 1.5, 77),
            community_graph(1000, 50, 3.0, 1.5, 77)
        );
    }

    #[test]
    fn impossible_parameters_are_refused_not_shrunk_or_panicked_on() {
        let refused = |n, comps, degree, alpha| {
            let e = try_community_graph(n, comps, degree, alpha, 1).unwrap_err();
            assert!(matches!(e, BuildError::InvalidParams(_)), "{e}");
            e.to_string()
        };
        let more = refused(10, 20, 8.0, 1.4);
        assert!(
            more.starts_with("20 components cannot split 10 vertices"),
            "{more}"
        );
        assert!(refused(10, 0, 8.0, 1.4).contains("components"));
        for degree in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(refused(10, 2, degree, 1.4).contains("degree"));
        }
        for alpha in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(refused(10, 2, 8.0, alpha).contains("alpha"));
        }
        // The edge of the contract: n singleton communities, and no vertex.
        assert_eq!(
            component_sizes(&community_graph(10, 10, 8.0, 1.4, 1)),
            [1; 10]
        );
        assert_eq!(community_graph(0, 0, 8.0, 1.4, 1).num_vertices(), 0);
    }

    #[test]
    fn single_component_case() {
        let g = community_graph(100, 1, 5.0, 1.5, 3);
        assert_eq!(component_sizes(&g).len(), 1);
    }
}
