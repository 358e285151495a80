//! RMAT / Kronecker graphs (Graph500 style).
//!
//! Stand-in for the paper's skewed-degree graphs (twitter7, sk-2005,
//! uk-2002, MOLIERE_2016): heavy-tailed degree distribution, one or a few
//! giant components plus a fringe of small ones. The skew is also what
//! creates the imbalanced all-to-all pattern of Figure 3.

use crate::{BuildError, CsrGraph, EdgeList, Vid};
use rand::Rng;

/// Quadrant probabilities of the recursive matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatParams {
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// Noise added per level to avoid exact degree ties.
    pub noise: f64,
}

impl RmatParams {
    /// The Graph500 reference parameters (a=0.57, b=0.19, c=0.19).
    pub fn graph500() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            noise: 0.1,
        }
    }

    /// Milder skew, closer to a web crawl.
    pub fn web() -> Self {
        RmatParams {
            a: 0.45,
            b: 0.22,
            c: 0.22,
            noise: 0.05,
        }
    }

    fn validate(&self) {
        let d = 1.0 - self.a - self.b - self.c;
        assert!(
            self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0 && d >= -1e-9,
            "invalid RMAT quadrant probabilities"
        );
    }
}

/// Generates an RMAT graph with `2^scale` vertices and `edge_factor *
/// 2^scale` sampled undirected edges (before dedup).
pub fn rmat(scale: u32, edge_factor: usize, params: RmatParams, seed: u64) -> CsrGraph {
    try_rmat(scale, edge_factor, params, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// [`rmat`], returning a [`BuildError`] where the host cannot hold the
/// graph.
pub fn try_rmat(
    scale: u32,
    edge_factor: usize,
    params: RmatParams,
    seed: u64,
) -> Result<CsrGraph, BuildError> {
    params.validate();
    // Fail before sampling anything: 2^scale must fit the vertex index.
    // (Narrower targets get the same guard from `CsrGraph::try_narrow` /
    // `try_from_edges`, which this feeds into.)
    let n: usize = 1usize.checked_shl(scale).unwrap_or_else(|| {
        panic!(
            "rmat scale {scale} overflows the {}-bit vertex index \
             (2^{scale} vertices)",
            usize::BITS
        )
    });
    // An edge count past `usize` is refused like any list the host
    // cannot hold.
    let m = edge_factor.saturating_mul(n);
    let mut rng = super::rng(seed);
    let mut el = EdgeList::new(n);
    el.try_reserve(m)?;
    for _ in 0..m {
        let (mut u, mut v) = (0usize, 0usize);
        let (mut a, mut b, mut c) = (params.a, params.b, params.c);
        for level in 0..scale {
            let r: f64 = rng.random();
            let bit = 1usize << (scale - 1 - level);
            if r < a {
                // top-left: no bits set
            } else if r < a + b {
                v |= bit;
            } else if r < a + b + c {
                u |= bit;
            } else {
                u |= bit;
                v |= bit;
            }
            // Per-level noise keeps the distribution from being exactly
            // self-similar (standard Graph500 trick).
            if params.noise > 0.0 {
                let jitter = |x: f64, r: f64| {
                    (x * (1.0 - params.noise) + x * 2.0 * params.noise * r).max(0.0)
                };
                a = jitter(a, rng.random());
                b = jitter(b, rng.random());
                c = jitter(c, rng.random());
                let total = a + b + c;
                if total >= 1.0 {
                    let scale_back = 0.999 / total;
                    a *= scale_back;
                    b *= scale_back;
                    c *= scale_back;
                }
            }
        }
        el.push(u as Vid, v as Vid);
    }
    CsrGraph::try_from_edges(el)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_edge_count_past_usize_is_refused() {
        let e = try_rmat(2, usize::MAX, RmatParams::graph500(), 5).unwrap_err();
        assert!(matches!(e, BuildError::OutOfMemory { .. }), "{e}");
    }

    #[test]
    fn sizes_match_scale() {
        let g = rmat(8, 8, RmatParams::graph500(), 5);
        assert_eq!(g.num_vertices(), 256);
        assert!(g.num_undirected_edges() <= 8 * 256);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn deterministic() {
        let p = RmatParams::graph500();
        assert_eq!(rmat(6, 4, p, 11), rmat(6, 4, p, 11));
    }

    #[test]
    fn skewed_degrees() {
        let g = rmat(10, 16, RmatParams::graph500(), 2);
        let max_deg = (0..g.num_vertices()).map(|v| g.degree(v)).max().unwrap();
        let avg = g.average_degree();
        // Heavy tail: the max degree should dwarf the average.
        assert!(
            (max_deg as f64) > 8.0 * avg,
            "expected skew, max {max_deg} avg {avg}"
        );
    }

    #[test]
    #[should_panic(expected = "overflows the")]
    fn oversized_scale_is_a_descriptive_error() {
        // 2^64 vertices cannot be indexed: the guard fires before any
        // edge is sampled (and before any allocation).
        rmat(64, 1, RmatParams::graph500(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid RMAT")]
    fn bad_params_panic() {
        rmat(
            4,
            2,
            RmatParams {
                a: 0.9,
                b: 0.9,
                c: 0.9,
                noise: 0.0,
            },
            1,
        );
    }
}
