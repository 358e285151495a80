//! RMAT / Kronecker graphs (Graph500 style).
//!
//! Stand-in for the paper's skewed-degree graphs (twitter7, sk-2005,
//! uk-2002, MOLIERE_2016): heavy-tailed degree distribution, one or a few
//! giant components plus a fringe of small ones. The skew is also what
//! creates the imbalanced all-to-all pattern of Figure 3.

use crate::csr::try_filled;
use crate::{BuildError, CsrGraph, Vid};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

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

/// Fewest edges worth a sampling thread of their own: they take
/// milliseconds to draw, a spawn tens of microseconds.
const MIN_EDGES_PER_WORKER: usize = 1 << 14;

/// Generates an RMAT graph with `2^scale` vertices and `edge_factor *
/// 2^scale` sampled undirected edges (before dedup).
pub fn rmat(scale: u32, edge_factor: usize, params: RmatParams, seed: u64) -> CsrGraph {
    try_rmat(scale, edge_factor, params, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// [`rmat`], returning a [`BuildError`] where `usize` cannot number
/// `2^scale` vertices or the host cannot hold the graph.
///
/// The edges are sampled on up to `available_parallelism()` threads, each
/// filling a contiguous range of the edge list from its own seek into the
/// seed's stream; the graph is the same for every thread count.
pub fn try_rmat(
    scale: u32,
    edge_factor: usize,
    params: RmatParams,
    seed: u64,
) -> Result<CsrGraph, BuildError> {
    params.validate();
    // Fail before sampling anything: 2^scale must fit the vertex index.
    // (Narrower targets get the same guard from `CsrGraph::try_narrow` /
    // `try_from_pairs`, which this feeds into.)
    let n: usize = 1usize.checked_shl(scale).ok_or(BuildError::ScaleOverflow {
        generator: "rmat",
        scale,
    })?;
    // An edge count past `usize` is refused like any list the host
    // cannot hold.
    let m = edge_factor.saturating_mul(n);
    let mut pairs = try_filled("the edge list", m, (0, 0))?;
    let workers = std::thread::available_parallelism()
        .map_or(1, |t| t.get())
        .min(m / MIN_EDGES_PER_WORKER)
        .max(1);
    sample_edges(scale, &params, &super::rng(seed), &mut pairs, workers);
    CsrGraph::try_from_pairs(n, &pairs)
}

/// Fills `out` with edges `0..out.len()` of the RMAT stream `rng` (a
/// generator at word 0), split into `workers` contiguous chunks sampled
/// on their own threads.
///
/// Every edge reads the same number of stream words, so edge `k`'s draws
/// start at word `k · words_per_edge`: each chunk seeks a clone of `rng`
/// to its first edge and reads exactly the words a single pass would, and
/// `out` does not depend on `workers`.
pub(crate) fn sample_edges(
    scale: u32,
    params: &RmatParams,
    rng: &ChaCha8Rng,
    out: &mut [(Vid, Vid)],
    workers: usize,
) {
    // Per level one quadrant draw, plus three jitter draws with noise;
    // each `f64` is two words.
    let words_per_edge = u128::from(scale) * if params.noise > 0.0 { 8 } else { 2 };
    let chunk = out.len().div_ceil(workers).max(1);
    std::thread::scope(|s| {
        for (i, slice) in out.chunks_mut(chunk).enumerate() {
            let mut rng = rng.clone();
            rng.set_word_pos((i * chunk) as u128 * words_per_edge);
            s.spawn(move || {
                for edge in slice {
                    *edge = sample_edge(&mut rng, scale, params);
                }
            });
        }
    });
}

/// Draws one edge by descending `scale` levels of the recursive matrix.
fn sample_edge(rng: &mut ChaCha8Rng, scale: u32, params: &RmatParams) -> (Vid, Vid) {
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
            let jitter =
                |x: f64, r: f64| (x * (1.0 - params.noise) + x * 2.0 * params.noise * r).max(0.0);
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
    (u, v)
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
    fn an_oversized_scale_is_a_typed_error() {
        let e = try_rmat(64, 1, RmatParams::graph500(), 1).unwrap_err();
        assert_eq!(
            e,
            BuildError::ScaleOverflow {
                generator: "rmat",
                scale: 64
            }
        );
    }

    /// FNV-1a over the CSR offsets, then the targets, as `u64` words.
    fn digest(g: &CsrGraph) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &w in g.offsets().iter().chain(g.targets()) {
            for byte in (w as u64).to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn edges_do_not_depend_on_the_worker_count() {
        // Digests of the graphs the single-threaded sampler drew.
        // Scale 9 with noise reads 72 words an edge and the noiseless
        // scale 10 reads 20, so most chunks start mid-block.
        let flat = RmatParams {
            noise: 0.0,
            ..RmatParams::graph500()
        };
        let pins = [
            (12, 16, RmatParams::graph500(), 7, 0x3e2e_df8c_f843_33c2),
            (11, 8, RmatParams::web(), 3, 0x429e_1cfb_4d62_a8f8),
            (9, 8, RmatParams::graph500(), 5, 0x2302_57a8_91e0_387a),
            (10, 8, flat, 9, 0xc72d_9e08_7a95_0de3),
        ];
        for (scale, edge_factor, params, seed, pin) in pins {
            let n = 1usize << scale;
            let mut first = None;
            for workers in [1, 2, 3, 4, 7] {
                let mut pairs = vec![(0, 0); edge_factor * n];
                sample_edges(
                    scale,
                    &params,
                    &crate::generators::rng(seed),
                    &mut pairs,
                    workers,
                );
                let g = CsrGraph::try_from_pairs(n, &pairs).unwrap();
                assert_eq!(digest(&g), pin, "scale {scale}, {workers} workers");
                assert_eq!(first.get_or_insert_with(|| pairs.clone()), &pairs);
            }
            assert_eq!(digest(&rmat(scale, edge_factor, params, seed)), pin);
        }
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
