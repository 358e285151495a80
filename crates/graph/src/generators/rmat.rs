//! RMAT / Kronecker graphs (Graph500 style).
//!
//! Stand-in for the paper's skewed-degree graphs (twitter7, sk-2005,
//! uk-2002, MOLIERE_2016): heavy-tailed degree distribution, one or a few
//! giant components plus a fringe of small ones. The skew is also what
//! creates the imbalanced all-to-all pattern of Figure 3.

use crate::csr::{on_ranges, try_filled};
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

    /// Quadrant probabilities nonnegative and summing to at most 1, and a
    /// noise fraction in `[0, 1]` (NaN fails every comparison, so it is
    /// refused too). That keeps every level's `a ≤ a + b ≤ a + b + c`
    /// finite, which is what [`quadrant`] relies on.
    fn validate(&self) -> Result<(), BuildError> {
        let d = 1.0 - self.a - self.b - self.c;
        if self.a >= 0.0
            && self.b >= 0.0
            && self.c >= 0.0
            && d >= -1e-9
            && (0.0..=1.0).contains(&self.noise)
        {
            Ok(())
        } else {
            Err(BuildError::InvalidParams(format!(
                "invalid RMAT parameters a={} b={} c={} noise={}: a, b and c \
                 must be nonnegative with a + b + c <= 1, and noise in [0, 1]",
                self.a, self.b, self.c, self.noise
            )))
        }
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

/// [`rmat`], returning a [`BuildError`] where `params` are invalid, where
/// `usize` cannot number `2^scale` vertices or where the host cannot hold
/// the graph.
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
    params.validate()?;
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
/// on threads of their own (the first on the calling thread).
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
    on_ranges(out.chunks_mut(chunk), |i, slice| {
        let mut rng = rng.clone();
        rng.set_word_pos((i * chunk) as u128 * words_per_edge);
        for edge in slice {
            *edge = sample_edge(&mut rng, scale, params);
        }
    });
}

/// The quadrant a draw `r` picks, as its `(u, v)` bits: top-left below
/// `a`, top-right below `a + b`, bottom-left below `a + b + c`, else
/// bottom-right. Comparisons instead of branches, because the draw is a
/// coin flip; with `a, b, c ≥ 0` the three bounds ascend, so this picks
/// what the `if` chain over the same sums picked.
pub(crate) fn quadrant(r: f64, a: f64, b: f64, c: f64) -> (usize, usize) {
    let (ab, abc) = (a + b, a + b + c);
    let u = r >= ab;
    let v = ((r >= a) & (r < ab)) | (r >= abc);
    (usize::from(u), usize::from(v))
}

/// Draws one edge by descending `scale` levels of the recursive matrix.
fn sample_edge(rng: &mut ChaCha8Rng, scale: u32, params: &RmatParams) -> (Vid, Vid) {
    let (mut u, mut v) = (0usize, 0usize);
    let (mut a, mut b, mut c) = (params.a, params.b, params.c);
    for _ in 0..scale {
        let (du, dv) = quadrant(rng.random(), a, b, c);
        u = (u << 1) | du;
        v = (v << 1) | dv;
        // Per-level noise keeps the distribution from being exactly
        // self-similar (standard Graph500 trick).
        if params.noise > 0.0 {
            let jitter =
                |x: f64, r: f64| (x * (1.0 - params.noise) + x * 2.0 * params.noise * r).max(0.0);
            a = jitter(a, rng.random());
            b = jitter(b, rng.random());
            c = jitter(c, rng.random());
            let total = a + b + c;
            // Multiplying by 1.0 is exact, so the rescale needs no branch.
            let scale_back = if total >= 1.0 { 0.999 / total } else { 1.0 };
            a *= scale_back;
            b *= scale_back;
            c *= scale_back;
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
    fn quadrant_agrees_with_the_if_chain_on_boundary_draws() {
        // The `if` chain `sample_edge` ran before it became branch-free.
        let chain = |r: f64, a: f64, b: f64, c: f64| {
            if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            }
        };
        // A jitter at noise 1 drawing 0 clamps to exactly 0.
        let zeroed = |x: f64| (x * (1.0 - 1.0) + x * 2.0 * 1.0 * 0.0).max(0.0);
        let g = RmatParams::graph500();
        let params = [
            (g.a, g.b, g.c),
            (g.a, zeroed(g.b), g.c),
            (g.a, g.b, zeroed(g.c)),
            (g.a, zeroed(g.b), zeroed(g.c)),
            (zeroed(g.a), g.b, g.c),
            (0.25, 0.25, 0.25),
        ];
        for (a, b, c) in params {
            for edge in [0.0, a, a + b, a + b + c] {
                for r in [edge.next_down(), edge, edge.next_up()] {
                    assert_eq!(
                        quadrant(r, a, b, c),
                        chain(r, a, b, c),
                        "r={r} a={a} b={b} c={c}"
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_params_are_a_typed_error() {
        let g = RmatParams::graph500();
        for bad in [
            RmatParams { a: f64::NAN, ..g },
            RmatParams { b: -0.01, ..g },
            RmatParams {
                a: 0.9,
                b: 0.9,
                c: 0.9,
                ..g
            },
            RmatParams {
                noise: f64::NAN,
                ..g
            },
            RmatParams { noise: 1.5, ..g },
            RmatParams { noise: -0.1, ..g },
        ] {
            let e = try_rmat(4, 2, bad, 1).unwrap_err();
            assert!(matches!(e, BuildError::InvalidParams(_)), "{bad:?}: {e}");
            assert!(e.to_string().contains("invalid RMAT"), "{e}");
        }
        let flat = RmatParams { noise: 0.0, ..g };
        assert!(try_rmat(4, 2, flat, 1).is_ok());
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
