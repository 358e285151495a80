//! 2D-distributed pattern matrices.

use super::dvec::block_range;
use crate::serial::CsrMirror;
use crate::Vid;
use dmsim::Grid2d;
use lacc_graph::permute::Permutation;
use lacc_graph::{CsrGraph, Idx};

/// The local view of an `n × n` symmetric pattern matrix distributed on a
/// square process grid: rank `(i, j)` holds block `A_ij` (rows in row
/// block `i`, columns in column block `j`) with block-local indices.
///
/// The block is stored **row-major, once**: the dense multiply pulls along
/// its rows and SpMSpV pushes along them, since stored row `v` of block
/// `(i, j)` is column `v` of `(j, i)`. The one thing derived from it is
/// each row's least and greatest column, recorded by the same fill pass
/// ([`row_extremes`](Self::row_extremes)), from which the multiply by the
/// identity vector reads its whole result.
/// Block indices are stored at width `I`; the narrowing — like the
/// load-balancing relabeling — happens per rank while slicing, so no
/// globally narrowed or permuted copy of the graph is ever materialized.
/// Callers must have checked `ensure_fits::<I>(n)` first.
#[derive(Clone, Debug)]
pub struct DistMat<I: Idx = Vid> {
    n: usize,
    grid: Grid2d,
    row_range: (usize, usize),
    col_range: (usize, usize),
    rows: CsrMirror<I>,
    /// Per stored row, its least and greatest block-local column; `(0, 0)`
    /// for an empty row.
    extremes: Vec<(I, I)>,
}

impl<I: Idx> DistMat<I> {
    /// Rank `rank`'s block of `g` in `g`'s own numbering — the
    /// identity-relabeling case of
    /// [`from_graph_permuted`](Self::from_graph_permuted), which is the
    /// entry point for a load-balanced run.
    ///
    /// A real run would read pre-partitioned input from disk; here every
    /// rank slices its block from the shared, borrowed graph.
    pub fn from_graph(g: &CsrGraph, grid: Grid2d, rank: usize) -> Self {
        Self::build(g, grid, rank, |v| v)
    }

    /// Rank `rank`'s block of `g` relabeled by `perm` (the random symmetric
    /// permutation CombBLAS applies for load balance, §V-B), built straight
    /// from the original graph: identical to
    /// `from_graph(&perm.permute_graph(g), grid, rank)` without ever
    /// materializing the permuted graph.
    pub fn from_graph_permuted(
        g: &CsrGraph,
        perm: &Permutation,
        grid: Grid2d,
        rank: usize,
    ) -> Self {
        assert_eq!(perm.len(), g.num_vertices(), "permutation length mismatch");
        Self::build(g, grid, rank, |v| perm.apply(v))
    }

    /// The one build routine: `relabel` maps a source id to its relabeled
    /// id, for rows and columns alike.
    ///
    /// Two sweeps of `g` in source order, no sort, no transpose. The first
    /// counts each owned row's columns in the column block into `rowptr`;
    /// the second writes them at their final offsets. Reading the source
    /// rows in order streams `g`'s target array instead of fetching each
    /// relabeled row from a random place in it, and the block is allocated
    /// once, at its exact size plus one spare slot. A row's columns stay
    /// in source order ([`row_mirror`](Self::row_mirror) says why no
    /// reader cares), so the fill records each row's extremes as it goes.
    fn build(g: &CsrGraph, grid: Grid2d, rank: usize, relabel: impl Fn(Vid) -> usize) -> Self {
        assert_eq!(grid.rows(), grid.cols(), "LACC requires a square grid");
        let n = g.num_vertices();
        let (i, j) = grid.coords_of(rank);
        let row_range = block_range(n, grid.rows(), i);
        let col_range = block_range(n, grid.cols(), j);
        let (nrows, ncols) = (row_range.1 - row_range.0, col_range.1 - col_range.0);
        let relabel = &relabel;
        // Source rows this rank owns, with their block-local row, ascending
        // in source id.
        let owned = || {
            (0..n).filter_map(move |u| {
                let r = relabel(u).wrapping_sub(row_range.0);
                (r < nrows).then(|| (r, g.neighbors(u)))
            })
        };
        let col = |v: Vid| relabel(v).wrapping_sub(col_range.0);
        let mut rowptr = vec![0usize; nrows + 1];
        for (r, nbrs) in owned() {
            rowptr[r + 1] = nbrs.iter().map(|&v| usize::from(col(v) < ncols)).sum();
        }
        for r in 0..nrows {
            rowptr[r + 1] += rowptr[r];
        }
        // Whether a relabeled neighbor lands in the column block is a coin
        // flip the branch predictor loses, so the fill is branch-free: a
        // dropped column goes to the spare slot at `nnz`, where it cannot
        // reach a neighboring row, only a keeper advances the cursor, and
        // a dropped column enters the extremes as the identity of each.
        let nnz = rowptr[nrows];
        let mut colidx: Vec<I> = vec![I::zero(); nnz + 1];
        let mut extremes: Vec<(I, I)> = vec![(I::zero(), I::zero()); nrows];
        for (r, nbrs) in owned() {
            let (mut at, mut lo, mut hi) = (rowptr[r], usize::MAX, 0);
            for &v in nbrs {
                let c = col(v);
                let keep = c < ncols;
                colidx[if keep { at } else { nnz }] = I::from_usize(if keep { c } else { 0 });
                at += usize::from(keep);
                lo = lo.min(if keep { c } else { usize::MAX });
                hi = hi.max(if keep { c } else { 0 });
            }
            // An empty row leaves `lo` above `hi` and records `(0, 0)`.
            extremes[r] = (I::from_usize(lo.min(hi)), I::from_usize(hi));
        }
        colidx.truncate(nnz);
        DistMat {
            n,
            grid,
            row_range,
            col_range,
            rows: CsrMirror::from_parts(nrows, ncols, rowptr, colidx),
            extremes,
        }
    }

    /// Global matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The process grid.
    pub fn grid(&self) -> Grid2d {
        self.grid
    }

    /// Global row range of the local block.
    pub fn row_range(&self) -> (usize, usize) {
        self.row_range
    }

    /// Global column range of the local block.
    pub fn col_range(&self) -> (usize, usize) {
        self.col_range
    }

    /// The stored row-major block (block-local indices). A row's columns
    /// are in source order, **not ascending**: [`crate::Monoid`] is
    /// commutative and associative and the distributed `mxv` only admits
    /// [`super::NarrowVal`] values — unsigned integers, `bool`, pairs of
    /// them — so no combine order can change a result.
    pub fn row_mirror(&self) -> &CsrMirror<I> {
        &self.rows
    }

    /// Per stored row, its least and greatest block-local column, as the
    /// build recorded them: what a sorted block (CombBLAS' DCSC) reads off
    /// a row's first and last entries. An empty row holds `(0, 0)`; the
    /// row mirror tells it apart.
    pub fn row_extremes(&self) -> &[(I, I)] {
        &self.extremes
    }

    /// Local nonzero count.
    pub fn local_nnz(&self) -> usize {
        self.rows.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmsim::run_spmd;
    use lacc_graph::generators::{erdos_renyi_gnm, path_graph};
    use lacc_graph::EdgeList;

    /// The block's entries as global `(row, column)` pairs, sorted.
    fn entries<I: Idx>(blk: &DistMat<I>) -> Vec<(usize, usize)> {
        let (rs, cs) = (blk.row_range().0, blk.col_range().0);
        let rows = blk.row_mirror();
        let mut out: Vec<(usize, usize)> = (0..rows.nrows())
            .flat_map(|lr| rows.row(lr).iter().map(move |lc| (rs + lr, cs + lc.idx())))
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn blocks_partition_all_edges() {
        let g = erdos_renyi_gnm(50, 200, 3);
        let m = g.num_directed_edges();
        for p in [1usize, 4, 9, 16] {
            let grid = Grid2d::square(p);
            let total: usize = (0..p)
                .map(|r| DistMat::<Vid>::from_graph(&g, grid, r).local_nnz())
                .sum();
            assert_eq!(total, m, "p={p}");
        }
    }

    #[test]
    fn block_entries_match_global_graph() {
        let g = path_graph(11);
        let grid = Grid2d::square(4);
        let mut seen = 0;
        for r in 0..4 {
            let blk = DistMat::<Vid>::from_graph(&g, grid, r);
            let ((rs, re), (cs, ce)) = (blk.row_range(), blk.col_range());
            for (u, v) in entries(&blk) {
                assert!(g.has_edge(u, v));
                assert!((rs..re).contains(&u) && (cs..ce).contains(&v));
                seen += 1;
            }
        }
        assert_eq!(seen, g.num_directed_edges());
    }

    #[test]
    fn narrow_blocks_match_default_width() {
        let g = erdos_renyi_gnm(40, 120, 7);
        let grid = Grid2d::square(4);
        for r in 0..4 {
            let wide = DistMat::<Vid>::from_graph(&g, grid, r);
            let narrow = DistMat::<u32>::from_graph(&g, grid, r);
            assert_eq!(wide.local_nnz(), narrow.local_nnz());
            assert_eq!(entries(&wide), entries(&narrow), "rank {r}");
        }
    }

    #[test]
    fn block_is_the_transpose_of_its_mirror_block() {
        // What SpMSpV relies on: stored row v of block (i, j) lists the
        // columns of block (j, i) that hold v — with and without the
        // load-balancing relabeling, n not divisible by sqrt(p).
        let g = erdos_renyi_gnm(50, 200, 3);
        let perm = Permutation::random(50, 19);
        for p in [1usize, 4, 9, 16] {
            let grid = Grid2d::square(p);
            for permuted in [false, true] {
                let block = |r| match permuted {
                    true => DistMat::<u32>::from_graph_permuted(&g, &perm, grid, r),
                    false => DistMat::<u32>::from_graph(&g, grid, r),
                };
                for r in 0..p {
                    let (i, j) = grid.coords_of(r);
                    let mut flipped: Vec<(usize, usize)> = entries(&block(grid.rank_of(j, i)))
                        .into_iter()
                        .map(|(u, v)| (v, u))
                        .collect();
                    flipped.sort_unstable();
                    assert_eq!(
                        entries(&block(r)),
                        flipped,
                        "p={p} permuted={permuted} ({i},{j})"
                    );
                }
            }
        }
    }

    /// Row `r` of rank `rank`'s block of `g` relabeled by `perm`: the
    /// neighbors of source row `perm⁻¹(row0 + r)` whose new ids land in the
    /// column block, as block-local columns, in source order.
    fn oracle_rows(g: &CsrGraph, perm: &Permutation, grid: Grid2d, rank: usize) -> Vec<Vec<usize>> {
        let n = g.num_vertices();
        let (i, j) = grid.coords_of(rank);
        let (row0, row1) = block_range(n, grid.rows(), i);
        let (col0, col1) = block_range(n, grid.cols(), j);
        (row0..row1)
            .map(|r| {
                let nbrs = g.neighbors(perm.invert(r)).iter().map(|&v| perm.apply(v));
                nbrs.filter(|c| (col0..col1).contains(c))
                    .map(|c| c - col0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn fused_permuted_build_matches_slicing_a_permuted_graph() {
        fn check<I: Idx>(g: &CsrGraph, seed: u64) {
            let n = g.num_vertices();
            let random = Permutation::random(n, seed);
            let identity = Permutation::identity(n);
            let permuted = random.permute_graph(g);
            for p in [1usize, 4, 9, 16] {
                let grid = Grid2d::square(p);
                for r in 0..p {
                    let at = format!("{} n={n} p={p} rank={r}", I::NAME);
                    let blocks = [
                        (
                            "random",
                            DistMat::<I>::from_graph_permuted(g, &random, grid, r),
                            &random,
                        ),
                        (
                            "identity",
                            DistMat::<I>::from_graph_permuted(g, &identity, grid, r),
                            &identity,
                        ),
                        (
                            "unpermuted",
                            DistMat::<I>::from_graph(g, grid, r),
                            &identity,
                        ),
                    ];
                    for (name, blk, perm) in blocks {
                        let want = oracle_rows(g, perm, grid, r);
                        let rows = blk.row_mirror();
                        assert_eq!(rows.nrows(), want.len(), "{at} {name}");
                        let (cs, ce) = blk.col_range();
                        assert_eq!(rows.ncols(), ce - cs, "{at} {name}");
                        for (lr, want_row) in want.iter().enumerate() {
                            let got: Vec<usize> = rows.row(lr).iter().map(|c| c.idx()).collect();
                            assert_eq!(&got, want_row, "{at} {name} row {lr}");
                        }
                    }
                    // Slicing the materialized permuted graph stores the
                    // same entries, its rows ascending in the new ids.
                    let sliced = DistMat::<I>::from_graph(&permuted, grid, r);
                    let fused = &DistMat::<I>::from_graph_permuted(g, &random, grid, r);
                    assert_eq!(entries(fused), entries(&sliced), "{at}");
                    assert_eq!(fused.row_range(), sliced.row_range(), "{at}");
                    assert_eq!(fused.col_range(), sliced.col_range(), "{at}");
                }
            }
        }
        // A star: the hub's row holds half of the stored entries.
        let star = EdgeList::from_pairs(37, (0..37).filter(|&v| v != 5).map(|v| (5, v)));
        // Self loops, which the CSR drops, beside isolated vertices.
        let loops = [(0, 0), (2, 3), (3, 3), (5, 9), (7, 7), (12, 18), (18, 18)];
        let graphs = [
            CsrGraph::from_edges(EdgeList::new(0)),
            CsrGraph::from_edges(EdgeList::new(1)),
            // n below p.
            path_graph(3),
            // n not divisible by sqrt(p).
            path_graph(7),
            erdos_renyi_gnm(50, 200, 3),
            CsrGraph::from_edges(EdgeList::from_pairs(20, loops)),
            CsrGraph::from_edges(star),
        ];
        for (k, g) in graphs.iter().enumerate() {
            check::<u32>(g, 11 + k as u64);
            check::<Vid>(g, 11 + k as u64);
        }
    }

    #[test]
    fn recorded_extremes_are_each_rows_least_and_greatest_column() {
        let graphs = [
            CsrGraph::from_edges(EdgeList::new(1)),
            path_graph(3),
            path_graph(7),
            erdos_renyi_gnm(50, 200, 3),
            CsrGraph::from_edges(EdgeList::from_pairs(20, [(0, 0), (2, 3), (5, 9), (12, 18)])),
        ];
        for (k, g) in graphs.iter().enumerate() {
            let perm = Permutation::random(g.num_vertices(), 31 + k as u64);
            for p in [1usize, 4, 9, 16] {
                let grid = Grid2d::square(p);
                for r in 0..p {
                    let blocks = [
                        DistMat::<u32>::from_graph(g, grid, r),
                        DistMat::<u32>::from_graph_permuted(g, &perm, grid, r),
                    ];
                    for (permuted, blk) in blocks.iter().enumerate() {
                        let rows = blk.row_mirror();
                        assert_eq!(blk.row_extremes().len(), rows.nrows());
                        for (lr, &(lo, hi)) in blk.row_extremes().iter().enumerate() {
                            let cols = rows.row(lr).iter().map(|c| c.idx());
                            let want = match (cols.clone().min(), cols.max()) {
                                (Some(lo), Some(hi)) => (lo, hi),
                                _ => (0, 0),
                            };
                            let at = format!("graph {k} p={p} rank={r} permuted={permuted}");
                            assert_eq!((lo.idx(), hi.idx()), want, "{at} row {lr}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn works_inside_spmd() {
        let g = path_graph(9);
        let out = run_spmd(9, |c| {
            let blk = DistMat::<Vid>::from_graph(&g, Grid2d::square(9), c.rank());
            blk.local_nnz()
        })
        .unwrap();
        assert_eq!(out.iter().sum::<usize>(), g.num_directed_edges());
    }

    #[test]
    #[should_panic(expected = "square grid")]
    fn rejects_rectangular_grid() {
        let g = path_graph(4);
        DistMat::<Vid>::from_graph(&g, Grid2d::new(2, 1), 0);
    }
}
