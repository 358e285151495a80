//! The CSC pattern matrix and its row-major mirror.

use crate::Vid;
use lacc_graph::{CsrGraph, Idx};

/// The adjacency pattern of a graph in CSC form, with `I`-width row
/// indices and no values: the `(Select2nd, min)` semiring LACC runs on
/// never reads an edge value.
#[derive(Clone, Debug, PartialEq)]
pub struct Pattern<I: Idx = Vid> {
    nrows: usize,
    ncols: usize,
    colptr: Vec<usize>,
    rowidx: Vec<I>,
}

impl<I: Idx> Pattern<I> {
    /// Builds the adjacency pattern of a symmetric graph.
    pub fn from_graph(g: &CsrGraph<I>) -> Pattern<I> {
        // CSR of a symmetric graph is also its CSC.
        let n = g.num_vertices();
        Pattern {
            nrows: n,
            ncols: n,
            colptr: g.offsets().to_vec(),
            rowidx: g.targets().to_vec(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rowidx.len()
    }

    /// Row indices of column `c`.
    pub fn col(&self, c: usize) -> &[I] {
        &self.rowidx[self.colptr[c]..self.colptr[c + 1]]
    }
}

/// Row-major storage of a pattern: for each row, its column indices.
///
/// [`CsrMirror::from_parts`] adopts rows **in the order given**: the
/// distributed block build stores its filter output as is, and the kernels
/// that read it rely on [`crate::Monoid`] being commutative as well as
/// associative instead of on a column order.
///
/// Built once per matrix (`O(nnz)`) and reused across iterations; the
/// matrix is static for the lifetime of a connected-components run.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMirror<I: Idx = Vid> {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colidx: Vec<I>,
}

impl<I: Idx> CsrMirror<I> {
    /// Adopts a block already laid out row by row: the column ids of row
    /// `i` are `colidx[rowptr[i]..rowptr[i + 1]]`, in any order and without
    /// duplicates. Nothing is copied or reordered; `colidx` is trimmed to
    /// exact capacity, since it stays resident for the life of the matrix.
    ///
    /// Panics unless `rowptr` has `nrows + 1` nondecreasing offsets from 0
    /// to `colidx.len()`. Column ids are range-checked in debug builds only
    /// — every reader indexes with a bounds check, so a bad id panics there
    /// rather than corrupting anything.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        mut colidx: Vec<I>,
    ) -> CsrMirror<I> {
        assert_eq!(rowptr.len(), nrows + 1, "rowptr length");
        assert_eq!(rowptr[0], 0, "rowptr must start at 0");
        assert!(rowptr.windows(2).all(|w| w[0] <= w[1]), "rowptr decreases");
        assert_eq!(rowptr[nrows], colidx.len(), "rowptr does not cover colidx");
        debug_assert!(
            colidx.iter().all(|c| c.idx() < ncols),
            "column out of range"
        );
        colidx.shrink_to_fit();
        CsrMirror {
            nrows,
            ncols,
            rowptr,
            colidx,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// Column indices of row `i`, in the order given.
    pub fn row(&self, i: usize) -> &[I] {
        &self.colidx[self.rowptr[i]..self.rowptr[i + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacc_graph::generators::path_graph;
    use lacc_graph::EdgeList;

    #[test]
    fn pattern_from_graph_matches_adjacency() {
        let g = path_graph(4);
        let a = Pattern::from_graph(&g);
        assert_eq!((a.nrows(), a.ncols(), a.nnz()), (4, 4, 6));
        assert_eq!(a.col(1), &[0, 2]);
        assert_eq!(a.col(0), &[1]);
    }

    #[test]
    fn narrow_pattern_matches_default() {
        let g = path_graph(4);
        let narrow = Pattern::from_graph(&g.try_narrow::<u32>().unwrap());
        let wide = Pattern::from_graph(&g);
        assert_eq!(narrow.nnz(), wide.nnz());
        assert_eq!(narrow.col(1), &[0u32, 2u32]);
        assert_eq!(
            (narrow.nrows(), narrow.ncols()),
            (wide.nrows(), wide.ncols())
        );
        for c in 0..wide.ncols() {
            let n: Vec<usize> = narrow.col(c).iter().map(|r| r.idx()).collect();
            assert_eq!(n, wide.col(c));
        }
    }

    #[test]
    fn from_parts_keeps_row_order_and_drops_growth_slack() {
        // Unsorted row, empty row, empty columns; a vector with slack.
        let mut colidx: Vec<u32> = Vec::with_capacity(64);
        colidx.extend([6, 2, 0, 2, 7, 6]);
        let m = CsrMirror::from_parts(4, 9, vec![0, 3, 3, 5, 6], colidx);
        assert_eq!((m.nrows(), m.ncols(), m.nnz()), (4, 9, 6));
        assert_eq!(m.row(0), &[6, 2, 0]);
        assert_eq!(m.row(1), &[] as &[u32]);
        assert_eq!(m.row(3), &[6]);
        assert_eq!(m.colidx.capacity(), m.colidx.len());
        let empty = CsrMirror::<u32>::from_parts(0, 0, vec![0], Vec::new());
        assert_eq!((empty.nrows(), empty.ncols(), empty.nnz()), (0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "rowptr does not cover colidx")]
    fn from_parts_rejects_short_rowptr() {
        let _ = CsrMirror::<u32>::from_parts(2, 4, vec![0, 1, 2], vec![0, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "rowptr decreases")]
    fn from_parts_rejects_decreasing_rowptr() {
        let _ = CsrMirror::<u32>::from_parts(2, 4, vec![0, 3, 2], vec![0, 1]);
    }

    #[test]
    fn empty_matrix() {
        let g: CsrGraph = CsrGraph::from_edges(EdgeList::new(3));
        let a = Pattern::from_graph(&g);
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.col(2), &[] as &[usize]);
    }

    use lacc_graph::CsrGraph;
}
