//! Compressed sparse column matrices.

use crate::Vid;
use lacc_graph::{CsrGraph, Idx};

/// A sparse matrix in CSC form with values of type `T` and `I`-width row
/// indices.
///
/// `Pattern` (`T = ()`) is the adjacency-matrix case LACC uses: the
/// `(Select2nd, min)` semiring never reads edge values.
#[derive(Clone, Debug, PartialEq)]
pub struct Csc<T, I: Idx = Vid> {
    nrows: usize,
    ncols: usize,
    colptr: Vec<usize>,
    rowidx: Vec<I>,
    values: Vec<T>,
}

/// Pattern-only sparse matrix (adjacency structure).
pub type Pattern<I = Vid> = Csc<(), I>;

impl<T: Copy, I: Idx> Csc<T, I> {
    /// Builds from triples `(row, col, value)`; duplicates are not allowed.
    pub fn from_triples(nrows: usize, ncols: usize, mut triples: Vec<(Vid, Vid, T)>) -> Self {
        triples.sort_unstable_by_key(|&(r, c, _)| (c, r));
        debug_assert!(
            triples
                .windows(2)
                .all(|w| (w[0].0, w[0].1) != (w[1].0, w[1].1)),
            "duplicate entries in triples"
        );
        let mut colptr = vec![0usize; ncols + 1];
        for &(_, c, _) in &triples {
            assert!(c < ncols, "column {c} out of range");
            colptr[c + 1] += 1;
        }
        for c in 0..ncols {
            colptr[c + 1] += colptr[c];
        }
        let mut rowidx = Vec::with_capacity(triples.len());
        let mut values = Vec::with_capacity(triples.len());
        for (r, c, v) in triples {
            assert!(r < nrows, "row {r} out of range");
            let _ = c;
            rowidx.push(I::from_usize(r));
            values.push(v);
        }
        Csc {
            nrows,
            ncols,
            colptr,
            rowidx,
            values,
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

    /// Row indices and values of column `c`.
    pub fn col_entries(&self, c: usize) -> impl Iterator<Item = (Vid, T)> + '_ {
        let range = self.colptr[c]..self.colptr[c + 1];
        self.rowidx[range.clone()]
            .iter()
            .zip(&self.values[range])
            .map(|(&r, &v)| (r.idx(), v))
    }

    /// Iterates over all entries as `(row, col, value)` in column order.
    pub fn triples(&self) -> impl Iterator<Item = (Vid, Vid, T)> + '_ {
        (0..self.ncols).flat_map(move |c| self.col_entries(c).map(move |(r, v)| (r, c, v)))
    }
}

impl<I: Idx> Pattern<I> {
    /// Builds the adjacency pattern of a symmetric graph.
    pub fn from_graph(g: &CsrGraph<I>) -> Pattern<I> {
        // CSR of a symmetric graph is also its CSC.
        let n = g.num_vertices();
        Csc {
            nrows: n,
            ncols: n,
            colptr: g.offsets().to_vec(),
            rowidx: g.targets().to_vec(),
            values: vec![(); g.num_directed_edges()],
        }
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
    fn from_triples_structure() {
        let m: Csc<i32> = Csc::from_triples(3, 4, vec![(0, 1, 10), (2, 1, 20), (1, 3, 30)]);
        assert_eq!((m.nrows(), m.ncols(), m.nnz()), (3, 4, 3));
        assert_eq!(m.col(0), &[] as &[usize]);
        assert_eq!(m.col(1), &[0, 2]);
        let e: Vec<_> = m.col_entries(3).collect();
        assert_eq!(e, vec![(1, 30)]);
    }

    #[test]
    fn triples_roundtrip() {
        let t = vec![(0, 0, 1), (1, 2, 2), (0, 2, 3)];
        let m: Csc<i32> = Csc::from_triples(2, 3, t);
        let back: Vec<_> = m.triples().collect();
        assert_eq!(back, vec![(0, 0, 1), (0, 2, 3), (1, 2, 2)]);
    }

    #[test]
    fn pattern_from_graph_matches_adjacency() {
        let g = path_graph(4);
        let a = Pattern::from_graph(&g);
        assert_eq!(a.nnz(), 6);
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
        let n: Vec<_> = narrow.triples().collect();
        let w: Vec<_> = wide.triples().collect();
        assert_eq!(n, w);
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
