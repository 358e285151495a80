//! Doubly compressed sparse columns.
//!
//! CombBLAS stores each local submatrix in DCSC (§V): when a matrix is
//! 2D-partitioned among many processes, most local blocks have far fewer
//! nonzero *columns* than total columns, so a plain CSC's `O(ncols)`
//! column-pointer array dominates memory. DCSC stores only the nonempty
//! columns (`jc`) plus a compressed pointer array — `O(nnz)` space
//! regardless of dimensions.
//!
//! Indices are generic over [`Idx`]; `Dcsc<u32>` halves index traffic in
//! the distributed kernels for blocks under 2^32 on a side.

use crate::Vid;
use lacc_graph::Idx;

/// A pattern-only doubly compressed sparse column matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dcsc<I: Idx = Vid> {
    nrows: usize,
    ncols: usize,
    /// Nonempty column ids, ascending.
    jc: Vec<I>,
    /// `colptr[k]..colptr[k+1]` indexes `rowidx` for column `jc[k]`.
    colptr: Vec<usize>,
    rowidx: Vec<I>,
}

impl<I: Idx> Dcsc<I> {
    /// Builds from (row, col) pairs; duplicates are not allowed.
    pub fn from_pairs(nrows: usize, ncols: usize, mut pairs: Vec<(I, I)>) -> Self {
        pairs.sort_unstable_by_key(|&(r, c)| (c, r));
        debug_assert!(pairs.windows(2).all(|w| w[0] != w[1]), "duplicate entries");
        let mut jc: Vec<I> = Vec::new();
        let mut colptr = vec![0usize];
        let mut rowidx = Vec::with_capacity(pairs.len());
        for (r, c) in pairs {
            assert!(
                r.idx() < nrows && c.idx() < ncols,
                "entry ({r},{c}) out of range"
            );
            if jc.last() != Some(&c) {
                jc.push(c);
                colptr.push(rowidx.len());
            }
            rowidx.push(r);
            *colptr.last_mut().expect("colptr nonempty") = rowidx.len();
        }
        Dcsc {
            nrows,
            ncols,
            jc,
            colptr,
            rowidx,
        }
    }

    /// Counting transpose of a block given row by row: the column ids of
    /// row `i` are `colidx[rowptr[i]..rowptr[i + 1]]`, in any order and
    /// without duplicates. Rows are swept ascending, so every column's row
    /// ids land ascending and the result equals
    /// [`from_pairs`](Self::from_pairs) on the same entries — without a
    /// comparison sort. `O(nnz + ncols)` time; the `O(ncols)` cursor array
    /// is scratch, the stored structure stays `O(nnz)`.
    pub fn from_row_major(nrows: usize, ncols: usize, rowptr: &[usize], colidx: &[I]) -> Self {
        assert_eq!(rowptr.len(), nrows + 1, "rowptr length");
        assert_eq!(rowptr[nrows], colidx.len(), "rowptr does not cover colidx");
        let mut cursor = vec![0usize; ncols + 1];
        for &c in colidx {
            assert!(c.idx() < ncols, "column {c} out of range");
            cursor[c.idx()] += 1;
        }
        let mut total = 0usize;
        for slot in &mut cursor {
            total += std::mem::replace(slot, total);
        }
        let mut jc: Vec<I> = Vec::new();
        let mut colptr = vec![0usize];
        for c in 0..ncols {
            if cursor[c] != cursor[c + 1] {
                jc.push(I::from_usize(c));
                colptr.push(cursor[c + 1]);
            }
        }
        let mut rowidx = vec![I::zero(); colidx.len()];
        for i in 0..nrows {
            let row = I::from_usize(i);
            for &c in &colidx[rowptr[i]..rowptr[i + 1]] {
                let at = &mut cursor[c.idx()];
                rowidx[*at] = row;
                *at += 1;
            }
        }
        Dcsc {
            nrows,
            ncols,
            jc,
            colptr,
            rowidx,
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

    /// Number of nonempty columns.
    pub fn ncols_nonempty(&self) -> usize {
        self.jc.len()
    }

    /// Row indices of column `c` (empty slice if the column is empty).
    pub fn col(&self, c: usize) -> &[I] {
        let Some(key) = I::try_from_usize(c) else {
            return &[];
        };
        match self.jc.binary_search(&key) {
            Ok(k) => &self.rowidx[self.colptr[k]..self.colptr[k + 1]],
            Err(_) => &[],
        }
    }

    /// Iterates over `(column id, row indices)` for nonempty columns.
    pub fn nonempty_cols(&self) -> impl Iterator<Item = (usize, &[I])> + Clone + '_ {
        self.jc
            .iter()
            .enumerate()
            .map(move |(k, &c)| (c.idx(), &self.rowidx[self.colptr[k]..self.colptr[k + 1]]))
    }

    /// All entries as `(row, col)` pairs in column order.
    pub fn pairs(&self) -> impl Iterator<Item = (I, I)> + Clone + '_ {
        self.jc.iter().enumerate().flat_map(move |(k, &c)| {
            self.rowidx[self.colptr[k]..self.colptr[k + 1]]
                .iter()
                .map(move |&r| (r, c))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypersparse_storage() {
        // 1M x 1M block with 3 entries: storage must be O(nnz).
        let d: Dcsc =
            Dcsc::from_pairs(1_000_000, 1_000_000, vec![(5, 100), (7, 100), (3, 999_999)]);
        assert_eq!(d.nnz(), 3);
        assert_eq!(d.ncols_nonempty(), 2);
        assert_eq!(d.col(100), &[5, 7]);
        assert_eq!(d.col(999_999), &[3]);
        assert_eq!(d.col(0), &[] as &[usize]);
    }

    #[test]
    fn empty_block() {
        let d: Dcsc = Dcsc::from_pairs(10, 10, vec![]);
        assert_eq!(d.nnz(), 0);
        assert_eq!(d.ncols_nonempty(), 0);
        assert_eq!(d.col(5), &[] as &[usize]);
        assert_eq!(d.pairs().count(), 0);
    }

    #[test]
    fn pairs_roundtrip_sorted() {
        let input = vec![(2, 0), (1, 0), (0, 3)];
        let d: Dcsc = Dcsc::from_pairs(3, 4, input);
        let out: Vec<_> = d.pairs().collect();
        assert_eq!(out, vec![(1, 0), (2, 0), (0, 3)]);
    }

    #[test]
    fn nonempty_cols_iteration() {
        let d: Dcsc = Dcsc::from_pairs(4, 8, vec![(0, 2), (3, 2), (1, 6)]);
        let cols: Vec<_> = d.nonempty_cols().map(|(c, rows)| (c, rows.len())).collect();
        assert_eq!(cols, vec![(2, 2), (6, 1)]);
    }

    #[test]
    fn narrow_block_matches_default() {
        let pairs = vec![(0, 2), (3, 2), (1, 6)];
        let wide: Dcsc = Dcsc::from_pairs(4, 8, pairs.clone());
        let narrow: Dcsc<u32> = Dcsc::from_pairs(
            4,
            8,
            pairs.iter().map(|&(r, c)| (r as u32, c as u32)).collect(),
        );
        let w: Vec<(usize, usize)> = wide.pairs().collect();
        let n: Vec<(usize, usize)> = narrow.pairs().map(|(r, c)| (r.idx(), c.idx())).collect();
        assert_eq!(w, n);
        assert_eq!(narrow.col(2), &[0u32, 3u32]);
    }

    #[test]
    fn row_major_transpose_matches_sorted_pairs() {
        // Columns unsorted within rows, an empty row, empty columns.
        let rowptr = [0, 3, 3, 5, 6];
        let colidx: [u32; 6] = [6, 2, 0, 2, 7, 6];
        let pairs = vec![(0, 6), (0, 2), (0, 0), (2, 2), (2, 7), (3, 6)];
        let d = Dcsc::<u32>::from_row_major(4, 9, &rowptr, &colidx);
        assert_eq!(d, Dcsc::from_pairs(4, 9, pairs));
        assert_eq!(d.col(2), &[0, 2]);
        let empty = Dcsc::<u32>::from_row_major(0, 0, &[0], &[]);
        assert_eq!(empty, Dcsc::from_pairs(0, 0, vec![]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_major_rejects_out_of_range_column() {
        let _ = Dcsc::<usize>::from_row_major(1, 2, &[0, 1], &[2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let _: Dcsc = Dcsc::from_pairs(2, 2, vec![(2, 0)]);
    }
}
