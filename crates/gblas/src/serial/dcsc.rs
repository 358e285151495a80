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
        // Exact capacity: the block outlives the run's other allocations.
        let nonempty = cursor.windows(2).filter(|w| w[0] != w[1]).count();
        let mut jc: Vec<I> = Vec::with_capacity(nonempty);
        let mut colptr = Vec::with_capacity(nonempty + 1);
        colptr.push(0usize);
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

    /// A column lookup for callers whose queries ascend (the SpMSpV kernel:
    /// gathered input entries are sorted by column). See [`ColCursor`].
    pub fn cursor(&self) -> ColCursor<'_, I> {
        ColCursor { m: self, k: 0 }
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

/// A position in a [`Dcsc`]'s nonempty-column list that only moves
/// forward while the queried columns ascend: each [`seek`](Self::seek)
/// gallops from the previous hit (1, 2, 4, … steps, then a bisection of the
/// last stride), so a sweep of `k` ascending queries costs
/// `O(k · log(gap))` rather than `k` full-height searches. A query that
/// goes backwards is still answered: one full-height search, as in
/// [`Dcsc::col`], re-anchors the cursor there.
#[derive(Clone, Debug)]
pub struct ColCursor<'a, I: Idx> {
    m: &'a Dcsc<I>,
    /// Every nonempty column before `jc[k]` is below the last query.
    k: usize,
}

impl<'a, I: Idx> ColCursor<'a, I> {
    /// Row indices of column `c` (empty slice if the column is empty).
    pub fn seek(&mut self, c: usize) -> &'a [I] {
        let m = self.m;
        let jc = &m.jc;
        if self.k > 0 && jc[self.k - 1].idx() >= c {
            self.k = jc.partition_point(|j| j.idx() < c);
        }
        let mut step = 1usize;
        while self.k < jc.len() && jc[self.k].idx() < c {
            let far = (self.k + step).min(jc.len());
            if far < jc.len() && jc[far].idx() < c {
                self.k = far;
                step *= 2;
            } else {
                // jc[k] < c ≤ jc[far] (or far is the end): bisect (k, far].
                self.k += 1 + jc[self.k + 1..far].partition_point(|j| j.idx() < c);
                break;
            }
        }
        match jc.get(self.k) {
            Some(j) if j.idx() == c => &m.rowidx[m.colptr[self.k]..m.colptr[self.k + 1]],
            _ => &[],
        }
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
        assert_eq!(
            (d.jc.capacity(), d.colptr.capacity()),
            (4, 5),
            "growth slack"
        );
        let empty = Dcsc::<u32>::from_row_major(0, 0, &[0], &[]);
        assert_eq!(empty, Dcsc::from_pairs(0, 0, vec![]));
    }

    #[test]
    fn cursor_agrees_with_col_on_ascending_repeated_and_backward_queries() {
        // Nonempty columns 0, 3, 4, 10, 11, …, 40 and 90 of 100.
        let mut pairs: Vec<(u32, u32)> = vec![(1, 0), (2, 3), (0, 4), (5, 4), (7, 90)];
        pairs.extend((10..=40).map(|c| (c % 8, c)));
        let d = Dcsc::<u32>::from_pairs(8, 100, pairs);
        let sweeps: [Vec<usize>; 5] = [
            (0..100).collect(),
            (0..100).step_by(7).collect(),
            vec![4, 4, 5, 39, 39, 40, 41, 89, 90, 91, 99],
            vec![90, 3, 3, 2, 50, 10, 99, 0],
            vec![99, 98, 0],
        ];
        for sweep in &sweeps {
            let mut cur = d.cursor();
            for &c in sweep {
                assert_eq!(cur.seek(c), d.col(c), "column {c} in {sweep:?}");
            }
        }
        let empty = Dcsc::<u32>::from_pairs(4, 4, vec![]);
        let mut cur = empty.cursor();
        assert_eq!(cur.seek(2), &[] as &[u32]);
        assert_eq!(cur.seek(0), &[] as &[u32]);
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
