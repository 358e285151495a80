//! 2D process grids.
//!
//! CombBLAS distributes a sparse matrix on a `pr × pc` grid; processor
//! `P(i, j)` owns submatrix `A_ij`. The paper (like CombBLAS) only supports
//! square grids, so `Grid2d::square` is the main constructor; the general
//! form exists for tests.

use crate::comm::{Comm, Group};

/// A `pr × pc` arrangement of ranks in row-major order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid2d {
    pr: usize,
    pc: usize,
}

impl Grid2d {
    /// A square `√p × √p` grid.
    ///
    /// # Panics
    /// If `p` is not a perfect square (CombBLAS' restriction, §VI-A).
    pub fn square(p: usize) -> Self {
        let side = (p as f64).sqrt().round() as usize;
        assert_eq!(side * side, p, "process count {p} is not a perfect square");
        Grid2d { pr: side, pc: side }
    }

    /// A general rectangular grid.
    pub fn new(pr: usize, pc: usize) -> Self {
        assert!(pr >= 1 && pc >= 1);
        Grid2d { pr, pc }
    }

    /// Rows in the grid.
    pub fn rows(&self) -> usize {
        self.pr
    }

    /// Columns in the grid.
    pub fn cols(&self) -> usize {
        self.pc
    }

    /// Total ranks.
    pub fn size(&self) -> usize {
        self.pr * self.pc
    }

    /// Rank at grid position `(i, j)`.
    pub fn rank_of(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.pr && j < self.pc);
        i * self.pc + j
    }

    /// Grid position of `rank`.
    pub fn coords_of(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.size());
        (rank / self.pc, rank % self.pc)
    }

    /// The group of ranks sharing this rank's grid row (the "processor row"
    /// used in the reduce-scatter phase of distributed SpMV).
    pub fn row_group(&self, comm: &Comm) -> Group {
        let (i, _) = self.coords_of(comm.rank());
        comm.group((0..self.pc).map(|j| self.rank_of(i, j)).collect())
    }

    /// The group of ranks sharing this rank's grid column (the "processor
    /// column" used in the allgather phase of distributed SpMV).
    pub fn col_group(&self, comm: &Comm) -> Group {
        let (_, j) = self.coords_of(comm.rank());
        comm.group((0..self.pr).map(|i| self.rank_of(i, j)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_spmd;

    #[test]
    fn square_grid_coords_roundtrip() {
        let g = Grid2d::square(16);
        assert_eq!((g.rows(), g.cols()), (4, 4));
        for r in 0..16 {
            let (i, j) = g.coords_of(r);
            assert_eq!(g.rank_of(i, j), r);
        }
    }

    #[test]
    #[should_panic(expected = "not a perfect square")]
    fn non_square_rejected() {
        Grid2d::square(12);
    }

    #[test]
    fn row_and_col_groups_partition() {
        run_spmd(9, |c| {
            let grid = Grid2d::square(9);
            let row = grid.row_group(c);
            let col = grid.col_group(c);
            assert_eq!(row.size(), 3);
            assert_eq!(col.size(), 3);
            // This rank appears in both.
            assert_eq!(row.member(row.my_index()), c.rank());
            assert_eq!(col.member(col.my_index()), c.rank());
            // Row-group sums: each row {0,1,2},{3,4,5},{6,7,8}.
            let s = c.allreduce(&row, c.rank() as u64, |a, b| a + b);
            let (i, _) = grid.coords_of(c.rank());
            assert_eq!(s, (3 * i * 3 + 3) as u64);
        })
        .unwrap();
    }

    #[test]
    fn rectangular_grid() {
        let g = Grid2d::new(2, 3);
        assert_eq!(g.size(), 6);
        assert_eq!(g.coords_of(5), (1, 2));
    }
}
