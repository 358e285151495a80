//! Serial GraphBLAS layer — the correctness reference.
//!
//! This plays the role of the paper's SuiteSparse:GraphBLAS implementation
//! (the "simplified unoptimized serial" LACC committed to LAGraph): every
//! distributed primitive in [`crate::dist`] is tested for bit-identical
//! results against these functions.

mod csc;
mod matrix_ops;
mod ops;
mod spgemm;
mod vector;

pub use csc::{Csc, CsrMirror, Pattern};
pub use matrix_ops::{column_reduce, map_values, max_abs_diff, normalize_columns};
pub use ops::{assign, extract, mxv_dense, mxv_sparse, mxv_sparse_par};
pub use spgemm::{spgemm, Prune};
pub use vector::SparseVec;
