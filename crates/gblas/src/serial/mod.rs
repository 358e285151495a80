//! Serial GraphBLAS layer — the correctness reference.
//!
//! This plays the role of the paper's SuiteSparse:GraphBLAS implementation
//! (the "simplified unoptimized serial" LACC committed to LAGraph): every
//! distributed primitive in [`crate::dist`] is tested for bit-identical
//! results against these functions.

mod csc;
mod ewise_add;
mod matrix_ops;
mod ops;
mod spgemm;
mod vector;

pub use csc::{Csc, CsrMirror, Pattern};
pub use ewise_add::ewise_add;
pub use matrix_ops::{column_reduce, map_values, max_abs_diff, normalize_columns, transpose};
pub use ops::{
    apply, apply_par, assign, assign_par, ewise_mult, ewise_mult_dense, extract, extract_par,
    mxv_dense, mxv_dense_par, mxv_sparse, mxv_sparse_par, reduce, select,
};
pub use spgemm::{spgemm, Prune};
pub use vector::SparseVec;
