//! Serial GraphBLAS layer — the correctness reference.
//!
//! This plays the role of the paper's SuiteSparse:GraphBLAS implementation
//! (the "simplified unoptimized serial" LACC committed to LAGraph): every
//! distributed primitive in [`crate::dist`] is tested for bit-identical
//! results against these functions. It holds what the serial LACC reads:
//! a pattern matrix, sparse vectors and the masked `mxv`, `extract` and
//! `assign` over them.

mod csc;
mod ops;
mod vector;

pub use csc::{CsrMirror, Pattern};
pub use ops::{assign, extract, mxv_dense, mxv_sparse, mxv_sparse_par};
pub use vector::SparseVec;
