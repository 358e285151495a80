//! `gblas` — GraphBLAS-style sparse linear algebra, serial and distributed.
//!
//! The paper expresses LACC in terms of the GraphBLAS C API (`GrB_mxv`,
//! `GrB_eWiseMult`, `GrB_extract`, `GrB_assign`, `GrB_Vector_extractTuples`,
//! masks, semirings) and implements those primitives on CombBLAS'
//! 2D-distributed sparse matrices. This crate rebuilds both layers:
//!
//! * [`serial`] — a single-address-space implementation of what the
//!   serial LACC calls: a CSC pattern matrix and its row-major mirror,
//!   dense/sparse vectors, masked `mxv` (SpMV and SpMSpV), extract and
//!   assign. This layer plays the role of SuiteSparse:GraphBLAS in the
//!   paper — the correctness reference.
//! * [`dist`] — the CombBLAS role: matrices distributed on a √p×√p
//!   process grid ([`dmsim::Grid2d`]), block-distributed vectors aligned
//!   with the grid, two-phase `mxv` (allgather within processor columns,
//!   reduce-scatter/all-to-all within processor rows), and distributed
//!   `extract`/`assign` with the paper's skew mitigations (hypercube
//!   all-to-all, sparse all-to-all, hot-rank broadcast).
//!
//! The only semiring LACC needs is `(Select2nd, min)` over pattern
//! matrices; the multiply therefore passes the vector value straight
//! through and the add monoid is a type parameter (see [`types::Monoid`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod serial;
pub mod types;

pub use types::{AddUsize, AndBool, Mask, MaxUsize, MinMaxUsize, MinUsize, Monoid, OrBool};

/// Vertex/index type, shared with `lacc-graph`.
pub type Vid = lacc_graph::Vid;
