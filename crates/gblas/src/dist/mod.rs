//! Distributed GraphBLAS layer over [`dmsim`] — the CombBLAS role.
//!
//! * Matrices are 2D-partitioned on a square `√p × √p` grid
//!   ([`DistMat`]), with each local block stored row-major, once: the
//!   matrix is symmetric, so SpMSpV pushes along the same rows the dense
//!   multiply pulls along.
//! * Vectors ([`DistVec`], [`DistSpVec`]) are block-distributed in
//!   *column-major chunk order* so that the chunks owned by processor
//!   column `j` concatenate into exactly the vector segment matching the
//!   matrix's column block `j` — the alignment CombBLAS guarantees so that
//!   the allgather phase of `mxv` stays inside processor columns (SpMSpV
//!   mirrors it into processor rows).
//! * [`ops`] implements the distributed primitives: `mxv` (SpMV/SpMSpV,
//!   and SpMV over the identity vector from each row's column extremes),
//!   `extract`, `assign`, each matching its serial counterpart
//!   bit-for-bit, with the paper's §V-B communication optimizations.
//! * [`local`] holds the passes between them, each charging `len + 1` ops.

pub mod compact;
pub mod dense;
pub mod dmat;
pub mod dvec;
pub mod local;
pub mod ops;

pub use compact::NarrowVal;
pub use dense::{OwnerLocator, RankBitmap};
pub use dmat::DistMat;
pub use dvec::{DistSpVec, DistVec, VecLayout};
pub use local::{
    dist_apply_at, dist_lower, dist_lower_all, dist_mxv_pull, dist_root_all_quiet, dist_select,
    dist_set_at,
};
pub use ops::{
    dist_assign, dist_extract, dist_extract_planned, dist_mxv_dense, dist_mxv_ids, dist_mxv_sparse,
    plan_requests, DistMask, DistOpts, FusedExtract, RequestPlan, Wire,
};
