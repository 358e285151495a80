//! Connected-components baselines.
//!
//! The paper compares LACC against one baseline, ParConnect (the prior
//! distributed state of the art). This crate provides it beside the two
//! serial algorithms the workspace checks its engines against:
//!
//! * [`unionfind`] — optimal serial union-find (the work-efficiency
//!   yardstick; also the ground truth for every test in the workspace).
//! * [`fastsv`] — serial FastSV (Zhang, Azad & Hu), the LAGraph successor
//!   algorithm; the correctness oracle for the distributed FastSV engine
//!   `lacc::run` selects with `EngineSelect::Fastsv`.
//! * [`parconnect`] — the distributed baseline of Figures 4–6: a
//!   BFS + Shiloach–Vishkin hybrid over [`dmsim`] in ParConnect's flat-MPI
//!   configuration, with dense vectors (no Lemma-1 sparsity) and the
//!   unoptimized pairwise all-to-all. See the module docs for the exact
//!   relationship to the published ParConnect.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fastsv;
pub mod parconnect;
pub mod unionfind;

pub use fastsv::fastsv_cc;
pub use parconnect::parconnect_sim;
pub use unionfind::union_find_cc;

/// Vertex id type, shared with the rest of the workspace.
pub type Vid = lacc_graph::Vid;
