//! Connected-components baselines.
//!
//! The paper compares LACC against ParConnect (the prior distributed
//! state of the art) and motivates it against serial and shared-memory
//! algorithms. This crate provides all of them:
//!
//! * [`unionfind`] — optimal serial union-find (the work-efficiency
//!   yardstick; also the ground truth for every test in the workspace).
//! * [`bfs`] — serial BFS labeling.
//! * [`sv`] — shared-memory Shiloach–Vishkin with two-phase parallel
//!   rounds on real threads.
//! * [`labelprop`] — parallel min-label propagation (the technique inside
//!   Slota et al.'s Multistep method).
//! * [`fastsv`] — serial FastSV (Zhang, Azad & Hu), the LAGraph successor
//!   algorithm; the correctness oracle for the first-class distributed
//!   FastSV engine `lacc::run` selects with `EngineSelect::Fastsv` (which replaced the old
//!   `fastsv_dist` baseline here).
//! * [`parconnect`] — the distributed baseline of Figures 4–6: a
//!   BFS + Shiloach–Vishkin hybrid over [`dmsim`] in ParConnect's flat-MPI
//!   configuration, with dense vectors (no Lemma-1 sparsity) and the
//!   unoptimized pairwise all-to-all. See the module docs for the exact
//!   relationship to the published ParConnect.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod fastsv;
pub mod labelprop;
pub mod multistep;
pub mod parconnect;
pub mod sv;
pub mod unionfind;

pub use bfs::bfs_cc;
pub use fastsv::fastsv_cc;
pub use labelprop::label_propagation_cc;
pub use multistep::multistep_cc;
pub use parconnect::parconnect_sim;
pub use sv::shiloach_vishkin_cc;
pub use unionfind::union_find_cc;

/// Vertex id type, shared with the rest of the workspace.
pub type Vid = lacc_graph::Vid;
