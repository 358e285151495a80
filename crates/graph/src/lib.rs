//! Graph containers, generators, and I/O for the LACC reproduction.
//!
//! This crate provides the substrate every other crate builds on:
//!
//! * [`EdgeList`] — a mutable list of undirected edges with cleanup
//!   operations (symmetrization, deduplication, self-loop removal).
//! * [`CsrGraph`] — an immutable, symmetric compressed-sparse-row adjacency
//!   structure; the canonical input to every connected-components algorithm
//!   in the workspace.
//! * [`generators`] — synthetic graph families that stand in for the
//!   paper's proprietary test problems (Table III), matched on component
//!   structure, average degree and degree skew.
//! * [`io`] — Matrix Market, plain edge-list, and binary readers/writers.
//! * [`permute`] — random symmetric vertex permutations (the load-balancing
//!   trick CombBLAS applies before 2D distribution).
//! * [`stats`] — degree/component census used by the Table III experiment.
//! * [`DisjointSets`] — union-find, used both as the serial ground truth
//!   and inside the generators/stats.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod edgelist;
pub mod generators;
pub mod idx;
pub mod io;
pub mod permute;
pub mod stats;
pub mod unionfind;

pub use csr::{BuildError, CsrGraph};
pub use edgelist::EdgeList;
pub use idx::{ensure_fits, Idx, IdxOverflow};
pub use unionfind::DisjointSets;

/// Vertex identifier used across the workspace.
///
/// The paper targets graphs with up to ~68M vertices and ~67B edges; our
/// laptop-scale stand-ins stay well within `usize` on 64-bit hosts.
pub type Vid = usize;
