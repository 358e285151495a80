//! Umbrella crate for the LACC reproduction workspace.
//!
//! Re-exports the member crates so examples and integration tests can use a
//! single dependency. See `README.md` for the project overview and
//! `DESIGN.md` for the system inventory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dmsim;
pub use gblas;
pub use lacc;
pub use lacc_baselines as baselines;
pub use lacc_graph as graph;
