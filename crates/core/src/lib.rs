//! `lacc` — Linear Algebraic Connected Components.
//!
//! The paper's primary contribution: the Awerbuch–Shiloach (AS) PRAM
//! connected-components algorithm expressed in GraphBLAS primitives, with
//! sparsity exploitation (Lemmas 1–2) and distributed-memory communication
//! optimizations. Three implementations share one algorithmic skeleton:
//!
//! * [`asref`] — a direct pointer-based AS reference (no linear algebra):
//!   the simplest trustworthy implementation, used as a test oracle.
//! * [`serial`] — LACC on [`gblas::serial`] (Algorithms 3–6 of the paper);
//!   the role of the LAGraph/SuiteSparse educational implementation.
//! * [`dist`] — LACC on [`gblas::dist`] over the [`dmsim`] simulated
//!   machine; the role of the CombBLAS production implementation whose
//!   scaling Figures 4–8 report.
//!
//! Every iteration performs (§III–IV):
//!
//! 1. **Conditional hooking** — each star vertex finds the minimum parent
//!    among its neighbors via `mxv` on the `(Select2nd, min)` semiring and
//!    hooks its root onto a strictly smaller parent.
//! 2. **Unconditional hooking** — remaining stars hook onto *nonstar*
//!    neighbors' parents regardless of id order (Lemma 2 guarantees this
//!    never creates a cycle); skipped when no active star or no active
//!    nonstar is left, run as a masked pull otherwise ([`UncondHook`]).
//! 3. **Shortcutting** — active nonstar vertices (and the stars, when
//!    unconditional hooking ran) replace their parent with their
//!    grandparent (pointer jumping).
//! 4. **Starcheck** — recompute star membership (Algorithm 6) after
//!    conditional hooking, and at the start of an iteration whose
//!    predecessor moved a parent after that, so every iteration reads
//!    exact stars; its cost is reported under the "Starcheck" bucket of
//!    Figure 8.
//!
//! Sparsity (Table I): after unconditional hooking in iterations ≥ 2, any
//! tree that is still a star is a **converged component** (Lemma 1); its
//! vertices drop out of all subsequent steps, which is what makes LACC fast
//! on graphs with many components (Figure 7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asref;
pub mod dist;
mod engine;
pub mod options;
pub mod serial;
pub mod stats;
pub mod verify;

pub use dist::{check_ranks, run, RunConfig, RunOutput};
pub use engine::EngineSelect;
pub use gblas::dist::Wire;
pub use options::{LaccOpts, LaccOptsBuilder, OptsError, PERMUTE_SEED};
pub use serial::lacc_serial;
pub use stats::{IterStats, LaccRun, StepBreakdown, UncondHook};
pub use verify::{verify_labels, CcOracle, LabelError};

/// Vertex id type, shared with the rest of the workspace.
pub type Vid = lacc_graph::Vid;
