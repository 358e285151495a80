//! `lacc-serving` — an incremental connected-components serving engine.
//!
//! The batch pipeline in [`lacc`] answers "what are the components of this
//! graph" once; this crate keeps the answer *live* while the graph changes.
//! A [`CcService`] owns an epoch-versioned [`LabelStore`] — per-owner label
//! shards matching the distributed [`gblas::dist::VecLayout`], versioned
//! copy-on-write so a reader holding an [`EpochSnapshot`] never blocks (or
//! observes) a writer — and applies batched updates:
//!
//! * **Insertions** are incremental: a new edge either links two component
//!   roots (union by minimum root with path compression) or is a no-op.
//!   No LACC run is needed, and every query stays consistent with the
//!   edges applied so far.
//! * **Deletions** cannot be handled incrementally by a union-find over
//!   insertions, so any effective deletion triggers a full recompute
//!   over the optimized distributed stack ([`lacc::run`] with the engine
//!   chosen by the [`RerunPolicy`]) whose labels are swapped in atomically
//!   as a new epoch.
//! * **Staleness**: incremental hooking answers queries correctly but
//!   leaves the store's trees shallower-than-canonical and drifts away
//!   from the bit-exact labels a from-scratch run would produce. A
//!   [`RerunPolicy`] bounds that drift: once the hooks applied since the
//!   last rebuild exceed a configurable fraction of `n`, the next batch
//!   triggers a background-style full recompute.
//!
//! Rebuild runs flow through [`dmsim::trace`] tagged with their triggering
//! [`dmsim::RerunReason`], so a trace report shows *why* each epoch was
//! recomputed and how much modeled time the rebuilds cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod policy;
pub mod service;
pub mod store;
pub mod workload;

pub use batch::{Update, UpdateBatch};
pub use policy::RerunPolicy;
pub use service::{BatchOutcome, CcService, ServeOpts, ServiceStats};
pub use store::{EpochSnapshot, LabelStore};
pub use workload::{check_consistency, run_workload, WorkloadCfg, WorkloadReport};

/// Vertex id type, shared with the rest of the workspace.
pub type Vid = lacc::Vid;
