//! `dmsim` — a simulated distributed-memory message-passing runtime.
//!
//! The LACC paper runs on MPI over a Cray XC40. This crate substitutes a
//! faithful *simulation*: `p` ranks execute a real SPMD program on `p` OS
//! threads, exchanging typed messages through shared-memory channels, with
//! MPI-style collectives (barrier, broadcast, allgatherv, reduce-scatter,
//! allreduce, and three all-to-allv algorithms) built on point-to-point
//! sends exactly as MPI implementations build them.
//!
//! Two clocks run at once:
//!
//! * **Wall time** — the program really executes in parallel, so races,
//!   deadlocks and algorithmic bugs are real.
//! * **Modeled time** — every local operation and every collective is
//!   charged to an α-β cost model ([`cost::MachineModel`]) parameterised by
//!   the paper's Table II machines (Edison, Cori KNL). Ranks carry a
//!   simulated clock that is synchronized through message exchanges (a
//!   receive advances the receiver's clock to at least the sender's), so
//!   the maximum clock at the end is a BSP-style makespan. Scaling figures
//!   report modeled time, because a single host cannot exhibit
//!   network-bound scaling in wall time.
//!
//! A third layer, [`trace`], records what the simulation did: typed spans
//! (steps, distributed ops, collectives) on the modeled clock, exported as
//! Chrome-trace JSON or an aggregated per-rank report. See
//! [`run_spmd_traced`]. Everything else a run counts goes through one
//! registry: a primitive calls [`Comm::count`] with a [`Counter`].
//!
//! [`wire`] holds the stream codecs a caller uses to ship an encoded
//! vector: the result is a `Vec<u8>` that goes through the ordinary
//! collectives and is charged for the bytes it carries. The simulator keeps
//! no codec state and attaches no meaning to a payload.
//!
//! Execution is bulk-synchronous by default, but operations can be posted
//! as *non-blocking* through [`Comm::post`] (returning a [`CommHandle`])
//! or credited against a preceding compute window ([`OverlapWindow`]):
//! the operation still runs eagerly with identical charges, and the
//! modeled clock is refunded at completion for the exchange time that
//! genuinely overlapped local compute
//! ([`CostSnapshot::overlap_hidden_s`]).
//!
//! # Example
//! ```
//! use dmsim::run_spmd;
//!
//! let results = run_spmd(4, |comm| {
//!     let world = comm.world();
//!     // Everyone contributes its rank; everyone learns all ranks.
//!     let all = comm.allgatherv(&world, vec![comm.rank()]);
//!     all.iter().map(|v| v[0]).sum::<usize>()
//! })
//! .expect("no rank panicked");
//! assert_eq!(results, vec![6, 6, 6, 6]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collectives;
pub mod comm;
pub mod cost;
pub mod topology;
pub mod trace;
pub mod wire;

pub use collectives::{AllToAll, CombineRoute};
pub use comm::{
    bytes_of, run_spmd, run_spmd_traced, run_spmd_with_model, words_of, Comm, CommHandle,
    DmsimError, ErrorKind, Group, OverlapWindow,
};
pub use cost::{CostSnapshot, Counter, Machine, MachineModel, CORI_KNL, EDISON};
pub use topology::Grid2d;
pub use trace::{
    EngineKind, RankTrace, RerunReason, Span, SpanKind, SpanRecord, TraceLevel, TraceReport,
    TraceSink,
};
pub use wire::WireWord;
