//! `lacc-benchmark` — the repository's one benchmark.
//!
//! Four workloads (`rmat_lacc`, `community_lacc`, `mesh_fastsv`,
//! `serve_mixed`) each push one graph family through the whole pipeline —
//! generate → `lacc::run` → serve — from *outside* the program, through
//! the public APIs of `lacc-graph`, `gblas`, `dmsim`, `lacc` and
//! `lacc-serving`. Every result is checked against an oracle. Two passes
//! per workload: an untraced one for the end-to-end metrics and a traced
//! one (layer probes, one library-traced run, the benchmark's own spans)
//! for the per-layer metrics. `BENCHMARK.json` at the repository root
//! names the command, the workloads and every metric; the crate README
//! is the glossary.

#![warn(missing_docs)]

pub mod check;
pub mod host;
pub mod json;
pub mod metrics;
pub mod pipeline;
pub mod probes;
pub mod rng;
pub mod runner;
pub mod spans;
pub mod workloads;
