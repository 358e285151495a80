//! Distributed connected components over the simulated machine — the
//! unified entry point for the whole engine portfolio.
//!
//! [`run`] executes one SPMD program on `p` simulated ranks: it wraps the
//! run in a trace span tagged with the configured
//! [`crate::engine::EngineSelect`] and runs that engine's rule set under
//! the iteration driver ([`crate::engine`]). Everything a run can vary —
//! options, trace sink, serving-rerun tagging — lives in [`RunConfig`].
//!
//! The caller thread does no per-edge work: it draws the load-balancing
//! [`Permutation`] (O(n)) and every rank builds its own matrix block
//! inside the SPMD region from the borrowed input graph and that
//! relabeling — the permuted graph is never materialized.
//!
//! With the default LACC engine and `permute = false`, a distributed run
//! produces a parent vector *bit-identical* to [`crate::serial`] (tested
//! below) — the strongest possible correctness statement for the
//! communication layer.

use crate::engine::driver::drive;
use crate::engine::{EngineCtx, EngineRun, EngineSelect, Fastsv, LabelProp, Lacc};
use crate::options::LaccOpts;
use crate::stats::{IterStats, LaccRun, StepBreakdown};
use dmsim::{
    run_spmd_traced, Comm, DmsimError, ErrorKind, MachineModel, RerunReason, SpanKind, TraceSink,
};
use lacc_graph::permute::Permutation;
use lacc_graph::{ensure_fits, CsrGraph};
use std::sync::Arc;
use std::time::Instant;

/// Everything one distributed run can vary: rank count, machine model,
/// [`LaccOpts`] (including the engine selection), an optional trace sink,
/// and an optional serving-rerun tag.
///
/// ```
/// use lacc::{run, RunConfig};
/// use lacc_graph::generators::cycle_graph;
///
/// let g = cycle_graph(64);
/// let out = run(&g, &RunConfig::new(4, dmsim::EDISON.lacc_model()))
///     .expect("no rank panicked");
/// assert_eq!(out.num_components(), 1);
/// assert!(out.modeled_total_s > 0.0);
/// ```
#[derive(Clone)]
pub struct RunConfig {
    /// Simulated ranks (must form a square grid).
    pub ranks: usize,
    /// The α-β machine model.
    pub model: MachineModel,
    /// Run options (engine, comm stack, permutation, …).
    pub opts: LaccOpts,
    /// When set, every rank records trace spans into this sink.
    pub trace: Option<Arc<TraceSink>>,
    /// When set, the run is a serving-layer epoch rebuild: it is wrapped
    /// in a reason-tagged `rerun(...)` span and noted in rank 0's cost
    /// snapshot.
    pub rerun: Option<RerunReason>,
}

impl RunConfig {
    /// A config with default [`LaccOpts`], no tracing, no rerun tag.
    pub fn new(ranks: usize, model: MachineModel) -> Self {
        RunConfig {
            ranks,
            model,
            opts: LaccOpts::default(),
            trace: None,
            rerun: None,
        }
    }

    /// Replaces the run options.
    pub fn with_opts(mut self, opts: LaccOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Records trace spans into `sink`.
    pub fn with_trace(mut self, sink: &Arc<TraceSink>) -> Self {
        self.trace = Some(Arc::clone(sink));
        self
    }

    /// Records trace spans into `sink` when `Some` (caller-side optional
    /// sinks migrate without a match).
    pub fn with_trace_opt(mut self, sink: Option<&Arc<TraceSink>>) -> Self {
        self.trace = sink.map(Arc::clone);
        self
    }

    /// Tags the run as a serving-layer epoch rebuild.
    pub fn with_rerun(mut self, reason: RerunReason) -> Self {
        self.rerun = Some(reason);
        self
    }
}

/// The result of a unified [`run`]: the familiar [`LaccRun`] statistics
/// plus the engine that produced them.
///
/// Derefs to [`LaccRun`], so existing call sites keep reading
/// `out.labels`, `out.num_components()`, etc.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Labels and per-iteration statistics.
    pub run: LaccRun,
    /// The engine that executed (the run's `opts.engine`).
    pub engine: EngineSelect,
}

impl std::ops::Deref for RunOutput {
    type Target = LaccRun;
    fn deref(&self) -> &LaccRun {
        &self.run
    }
}

/// One rank's share of [`run`]: vertex ids and labels are `u32` in every
/// block, vector and wire payload.
fn run_engine(
    comm: &mut Comm,
    g: &CsrGraph,
    perm: Option<&Permutation>,
    opts: &LaccOpts,
) -> Result<EngineRun, String> {
    let engine = opts.engine;
    let mut ctx = EngineCtx::<u32>::new(comm, g, perm, opts);
    match engine {
        EngineSelect::Lacc => drive(Lacc::new(&ctx), &mut ctx),
        EngineSelect::Fastsv => drive(Fastsv::new(&ctx), &mut ctx),
        EngineSelect::LabelProp => drive(LabelProp::new(&ctx), &mut ctx),
    }
    .map_err(|bound| format!("engine {engine} did not converge within its bound of {bound} rounds"))
}

/// Checks that `ranks` simulated ranks form the square process grid every
/// run is laid out on (CombBLAS' restriction, §VI-A): a positive perfect
/// square. The rank count is user input (`--ranks`), so a bad one is an
/// error naming the value, not [`dmsim::Grid2d::square`]'s panic.
pub fn check_ranks(ranks: usize) -> Result<(), DmsimError> {
    if ranks > 0 && ranks.isqrt().pow(2) == ranks {
        return Ok(());
    }
    Err(DmsimError::new(
        ErrorKind::InvalidConfig,
        format!("invalid ranks: {ranks} is not a positive perfect square (1, 4, 9, 16, ...)"),
    ))
}

/// Runs the configured engine on `cfg.ranks` simulated ranks.
///
/// Returns labels in the *original* vertex numbering even when
/// `opts.permute` applies a load-balancing relabeling internally. Errs
/// if `ranks` is not a positive perfect square ([`check_ranks`]) or the
/// graph has more vertices than `u32` ids can name, with the
/// failing rank and panic payload if any rank panics, and with the engine
/// and its round bound if the engine runs out of rounds before converging
/// (LACC: `opts.max_iters`) — never `Ok` with unconverged labels.
///
/// Engine caveat: LACC labels are tree-root ids, while FastSV and label
/// propagation converge to component *minima* — cross-engine comparisons
/// must canonicalize labels first.
pub fn run(g: &CsrGraph, cfg: &RunConfig) -> Result<RunOutput, DmsimError> {
    let n = g.num_vertices();
    let p = cfg.ranks;
    check_ranks(p)?;
    // Ids are `u32` inside the SPMD body: a graph too large for them is a
    // typed error here, before any rank spawns, never a silent truncation.
    ensure_fits::<u32>(n, "vertices")
        .map_err(|e| DmsimError::new(ErrorKind::InvalidConfig, e.to_string()))?;
    let opts = &cfg.opts;
    let perm = (opts.permute && n > 1).then(|| Permutation::random(n, opts.permute_seed));
    let perm = perm.as_ref();
    let rerun = cfg.rerun;
    let wall_start = Instant::now();
    let spmd = |comm: &mut Comm| {
        // An epoch rebuild counts itself (on rank 0, so sums over
        // snapshots count each rebuild once) and wraps the whole SPMD
        // body in a reason-tagged span; both are observational.
        let rerun_span = rerun.map(|reason| {
            if comm.rank() == 0 {
                comm.note_rerun();
            }
            comm.span_open(SpanKind::Rerun(reason))
        });
        // The engine-tagged span attributes everything under it in traces.
        let engine_span = comm.span_open(SpanKind::Engine(opts.engine));
        let out = run_engine(comm, g, perm, opts);
        comm.span_close(engine_span);
        if let Some(span) = rerun_span {
            comm.span_close(span);
        }
        out
    };
    // Every rank counts the same rounds, so an exhausted round bound
    // fails all of them together; rank 0 is the lowest.
    let mut outs = run_spmd_traced(p, cfg.model, cfg.trace.as_ref(), spmd)?
        .into_iter()
        .collect::<Result<Vec<EngineRun>, String>>()
        .map_err(|unconverged| DmsimError::new(ErrorKind::NotConverged, unconverged))?;
    let wall_s = wall_start.elapsed().as_secs_f64();
    // The engine as run-level trace metadata, for Chrome-trace viewers.
    if let Some(sink) = &cfg.trace {
        sink.add_metadata("engine", opts.engine.name());
    }

    let labels = outs[0].labels.take().expect("rank 0 returns labels");
    let labels = match perm {
        Some(perm) => perm.unpermute_labels(&labels),
        None => labels,
    };
    let modeled_total_s = outs.iter().map(|o| o.final_clock_s).fold(0.0f64, f64::max);
    let niters = outs[0].iters.len();
    debug_assert!(outs.iter().all(|o| o.iters.len() == niters));
    let iters: Vec<IterStats> = (0..niters)
        .map(|k| {
            let r0 = &outs[0].iters[k];
            let max_over = |sel: fn(&StepBreakdown) -> f64| {
                outs.iter()
                    .map(|o| sel(&o.iters[k].modeled))
                    .fold(0.0f64, f64::max)
            };
            IterStats {
                iteration: k + 1,
                active_before: r0.active_before,
                converged_after: r0.converged_after,
                spmv_dense: r0.spmv_dense,
                mxv_nvals: r0.mxv_nvals,
                cond_changed: r0.cond_changed as usize,
                uncond_changed: r0.uncond_changed as usize,
                shortcut_changed: r0.shortcut_changed as usize,
                fourth_changed: r0.fourth_changed as usize,
                modeled: StepBreakdown {
                    cond_s: max_over(|b| b.cond_s),
                    uncond_s: max_over(|b| b.uncond_s),
                    shortcut_s: max_over(|b| b.shortcut_s),
                    starcheck_s: max_over(|b| b.starcheck_s),
                },
                extract_received: outs.iter().map(|o| o.iters[k].extract_received).collect(),
            }
        })
        .collect();

    Ok(RunOutput {
        run: LaccRun {
            labels,
            iters,
            p,
            modeled_total_s,
            wall_s,
        },
        engine: opts.engine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::lacc_serial;
    use dmsim::EDISON;
    use lacc_graph::generators::*;
    use lacc_graph::stats::ground_truth_labels;
    use lacc_graph::unionfind::canonicalize_labels;

    const ENGINES: [EngineSelect; 3] = [
        EngineSelect::Lacc,
        EngineSelect::Fastsv,
        EngineSelect::LabelProp,
    ];

    fn model() -> MachineModel {
        EDISON.lacc_model()
    }

    fn run_with(g: &CsrGraph, p: usize, opts: &LaccOpts) -> RunOutput {
        run(g, &RunConfig::new(p, model()).with_opts(*opts)).unwrap()
    }

    fn check(g: &CsrGraph, p: usize, opts: &LaccOpts) -> RunOutput {
        let out = run_with(g, p, opts);
        assert_eq!(
            canonicalize_labels(&out.labels),
            ground_truth_labels(g),
            "wrong components at p={p} engine={}",
            out.engine
        );
        out
    }

    #[test]
    fn correct_across_grid_sizes() {
        let g = erdos_renyi_gnm(200, 300, 5);
        for p in [1, 4, 9, 16] {
            check(&g, p, &LaccOpts::default());
        }
    }

    #[test]
    fn bit_identical_to_serial_without_permutation() {
        let opts = LaccOpts {
            permute: false,
            ..LaccOpts::default()
        };
        for seed in 0..3 {
            let g = community_graph(600, 30, 3.0, 1.4, seed);
            let serial = lacc_serial(&g, &opts);
            for p in [4, 9] {
                let dist = run_with(&g, p, &opts);
                assert_eq!(dist.labels, serial.labels, "seed={seed} p={p}");
                // Same iteration trajectory too.
                assert_eq!(dist.num_iterations(), serial.num_iterations());
                for (a, b) in dist.iters.iter().zip(&serial.iters) {
                    assert_eq!(a.cond_changed, b.cond_changed);
                    assert_eq!(a.uncond_changed, b.uncond_changed);
                    assert_eq!(a.shortcut_changed, b.shortcut_changed);
                    assert_eq!(a.converged_after, b.converged_after);
                }
            }
        }
    }

    #[test]
    fn permutation_preserves_partition() {
        let g = rmat(8, 4, RmatParams::graph500(), 9);
        let run = check(&g, 4, &LaccOpts::default());
        assert!(run.num_iterations() > 0);
    }

    #[test]
    fn works_with_all_comm_configs() {
        let g = metagenome_graph(800, 6, 0.01, 3);
        for opts in [
            LaccOpts::default(),
            LaccOpts::naive_comm(),
            LaccOpts::dense_as(),
        ] {
            check(&g, 4, &opts);
        }
    }

    #[test]
    fn path_worst_case_distributed() {
        let g = path_graph(1000);
        let run = check(&g, 16, &LaccOpts::default());
        assert_eq!(run.num_components(), 1);
        assert!(run.modeled_total_s > 0.0);
    }

    #[test]
    fn exhausted_round_bound_is_an_error_not_unconverged_labels() {
        // One LACC round cannot finish a 1000-vertex path; the run must say
        // so instead of returning the 297 partial trees it has by then.
        let g = path_graph(1000);
        let one_round = |engine| {
            let opts = LaccOpts::builder()
                .max_iters(1)
                .unwrap()
                .engine(engine)
                .build();
            run(&g, &RunConfig::new(4, model()).with_opts(opts))
        };
        let err = one_round(EngineSelect::Lacc).unwrap_err();
        assert_eq!(
            err.message(),
            "engine lacc did not converge within its bound of 1 rounds"
        );
        assert_eq!(err.kind, ErrorKind::NotConverged);
        assert_eq!(err.to_string(), err.message());
        // FastSV's bound is its own 8·⌈log₂ n⌉ + 32; `max_iters` is LACC's.
        let out = one_round(EngineSelect::Fastsv).unwrap();
        assert_eq!(out.num_components(), 1);
        assert!(out.num_iterations() > 1);
    }

    #[test]
    fn stats_are_populated() {
        let g = community_graph(2000, 100, 3.0, 1.4, 8);
        let run = check(&g, 4, &LaccOpts::default());
        assert_eq!(run.p, 4);
        let last = run.iters.last().unwrap();
        assert_eq!(last.converged_after, 2000);
        assert_eq!(run.iters[0].extract_received.len(), 4);
        assert!(run.breakdown().total() > 0.0);
        assert!(run.modeled_total_s >= run.breakdown().total() * 0.5);
    }

    #[test]
    fn single_vertex_and_empty() {
        check(
            &CsrGraph::from_edges(lacc_graph::EdgeList::new(1)),
            4,
            &LaccOpts::default(),
        );
        check(
            &CsrGraph::from_edges(lacc_graph::EdgeList::new(0)),
            1,
            &LaccOpts::default(),
        );
    }

    #[test]
    fn more_ranks_than_vertices() {
        let g = path_graph(7);
        check(&g, 16, &LaccOpts::default());
    }

    #[test]
    fn tracing_is_observation_only() {
        // The tentpole guarantee: turning tracing on (even at the most
        // verbose level) changes neither the labels nor any modeled
        // statistic, bit for bit.
        use dmsim::TraceLevel;
        let g = rmat(8, 4, RmatParams::graph500(), 11);
        let opts = LaccOpts::default();
        let off = run_with(&g, 4, &opts);
        let sink = TraceSink::new(TraceLevel::Collectives);
        let on = run(
            &g,
            &RunConfig::new(4, model()).with_opts(opts).with_trace(&sink),
        )
        .unwrap();
        assert_eq!(off.labels, on.labels);
        assert_eq!(off.num_iterations(), on.num_iterations());
        assert_eq!(off.modeled_total_s, on.modeled_total_s);
        for (a, b) in off.iters.iter().zip(&on.iters) {
            assert_eq!(a.modeled, b.modeled);
            assert_eq!(a.extract_received, b.extract_received);
        }
        // The traced run actually recorded the full hierarchy: the
        // engine wrapper, all four LACC steps, the distributed ops, and
        // the collectives under them.
        let report = sink.report();
        for name in [
            "engine(lacc)",
            "cond_hook",
            "uncond_hook",
            "shortcut",
            "starcheck",
            "mxv",
            "assign",
            "extract",
            "allgatherv",
        ] {
            assert!(report.kind_time_s(name) > 0.0, "missing span kind {name}");
        }
        let json = sink.chrome_trace_json();
        assert!(json.contains("\"cond_hook\""));
        assert!(json.contains("\"engine(lacc)\""));
        assert!(report.load_imbalance >= 1.0);
    }

    #[test]
    fn rerun_entry_is_bit_identical_and_tagged() {
        use dmsim::TraceLevel;
        let g = rmat(8, 4, RmatParams::graph500(), 13);
        let opts = LaccOpts::default();
        let plain = run_with(&g, 4, &opts);
        let sink = TraceSink::new(TraceLevel::Steps);
        let rerun = run(
            &g,
            &RunConfig::new(4, model())
                .with_opts(opts)
                .with_trace(&sink)
                .with_rerun(RerunReason::Deletion),
        )
        .unwrap();
        // The rerun wrapper is observational: same labels, same clock.
        assert_eq!(plain.labels, rerun.labels);
        assert_eq!(plain.modeled_total_s, rerun.modeled_total_s);
        let report = sink.report();
        assert_eq!(report.reruns, 1);
        assert!(report.kind_time_s("rerun(deletion)") > 0.0);
        assert_eq!(report.kind_time_s("rerun(staleness)"), 0.0);
        // Two reruns into the same sink accumulate, and the max-over-ranks
        // aggregation counts each p-rank rebuild once.
        run(
            &g,
            &RunConfig::new(4, model())
                .with_opts(opts)
                .with_trace(&sink)
                .with_rerun(RerunReason::Staleness),
        )
        .unwrap();
        let report = sink.report();
        assert_eq!(report.reruns, 2);
        assert!(report.kind_time_s("rerun(staleness)") > 0.0);
    }

    #[test]
    fn panicking_rank_surfaces_as_error() {
        // p = 2 is not a perfect square. It is rejected on the caller
        // thread before any rank is spawned, so the grid assertion never
        // gets to fire: a typed error, not a crash.
        let g = path_graph(10);
        assert!(run(&g, &RunConfig::new(2, model())).is_err());
    }

    #[test]
    fn non_square_or_zero_ranks_is_a_typed_error_naming_the_value() {
        let g = path_graph(10);
        for ranks in [0usize, 2, 3, 5, 8] {
            let err = run(&g, &RunConfig::new(ranks, model())).unwrap_err();
            assert!(
                err.message().contains(&format!("invalid ranks: {ranks} ")),
                "{}",
                err.message()
            );
            // A refused configuration, reported as one: no rank ever ran.
            assert_eq!(err.kind, ErrorKind::InvalidConfig);
            assert_eq!(err.to_string(), err.message());
        }
        for ranks in [1usize, 4, 9, 16] {
            assert!(check_ranks(ranks).is_ok(), "{ranks}");
        }
    }

    // ---------------- engine portfolio ----------------

    #[test]
    fn fastsv_engine_matches_serial_fastsv_labels() {
        // Without permutation both converge to component minima, so the
        // raw labels are equal — not just the partitions.
        let g = community_graph(800, 40, 3.0, 1.4, 12);
        let serial = baselines_oracle_fastsv(&g);
        let opts = LaccOpts {
            permute: false,
            engine: EngineSelect::Fastsv,
            ..LaccOpts::default()
        };
        let out = run_with(&g, 4, &opts);
        assert_eq!(out.engine, EngineSelect::Fastsv);
        assert_eq!(out.labels, serial);
    }

    // A tiny local FastSV oracle (mirrors `lacc-baselines::fastsv_cc`,
    // which this crate cannot depend on without a cycle).
    fn baselines_oracle_fastsv(g: &CsrGraph) -> Vec<crate::Vid> {
        let n = g.num_vertices();
        let mut f: Vec<usize> = (0..n).collect();
        let mut gf = f.clone();
        loop {
            let mut changed = 0u64;
            let fnv: Vec<usize> = (0..n)
                .map(|u| {
                    g.neighbors(u)
                        .iter()
                        .map(|&v| gf[v])
                        .min()
                        .unwrap_or(usize::MAX)
                })
                .collect();
            for u in 0..n {
                let fu = f[u];
                if fnv[u] < f[fu] {
                    f[fu] = fnv[u];
                    changed += 1;
                }
            }
            for u in 0..n {
                if fnv[u] < f[u] {
                    f[u] = fnv[u];
                    changed += 1;
                }
            }
            for u in 0..n {
                if gf[u] < f[u] {
                    f[u] = gf[u];
                    changed += 1;
                }
            }
            for u in 0..n {
                let new = f[f[u]];
                if gf[u] != new {
                    gf[u] = new;
                    changed += 1;
                }
            }
            if changed == 0 {
                break;
            }
        }
        f
    }

    #[test]
    fn all_engines_agree_canonically() {
        for (name, g) in [
            ("rmat", rmat(8, 4, RmatParams::graph500(), 21)),
            ("community", community_graph(600, 30, 3.0, 1.4, 4)),
            ("path", path_graph(300)),
            ("metagenome", metagenome_graph(500, 6, 0.01, 9)),
        ] {
            let truth = ground_truth_labels(&g);
            for select in ENGINES {
                // Label propagation on a long path is O(diameter) rounds —
                // legal but slow.
                if name == "path" && select == EngineSelect::LabelProp {
                    continue;
                }
                let opts = LaccOpts {
                    engine: select,
                    ..LaccOpts::default()
                };
                let out = run_with(&g, 4, &opts);
                assert_eq!(
                    canonicalize_labels(&out.labels),
                    truth,
                    "engine={select} graph={name}"
                );
            }
        }
    }

    #[test]
    fn engine_spans_tag_the_run() {
        use dmsim::TraceLevel;
        let g = rmat(8, 4, RmatParams::graph500(), 17);
        for select in ENGINES {
            let sink = TraceSink::new(TraceLevel::Steps);
            let opts = LaccOpts {
                engine: select,
                ..LaccOpts::default()
            };
            let out = run(
                &g,
                &RunConfig::new(4, model()).with_opts(opts).with_trace(&sink),
            )
            .unwrap();
            assert_eq!(
                canonicalize_labels(&out.labels),
                ground_truth_labels(&g),
                "{select}"
            );
            assert_eq!(out.engine, select);
            let report = sink.report();
            for other in ENGINES {
                let span = SpanKind::Engine(other).name();
                assert_eq!(report.kind_time_s(span) > 0.0, other == select, "{span}");
            }
            // The engine is known before a rank spawns: nothing runs ahead
            // of the engine span, which is each rank's one top-level span,
            // and the engine is all the run has to say about itself.
            for rt in sink.rank_traces() {
                let top = rt.spans.iter().filter(|s| s.depth == 0);
                let top: Vec<SpanKind> = top.map(|s| s.kind).collect();
                assert_eq!(top, [SpanKind::Engine(select)], "rank {}", rt.rank);
            }
            assert_eq!(
                sink.metadata(),
                [("engine".to_string(), select.to_string())]
            );
        }
    }

    #[test]
    fn no_mxv_asks_the_world_and_each_lacc_hook_runs_one() {
        // No primitive measures its input: SpMV or SpMSpV is the caller's
        // choice, from a count it already holds, so no `allreduce` opens
        // while an `mxv` span is open — and each of LACC's two hooking
        // steps runs exactly one `mxv`. (Nesting in open order, not clock
        // comparison: an overlap credit rewinds the clock under later spans.)
        use dmsim::{SpanRecord, TraceLevel};
        fn under(spans: &[SpanRecord], i: usize) -> impl Iterator<Item = &SpanRecord> {
            let inside = move |s: &&SpanRecord| s.depth > spans[i].depth;
            spans[i + 1..].iter().take_while(inside)
        }
        let g = rmat(9, 6, RmatParams::graph500(), 5);
        for select in ENGINES {
            let sink = TraceSink::new(TraceLevel::Collectives);
            let opts = LaccOpts {
                engine: select,
                ..LaccOpts::default()
            };
            let cfg = RunConfig::new(4, model()).with_opts(opts).with_trace(&sink);
            let rounds = run(&g, &cfg).unwrap().num_iterations();
            for rt in sink.rank_traces() {
                let mut mxvs = 0;
                for (i, s) in rt.spans.iter().enumerate() {
                    let mut inner = under(&rt.spans, i);
                    match s.kind {
                        SpanKind::Mxv => {
                            mxvs += 1;
                            let asked = inner.any(|c| c.kind == SpanKind::Allreduce);
                            assert!(!asked, "{select} rank {}: allreduce in an mxv", rt.rank);
                        }
                        SpanKind::CondHook | SpanKind::UncondHook
                            if select == EngineSelect::Lacc =>
                        {
                            let n = inner.filter(|c| c.kind == SpanKind::Mxv).count();
                            assert_eq!(n, 1, "rank {}: mxv spans in {:?}", rt.rank, s.kind);
                        }
                        _ => {}
                    }
                }
                let per_round = if select == EngineSelect::Lacc { 2 } else { 1 };
                assert_eq!(mxvs, per_round * rounds, "{select} rank {}", rt.rank);
            }
        }
    }

    #[test]
    fn engine_metadata_recorded_in_trace() {
        use dmsim::TraceLevel;
        let g = rmat(8, 4, RmatParams::graph500(), 17);
        let sink = TraceSink::new(TraceLevel::Steps);
        let opts = LaccOpts {
            engine: EngineSelect::Fastsv,
            ..LaccOpts::default()
        };
        run(
            &g,
            &RunConfig::new(4, model()).with_opts(opts).with_trace(&sink),
        )
        .unwrap();
        // The engine's name surfaces as a Chrome metadata event.
        let meta = sink.metadata();
        assert!(meta.contains(&("engine".to_string(), "fastsv".to_string())));
        let json = sink.chrome_trace_json();
        assert!(json.contains("\"ph\":\"M\""));
    }

    #[test]
    fn fastsv_uses_the_optimized_stack() {
        // With the optimized DistOpts the FastSV engine
        // reports nonzero words-saved (compaction active on its planned
        // extracts / combining assigns); with naive() it reports none.
        use dmsim::TraceLevel;
        let g = rmat(9, 8, RmatParams::graph500(), 3);
        let words_saved = |opts: &LaccOpts| {
            let sink = TraceSink::new(TraceLevel::Steps);
            run(
                &g,
                &RunConfig::new(4, model())
                    .with_opts(*opts)
                    .with_trace(&sink),
            )
            .unwrap();
            sink.report().words_saved
        };
        let optimized = LaccOpts {
            engine: EngineSelect::Fastsv,
            ..LaccOpts::default()
        };
        let naive = LaccOpts {
            engine: EngineSelect::Fastsv,
            ..LaccOpts::naive_comm()
        };
        assert!(words_saved(&optimized) > 0, "no compaction savings");
        assert_eq!(words_saved(&naive), 0);
    }

    #[test]
    fn engines_agree_across_widths_and_layouts() {
        let g = community_graph(400, 20, 3.0, 1.4, 6);
        let truth = ground_truth_labels(&g);
        for select in [EngineSelect::Fastsv, EngineSelect::LabelProp] {
            let opts = LaccOpts {
                permute: false,
                engine: select,
                ..LaccOpts::default()
            };
            // Min-monotone engines converge to component minima, so the
            // unpermuted raw labels are already the canonical ones.
            let out = run_with(&g, 4, &opts);
            assert_eq!(out.run.labels, truth, "{select}");
        }
    }
}
