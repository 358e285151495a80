//! Distributed connected components over the simulated machine — the
//! unified entry point for the whole engine portfolio.
//!
//! [`run`] executes one SPMD program on `p` simulated ranks: it wraps the
//! run in a trace span tagged with the configured [`crate::EngineSelect`]
//! and runs that engine's rule set under the one iteration driver.
//! Everything a run can vary — options, trace sink, serving-rerun tagging
//! — lives in [`RunConfig`].
//!
//! The caller thread does no per-edge work: it draws the load-balancing
//! [`Permutation`] and plants the graph's hubs at the lowest ids (both
//! O(n), [`Permutation::load_balancing`]), and every rank builds its own
//! matrix block inside the SPMD region from the borrowed input graph and
//! that relabeling — the permuted graph is never materialized.
//!
//! With the default LACC engine and `permute = false`, a distributed run
//! produces a parent vector *bit-identical* to [`crate::serial`] (tested
//! below) — the strongest possible correctness statement for the
//! communication layer.

use crate::engine::driver::drive;
use crate::engine::{EngineCtx, EngineRun, EngineSelect, Fastsv, Id, LabelProp, Lacc};
use crate::options::{LaccOpts, PERMUTE_SEED};
use crate::stats::{IterStats, LaccRun, StepBreakdown};
use dmsim::{
    run_spmd_traced, Comm, Counter, DmsimError, ErrorKind, MachineModel, RerunReason, SpanKind,
    TraceSink,
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
    /// in a reason-tagged `rerun(...)` span and counted as
    /// [`Counter::Reruns`] on rank 0.
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

/// One rank's share of [`run`].
fn run_engine(
    comm: &mut Comm,
    g: &CsrGraph,
    perm: Option<&Permutation>,
    opts: &LaccOpts,
) -> Result<EngineRun, DmsimError> {
    let engine = opts.engine;
    let mut ctx = EngineCtx::new(comm, g, perm, opts);
    match engine {
        EngineSelect::Lacc => drive(Lacc::new(&ctx), &mut ctx),
        EngineSelect::Fastsv => drive(Fastsv::new(&ctx), &mut ctx),
        EngineSelect::LabelProp => drive(LabelProp::new(&ctx), &mut ctx),
    }
    .map_err(|bound| not_converged(engine, bound))
}

/// The error of an engine that ran out of rounds: the labels it holds
/// then are not a component labeling.
fn not_converged(engine: EngineSelect, bound: usize) -> DmsimError {
    let message = format!("engine {engine} did not converge within its bound of {bound} rounds");
    DmsimError::new(ErrorKind::NotConverged, message)
}

/// The most simulated ranks a run may have: a 64 × 64 grid. Every rank
/// is an OS thread with its own stack, so the host sets this bound, not
/// the model; it is 16× the largest grid of any committed result.
const MAX_RANKS: usize = 4096;

/// Checks that `ranks` simulated ranks form the square process grid every
/// run is laid out on (CombBLAS' restriction, §VI-A): a positive perfect
/// square of at most 4096 (64 × 64). The rank count is user input
/// (`--ranks`), so a bad one is an error naming the value, not
/// [`dmsim::Grid2d::square`]'s panic or a host that runs out of threads.
pub fn check_ranks(ranks: usize) -> Result<(), DmsimError> {
    let message = if ranks == 0 || ranks.isqrt().pow(2) != ranks {
        format!("invalid ranks: {ranks} is not a positive perfect square (1, 4, 9, 16, ...)")
    } else if ranks > MAX_RANKS {
        format!("invalid ranks: {ranks} is more than the {MAX_RANKS} (64 × 64) a run may simulate")
    } else {
        return Ok(());
    };
    Err(DmsimError::new(ErrorKind::InvalidConfig, message))
}

/// Runs the configured engine on `cfg.ranks` simulated ranks.
///
/// Returns labels in the *original* vertex numbering even when
/// `opts.permute` applies a load-balancing relabeling internally: a random
/// permutation with the hubs planted at ids 0, 1, 2, …
/// ([`Permutation::load_balancing`]). Errs if `ranks` is not a positive
/// perfect square ([`check_ranks`]) or the graph has more vertices than
/// `u32` ids can name, with the failing rank and panic payload if any
/// rank panics, and with the engine and its round bound if the engine
/// runs out of rounds before converging (`8·bitlen(n) + 32` for LACC and
/// FastSV, `n + 2` for label propagation) — never `Ok` with unconverged
/// labels.
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
    ensure_fits::<Id>(n, "vertices")
        .map_err(|e| DmsimError::new(ErrorKind::InvalidConfig, e.to_string()))?;
    let opts = &cfg.opts;
    let perm = (opts.permute && n > 1).then(|| Permutation::load_balancing(g, PERMUTE_SEED));
    let perm = perm.as_ref();
    let rerun = cfg.rerun;
    let wall_start = Instant::now();
    let spmd = |comm: &mut Comm| {
        // An epoch rebuild counts itself (on rank 0, so sums over
        // snapshots count each rebuild once) and wraps the whole SPMD
        // body in a reason-tagged span; both are observational.
        let rerun_span = rerun.map(|reason| {
            if comm.rank() == 0 {
                comm.count(Counter::Reruns, 1);
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
        .collect::<Result<Vec<EngineRun>, DmsimError>>()?;
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
    // The ranks' records of a round agree on every global counter; the
    // run's record takes those from rank 0, the slowest rank's seconds per
    // step, and every rank's extract requests in rank order.
    let niters = outs[0].iters.len();
    debug_assert!(outs.iter().all(|o| o.iters.len() == niters));
    let iters: Vec<IterStats> = (0..niters)
        .map(|k| {
            let ranks = || outs.iter().map(|o| &o.iters[k]);
            let max_over = |sel: fn(&StepBreakdown) -> f64| {
                ranks().map(|r| sel(&r.modeled)).fold(0.0f64, f64::max)
            };
            IterStats {
                modeled: StepBreakdown {
                    cond_s: max_over(|b| b.cond_s),
                    uncond_s: max_over(|b| b.uncond_s),
                    shortcut_s: max_over(|b| b.shortcut_s),
                    starcheck_s: max_over(|b| b.starcheck_s),
                },
                extract_received: ranks().flat_map(|r| r.extract_received.clone()).collect(),
                ..outs[0].iters[k].clone()
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
    use crate::stats::UncondHook;
    use dmsim::EDISON;
    use lacc_baselines::union_find_cc;
    use lacc_graph::generators::*;
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
            union_find_cc(g),
            "wrong components at p={p} engine={}",
            out.engine
        );
        out
    }

    /// LACC under Lemma-1 retirement without the permutation: the serial
    /// run, then p = 1, 4, 9 and 16, each with union-find's labels and the
    /// serial run's labels and rounds. Every run keeps the one-tree rule:
    /// exactly the rounds after one that ended with one active root run no
    /// `mxv` and no hook, and the others run the conditional hook.
    fn one_tree_runs(g: &CsrGraph) -> Vec<(String, LaccRun)> {
        let opts = LaccOpts {
            permute: false,
            ..LaccOpts::default()
        };
        let serial = lacc_serial(g, &opts);
        let mut runs = vec![("serial".to_string(), serial.clone())];
        for p in [1, 4, 9, 16] {
            let run = check(g, p, &opts).run;
            assert_eq!(run.labels, serial.labels, "p={p}");
            let counters = |r: &LaccRun| -> Vec<_> {
                let c = |it: &IterStats| (it.total_changed(), it.fourth_changed, it.active_roots);
                r.iters.iter().map(c).collect()
            };
            assert_eq!(counters(&run), counters(&serial), "p={p}");
            runs.push((format!("p={p}"), run));
        }
        for (at, run) in &runs {
            let mut one_root = false;
            for it in &run.iters {
                let hooked = (it.spmv_dense, it.mxv_nvals > 0);
                if one_root {
                    assert_eq!(hooked, (false, false), "{at} round {}", it.iteration);
                    assert_eq!(it.cond_changed + it.uncond_changed, 0, "{at}");
                } else {
                    assert_ne!(hooked, (false, false), "{at} round {}", it.iteration);
                }
                one_root = it.active_roots == 1;
            }
        }
        runs
    }

    #[test]
    fn one_tree_rule_shortcuts_a_deep_last_tree_without_an_mxv() {
        use dmsim::TraceLevel;
        // Paths leave one deep tree: once it is the only one, rounds of
        // shortcuts alone flatten it, then one round retires it. In id
        // order every vertex hooks onto vertex 0 in round 1, leaving nine
        // such rounds; this shuffle leaves one.
        let n = 1000;
        let path = path_graph(n);
        let shuffled = lacc_graph::permute::Permutation::random(n, 6).permute_graph(&path);
        for (g, flattening_rounds) in [(path, 9), (shuffled, 1)] {
            for (at, run) in one_tree_runs(&g) {
                let first = run.iters.iter().position(|it| it.active_roots == 1);
                let finishing = &run.iters[first.expect("one tree remains") + 1..];
                let (last, flattening) = finishing.split_last().unwrap();
                assert_eq!(flattening.len(), flattening_rounds, "{at}");
                assert!(flattening.iter().all(|it| it.shortcut_changed > 0), "{at}");
                assert_eq!((last.shortcut_changed, last.fourth_changed), (0, n), "{at}");
            }
        }
        // The trace agrees: one `mxv` per cond-hook and per pulled hook.
        let sink = TraceSink::new(TraceLevel::Collectives);
        let opts = LaccOpts {
            permute: false,
            ..LaccOpts::default()
        };
        let cfg = RunConfig::new(4, model()).with_opts(opts).with_trace(&sink);
        let run = run(&path_graph(n), &cfg).unwrap().run;
        let cond = run.iters.iter().filter(|it| it.mxv_nvals > 0).count();
        assert_eq!(cond, 1);
        let pulled = run
            .iters
            .iter()
            .filter(|it| it.uncond_hook == UncondHook::Pull);
        let want = cond + pulled.count();
        for rt in sink.rank_traces() {
            let mxvs = rt.spans.iter().filter(|s| s.kind == SpanKind::Mxv).count();
            assert_eq!(mxvs, want, "rank {}", rt.rank);
        }
    }

    #[test]
    fn one_tree_rule_retires_a_giant_beside_isolated_vertices() {
        // Vertices 0..200 form one component; 200..500 are isolated and
        // retire in round 1, so the giant ends as the last active tree.
        let edges = (0..199)
            .map(|v| (v, v + 1))
            .chain((0..198).map(|v| (v, v + 2)));
        let g = CsrGraph::from_edges(lacc_graph::EdgeList::from_pairs(500, edges));
        for (at, run) in one_tree_runs(&g) {
            assert_eq!(run.iters[0].fourth_changed, 300, "{at}");
            let last = run.iters.last().unwrap();
            assert_eq!((last.mxv_nvals, last.fourth_changed), (0, 200), "{at}");
        }
    }

    #[test]
    fn one_tree_rule_never_fires_on_two_equal_components() {
        // Two copies of one graph, the second offset by its size: they hook in
        // step and retire together, so a round never ends on one root.
        let copy = rmat(7, 4, RmatParams::graph500(), 3);
        let (n, k) = (2 * copy.num_vertices(), copy.num_vertices());
        let copy_edges: Vec<(usize, usize)> = copy.edges().filter(|&(u, v)| u < v).collect();
        let edges = copy_edges
            .iter()
            .flat_map(|&(u, v)| [(u, v), (u + k, v + k)]);
        let g = CsrGraph::from_edges(lacc_graph::EdgeList::from_pairs(n, edges));
        for (at, run) in one_tree_runs(&g) {
            assert!(run.iters.iter().all(|it| it.active_roots != 1), "{at}");
            assert!(run.iters.iter().all(|it| it.mxv_nvals > 0), "{at}");
        }
    }

    #[test]
    fn one_tree_rule_on_the_lemma1_counterexample_and_degenerate_sizes() {
        let lemma1 = lacc_graph::EdgeList::from_pairs(82, [(77, 80), (80, 79), (79, 81), (81, 78)]);
        for g in [
            CsrGraph::from_edges(lemma1),
            CsrGraph::from_edges(lacc_graph::EdgeList::new(0)),
            CsrGraph::from_edges(lacc_graph::EdgeList::new(1)),
        ] {
            let n = g.num_vertices();
            for (at, run) in one_tree_runs(&g) {
                let last = run.iters.last().unwrap();
                assert_eq!(last.converged_after, n, "n={n} {at}");
                assert_eq!(last.active_roots, 0, "n={n} {at}");
            }
        }
    }

    #[test]
    fn fresh_stars_save_rounds_on_rmat() {
        // Reading stars computed before the last shortcut, this graph took
        // 5 rounds serially and 7 at p = 4 under the random permutation;
        // from exact stars it takes 4 and 5. The load-balancing permutation
        // plants its hubs at the lowest ids, so their neighbourhoods hook
        // onto them in round 1: p = 4 then takes 3 (the serial run is
        // unpermuted and stays at 4).
        let g = rmat(11, 8, RmatParams::graph500(), 7);
        let serial = lacc_serial(&g, &LaccOpts::default());
        assert_eq!(serial.num_iterations(), 4);
        assert_eq!(check(&g, 4, &LaccOpts::default()).num_iterations(), 3);
    }

    #[test]
    fn exhausted_round_bound_is_an_error_not_unconverged_labels() {
        // A rule set that hooks something every round never converges; the
        // run must say so, on every rank, instead of returning its labels.
        use crate::engine::driver::{fixpoint, log_round_bound, Rules, Verdict};
        use gblas::dist::DistVec;
        struct Restless;
        impl Rules<1> for Restless {
            fn max_rounds(n: usize) -> usize {
                log_round_bound(n)
            }
            fn round(&mut self, _: &mut EngineCtx<'_>, _: &mut DistVec<Id>) -> [u64; 4] {
                [1, 0, 0, 0]
            }
            fn settle(&mut self, n: usize, changed: &mut [u64; 4]) -> Verdict {
                fixpoint(n, changed)
            }
        }
        let g = path_graph(1000);
        let opts = LaccOpts::default();
        let outs = dmsim::run_spmd(4, |comm| {
            let mut cx = EngineCtx::new(comm, &g, None, &opts);
            drive(Restless, &mut cx).map_err(|bound| not_converged(EngineSelect::Lacc, bound))
        });
        // 1000 vertices take 10 bits: 8 · 10 + 32 rounds.
        assert_eq!(log_round_bound(1000), 112);
        let message = "engine lacc did not converge within its bound of 112 rounds";
        for out in outs.unwrap() {
            let err = out.err().expect("a restless rule set never converges");
            assert_eq!(err.message(), message);
            assert_eq!(err.kind, ErrorKind::NotConverged);
            assert_eq!(err.to_string(), err.message());
        }
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
    fn extract_received_series_is_pinned_per_round_and_rank() {
        // Figure 3's series, read off the counter registry: each extract
        // notes the requests it answers where it answers them. A noting
        // site missed or counted twice moves a number here. The combining
        // route counts its delivered ids once for starcheck's two phases;
        // the legacy wire counts every arrival, phase by phase. Since the
        // permutation plants this graph's hubs at ids 0.. (on rank 0), LACC
        // runs 3 rounds here where it ran 4, and its last round's requests
        // all reach rank 0.
        let g = rmat(8, 4, RmatParams::graph500(), 11);
        let pins: [(EngineSelect, LaccOpts, &[[u64; 4]]); 4] = [
            (
                EngineSelect::Lacc,
                LaccOpts::default(),
                &[[108, 75, 88, 67], [8, 0, 1, 0], [1, 0, 0, 0]],
            ),
            (
                EngineSelect::Lacc,
                LaccOpts::naive_comm(),
                &[[423, 89, 125, 74], [422, 0, 4, 0], [414, 0, 0, 0]],
            ),
            (
                EngineSelect::Fastsv,
                LaccOpts::default(),
                &[
                    [47, 25, 34, 12],
                    [14, 15, 14, 9],
                    [13, 15, 13, 9],
                    [13, 15, 13, 9],
                ],
            ),
            (
                EngineSelect::Fastsv,
                LaccOpts::naive_comm(),
                &[
                    [173, 27, 42, 14],
                    [218, 15, 14, 9],
                    [219, 15, 13, 9],
                    [219, 15, 13, 9],
                ],
            ),
        ];
        for (engine, base, want) in pins {
            let opts = LaccOpts { engine, ..base };
            let out = run_with(&g, 4, &opts);
            let got: Vec<&[u64]> = out
                .iters
                .iter()
                .map(|it| &it.extract_received[..])
                .collect();
            let want: Vec<&[u64]> = want.iter().map(|r| &r[..]).collect();
            assert_eq!(got, want, "{engine} {:?}", opts.dist.wire);
        }
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
        assert_eq!(report.counter(Counter::Reruns), 1);
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
        assert_eq!(report.counter(Counter::Reruns), 2);
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
        // 65² and 128² are squares, but past what the host may simulate.
        for ranks in [0usize, 2, 3, 5, 8, 4225, 16384] {
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
        for ranks in [1usize, 4, 9, 16, MAX_RANKS] {
            assert!(check_ranks(ranks).is_ok(), "{ranks}");
        }
    }

    // ---------------- engine portfolio ----------------

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
                union_find_cc(&g),
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
        // while an `mxv` span is open. LACC's cond-hook runs exactly one
        // `mxv`; its uncond-hook runs one allreduce of the star and nonstar
        // counts, then one `mxv` if and only if the round's record says the
        // hook ran; the shortcut after it extracts grandparents (for the
        // stars it hooked) under the same condition, and reads the
        // nonstars' from the last starcheck otherwise. A round that finishes
        // the last active tree runs neither hook, and its record says so
        // with no `mxv` entries. (Nesting in open order, not clock
        // comparison: an overlap credit rewinds the clock under later
        // spans.)
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
            let run = run(&g, &cfg).unwrap().run;
            let hooks: Vec<UncondHook> = run.iters.iter().map(|it| it.uncond_hook).collect();
            let ran = hooks.iter().filter(|&&h| h != UncondHook::Skipped).count();
            let hooked = run.iters.iter().filter(|it| it.mxv_nvals > 0);
            let hooked: Vec<UncondHook> = hooked.map(|it| it.uncond_hook).collect();
            if select == EngineSelect::Lacc {
                assert!(ran > 0 && ran < hooks.len(), "{hooks:?}");
            } else {
                assert_eq!(ran, 0, "{select}: {hooks:?}");
            }
            for rt in sink.rank_traces() {
                let (mut mxvs, mut uncond_hooks) = (0, hooked.iter());
                let mut shortcuts = hooks.iter();
                for (i, s) in rt.spans.iter().enumerate() {
                    let count = |kind| under(&rt.spans, i).filter(|c| c.kind == kind).count();
                    match s.kind {
                        SpanKind::Mxv => {
                            mxvs += 1;
                            let asked = under(&rt.spans, i).any(|c| c.kind == SpanKind::Allreduce);
                            assert!(!asked, "{select} rank {}: allreduce in an mxv", rt.rank);
                        }
                        SpanKind::CondHook if select == EngineSelect::Lacc => {
                            let n = count(SpanKind::Mxv);
                            assert_eq!(n, 1, "rank {}: mxv spans in a cond-hook", rt.rank);
                        }
                        SpanKind::UncondHook if select == EngineSelect::Lacc => {
                            let hook = *uncond_hooks.next().unwrap();
                            let want = usize::from(hook != UncondHook::Skipped);
                            let got = (count(SpanKind::Allreduce), count(SpanKind::Mxv));
                            assert_eq!(got, (1, want), "rank {}: {hook:?}", rt.rank);
                        }
                        SpanKind::Shortcut if select == EngineSelect::Lacc => {
                            let hook = *shortcuts.next().unwrap();
                            let want = usize::from(hook == UncondHook::Pull);
                            let got = count(SpanKind::Extract);
                            assert_eq!(got, want, "rank {}: shortcut {hook:?}", rt.rank);
                        }
                        _ => {}
                    }
                }
                let want = if select == EngineSelect::Lacc {
                    assert_eq!(uncond_hooks.next(), None, "rank {}", rt.rank);
                    assert_eq!(shortcuts.next(), None, "rank {}", rt.rank);
                    hooked.len() + ran
                } else {
                    hooks.len()
                };
                assert_eq!(mxvs, want, "{select} rank {}", rt.rank);
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
            sink.report().counter(Counter::WordsSaved)
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
}
