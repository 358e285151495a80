//! The two passes of one workload invocation.
//!
//! * [`measure_end_to_end`] (`--trace 0`): no tracing anywhere that is
//!   timed. Sets up three instances of the workload's family, repeats
//!   `lacc::run` on them at `p = 4` for the time budget (at least 21
//!   times), takes counts and modeled seconds at `p = 4` and `p = 16`,
//!   then serves each instance through its own script.
//! * [`measure_layers`] (`--trace 1`): one instance, the layer probes,
//!   one library-traced `lacc::run`, and the same script again — this
//!   time with the benchmark's own spans recorded around every call.
//!
//! Both drive only public APIs with the default stack
//! (`LaccOpts::builder().engine(..).build()`, `DistOpts::default()`, a
//! `ServeOpts::default()`-shaped service); they name no option field and
//! read none of the per-feature counters, so levers can be deleted or
//! moved without editing the benchmark.

use crate::check::{oracle_labels, Checker};
use crate::host;
use crate::metrics::{median, percentile, MetricSet, Stats};
use crate::probes::{self, ProbeCtx};
use crate::spans::Recorder;
use crate::workloads::{Profile, Script, Workload};
use dmsim::{MachineModel, TraceLevel, TraceSink};
use lacc::{LaccOpts, RunConfig, RunOutput};
use lacc_graph::unionfind::{canonicalize_labels, count_components};
use lacc_graph::{CsrGraph, EdgeList, Vid};
use lacc_serving::{check_consistency, CcService, RerunPolicy, ServeOpts, UpdateBatch};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Ranks of every wall-clock run: the smallest square grid with real
/// row/column exchanges. Ranks are threads that block on channel
/// receives, so four of them share this host's two cores steadily.
pub const RANKS: usize = 4;

/// Ranks of the counts-only run: more ranks than cores, so it contributes
/// counts and modeled seconds and never a wall-clock figure.
pub const RANKS_WIDE: usize = 16;

/// Graph instances one end-to-end pass draws from its seed. Medians over
/// three instances keep a single unlucky draw (an RMAT graph that happens
/// to converge one iteration early, a community graph with an outsized
/// giant component) from moving the reported number.
pub const INSTANCES: usize = 3;

/// Everything one invocation is told.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Input sizes.
    pub profile: Profile,
    /// The seed every input derives from.
    pub seed: u64,
    /// Time budget of the timed repetitions, in seconds.
    pub seconds: f64,
}

impl RunArgs {
    /// Fewest timed `lacc::run` repetitions: with 21 samples the median
    /// is the highest percentile that still has ten samples beyond it.
    fn min_reps(&self) -> usize {
        match self.profile {
            Profile::Full => 21,
            Profile::Smoke => 3,
        }
    }

    /// Repetitions of each layer probe and of the per-layer pass's
    /// untraced runs.
    fn probe_reps(&self) -> usize {
        match self.profile {
            Profile::Full => 7,
            Profile::Smoke => 2,
        }
    }
}

/// The Edison model: every modeled number in the benchmark is on it.
fn model() -> MachineModel {
    dmsim::EDISON.lacc_model()
}

fn run_config(w: &Workload, ranks: usize, sink: Option<&Arc<TraceSink>>) -> RunConfig {
    RunConfig::new(ranks, model())
        .with_opts(LaccOpts::builder().engine(w.engine).build())
        .with_trace_opt(sink)
}

fn serve_opts(w: &Workload) -> ServeOpts {
    ServeOpts {
        policy: RerunPolicy::default().with_engine(w.engine),
        ..ServeOpts::default()
    }
}

/// One generated input with its oracle.
struct Instance {
    graph: CsrGraph,
    oracle: Vec<Vid>,
}

/// Generates instance `k`; returns it with the wall seconds of generation
/// (graph sampling and CSR build). The oracle is the benchmark's own work
/// and is not part of that time.
fn generate(args: &RunArgs, k: usize, rec: &mut Recorder) -> (Instance, f64) {
    let span = rec.open("graph", "generate");
    let t = Instant::now();
    let graph = args.workload.generate(args.seed, k as u64);
    let generate_s = t.elapsed().as_secs_f64();
    rec.count(span, "edges", graph.num_directed_edges() as f64);
    rec.close(span);
    let oracle = oracle_labels(&graph);
    (Instance { graph, oracle }, generate_s)
}

/// Boots a service from `g` (one full `lacc::run` inside); returns it with
/// the wall seconds, or `None` (counted as a failure) if the run errored.
fn bootstrap(
    w: &Workload,
    g: &CsrGraph,
    checker: &mut Checker,
    rec: &mut Recorder,
) -> Option<(CcService, f64)> {
    let span = rec.open("serving", "from_graph");
    let t = Instant::now();
    let svc = CcService::from_graph(g, serve_opts(w));
    let bootstrap_s = t.elapsed().as_secs_f64();
    rec.close(span);
    match svc {
        Ok(svc) => {
            checker.expect("CcService::from_graph", true);
            Some((svc, bootstrap_s))
        }
        Err(e) => {
            checker.expect(format_args!("CcService::from_graph: {e}"), false);
            None
        }
    }
}

/// One `lacc::run`, timed from outside (so the permute/clone before the
/// SPMD region counts) and checked against the oracle. `None` if it
/// errored; a label mismatch is counted but the timing is still returned.
fn checked_run(
    inst: &Instance,
    cfg: &RunConfig,
    what: &str,
    checker: &mut Checker,
    rec: &mut Recorder,
) -> Option<(f64, RunOutput)> {
    let span = rec.open("core", what);
    let t = Instant::now();
    let res = lacc::run(&inst.graph, cfg);
    let wall_s = t.elapsed().as_secs_f64();
    rec.close(span);
    checker.labels(what, res.as_ref().map(|o| &o.labels[..]), &inst.oracle);
    res.ok().map(|out| (wall_s, out))
}

/// Counts of one run, read from the rank snapshots of a trace sink.
struct Counted {
    out: RunOutput,
    wall_s: f64,
    wire_bytes: f64,
    sink: Arc<TraceSink>,
}

/// One run with a sink attached, for what only the rank snapshots carry
/// (`bytes_sent`). Modeled seconds and counts are bit-identical with
/// tracing on or off; its wall time is reported only as the traced wall.
fn counted_run(
    w: &Workload,
    inst: &Instance,
    ranks: usize,
    level: TraceLevel,
    checker: &mut Checker,
    rec: &mut Recorder,
) -> Option<Counted> {
    let sink = TraceSink::new(level);
    let cfg = run_config(w, ranks, Some(&sink));
    let what = format!("lacc::run p={ranks} counted");
    let (wall_s, out) = checked_run(inst, &cfg, &what, checker, rec)?;
    let wire_bytes = sink
        .rank_traces()
        .iter()
        .map(|rt| rt.snapshot.bytes_sent as f64)
        .sum();
    Some(Counted {
        out,
        wall_s,
        wire_bytes,
        sink,
    })
}

/// What the serving script measured.
#[derive(Default)]
struct Served {
    insert_s: Vec<f64>,
    rebuild_s: Vec<f64>,
    /// Wall seconds and query counts of the `find` / `same_component` /
    /// `component_size` thirds, summed over the bursts.
    query_s: [f64; 3],
    query_n: [u64; 3],
    snapshot_s: f64,
    updates: u64,
    hooks: u64,
    inserts: u64,
    noop_inserts: u64,
    rebuilds: u64,
    rebuild_modeled_s: f64,
    final_components: usize,
    modeled_query_s: Vec<f64>,
}

impl Served {
    fn apply_wall_s(&self) -> f64 {
        self.insert_s.iter().sum::<f64>() + self.rebuild_s.iter().sum::<f64>()
    }
    fn query_wall_s(&self) -> f64 {
        self.query_s.iter().sum()
    }
}

/// Drives `svc` through the script, closed loop, one client. The previous
/// epoch's snapshot stays alive across the next `apply_batch`, as a real
/// reader's would, so the copy-on-write path is paid. Ends with the
/// serving oracles: `check_consistency`, and canonical-label equality
/// with a fresh `lacc::run` over the service's final edge multiset.
fn serve(
    w: &Workload,
    svc: &mut CcService,
    script: &Script,
    want_modeled: bool,
    checker: &mut Checker,
    rec: &mut Recorder,
) -> Served {
    let model = model();
    let before = *svc.stats();
    let mut out = Served::default();
    let mut held = svc.snapshot();
    for (b, inserts) in script.inserts.iter().enumerate() {
        let mut batch = UpdateBatch::new();
        if let (Some(word), false) = (script.delete_pick[b], svc.edges().is_empty()) {
            let (u, v) = svc.edges()[(word % svc.edges().len() as u64) as usize];
            batch.delete(u, v);
        }
        for &(u, v) in inserts {
            batch.insert(u, v);
        }

        let span = rec.open("serving", "apply_batch");
        let t = Instant::now();
        let applied = svc.apply_batch(&batch);
        let apply_s = t.elapsed().as_secs_f64();
        rec.count(span, "updates", batch.len() as f64);
        rec.close(span);
        out.updates += batch.len() as u64;

        let t = Instant::now();
        let snap = svc.snapshot();
        out.snapshot_s += t.elapsed().as_secs_f64();
        match applied {
            Ok(outcome) => {
                if outcome.rerun.is_some() {
                    out.rebuild_s.push(apply_s);
                } else {
                    out.insert_s.push(apply_s);
                }
                // An inserted edge must connect its endpoints in the
                // epoch this batch published, and not in the held one's
                // place: the new snapshot is a new epoch.
                let joined = inserts
                    .first()
                    .is_none_or(|&(u, v)| snap.same_component(u, v));
                checker.expect(
                    format_args!("batch {b}: inserted edge not connected in its epoch"),
                    joined && snap.epoch() == outcome.epoch && snap.epoch() > held.epoch(),
                );
            }
            Err(e) => {
                checker.expect(format_args!("batch {b}: apply_batch: {e}"), false);
            }
        }

        let queries = &script.queries[b];
        let third = queries.len() / 3;
        let span = rec.open("serving", "query_burst");
        let t = Instant::now();
        for &(u, _) in &queries[..third] {
            black_box(snap.find(u));
        }
        out.query_s[0] += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for &(u, v) in &queries[third..2 * third] {
            black_box(snap.same_component(u, v));
        }
        out.query_s[1] += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for &(u, _) in &queries[2 * third..] {
            black_box(snap.component_size(u));
        }
        out.query_s[2] += t.elapsed().as_secs_f64();
        rec.count(span, "queries", queries.len() as f64);
        rec.close(span);
        out.query_n[0] += third as u64;
        out.query_n[1] += third as u64;
        out.query_n[2] += (queries.len() - 2 * third) as u64;

        if want_modeled {
            // Same queries, on the Edison model: a two-vertex query is
            // answered when the slower of its two lookups returns.
            for (k, &(u, v)) in queries.iter().enumerate() {
                let lat = snap.modeled_find_latency_s(u, &model);
                out.modeled_query_s.push(if k >= third && k < 2 * third {
                    lat.max(snap.modeled_find_latency_s(v, &model))
                } else {
                    lat
                });
            }
        }
        held = snap;
    }
    drop(held);

    let after = *svc.stats();
    out.hooks = after.hooks - before.hooks;
    out.inserts = after.inserts - before.inserts;
    out.noop_inserts = after.noop_inserts - before.noop_inserts;
    out.rebuilds = after.reruns - before.reruns;
    out.rebuild_modeled_s = after.rerun_modeled_s - before.rerun_modeled_s;
    out.final_components = svc.num_components();

    let span = rec.open("benchmark", "serving oracles");
    checker.expect("check_consistency after the script", check_consistency(svc));
    let n = svc.num_vertices();
    let final_graph = CsrGraph::from_edges(EdgeList::from_pairs(n, svc.edges().iter().copied()));
    let served = canonicalize_labels(&svc.snapshot().labels());
    let fresh = lacc::run(&final_graph, &run_config(w, RANKS, None));
    checker.labels(
        "fresh lacc::run over the served edges",
        fresh.as_ref().map(|o| &o.labels[..]),
        &served,
    );
    rec.close(span);
    out
}

/// The result of the untraced pass.
pub struct EndToEnd {
    /// The end-to-end metrics.
    pub metrics: MetricSet,
    /// Iterations of instance 0's `p = 4` run (`selfcheck` compares it).
    pub iterations: usize,
    /// Noise-guard warnings to print.
    pub warnings: Vec<String>,
}

/// The `--trace 0` pass. See the module docs.
pub fn measure_end_to_end(args: &RunArgs, checker: &mut Checker) -> Result<EndToEnd, String> {
    let w = &args.workload;
    let mut rec = Recorder::new(false, args.seed);
    let rec = &mut rec;
    let mut m = MetricSet::new();
    let mut warnings = Vec::new();

    // Set-up, three times over: generate the graph, build its CSR, boot a
    // service from it. Work a later change moves into any of these shows.
    let mut instances = Vec::new();
    let mut services = Vec::new();
    let mut setup_s = Vec::new();
    for k in 0..INSTANCES {
        let (inst, generate_s) = generate(args, k, rec);
        let (svc, bootstrap_s) = bootstrap(w, &inst.graph, checker, rec)
            .ok_or("service bootstrap failed; nothing to measure")?;
        setup_s.push(generate_s + bootstrap_s);
        instances.push(inst);
        services.push(svc);
    }
    m.put_samples("setup_s", &setup_s);

    // Counts and modeled seconds at p = 4, one run per instance; these
    // also warm the allocator and page cache for the timed repetitions.
    let mut modeled_s = Vec::new();
    let mut wire_bytes = Vec::new();
    let mut iterations = 0;
    for (k, inst) in instances.iter().enumerate() {
        let c = counted_run(w, inst, RANKS, TraceLevel::Steps, checker, rec)
            .ok_or("lacc::run errored at p = 4")?;
        modeled_s.push(c.out.modeled_total_s);
        wire_bytes.push(c.wire_bytes);
        if k == 0 {
            iterations = c.out.iters.len();
        }
    }

    // Timed repetitions, tracing off, cycling through the instances. The
    // reported time is the median over instances of each instance's
    // median, so one instance that converges an iteration early does not
    // drag the number part of the way with it.
    let cfg = run_config(w, RANKS, None);
    let mut run_wall_s = vec![Vec::new(); INSTANCES];
    let loop_start = Instant::now();
    let mut k = 0;
    while k < args.min_reps() || loop_start.elapsed().as_secs_f64() < args.seconds {
        let what = format!("lacc::run p={RANKS} rep {k}");
        let (wall_s, _) = checked_run(&instances[k % INSTANCES], &cfg, &what, checker, rec)
            .ok_or("a timed lacc::run errored")?;
        run_wall_s[k % INSTANCES].push(wall_s);
        k += 1;
    }
    m.put_grouped("run_wall_s", &run_wall_s);
    // Noise guard per instance: instances legitimately differ,
    // repetitions of one instance should not.
    let noisiest = run_wall_s
        .iter()
        .filter_map(|g| Stats::of(g))
        .map(|s| s.max / s.min)
        .fold(1.0, f64::max);
    if noisiest > 1.25 {
        warnings.push(format!(
            "run_wall_s of one instance spread max/min = {noisiest:.2} > 1.25 (noisy host?)"
        ));
    }
    m.put_samples("modeled_s", &modeled_s);
    m.put_samples("wire_bytes", &wire_bytes);

    // p = 16: counts and modeled seconds only.
    let mut modeled_wide_s = Vec::new();
    let mut wire_bytes_wide = Vec::new();
    for inst in &instances {
        let c = counted_run(w, inst, RANKS_WIDE, TraceLevel::Steps, checker, rec)
            .ok_or("lacc::run errored at p = 16")?;
        modeled_wide_s.push(c.out.modeled_total_s);
        wire_bytes_wide.push(c.wire_bytes);
    }
    m.put_samples("modeled_p16_s", &modeled_wide_s);
    m.put_samples("wire_bytes_p16", &wire_bytes_wide);

    // Serve every instance through its own script.
    let served: Vec<Served> = instances
        .iter()
        .zip(&mut services)
        .enumerate()
        .map(|(k, (inst, svc))| {
            let n = inst.graph.num_vertices();
            let script = Script::generate(&w.script, n, args.seed, k as u64);
            serve(w, svc, &script, false, checker, rec)
        })
        .collect();
    let total = |f: fn(&Served) -> f64| served.iter().map(f).sum::<f64>();
    m.put(
        "serve_wall_s",
        total(|s| s.apply_wall_s() + s.query_wall_s()),
    );
    let groups =
        |f: fn(&Served) -> &Vec<f64>| served.iter().map(|s| f(s).clone()).collect::<Vec<_>>();
    m.put_grouped("insert_batch_p50_s", &groups(|s| &s.insert_s));
    m.put_grouped("rebuild_batch_p50_s", &groups(|s| &s.rebuild_s));
    m.put(
        "queries_per_s",
        total(|s| s.query_n.iter().sum::<u64>() as f64) / total(Served::query_wall_s),
    );
    m.put("rebuild_modeled_s", total(|s| s.rebuild_modeled_s));
    m.put("peak_rss_mb", host::peak_rss_mb()?);
    Ok(EndToEnd {
        metrics: m,
        iterations,
        warnings,
    })
}

/// The `--trace 1` pass. See the module docs.
pub fn measure_layers(
    args: &RunArgs,
    checker: &mut Checker,
    rec: &mut Recorder,
) -> Result<MetricSet, String> {
    let w = &args.workload;
    let mut m = MetricSet::new();
    let root = rec.open("benchmark", w.name);

    let (inst, generate_s) = generate(args, 0, rec);
    let n = inst.graph.num_vertices();
    m.put("graph.generate_s", generate_s);
    m.put("graph.n", n as f64);
    m.put("graph.m_directed", inst.graph.num_directed_edges() as f64);
    m.put("graph.components", count_components(&inst.oracle) as f64);

    // The first run in the process: what a one-shot CLI user pays.
    let cfg = run_config(w, RANKS, None);
    let (cold_s, _) = checked_run(&inst, &cfg, "lacc::run cold", checker, rec)
        .ok_or("the cold lacc::run errored")?;
    m.put("core.run_wall_cold_s", cold_s);

    let mut ctx = ProbeCtx {
        seed: args.seed,
        reps: args.probe_reps(),
        allreduce_reps: match args.profile {
            Profile::Full => 1000,
            Profile::Smoke => 50,
        },
        model: model(),
        rec,
    };
    let permuted = probes::graph_and_baseline(&inst.graph, &inst.oracle, &mut ctx, checker, &mut m);
    probes::gblas_serial(&inst.graph, &mut ctx, &mut m)?;
    probes::gblas_dist(&permuted, &mut ctx, &mut m)?;
    probes::dmsim_collectives(n, &mut ctx, &mut m)?;
    drop(permuted);

    // Warm untraced repetitions: the base of every ratio below.
    let mut run_wall_s = Vec::new();
    let mut spmd_wall_s = Vec::new();
    for k in 0..args.probe_reps() {
        let what = format!("lacc::run untraced rep {k}");
        let (wall_s, out) =
            checked_run(&inst, &cfg, &what, checker, rec).ok_or("an untraced lacc::run errored")?;
        run_wall_s.push(wall_s);
        spmd_wall_s.push(out.wall_s);
    }
    let run_wall = median(&run_wall_s);
    m.put_samples("core.run_wall_s", &run_wall_s);
    m.put_samples("core.spmd_wall_s", &spmd_wall_s);
    m.put("core.pre_spmd_s", run_wall - median(&spmd_wall_s));
    m.put(
        "core.vs_unionfind",
        m.get("baselines.unionfind_s").unwrap_or(f64::NAN) / run_wall,
    );

    // The library-traced run.
    let traced = counted_run(w, &inst, RANKS, TraceLevel::Collectives, checker, rec)
        .ok_or("the traced lacc::run errored")?;
    m.put("core.traced_wall_s", traced.wall_s);
    m.put("core.trace_overhead_frac", traced.wall_s / run_wall - 1.0);
    m.put(
        "core.model_over_wall",
        traced.out.modeled_total_s / run_wall,
    );
    traced_run_metrics(&traced, n, &mut m);

    // Serve it, with the benchmark's spans around every call.
    let (mut svc, bootstrap_s) =
        bootstrap(w, &inst.graph, checker, rec).ok_or("service bootstrap failed")?;
    m.put("serving.bootstrap_s", bootstrap_s);
    let script = Script::generate(&w.script, n, args.seed, 0);
    let served = serve(w, &mut svc, &script, true, checker, rec);
    m.put(
        "serving.insert_batch_p95_s",
        percentile(&served.insert_s, 95.0),
    );
    m.put(
        "serving.insert_batch_max_s",
        percentile(&served.insert_s, 100.0),
    );
    m.put(
        "serving.rebuild_batch_max_s",
        percentile(&served.rebuild_s, 100.0),
    );
    let per_query_ns = |k: usize| served.query_s[k] / served.query_n[k].max(1) as f64 * 1e9;
    m.put("serving.find_ns", per_query_ns(0));
    m.put("serving.same_component_ns", per_query_ns(1));
    m.put("serving.component_size_ns", per_query_ns(2));
    m.put(
        "serving.snapshot_ns",
        served.snapshot_s / script.inserts.len().max(1) as f64 * 1e9,
    );
    m.put(
        "serving.updates_per_s",
        served.updates as f64 / served.apply_wall_s(),
    );
    m.put("serving.hooks", served.hooks as f64);
    m.put("serving.noop_inserts", served.noop_inserts as f64);
    m.put(
        "serving.noop_frac",
        served.noop_inserts as f64 / served.inserts.max(1) as f64,
    );
    m.put("serving.rebuilds", served.rebuilds as f64);
    m.put("serving.final_components", served.final_components as f64);
    m.put(
        "serving.modeled_query_p50_s",
        percentile(&served.modeled_query_s, 50.0),
    );
    m.put(
        "serving.modeled_query_p99_s",
        percentile(&served.modeled_query_s, 99.0),
    );
    rec.close(root);
    Ok(m)
}

/// Span kinds of the library trace that become per-layer totals, matched
/// by name prefix (`alltoallv(` sums every all-to-all algorithm), with
/// the names of their modeled rank-seconds, words and span count.
const TRACED_KINDS: [(&str, [&str; 3]); 7] = [
    (
        "mxv",
        [
            "gblas.dist.mxv_modeled_s",
            "gblas.dist.mxv_words",
            "gblas.dist.mxv_count",
        ],
    ),
    (
        "extract",
        [
            "gblas.dist.extract_modeled_s",
            "gblas.dist.extract_words",
            "gblas.dist.extract_count",
        ],
    ),
    (
        "assign",
        [
            "gblas.dist.assign_modeled_s",
            "gblas.dist.assign_words",
            "gblas.dist.assign_count",
        ],
    ),
    (
        "allgatherv",
        [
            "dmsim.allgatherv_modeled_s",
            "dmsim.allgatherv_words",
            "dmsim.allgatherv_count",
        ],
    ),
    (
        "reduce_scatter",
        [
            "dmsim.reduce_scatter_modeled_s",
            "dmsim.reduce_scatter_words",
            "dmsim.reduce_scatter_count",
        ],
    ),
    (
        "alltoallv(",
        [
            "dmsim.alltoallv_modeled_s",
            "dmsim.alltoallv_words",
            "dmsim.alltoallv_count",
        ],
    ),
    (
        "allreduce",
        [
            "dmsim.allreduce_modeled_s",
            "dmsim.allreduce_words",
            "dmsim.allreduce_count",
        ],
    ),
];

/// Everything read off the library-traced run: the sink's per-kind
/// totals (count, modeled rank-seconds, words), the rank snapshots, and
/// the run's own iteration records.
fn traced_run_metrics(traced: &Counted, n: usize, m: &mut MetricSet) {
    let report = traced.sink.report();
    // (modeled rank-seconds, words, count) summed over the kinds `pick` accepts.
    let totals = |pick: &dyn Fn(&str) -> bool| {
        report
            .per_kind
            .iter()
            .filter(|k| pick(k.name))
            .fold((0.0, 0.0, 0.0), |acc, k| {
                (
                    acc.0 + k.time_s,
                    acc.1 + k.words as f64,
                    acc.2 + k.count as f64,
                )
            })
    };
    for (kind, [time_name, words_name, count_name]) in TRACED_KINDS {
        let (time_s, words, count) = totals(&|k| k.starts_with(kind));
        m.put(time_name, time_s);
        m.put(words_name, words);
        m.put(count_name, count);
    }
    m.put(
        "core.engine_modeled_rank_s",
        totals(&|k| k.starts_with("engine(")).0,
    );

    let ranks = traced.sink.rank_traces();
    let over_ranks = |sel: fn(&dmsim::CostSnapshot) -> f64, fold: fn(f64, f64) -> f64| {
        ranks.iter().map(|rt| sel(&rt.snapshot)).fold(0.0, fold)
    };
    m.put(
        "dmsim.messages",
        over_ranks(|s| s.messages_sent as f64, |a, b| a + b),
    );
    m.put(
        "dmsim.compute_modeled_s",
        over_ranks(|s| s.compute_s, f64::max),
    );
    m.put("dmsim.comm_modeled_s", over_ranks(|s| s.comm_s, f64::max));
    m.put("dmsim.load_imbalance", report.load_imbalance);

    let iters = &traced.out.iters;
    let dense = iters.iter().filter(|it| it.spmv_dense).count();
    let active: usize = iters.iter().map(|it| it.active_before).sum();
    let breakdown = traced.out.breakdown();
    m.put("core.iterations", iters.len() as f64);
    m.put("core.dense_iters", dense as f64);
    m.put("core.sparse_iters", (iters.len() - dense) as f64);
    m.put(
        "core.active_frac",
        active as f64 / (n * iters.len()).max(1) as f64,
    );
    m.put(
        "core.hooks",
        iters
            .iter()
            .map(|it| it.cond_changed + it.uncond_changed)
            .sum::<usize>() as f64,
    );
    m.put(
        "core.shortcut_changes",
        iters.iter().map(|it| it.shortcut_changed).sum::<usize>() as f64,
    );
    m.put("core.cond_hook_modeled_s", breakdown.cond_s);
    m.put("core.uncond_hook_modeled_s", breakdown.uncond_s);
    m.put("core.shortcut_modeled_s", breakdown.shortcut_s);
    m.put("core.starcheck_modeled_s", breakdown.starcheck_s);
}
