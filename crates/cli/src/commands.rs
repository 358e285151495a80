//! Subcommand implementations.

use crate::args::{parse, Args};
use dmsim::{TraceLevel, TraceSink};
use lacc::{lacc_serial, EngineSelect, LaccOpts, RunConfig};
use lacc_baselines as baselines;
use lacc_graph::generators::{self, suite};
use lacc_graph::stats::graph_stats;
use lacc_graph::{ensure_fits, io, CsrGraph, EdgeList};
use std::io::Write;
use std::path::Path;

/// Why a command stopped early.
#[derive(Debug)]
pub enum CliError {
    /// The command line is wrong (unknown subcommand, flag or value):
    /// reported with the usage text.
    Usage(String),
    /// The command line was fine and the work failed (I/O, a run error).
    Failed(String),
    /// The reader of our output went away; there is nobody left to tell.
    BrokenPipe,
}

/// Argument parsing reports in `String`s, and only argument parsing does.
impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::BrokenPipe => CliError::BrokenPipe,
            _ => CliError::Failed(e.to_string()),
        }
    }
}

/// A failure of the work itself, in the words of whatever failed.
fn failed(e: impl std::fmt::Display) -> CliError {
    CliError::Failed(e.to_string())
}

/// Usage text shown on argument errors.
pub const USAGE: &str = "usage:
  lacc stats    <graph>
  lacc cc       <graph> [--algo lacc|unionfind|fastsv] [--out labels.txt]
  lacc cc-dist  <graph> --ranks P [--machine edison|cori] [--flat]
                [--spmv-threshold F]
                [--wire legacy|compact]
                [--engine lacc|fastsv|labelprop] [--canonical]
                [--out labels.txt] [--report out.json]
                [--trace out.json] [--trace-level off|steps|ops|collectives]
  lacc serve    <graph> [--ranks P] [--machine edison|cori] [--batches B]
                [--batch-size K] [--queries-per-batch Q] [--delete-every D]
                [--staleness F] [--engine lacc|fastsv|labelprop]
                [--seed S] [--report out.json]
                [--trace out.json] [--trace-level off|steps|ops|collectives]
  lacc generate <community|metagenome|rmat|mesh3d|er|suite:NAME> --n N [--seed S] --out <graph>
                [--components C] [--degree D]   (community)
                [--scale S] [--edge-factor E]   (rmat)
                [--m M]                         (er)
  lacc convert  <in> <out>

graph formats by extension: .mtx (Matrix Market), .bin (lacc binary), otherwise edge list";

/// A subcommand: it writes its report to the given writer.
type Cmd = fn(&Args, &mut dyn Write) -> Result<(), CliError>;

/// Every subcommand, in [`USAGE`]'s order, with its allow-lists
/// (value-taking options, bare flags): anything else is an error rather
/// than a silently ignored token.
const COMMANDS: [(&str, Cmd, &[&str], &[&str]); 6] = [
    ("stats", cmd_stats, &[], &[]),
    ("cc", cmd_cc, &["algo", "out"], &[]),
    (
        "cc-dist",
        cmd_cc_dist,
        &[
            "ranks",
            "machine",
            "spmv-threshold",
            "wire",
            "engine",
            "out",
            "report",
            "trace",
            "trace-level",
        ],
        &["flat", "canonical"],
    ),
    (
        "serve",
        cmd_serve,
        &[
            "ranks",
            "machine",
            "batches",
            "batch-size",
            "queries-per-batch",
            "delete-every",
            "staleness",
            "engine",
            "seed",
            "report",
            "trace",
            "trace-level",
        ],
        &[],
    ),
    (
        "generate",
        cmd_generate,
        &[
            "n",
            "seed",
            "out",
            "components",
            "degree",
            "scale",
            "edge-factor",
            "m",
        ],
        &[],
    ),
    ("convert", cmd_convert, &[], &[]),
];

/// Dispatches to a subcommand, which writes its report to `out`.
pub fn dispatch(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = parse(argv);
    let cmd = args
        .positional
        .first()
        .ok_or_else(|| "no subcommand given".to_string())?;
    let Some(&(_, run, options, flags)) = COMMANDS.iter().find(|c| c.0 == cmd) else {
        return Err(format!("unknown subcommand: {cmd}").into());
    };
    args.expect_only(options, flags)?;
    run(&args, out)
}

/// Loads an edge list from a path, choosing the format by extension.
pub fn load_edges(path: &Path) -> Result<EdgeList, String> {
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let fail = |e: String| format!("{}: {e}", path.display());
    match ext {
        "mtx" => {
            let file = std::fs::File::open(path).map_err(|e| fail(e.to_string()))?;
            io::read_matrix_market(file).map_err(|e| fail(e.to_string()))
        }
        "bin" => io::load_binary(path).map_err(|e| fail(e.to_string())),
        _ => {
            let file = std::fs::File::open(path).map_err(|e| fail(e.to_string()))?;
            io::read_edge_list(file, None).map_err(|e| fail(e.to_string()))
        }
    }
}

/// Saves an edge list to a path, choosing the format by extension.
pub fn save_edges(path: &Path, el: &EdgeList) -> Result<(), String> {
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let fail = |e: std::io::Error| format!("{}: {e}", path.display());
    match ext {
        "mtx" => {
            let file = std::fs::File::create(path).map_err(fail)?;
            io::write_matrix_market(file, el).map_err(fail)
        }
        "bin" => io::save_binary(path, el).map_err(fail),
        _ => {
            let file = std::fs::File::create(path).map_err(fail)?;
            io::write_edge_list(file, el).map_err(fail)
        }
    }
}

fn load_graph(args: &Args) -> Result<CsrGraph, CliError> {
    let path = args
        .positional
        .get(1)
        .ok_or_else(|| "missing graph path".to_string())?;
    let edges = load_edges(Path::new(path)).map_err(failed)?;
    Ok(CsrGraph::from_edges(edges))
}

/// The `--machine` profile (Edison unless told otherwise).
fn machine(args: &Args) -> Result<dmsim::Machine, CliError> {
    match args.options.get("machine").map_or("edison", |s| s.as_str()) {
        "edison" => Ok(dmsim::EDISON),
        "cori" => Ok(dmsim::CORI_KNL),
        other => Err(format!("unknown machine: {other}").into()),
    }
}

/// `--trace <path>` with the sink to record into, at `--trace-level`
/// (`default` when absent); `None` without a path or at level `off`.
fn trace_sink(
    args: &Args,
    default: TraceLevel,
) -> Result<Option<(String, std::sync::Arc<TraceSink>)>, CliError> {
    let level = args.parse_or("trace-level", default)?;
    let path = args
        .options
        .get("trace")
        .filter(|_| level != TraceLevel::Off);
    Ok(path.map(|path| (path.clone(), TraceSink::new(level))))
}

/// Writes a whole output file, naming it on failure.
fn write_file(path: &str, contents: String) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| failed(format!("{path}: {e}")))
}

/// Writes one `vertex label` line per vertex to `path`.
fn write_labels(path: &str, labels: &[lacc::Vid]) -> Result<(), CliError> {
    let file = std::fs::File::create(path).map_err(|e| failed(format!("{path}: {e}")))?;
    let mut f = std::io::BufWriter::new(file);
    for (v, l) in labels.iter().enumerate() {
        writeln!(f, "{v} {l}")?;
    }
    Ok(f.flush()?)
}

fn cmd_stats(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let g = load_graph(args)?;
    let s = graph_stats(&g);
    writeln!(out, "vertices            {}", s.vertices)?;
    writeln!(out, "directed edges      {}", s.directed_edges)?;
    writeln!(out, "undirected edges    {}", s.directed_edges / 2)?;
    writeln!(out, "components          {}", s.components)?;
    writeln!(out, "largest component   {}", s.largest_component)?;
    writeln!(out, "isolated vertices   {}", s.isolated_vertices)?;
    writeln!(out, "average degree      {:.2}", s.avg_degree)?;
    writeln!(out, "max degree          {}", s.max_degree)?;
    Ok(())
}

fn cmd_cc(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let algo = args.options.get("algo").map_or("lacc", |s| s.as_str());
    // Checked before the graph is read, so a bad name fails at once.
    let cc: fn(&CsrGraph) -> Vec<lacc::Vid> = match algo {
        "lacc" => |g| lacc_serial(g, &LaccOpts::default()).labels,
        "unionfind" => baselines::union_find_cc,
        "fastsv" => baselines::fastsv_cc,
        other => {
            return Err(format!(
                "invalid algorithm: {other:?} is not one of lacc, unionfind, fastsv"
            )
            .into())
        }
    };
    let g = load_graph(args)?;
    let t = std::time::Instant::now();
    let labels = cc(&g);
    let elapsed = t.elapsed().as_secs_f64();
    lacc::verify_labels(&g, &labels).map_err(|e| failed(format!("internal error: {e}")))?;
    let canon = lacc_graph::unionfind::canonicalize_labels(&labels);
    let ncomp = lacc_graph::unionfind::count_components(&canon);
    writeln!(
        out,
        "{ncomp} components via {algo} in {:.1} ms (verified)",
        elapsed * 1e3
    )?;
    if let Some(path) = args.options.get("out") {
        write_labels(path, &canon)?;
        writeln!(out, "labels written to {path}")?;
    }
    Ok(())
}

fn cmd_cc_dist(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let g = load_graph(args)?;
    let ranks: usize = args.get_or("ranks", 4)?;
    let machine = machine(args)?;
    let model = if args.has_flag("flat") {
        machine.flat_model()
    } else {
        machine.lacc_model()
    };
    let defaults = LaccOpts::default();
    // Range validation lives in the core builder (`lacc::options`), not
    // here: the CLI just forwards the raw values and surfaces OptsError.
    let opts = LaccOpts::builder()
        // Input fill at or above which the engine calls SpMV, not SpMSpV.
        .spmv_threshold(args.get_or("spmv-threshold", defaults.spmv_threshold)?)
        .map_err(|e| e.to_string())?
        // Wire format of every exchange: compact (default) or the
        // unoptimized legacy format — bit-identical labels.
        .wire(args.parse_or("wire", defaults.dist.wire)?)
        // Which connected-components engine runs (see `lacc::EngineSelect`).
        .engine(args.parse_or("engine", defaults.engine)?)
        .build();
    // Span tracing: --trace <path> emits Chrome-trace JSON (load it in
    // chrome://tracing or Perfetto) plus an aggregate per-rank report;
    // --trace-level picks the detail (default collectives, the most
    // verbose).
    let trace = trace_sink(args, TraceLevel::Collectives)?;
    let cfg = RunConfig::new(ranks, model)
        .with_opts(opts)
        .with_trace_opt(trace.as_ref().map(|(_, sink)| sink));
    let run = lacc::run(&g, &cfg).map_err(failed)?.run;
    writeln!(
        out,
        "{} components via {} engine on {} ranks ({})",
        run.num_components(),
        opts.engine,
        ranks,
        machine.name
    )?;
    writeln!(out, "iterations          {}", run.num_iterations())?;
    writeln!(
        out,
        "modeled time        {:.3} ms",
        run.modeled_total_s * 1e3
    )?;
    writeln!(out, "simulation wall     {:.1} ms", run.wall_s * 1e3)?;
    let b = run.breakdown();
    writeln!(
        out,
        "step breakdown      cond {:.2}ms | uncond {:.2}ms | shortcut {:.2}ms | starcheck {:.2}ms",
        b.cond_s * 1e3,
        b.uncond_s * 1e3,
        b.shortcut_s * 1e3,
        b.starcheck_s * 1e3
    )?;
    // Convergence as data: per round, the `mxv` dispatch taken and the
    // entries it multiplied, how LACC's unconditional hook ran (skip /
    // pull), then the four convergence counters (the fourth is
    // LACC's retired vertices, FastSV's refreshed grandparents) and LACC's
    // active roots at the round's end.
    writeln!(
        out,
        "iter  mxv     entries    active  uhook      cond    uncond  shortcut    fourth     roots"
    )?;
    for it in &run.iters {
        let mxv = match (it.spmv_dense, it.mxv_nvals) {
            (true, _) => "dense",
            // LACC's round that only finishes the last active tree.
            (false, 0) if opts.engine == EngineSelect::Lacc => "none",
            _ => "sparse",
        };
        writeln!(
            out,
            "{:>4}  {:<6} {:>8}  {:>8}  {:<5}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}",
            it.iteration,
            mxv,
            it.mxv_nvals,
            it.active_before,
            it.uncond_hook.name(),
            it.cond_changed,
            it.uncond_changed,
            it.shortcut_changed,
            it.fourth_changed,
            it.active_roots
        )?;
    }
    if let Some((path, sink)) = &trace {
        write_file(path, sink.chrome_trace_json())?;
        writeln!(out, "{}", sink.report().render())?;
        writeln!(out, "trace written to {path}")?;
    }
    if let Some(path) = args.options.get("report") {
        let rounds: Vec<String> = run
            .iters
            .iter()
            .map(|it| {
                format!(
                    "    {{\"iteration\": {}, \"spmv_dense\": {}, \"mxv_nvals\": {}, \
                     \"active_before\": {}, \"converged_after\": {}, \"uncond_hook\": \"{}\", \
                     \"cond_changed\": {}, \"uncond_changed\": {}, \"shortcut_changed\": {}, \
                     \"fourth_changed\": {}, \"active_roots\": {}}}",
                    it.iteration,
                    it.spmv_dense,
                    it.mxv_nvals,
                    it.active_before,
                    it.converged_after,
                    it.uncond_hook.name(),
                    it.cond_changed,
                    it.uncond_changed,
                    it.shortcut_changed,
                    it.fourth_changed,
                    it.active_roots
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"vertices\": {},\n  \"ranks\": {ranks},\n  \"machine\": \"{}\",\n  \
             \"engine\": \"{}\",\n  \"components\": {},\n  \"iterations\": {},\n  \
             \"modeled_total_s\": {:.9},\n  \"wall_s\": {:.6},\n  \"iters\": [\n{}\n  ]\n}}\n",
            run.labels.len(),
            machine.name,
            opts.engine,
            run.num_components(),
            run.num_iterations(),
            run.modeled_total_s,
            run.wall_s,
            rounds.join(",\n")
        );
        write_file(path, json)?;
        writeln!(out, "report written to {path}")?;
    }
    if let Some(path) = args.options.get("out") {
        // Raw parent labels by default, one `vertex label` line each — the
        // tests below byte-diff these across flag configurations.
        // `--canonical` renumbers components by first appearance instead:
        // LACC labels are tree-root ids while FastSV/labelprop converge to
        // component minima, so only canonical labels byte-diff *across*
        // engines.
        let labels = if args.has_flag("canonical") {
            lacc_graph::unionfind::canonicalize_labels(&run.labels)
        } else {
            run.labels
        };
        write_labels(path, &labels)?;
        writeln!(out, "labels written to {path}")?;
    }
    Ok(())
}

fn cmd_serve(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use lacc_serving::{CcService, RerunPolicy, ServeOpts, WorkloadCfg};

    let g = load_graph(args)?;
    let ranks: usize = args.get_or("ranks", 4)?;
    let machine = machine(args)?;
    let staleness: f64 = args.get_or("staleness", 0.25)?;
    if staleness < 0.0 || staleness.is_nan() {
        return Err(format!("staleness must be nonnegative, got {staleness}").into());
    }
    let engine = args.parse_or("engine", EngineSelect::default())?;
    let cfg = WorkloadCfg {
        batches: args.get_or("batches", 20)?,
        batch_size: args.get_or("batch-size", 64)?,
        queries_per_batch: args.get_or("queries-per-batch", 128)?,
        delete_every: args.get_or("delete-every", 0)?,
        seed: args.get_or("seed", 1)?,
    };
    let opts = ServeOpts {
        ranks,
        model: machine.lacc_model(),
        policy: RerunPolicy::staleness(staleness).with_engine(engine),
        ..Default::default()
    };
    let trace = trace_sink(args, TraceLevel::Steps)?;

    let mut svc =
        CcService::from_graph_traced(&g, opts, trace.as_ref().map(|(_, sink)| sink.clone()))
            .map_err(failed)?;
    let rep = lacc_serving::run_workload(&mut svc, &cfg).map_err(failed)?;
    let s = &rep.stats;

    writeln!(
        out,
        "served {} batches over {} vertices on {} label shards ({})",
        cfg.batches,
        svc.num_vertices(),
        ranks,
        machine.name
    )?;
    writeln!(out, "final epoch         {}", rep.final_epoch)?;
    writeln!(out, "components          {}", rep.final_components)?;
    writeln!(
        out,
        "updates             {} inserts ({} no-op) + {} deletes, {} hooks",
        s.inserts, s.noop_inserts, s.deletes, s.hooks
    )?;
    writeln!(
        out,
        "reruns              {} ({} deletion, {} staleness), {:.3} ms modeled",
        s.reruns,
        s.deletion_reruns,
        s.staleness_reruns,
        s.rerun_modeled_s * 1e3
    )?;
    writeln!(out, "rebuild engine      {engine}")?;
    writeln!(
        out,
        "update throughput   {:.0} updates/s ({:.1} ms wall)",
        rep.updates_per_s(),
        rep.update_wall_s * 1e3
    )?;
    writeln!(
        out,
        "query throughput    {:.0} queries/s ({} queries)",
        rep.queries_per_s(),
        rep.queries
    )?;
    writeln!(
        out,
        "modeled query lat.  p50 {:.2} us | p99 {:.2} us",
        rep.latency_percentile_s(50.0) * 1e6,
        rep.latency_percentile_s(99.0) * 1e6
    )?;
    writeln!(
        out,
        "answers consistent  {}",
        if rep.answers_consistent { "yes" } else { "NO" }
    )?;
    if !rep.answers_consistent {
        return Err(failed(
            "serving answers diverged from the brute-force oracle",
        ));
    }
    if let Some((path, sink)) = &trace {
        write_file(path, sink.chrome_trace_json())?;
        writeln!(out, "{}", sink.report().render())?;
        writeln!(out, "trace written to {path}")?;
    }
    if let Some(path) = args.options.get("report") {
        // `--staleness inf` (never rebuild) must stay valid JSON.
        let staleness_json = if staleness.is_finite() {
            format!("{staleness}")
        } else {
            "null".to_string()
        };
        let json = format!(
            "{{\n  \"vertices\": {},\n  \"ranks\": {},\n  \"machine\": \"{}\",\n  \
             \"engine\": \"{engine}\",\n  \
             \"batches\": {},\n  \"batch_size\": {},\n  \"queries_per_batch\": {},\n  \
             \"delete_every\": {},\n  \"staleness_threshold\": {},\n  \"seed\": {},\n  \
             \"final_epoch\": {},\n  \"components\": {},\n  \"edges\": {},\n  \
             \"inserts\": {},\n  \"noop_inserts\": {},\n  \"deletes\": {},\n  \
             \"hooks\": {},\n  \"reruns\": {},\n  \"deletion_reruns\": {},\n  \
             \"staleness_reruns\": {},\n  \"rerun_modeled_s\": {:.6},\n  \
             \"updates_per_s\": {:.1},\n  \"queries\": {},\n  \"queries_per_s\": {:.1},\n  \
             \"modeled_query_p50_s\": {:.9},\n  \"modeled_query_p99_s\": {:.9},\n  \
             \"answers_consistent\": {}\n}}\n",
            svc.num_vertices(),
            ranks,
            machine.name,
            cfg.batches,
            cfg.batch_size,
            cfg.queries_per_batch,
            cfg.delete_every,
            staleness_json,
            cfg.seed,
            rep.final_epoch,
            rep.final_components,
            rep.final_edges,
            s.inserts,
            s.noop_inserts,
            s.deletes,
            s.hooks,
            s.reruns,
            s.deletion_reruns,
            s.staleness_reruns,
            s.rerun_modeled_s,
            rep.updates_per_s(),
            rep.queries,
            rep.queries_per_s(),
            rep.latency_percentile_s(50.0),
            rep.latency_percentile_s(99.0),
            rep.answers_consistent
        );
        write_file(path, json)?;
        writeln!(out, "report written to {path}")?;
    }
    Ok(())
}

fn cmd_generate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let family = args
        .positional
        .get(1)
        .ok_or_else(|| "missing generator family".to_string())?;
    let path = args.require("out")?.to_string();
    let n: usize = args.get_or("n", 10_000)?;
    let seed: u64 = args.get_or("seed", 1)?;
    // Refuse a vertex count the readers would refuse, before generating.
    let fits = |count: usize| ensure_fits::<u32>(count, "the graph").map_err(failed);
    let g = if let Some(name) = family.strip_prefix("suite:") {
        suite::by_name(name)
            .ok_or_else(|| format!("unknown suite graph: {name}"))?
            .build()
    } else {
        match family.as_str() {
            "community" => {
                let comps: usize = args.get_or("components", (n / 50).max(1).min(n))?;
                let degree: f64 = args.get_or("degree", 8.0)?;
                fits(n)?;
                generators::try_community_graph(n, comps, degree, 1.4, seed).map_err(failed)?
            }
            "metagenome" => {
                fits(n)?;
                generators::try_metagenome_graph(n, 7, 0.005, seed).map_err(failed)?
            }
            "rmat" => {
                let scale: u32 = args.get_or("scale", 14)?;
                let ef: usize = args.get_or("edge-factor", 16)?;
                fits(2usize.saturating_pow(scale))?;
                let params = generators::RmatParams::graph500();
                generators::try_rmat(scale, ef, params, seed).map_err(failed)?
            }
            "mesh3d" => {
                let side = (n as f64).cbrt().round().max(2.0) as usize;
                fits(side.saturating_pow(3))?;
                generators::try_mesh_3d(side, side, side).map_err(failed)?
            }
            "er" => {
                let m: usize = args.get_or("m", n.saturating_mul(4))?;
                fits(n)?;
                generators::try_erdos_renyi_gnm(n, m, seed).map_err(failed)?
            }
            other => return Err(format!("unknown family: {other}").into()),
        }
    };
    save_edges(Path::new(&path), &g.to_edgelist()).map_err(failed)?;
    writeln!(
        out,
        "wrote {}: {} vertices, {} undirected edges",
        path,
        g.num_vertices(),
        g.num_undirected_edges()
    )?;
    Ok(())
}

fn cmd_convert(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args
        .positional
        .get(1)
        .ok_or("missing input path".to_string())?;
    let output = args
        .positional
        .get(2)
        .ok_or("missing output path".to_string())?;
    let el = load_edges(Path::new(input)).map_err(failed)?;
    save_edges(Path::new(output), &el).map_err(failed)?;
    writeln!(
        out,
        "converted {input} -> {output} ({} edge entries)",
        el.len()
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    /// [`super::dispatch`] with the report discarded and the error reduced
    /// to its message.
    fn dispatch(argv: &[String]) -> Result<(), String> {
        super::dispatch(argv, &mut std::io::sink()).map_err(|e| match e {
            CliError::Usage(msg) | CliError::Failed(msg) => msg,
            CliError::BrokenPipe => unreachable!("a sink never closes"),
        })
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
        assert!(dispatch(&argv(&[])).is_err());
    }

    #[test]
    fn generate_stats_cc_convert_pipeline() {
        let dir = std::env::temp_dir().join("lacc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("g.mtx").display().to_string();
        let bin = dir.join("g.bin").display().to_string();

        dispatch(&argv(&[
            "generate",
            "community",
            "--n",
            "500",
            "--out",
            &mtx,
        ]))
        .unwrap();
        dispatch(&argv(&["stats", &mtx])).unwrap();
        dispatch(&argv(&["convert", &mtx, &bin])).unwrap();
        dispatch(&argv(&["cc", &bin, "--algo", "lacc"])).unwrap();
        dispatch(&argv(&["cc", &bin, "--algo", "unionfind"])).unwrap();
        dispatch(&argv(&["cc-dist", &bin, "--ranks", "4"])).unwrap();
        dispatch(&argv(&[
            "cc-dist",
            &bin,
            "--ranks",
            "4",
            "--spmv-threshold",
            "0.25",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "cc-dist", &bin, "--ranks", "4", "--wire", "legacy",
        ]))
        .unwrap();

        // Converted graphs must describe the same structure.
        let a: CsrGraph = CsrGraph::from_edges(load_edges(Path::new(&mtx)).unwrap());
        let b: CsrGraph = CsrGraph::from_edges(load_edges(Path::new(&bin)).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn cc_dist_rejects_bad_threshold() {
        let dir = std::env::temp_dir().join("lacc-cli-test4");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n1 2\n").unwrap();
        assert!(dispatch(&argv(&["cc-dist", &p, "--spmv-threshold", "7.0"])).is_err());
        assert!(dispatch(&argv(&["cc-dist", &p, "--trace-level", "verbose"])).is_err());
        assert!(dispatch(&argv(&["cc-dist", &p, "--wire", "zip"])).is_err());
    }

    #[test]
    fn cc_dist_rejects_removed_and_misspelled_flags() {
        let dir = std::env::temp_dir().join("lacc-cli-test13");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n1 2\n").unwrap();
        // A flag of the old lever lattice must not quietly run the defaults.
        let err = dispatch(&argv(&["cc-dist", &p, "--combine-in-flight", "false"])).unwrap_err();
        assert!(err.contains("--combine-in-flight"), "{err}");
        let err = dispatch(&argv(&["cc-dist", &p, "--kernel-threads", "2"])).unwrap_err();
        assert!(err.contains("--kernel-threads"), "{err}");
        let err = dispatch(&argv(&["cc-dist", &p, "--narrow-labels", "true"])).unwrap_err();
        assert!(err.contains("--narrow-labels"), "{err}");
        let err = dispatch(&argv(&["cc-dist", &p, "--index-width", "u64"])).unwrap_err();
        assert!(err.contains("--index-width"), "{err}");
        let err = dispatch(&argv(&["cc-dist", &p, "--overlap", "false"])).unwrap_err();
        assert!(err.contains("--overlap"), "{err}");
        // A typo of a live flag, with and without a value.
        let err = dispatch(&argv(&["cc-dist", &p, "--rank", "4"])).unwrap_err();
        assert!(err.contains("--rank"), "{err}");
        let err = dispatch(&argv(&["cc-dist", &p, "--cannonical"])).unwrap_err();
        assert!(err.contains("--cannonical"), "{err}");
        // Other subcommands check too.
        assert!(dispatch(&argv(&["cc", &p, "--algos", "lacc"])).is_err());
        assert!(dispatch(&argv(&["stats", &p, "--verbose"])).is_err());
    }

    #[test]
    fn usage_names_exactly_the_allow_listed_options_of_every_subcommand() {
        // A subcommand's block is its `lacc NAME` line and the indented
        // lines under it.
        let mut blocks: Vec<(&str, String)> = Vec::new();
        for line in USAGE.lines() {
            match line.trim_start().strip_prefix("lacc ") {
                Some(rest) => blocks.push((rest.split(' ').next().unwrap(), rest.to_string())),
                None if line.starts_with(' ') => blocks.last_mut().unwrap().1 += line,
                None => {}
            }
        }
        let names: Vec<&str> = blocks.iter().map(|b| b.0).collect();
        assert_eq!(names, COMMANDS.map(|c| c.0));
        for ((name, text), (_, _, options, flags)) in blocks.iter().zip(COMMANDS) {
            let not_in_name = |c: char| !(c.is_ascii_alphanumeric() || c == '-');
            let after_dashes = text.split("--").skip(1);
            let mut shown: Vec<&str> = after_dashes
                .map(|w| w.split(not_in_name).next().unwrap())
                .collect();
            shown.sort_unstable();
            shown.dedup();
            let mut allowed: Vec<&str> = options.iter().chain(flags).copied().collect();
            allowed.sort_unstable();
            assert_eq!(shown, allowed, "USAGE of lacc {name}");
        }
    }

    #[test]
    fn cc_dist_labels_identical_across_wire_formats() {
        // The wire format must not change a single output byte.
        let dir = std::env::temp_dir().join("lacc-cli-test6");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n1 2\n3 4\n5 6\n6 7\n").unwrap();
        let mut files = Vec::new();
        for wire in ["legacy", "compact"] {
            let out = dir.join(format!("{wire}.txt")).display().to_string();
            dispatch(&argv(&[
                "cc-dist", &p, "--ranks", "4", "--wire", wire, "--out", &out,
            ]))
            .unwrap();
            files.push(std::fs::read(&out).unwrap());
        }
        assert_eq!(files[0], files[1], "the wire format changed the labels");
    }

    #[test]
    fn cc_dist_canonical_labels_identical_across_engines() {
        // `--engine` end to end: every engine must produce byte-identical
        // --canonical label files.
        let dir = std::env::temp_dir().join("lacc-cli-test10");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n1 2\n3 4\n5 6\n6 7\n8 9\n").unwrap();
        let mut files = Vec::new();
        for eng in ["lacc", "fastsv", "labelprop"] {
            let out = dir.join(format!("{eng}.txt")).display().to_string();
            dispatch(&argv(&[
                "cc-dist",
                &p,
                "--ranks",
                "4",
                "--engine",
                eng,
                "--canonical",
                "--out",
                &out,
            ]))
            .unwrap();
            files.push(std::fs::read(&out).unwrap());
        }
        for f in &files[1..] {
            assert_eq!(&files[0], f, "an engine changed the canonical labels");
        }
        assert!(dispatch(&argv(&["cc-dist", &p, "--engine", "warp"])).is_err());
    }

    #[test]
    fn cc_dist_writes_trace_json() {
        let dir = std::env::temp_dir().join("lacc-cli-test5");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n1 2\n3 4\n").unwrap();
        let out = dir.join("trace.json").display().to_string();
        dispatch(&argv(&["cc-dist", &p, "--ranks", "4", "--trace", &out])).unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        for name in ["cond_hook", "uncond_hook", "shortcut", "starcheck"] {
            assert!(json.contains(name), "trace missing {name} spans");
        }
        // `--trace-level off` suppresses the file entirely.
        let out2 = dir.join("trace2.json").display().to_string();
        dispatch(&argv(&[
            "cc-dist",
            &p,
            "--ranks",
            "4",
            "--trace",
            &out2,
            "--trace-level",
            "off",
        ]))
        .unwrap();
        assert!(!std::path::Path::new(&out2).exists());
    }

    #[test]
    fn serve_runs_and_writes_report() {
        let dir = std::env::temp_dir().join("lacc-cli-test7");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n1 2\n3 4\n5 6\n6 7\n").unwrap();
        let report = dir.join("serve.json").display().to_string();
        let trace = dir.join("serve-trace.json").display().to_string();
        dispatch(&argv(&[
            "serve",
            &p,
            "--ranks",
            "4",
            "--batches",
            "6",
            "--batch-size",
            "4",
            "--queries-per-batch",
            "9",
            "--delete-every",
            "3",
            "--engine",
            "fastsv",
            "--report",
            &report,
            "--trace",
            &trace,
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("\"answers_consistent\": true"));
        assert!(json.contains("\"modeled_query_p99_s\""));
        assert_eq!(json.matches("engine").count(), 1, "one engine key");
        assert!(json.contains("\"engine\": \"fastsv\""));
        // The bootstrap and the deletion rebuilds appear as tagged spans,
        // run by the engine the report names.
        let tr = std::fs::read_to_string(&trace).unwrap();
        assert!(tr.contains("rerun(bootstrap)"));
        assert!(tr.contains("rerun(deletion)"));
        assert!(tr.contains("engine(fastsv)") && !tr.contains("engine(lacc)"));
    }

    #[test]
    fn serve_rejects_bad_options() {
        let dir = std::env::temp_dir().join("lacc-cli-test8");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n").unwrap();
        assert!(dispatch(&argv(&["serve", &p, "--staleness", "-1"])).is_err());
        assert!(dispatch(&argv(&["serve", &p, "--batches", "many"])).is_err());
        assert!(dispatch(&argv(&["serve", &p, "--machine", "summit"])).is_err());
        assert!(dispatch(&argv(&["serve", &p, "--engine", "quantum"])).is_err());
    }

    #[test]
    fn non_square_or_zero_ranks_is_an_error_not_a_panic() {
        let dir = std::env::temp_dir().join("lacc-cli-test14");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n1 2\n").unwrap();
        for (cmd, ranks) in [
            ("cc-dist", "3"),
            ("cc-dist", "0"),
            ("serve", "5"),
            ("cc-dist", "16384"),
            ("cc-dist", "1000000"),
            ("serve", "16384"),
        ] {
            let msg = dispatch(&argv(&[cmd, &p, "--ranks", ranks])).unwrap_err();
            assert!(
                msg.contains(&format!("invalid ranks: {ranks} ")) && !msg.contains('\n'),
                "{cmd} --ranks {ranks}: {msg}"
            );
            // A configuration error, not a rank panic.
            assert!(!msg.contains("panicked"), "{cmd} --ranks {ranks}: {msg}");
        }
        // The selector is gone and left no alias behind: one line naming
        // the engines there are.
        for cmd in ["cc-dist", "serve"] {
            assert_eq!(
                dispatch(&argv(&[cmd, &p, "--engine", "auto"])).unwrap_err(),
                "invalid engine: \"auto\" is not one of lacc, fastsv, labelprop"
            );
        }
    }

    #[test]
    fn cc_dist_report_records_the_dispatch_and_counters_of_every_round() {
        let dir = std::env::temp_dir().join("lacc-cli-test15");
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.mtx").display().to_string();
        let report = dir.join("cc.json").display().to_string();
        dispatch(&argv(&["generate", "mesh3d", "--n", "512", "--out", &g])).unwrap();
        dispatch(&argv(&[
            "cc-dist", &g, "--ranks", "4", "--engine", "fastsv", "--report", &report,
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&report).unwrap();
        for key in ["\"iterations\"", "\"mxv_nvals\"", "\"fourth_changed\""] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        // FastSV's unconditional step runs no `mxv`.
        assert!(!json.contains("\"uncond_hook\": \"pu"), "{json}");
        assert!(json.contains("\"uncond_hook\": \"skip\""), "{json}");
        // FastSV multiplies everything first and only what changed last.
        assert!(json.contains("\"iteration\": 1, \"spmv_dense\": true, \"mxv_nvals\": 512"));
        assert!(
            json.contains("\"spmv_dense\": false, \"mxv_nvals\": 0"),
            "{json}"
        );
        // LACC on the connected mesh: the round after the one that ends on
        // one active root runs no `mxv` and retires all 512 vertices.
        dispatch(&argv(&[
            "cc-dist", &g, "--ranks", "4", "--engine", "lacc", "--report", &report,
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&report).unwrap();
        let rounds: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"iteration\""))
            .collect();
        let (last, before) = (rounds[rounds.len() - 1], rounds[rounds.len() - 2]);
        assert!(before.ends_with("\"active_roots\": 1},"), "{json}");
        assert!(
            last.contains("\"spmv_dense\": false, \"mxv_nvals\": 0"),
            "{json}"
        );
        assert!(last.ends_with("\"fourth_changed\": 512, \"active_roots\": 0}"));
    }

    #[test]
    fn cc_rejects_unknown_algo() {
        let dir = std::env::temp_dir().join("lacc-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        std::fs::write(&p, "0 1\n1 2\n").unwrap();
        // Any other name is refused before the graph is read, so a missing
        // file does not change the error.
        let missing = dir.join("missing.el").display().to_string();
        for algo in ["quantum", "bfs", "sv", "labelprop", "multistep"] {
            for graph in [&p, &missing] {
                assert_eq!(
                    dispatch(&argv(&["cc", graph, "--algo", algo])).unwrap_err(),
                    format!("invalid algorithm: \"{algo}\" is not one of lacc, unionfind, fastsv")
                );
            }
        }
    }

    #[test]
    fn labels_file_is_written() {
        let dir = std::env::temp_dir().join("lacc-cli-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.el").display().to_string();
        let out = dir.join("labels.txt").display().to_string();
        std::fs::write(&p, "0 1\n2 3\n").unwrap();
        dispatch(&argv(&["cc", &p, "--out", &out])).unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("2 2"));
    }
}
