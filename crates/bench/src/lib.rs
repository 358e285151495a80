//! Shared harness for the experiment binaries.
//!
//! Each `exp_*` binary in `src/bin/` regenerates one table or figure of
//! the paper (see DESIGN.md §4 for the index). This library holds the
//! common machinery: node-count → rank-count mapping, the LACC and
//! ParConnect-sim sweeps, the `--trace` flags, aligned-table printing and
//! CSV output under `results/`. Figures 4–6 are one harness,
//! [`scaling_figure`]: each binary names only its problems, machine, node
//! counts, title and CSV. Every stand-in is built at
//! `TestProblem::build(shrink())`, and printed paths are relative to the
//! workspace root, so a generator's stdout does not depend on where the
//! checkout is.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dmsim::{Machine, TraceLevel, TraceSink};
use lacc::LaccRun;
use lacc_baselines::parconnect::parconnect_sim;
use lacc_graph::generators::suite::TestProblem;
use lacc_graph::CsrGraph;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The node counts used by the strong-scaling experiments. With
/// `LACC_FULL=1` in the environment the sweep extends to the paper's 256
/// nodes; the default stops earlier to keep the simulation fast.
pub fn scaling_nodes() -> Vec<usize> {
    if full_mode() {
        vec![1, 4, 16, 64, 256]
    } else {
        vec![1, 4, 16, 64]
    }
}

/// Whether `LACC_FULL=1` is set (larger graphs, more scaling points).
pub fn full_mode() -> bool {
    std::env::var("LACC_FULL").is_ok_and(|v| v == "1")
}

/// Shrink factor for stand-in graphs: 1 in full mode, 4 otherwise.
pub fn shrink() -> usize {
    if full_mode() {
        1
    } else {
        4
    }
}

/// Largest perfect square ≤ `x` (CombBLAS-style grids must be square;
/// the paper rounds core counts down the same way).
pub fn largest_square_leq(x: usize) -> usize {
    x.max(1).isqrt().pow(2)
}

/// Cap on simulated ranks: beyond this, thread-per-rank simulation gets
/// slow; points above the cap are clamped and flagged in the output.
/// 1024 in full mode, 576 otherwise.
pub fn rank_cap() -> usize {
    if full_mode() {
        1024
    } else {
        576
    }
}

/// One point of a strong-scaling sweep.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Nodes on the simulated machine.
    pub nodes: usize,
    /// Ranks actually simulated.
    pub ranks: usize,
    /// True when the rank count was clamped by [`rank_cap()`].
    pub clamped: bool,
    /// Modeled seconds (the figure's y-axis).
    pub modeled_s: f64,
    /// Iterations / rounds until convergence.
    pub iterations: usize,
}

/// Ranks for an algorithm on `nodes` nodes of `machine` at
/// `ranks_per_node`, squared down and clamped.
pub fn ranks_for(nodes: usize, ranks_per_node: usize) -> (usize, bool) {
    let raw = largest_square_leq(nodes * ranks_per_node);
    let cap = rank_cap();
    (raw.min(cap), raw > cap)
}

/// Largest power of four ≤ `x` (grids whose side is a power of two keep
/// the hypercube all-to-all available).
pub fn largest_pow4_leq(x: usize) -> usize {
    let mut p = 1usize;
    while p * 4 <= x {
        p *= 4;
    }
    p
}

/// Ranks for LACC on `nodes` nodes (4 ranks/node), kept on power-of-four
/// grids so the §V-B hypercube all-to-all stays applicable, and clamped.
pub fn lacc_ranks_for(nodes: usize) -> (usize, bool) {
    let raw = largest_pow4_leq(nodes * 4);
    let cap = largest_pow4_leq(rank_cap());
    (raw.min(cap), raw > cap)
}

/// Runs LACC at each node count (paper configuration: 4 ranks per node,
/// remaining cores as threads). With a `sink`, each point records into
/// it, cleared between points so the exported trace covers the last one.
pub fn lacc_scaling(
    g: &CsrGraph,
    machine: &Machine,
    nodes_list: &[usize],
    sink: Option<&Arc<TraceSink>>,
) -> Vec<(ScalePoint, LaccRun)> {
    nodes_list
        .iter()
        .map(|&nodes| {
            let (ranks, clamped) = lacc_ranks_for(nodes);
            if let Some(s) = sink {
                s.clear();
            }
            let cfg = lacc::RunConfig::new(ranks, machine.lacc_model()).with_trace_opt(sink);
            let run = lacc::run(g, &cfg)
                .expect("distributed LACC rank panicked")
                .run;
            let point = ScalePoint {
                nodes,
                ranks,
                clamped,
                modeled_s: run.modeled_total_s,
                iterations: run.num_iterations(),
            };
            (point, run)
        })
        .collect()
}

/// Runs ParConnect-sim at each node count (flat MPI: one rank per core).
pub fn parconnect_scaling(
    g: &CsrGraph,
    machine: &Machine,
    nodes_list: &[usize],
) -> Vec<ScalePoint> {
    nodes_list
        .iter()
        .map(|&nodes| {
            let (ranks, clamped) = ranks_for(nodes, machine.cores_per_node);
            let run =
                parconnect_sim(g, ranks, machine.flat_model()).expect("ParConnect rank panicked");
            ScalePoint {
                nodes,
                ranks,
                clamped,
                modeled_s: run.modeled_total_s,
                iterations: run.bfs_levels + run.sv_rounds,
            }
        })
        .collect()
}

/// One of the strong-scaling figures (4–6): every problem at every node
/// count, LACC against ParConnect-sim on `machine`.
pub struct ScalingFigure {
    /// The table's title.
    pub title: &'static str,
    /// The CSV's name under `results/`; its first `_` field tags progress
    /// lines on stderr.
    pub csv: &'static str,
    /// The simulated machine.
    pub machine: Machine,
    /// Node counts of the sweep.
    pub nodes: Vec<usize>,
    /// The stand-ins, built at [`shrink()`].
    pub problems: Vec<TestProblem>,
    /// Whether rows carry LACC's iterations and ParConnect's rounds.
    pub iterations: bool,
}

const SCALING_HEADER: [&str; 9] = [
    "graph",
    "nodes",
    "lacc ranks",
    "lacc modeled s",
    "pc ranks",
    "pc modeled s",
    "speedup",
    "lacc iters",
    "pc rounds",
];

/// The columns of a scaling figure: the last two only with `iterations`.
pub fn scaling_header(iterations: bool) -> &'static [&'static str] {
    &SCALING_HEADER[..if iterations { 9 } else { 7 }]
}

/// One row per node count for graph `name`: LACC on
/// [`Machine::lacc_model`] at [`lacc_ranks_for`] against ParConnect-sim on
/// [`Machine::flat_model`] at [`ranks_for`], a `*` on a clamped rank count
/// and the speedup `pc/lacc`. LACC runs record into `sink` as
/// [`lacc_scaling`] says.
pub fn scaling_rows(
    name: &str,
    g: &CsrGraph,
    machine: &Machine,
    nodes: &[usize],
    iterations: bool,
    sink: Option<&Arc<TraceSink>>,
) -> Vec<Vec<String>> {
    let lacc_pts = lacc_scaling(g, machine, nodes, sink);
    let pc_pts = parconnect_scaling(g, machine, nodes);
    lacc_pts
        .iter()
        .zip(&pc_pts)
        .map(|((lp, _), pp)| scaling_row(name, lp, pp, iterations))
        .collect()
}

fn scaling_row(name: &str, lp: &ScalePoint, pp: &ScalePoint, iterations: bool) -> Vec<String> {
    let ranks = |p: &ScalePoint| format!("{}{}", p.ranks, if p.clamped { "*" } else { "" });
    let mut row = vec![
        name.to_string(),
        lp.nodes.to_string(),
        ranks(lp),
        fmt_s(lp.modeled_s),
        ranks(pp),
        fmt_s(pp.modeled_s),
        format!("{:.1}x", pp.modeled_s / lp.modeled_s.max(1e-12)),
    ];
    if iterations {
        row.extend([lp.iterations.to_string(), pp.iterations.to_string()]);
    }
    row
}

/// Runs a scaling figure: builds each problem, sweeps it with
/// [`scaling_rows`], then prints the table, writes the CSV, notes the
/// clamp and finishes the `--trace` output, if any.
pub fn scaling_figure(fig: &ScalingFigure) {
    let trace = trace_config();
    let sink = trace.as_ref().map(TraceConfig::sink);
    let tag = fig.csv.split('_').next().unwrap_or(fig.csv);
    let mut rows = Vec::new();
    for prob in &fig.problems {
        let g = prob.build(shrink());
        eprintln!(
            "[{tag}] {}: n={} m={}",
            prob.name,
            g.num_vertices(),
            g.num_directed_edges()
        );
        rows.extend(scaling_rows(
            prob.name,
            &g,
            &fig.machine,
            &fig.nodes,
            fig.iterations,
            sink,
        ));
    }
    let header = scaling_header(fig.iterations);
    print_table(fig.title, header, &rows);
    write_csv(fig.csv, header, &rows);
    println!("  (* rank count clamped at {} simulated ranks)", rank_cap());
    if let Some(t) = &trace {
        t.finish();
    }
}

/// Trace output requested through the shared `--trace` flags (see
/// [`trace_config`]). Thread [`TraceConfig::sink`] into the traced run
/// entry points, then call [`TraceConfig::finish`] once at the end.
pub struct TraceConfig {
    path: PathBuf,
    sink: Arc<TraceSink>,
}

impl TraceConfig {
    /// The sink to pass to `lacc::RunConfig::with_trace` /
    /// `run_spmd_traced` (as `Some(cfg.sink())`).
    pub fn sink(&self) -> &Arc<TraceSink> {
        &self.sink
    }

    /// Writes the Chrome-trace JSON to the configured path and prints the
    /// aggregated per-rank report.
    pub fn finish(&self) {
        std::fs::write(&self.path, self.sink.chrome_trace_json()).expect("write trace file");
        println!("{}", self.sink.report().render());
        println!("  [trace written: {}]", shown(&self.path).display());
    }
}

/// Parses the tracing flags shared by every experiment binary:
/// `--trace <path>` (or `--trace=<path>`) selects the output file and
/// `--trace-level {off,steps,ops,collectives}` the detail (default
/// `collectives`). The `LACC_TRACE` / `LACC_TRACE_LEVEL` environment
/// variables are the fallback, matching the `LACC_FULL` idiom so traces
/// can be requested through `cargo bench` wrappers that own the argv.
/// Returns `None` when tracing was not requested or the level is `off`.
pub fn trace_config() -> Option<TraceConfig> {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |name: &str| -> Option<String> {
        let prefix = format!("{name}=");
        args.iter().enumerate().find_map(|(i, a)| {
            a.strip_prefix(&prefix)
                .map(str::to_string)
                .or_else(|| (a == name).then(|| args.get(i + 1).cloned()).flatten())
        })
    };
    let path = flag_value("--trace").or_else(|| std::env::var("LACC_TRACE").ok())?;
    let level = flag_value("--trace-level")
        .or_else(|| std::env::var("LACC_TRACE_LEVEL").ok())
        .unwrap_or_else(|| "collectives".to_string());
    let level: TraceLevel = level.parse().expect("bad trace level");
    if level == TraceLevel::Off {
        return None;
    }
    Some(TraceConfig {
        path: PathBuf::from(path),
        sink: TraceSink::new(level),
    })
}

/// Prints a row-aligned table: header then rows, column widths derived
/// from content.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[&str]| {
        let line: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", line.join("  "));
    };
    fmt_row(header);
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    fmt_row(&sep.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    for row in rows {
        fmt_row(&row.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    }
}

/// Writes rows as CSV under `results/<name>.csv` (relative to the
/// workspace root when run from inside the checkout).
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let dir = workspace_root().map_or_else(|| PathBuf::from("results"), |r| r.join("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create csv"));
    writeln!(f, "{}", header.join(",")).expect("write header");
    for row in rows {
        writeln!(f, "{}", row.join(",")).expect("write row");
    }
    f.flush().expect("flush csv");
    println!("  [written: {}]", shown(&path).display());
}

/// The nearest ancestor of the current directory that is a Cargo
/// workspace root.
fn workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// `path` relative to the workspace root when it lies under it, so that
/// printed paths do not depend on where the checkout is.
fn shown(path: &Path) -> &Path {
    workspace_root()
        .and_then(|root| path.strip_prefix(root).ok())
        .unwrap_or(path)
}

/// Formats seconds with sensible precision.
pub fn fmt_s(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.2}ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmsim::EDISON;
    use lacc_graph::generators::suite::by_name;

    #[test]
    fn largest_square() {
        assert_eq!(largest_square_leq(1), 1);
        assert_eq!(largest_square_leq(24), 16);
        assert_eq!(largest_square_leq(96), 81);
        assert_eq!(largest_square_leq(100), 100);
        assert_eq!(largest_square_leq(0), 1);
    }

    #[test]
    fn ranks_for_clamps() {
        assert_eq!(ranks_for(1, 4), (4, false));
        assert_eq!(ranks_for(256, 24), (rank_cap(), true));
    }

    #[test]
    fn lacc_ranks_stay_power_of_four() {
        assert_eq!(largest_pow4_leq(576), 256);
        assert_eq!(largest_pow4_leq(1024), 1024);
        for nodes in [1, 4, 16, 64, 256] {
            let (p, _) = lacc_ranks_for(nodes);
            assert!(
                p.is_power_of_two() && (p.trailing_zeros() % 2 == 0),
                "p={p}"
            );
        }
    }

    #[test]
    fn scaling_rows_pair_lacc_with_parconnect() {
        // Edison at 1 node: LACC runs 4 ranks, ParConnect 24 squared down
        // to 16, and neither is clamped.
        let g = by_name("archaea").expect("known problem").build(64);
        let (lp, _) = &lacc_scaling(&g, &EDISON, &[1], None)[0];
        let pp = &parconnect_scaling(&g, &EDISON, &[1])[0];
        for iterations in [false, true] {
            let rows = scaling_rows("archaea", &g, &EDISON, &[1], iterations, None);
            assert_eq!(rows.len(), 1);
            let row = &rows[0];
            assert_eq!(row.len(), if iterations { 9 } else { 7 });
            assert_eq!(row.len(), scaling_header(iterations).len());
            assert_eq!(row[..3], ["archaea", "1", "4"]);
            assert_eq!(row[3], fmt_s(lp.modeled_s));
            assert_eq!(row[4], "16");
            assert_eq!(row[5], fmt_s(pp.modeled_s));
            assert_eq!(row[6], format!("{:.1}x", pp.modeled_s / lp.modeled_s));
            if iterations {
                assert_eq!(
                    row[7..],
                    [lp.iterations.to_string(), pp.iterations.to_string()]
                );
            }
        }
        // A clamped rank count carries a `*`, on either side.
        let clamped = |ranks| ScalePoint {
            nodes: 256,
            ranks,
            clamped: true,
            modeled_s: 1.0,
            iterations: 3,
        };
        let row = scaling_row("g", &clamped(256), &clamped(576), false);
        assert_eq!(row[2], "256*");
        assert_eq!(row[4], "576*");
        assert_eq!(row[6], "1.0x");
    }

    #[test]
    fn fmt_s_ranges() {
        assert_eq!(fmt_s(0.0123), "12.30ms");
        assert_eq!(fmt_s(3.46159), "3.46");
        assert_eq!(fmt_s(123.4), "123");
    }
}
