//! Shared harness for the experiment binaries.
//!
//! Each `exp_*` binary in `src/bin/` regenerates one table or figure of
//! the paper (see DESIGN.md §4 for the index). This library holds the
//! common machinery: node-count → rank-count mapping, scaling sweeps for
//! LACC and ParConnect, aligned-table printing, and CSV output under
//! `results/`.

#![warn(missing_docs)]

use dmsim::{Machine, MachineModel, TraceLevel, TraceSink};
use lacc::{LaccOpts, LaccRun};
use lacc_baselines::parconnect::{parconnect_sim, ParconnectRun};
use lacc_graph::CsrGraph;
use std::io::Write;
use std::path::PathBuf;
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
    std::env::var("LACC_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
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
    let mut s = (x as f64).sqrt() as usize;
    while (s + 1) * (s + 1) <= x {
        s += 1;
    }
    while s * s > x {
        s -= 1;
    }
    (s * s).max(1)
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
    /// Wall-clock seconds of the simulation itself.
    pub wall_s: f64,
    /// Iterations / rounds until convergence.
    pub iterations: usize,
}

/// Ranks for an algorithm on `nodes` nodes of `machine` at
/// `ranks_per_node`, squared down and clamped.
pub fn ranks_for(nodes: usize, ranks_per_node: usize) -> (usize, bool) {
    let raw = largest_square_leq(nodes * ranks_per_node);
    let cap = rank_cap();
    if raw > cap {
        (cap, true)
    } else {
        (raw, false)
    }
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
    if raw > cap {
        (cap, true)
    } else {
        (raw, false)
    }
}

/// Runs LACC at each node count (paper configuration: 4 ranks per node,
/// remaining cores as threads).
pub fn lacc_scaling(
    g: &CsrGraph,
    machine: &Machine,
    nodes_list: &[usize],
    opts: &LaccOpts,
) -> Vec<(ScalePoint, LaccRun)> {
    lacc_scaling_traced(g, machine, nodes_list, opts, None)
}

/// [`lacc_scaling`] with span tracing: when `sink` is `Some`, each point
/// records into it, cleared between points so the exported trace covers
/// the largest (last) node count.
pub fn lacc_scaling_traced(
    g: &CsrGraph,
    machine: &Machine,
    nodes_list: &[usize],
    opts: &LaccOpts,
    sink: Option<&Arc<TraceSink>>,
) -> Vec<(ScalePoint, LaccRun)> {
    nodes_list
        .iter()
        .map(|&nodes| {
            let (ranks, clamped) = lacc_ranks_for(nodes);
            let model = machine.lacc_model();
            if let Some(s) = sink {
                s.clear();
            }
            let cfg = lacc::RunConfig::new(ranks, model)
                .with_opts(*opts)
                .with_trace_opt(sink);
            let run = lacc::run(g, &cfg)
                .expect("distributed LACC rank panicked")
                .run;
            (
                ScalePoint {
                    nodes,
                    ranks,
                    clamped,
                    modeled_s: run.modeled_total_s,
                    wall_s: run.wall_s,
                    iterations: run.num_iterations(),
                },
                run,
            )
        })
        .collect()
}

/// Runs ParConnect-sim at each node count (flat MPI: one rank per core).
pub fn parconnect_scaling(
    g: &CsrGraph,
    machine: &Machine,
    nodes_list: &[usize],
) -> Vec<(ScalePoint, ParconnectRun)> {
    nodes_list
        .iter()
        .map(|&nodes| {
            let (ranks, clamped) = ranks_for(nodes, machine.cores_per_node);
            let model = machine.flat_model();
            let run = parconnect_sim(g, ranks, model).expect("ParConnect rank panicked");
            (
                ScalePoint {
                    nodes,
                    ranks,
                    clamped,
                    modeled_s: run.modeled_total_s,
                    wall_s: run.wall_s,
                    iterations: run.bfs_levels + run.sv_rounds,
                },
                run,
            )
        })
        .collect()
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

    /// Drops spans recorded so far. Call between runs when only the last
    /// one should end up in the exported trace.
    pub fn clear(&self) {
        self.sink.clear();
    }

    /// Writes the Chrome-trace JSON to the configured path and prints the
    /// aggregated per-rank report.
    pub fn finish(&self) {
        std::fs::write(&self.path, self.sink.chrome_trace_json()).expect("write trace file");
        println!("{}", self.sink.report().render());
        println!("  [trace written: {}]", self.path.display());
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

/// Default machine model for one-off distributed runs in experiments.
pub fn default_model() -> MachineModel {
    dmsim::EDISON.lacc_model()
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
/// workspace root when run via `cargo run`).
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create csv"));
    writeln!(f, "{}", header.join(",")).expect("write header");
    for row in rows {
        writeln!(f, "{}", row.join(",")).expect("write row");
    }
    f.flush().expect("flush csv");
    println!("  [written: {}]", path.display());
}

fn results_dir() -> PathBuf {
    // Walk up from the current dir until a Cargo workspace root is found.
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir.join("results");
        }
        if !dir.pop() {
            return PathBuf::from("results");
        }
    }
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
    fn fmt_s_ranges() {
        assert_eq!(fmt_s(0.0123), "12.30ms");
        assert_eq!(fmt_s(3.46159), "3.46");
        assert_eq!(fmt_s(123.4), "123");
    }
}
