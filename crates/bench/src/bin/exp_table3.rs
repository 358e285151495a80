//! Table III — test problems.
//!
//! Builds every stand-in graph in the suite, computes its census
//! (vertices, directed edges, components — the paper's columns), and
//! prints it next to the paper's reported numbers so the structural match
//! can be judged. `LACC_FULL=1` builds the full-size stand-ins.

use lacc_bench::{print_table, shrink, write_csv};
use lacc_graph::generators::suite::{suite_big, suite_small};
use lacc_graph::stats::graph_stats;

fn main() {
    let shrink = shrink();
    let mut rows = Vec::new();
    for p in suite_small().into_iter().chain(suite_big()) {
        let g = p.build(shrink);
        let s = graph_stats(&g);
        rows.push(vec![
            p.name.to_string(),
            format!("{}", s.vertices),
            format!("{}", s.directed_edges),
            format!("{}", s.components),
            format!("{:.1}", s.avg_degree),
            format!("{}", s.max_degree),
            format!("{}", p.paper_vertices),
            format!("{}", p.paper_edges),
            format!("{}", p.paper_components),
            p.description.to_string(),
        ]);
    }
    let header = [
        "graph",
        "V (ours)",
        "dE (ours)",
        "comps (ours)",
        "avg deg",
        "max deg",
        "V (paper)",
        "dE (paper)",
        "comps (paper)",
        "description",
    ];
    print_table(
        &format!("Table III: test problems (stand-ins at 1/{shrink} scale)"),
        &header,
        &rows,
    );
    write_csv("table3_problems", &header, &rows);
}
