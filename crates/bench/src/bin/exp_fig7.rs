//! Figure 7 — percentage of vertices in converged components per
//! iteration.
//!
//! The five stand-ins with the most connected components. The paper's
//! point: on many-component graphs most vertices retire within a few
//! iterations (which is what powers LACC's sparse vectors), while M3
//! converges late. Serial LACC's per-iteration statistics supply the
//! series exactly.

use lacc::{lacc_serial, LaccOpts};
use lacc_bench::*;
use lacc_graph::generators::suite::by_name;

fn main() {
    let names = ["archaea", "eukarya", "M3", "iso_m100", "uk-2002"];
    let series: Vec<Vec<f64>> = names
        .iter()
        .map(|name| {
            let g = by_name(name).expect("known problem").build(shrink());
            lacc_serial(&g, &LaccOpts::default()).converged_fractions()
        })
        .collect();
    let max_iters = series.iter().map(Vec::len).max().unwrap_or(0);
    let rows: Vec<Vec<String>> = (0..max_iters)
        .map(|iter| {
            let mut row = vec![format!("{}", iter + 1)];
            for fr in &series {
                let f = fr.get(iter).copied().unwrap_or(1.0);
                row.push(format!("{:.1}%", f * 100.0));
            }
            row
        })
        .collect();
    let header: Vec<&str> = ["iteration"].into_iter().chain(names).collect();
    print_table(
        "Figure 7: % of vertices in converged components per iteration",
        &header,
        &rows,
    );
    write_csv("fig7_converged_fraction", &header, &rows);
    println!(
        "\nShape check: protein-similarity graphs retire most vertices early; M3 (metagenome) stays active much longer."
    );
}
