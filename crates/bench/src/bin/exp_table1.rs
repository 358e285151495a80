//! Table I — the scope of sparse vectors at each LACC step.
//!
//! Table I is qualitative ("which vertex subset does each step touch"); we
//! make it quantitative: for every iteration of a run on a many-component
//! graph, print the size of the active subset each step operated on,
//! showing the work collapse that Lemmas 1–2 buy (the dense-AS column is
//! what a sparsity-oblivious implementation would touch every time).

use lacc::{lacc_serial, LaccOpts};
use lacc_bench::*;
use lacc_graph::generators::suite::by_name;

fn main() {
    let shrink = shrink();
    let prob = by_name("eukarya").expect("known problem");
    let g = if shrink == 1 {
        prob.build()
    } else {
        prob.build_small(shrink)
    };
    let n = g.num_vertices();
    let run = lacc_serial(&g, &LaccOpts::default());
    let header = [
        "iteration",
        "active (hooking scope)",
        "mxv path",
        "cond hooks",
        "uncond hooks",
        "shortcut updates",
        "dense-AS scope",
    ];
    let rows: Vec<Vec<String>> = run
        .iters
        .iter()
        .map(|it| {
            vec![
                format!("{}", it.iteration),
                format!("{}", it.active_before),
                match (it.spmv_dense, it.mxv_nvals) {
                    (true, _) => "SpMV".into(),
                    // The last active tree finishes without a cond-hook.
                    (false, 0) => "none".into(),
                    _ => "SpMSpV".into(),
                },
                format!("{}", it.cond_changed),
                format!("{}", it.uncond_changed),
                format!("{}", it.shortcut_changed),
                format!("{n}"),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Table I (quantified): per-step scope on {} (n={n})",
            prob.name
        ),
        &header,
        &rows,
    );
    write_csv("table1_sparsity_scope", &header, &rows);
    println!("\nEvery step operates on the active subset only (Table I); the dense-AS column is the naive scope.");
}
