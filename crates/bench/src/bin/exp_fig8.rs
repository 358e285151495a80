//! Figure 8 — scalability of the four LACC steps.
//!
//! Per-step modeled time (conditional hooking, unconditional hooking,
//! shortcut, starcheck) versus node count, for three representative
//! graphs on both machines. Expected shapes (paper §VI-E(c)): all four
//! steps scale; conditional hooking costs more than unconditional
//! (the latter exploits Lemma-2 sparsity); shortcut + starcheck stay
//! cheap thanks to the adaptive communication.

use dmsim::{CORI_KNL, EDISON};
use lacc_bench::*;
use lacc_graph::generators::suite::by_name;

fn main() {
    let nodes = scaling_nodes();
    let trace = trace_config();
    let names = ["eukarya", "sk-2005", "MOLIERE_2016"];
    let header = [
        "machine",
        "graph",
        "nodes",
        "ranks",
        "cond s",
        "uncond s",
        "shortcut s",
        "starcheck s",
        "total s",
    ];
    let mut rows = Vec::new();
    for (machine, mname) in [(EDISON, "Edison"), (CORI_KNL, "Cori KNL")] {
        for name in names {
            let g = by_name(name).expect("known problem").build(shrink());
            eprintln!("[fig8] {mname}/{name}");
            for (pt, run) in
                lacc_scaling(&g, &machine, &nodes, trace.as_ref().map(TraceConfig::sink))
            {
                let b = run.breakdown();
                rows.push(vec![
                    mname.to_string(),
                    name.to_string(),
                    format!("{}", pt.nodes),
                    format!("{}", pt.ranks),
                    fmt_s(b.cond_s),
                    fmt_s(b.uncond_s),
                    fmt_s(b.shortcut_s),
                    fmt_s(b.starcheck_s),
                    fmt_s(run.modeled_total_s),
                ]);
            }
        }
    }
    print_table(
        "Figure 8: modeled time breakdown of LACC steps",
        &header,
        &rows,
    );
    write_csv("fig8_step_breakdown", &header, &rows);
    println!("\nNote: starcheck aggregates a round's two star refreshes (over every active vertex when the last round moved a parent, then over the hooking stars after the cond-hook); the convergence detector's time is outside the four buckets but inside 'total'.");
    if let Some(t) = &trace {
        t.finish();
    }
}
