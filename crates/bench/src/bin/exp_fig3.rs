//! Figure 3 — skewed all-to-all during grandparent extraction.
//!
//! The paper plots, for two iterations of LACC on an RMAT graph, the
//! number of extract requests each of 16 processes receives: early
//! iterations are balanced-ish, later ones concentrate on low ranks
//! (parents have small ids after min-hooking), with many ranks receiving
//! nothing — the motivation for the hot-rank broadcast and the sparse
//! all-to-all. We reproduce it with the per-rank `extract_received`
//! counters of a p=16 run, with the hot-rank broadcast disabled so the raw
//! skew is visible.

use dmsim::EDISON;
use lacc::LaccOpts;
use lacc_bench::*;
use lacc_graph::generators::{rmat, RmatParams};

fn main() {
    let scale = if full_mode() { 15 } else { 13 };
    let g = rmat(scale, 16, RmatParams::graph500(), 42);
    eprintln!(
        "[fig3] rmat scale {scale}: n={} m={}",
        g.num_vertices(),
        g.num_directed_edges()
    );
    let p = 16;
    // Naive communication so the imbalance is raw (the paper's Figure 3
    // shows the problem its §V-B optimizations then fix).
    let opts = LaccOpts::naive_comm();
    let trace = trace_config();
    let cfg = lacc::RunConfig::new(p, EDISON.lacc_model())
        .with_opts(opts)
        .with_trace_opt(trace.as_ref().map(TraceConfig::sink));
    let run = lacc::run(&g, &cfg)
        .expect("distributed LACC rank panicked")
        .run;
    let niters = run.num_iterations();
    let early = 1.min(niters - 1);
    let late = niters.saturating_sub(2);
    let col_early = format!("iteration {}", early + 1);
    let col_late = format!("iteration {}", late + 1);
    let header: Vec<&str> = vec!["rank", &col_early, &col_late];
    let mut rows = Vec::new();
    for rank in 0..p {
        rows.push(vec![
            format!("{rank}"),
            format!("{}", run.iters[early].extract_received[rank]),
            format!("{}", run.iters[late].extract_received[rank]),
        ]);
    }
    print_table(
        "Figure 3: extract requests received per process (p=16, RMAT)",
        &header,
        &rows,
    );
    write_csv("fig3_extract_skew", &header, &rows);

    // Quantify the skew the way the text does.
    for (label, k) in [("early", early), ("late", late)] {
        let v = &run.iters[k].extract_received;
        let max = *v.iter().max().unwrap() as f64;
        let avg = v.iter().sum::<u64>() as f64 / p as f64;
        let zeros = v.iter().filter(|&&x| x == 0).count();
        println!(
            "  {label} iteration {}: max/avg imbalance {:.1}x, {zeros}/{p} ranks receive nothing",
            k + 1,
            if avg > 0.0 { max / avg } else { 0.0 },
        );
    }
    if let Some(t) = &trace {
        t.finish();
    }
}
