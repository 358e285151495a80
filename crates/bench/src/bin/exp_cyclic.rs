//! Future-work experiment (§VII) — cyclic vs blocked vector distribution.
//!
//! The paper's conclusion proposes cyclic vector distribution to remove
//! the communication hot spots of Figure 3. This experiment implements
//! and evaluates it: for a skewed RMAT graph and the M3-like stand-in,
//! compare LACC with blocked vs cyclic vectors on (a) the max/avg
//! imbalance of extract requests received per rank, and (b) total modeled
//! time — exposing the trade: balance improves, but `mxv` loses its
//! grid-aligned gather and must collect vector pieces world-wide.

use lacc::{LaccOpts, LaccRun};
use lacc_bench::*;
use lacc_graph::generators::suite::by_name;
use lacc_graph::generators::{rmat, RmatParams};
use lacc_graph::CsrGraph;

fn imbalance(run: &LaccRun) -> f64 {
    let p = run.p;
    let mut per_rank = vec![0u64; p];
    for it in &run.iters {
        for (r, &x) in it.extract_received.iter().enumerate() {
            per_rank[r] += x;
        }
    }
    let max = *per_rank.iter().max().unwrap_or(&0) as f64;
    let avg = per_rank.iter().sum::<u64>() as f64 / p as f64;
    max / avg.max(1.0)
}

fn main() {
    let shrink = shrink();
    let p = if full_mode() { 256 } else { 64 };
    let graphs: Vec<(String, CsrGraph)> = vec![
        (
            "rmat_skewed".into(),
            rmat(
                if full_mode() { 15 } else { 13 },
                16,
                RmatParams::graph500(),
                42,
            ),
        ),
        ("M3".into(), {
            let prob = by_name("M3").expect("known");
            if shrink == 1 {
                prob.build()
            } else {
                prob.build_small(shrink)
            }
        }),
    ];
    let header = [
        "graph",
        "layout",
        "hot bcast",
        "modeled s",
        "extract max/avg",
        "iters",
    ];
    let mut rows = Vec::new();
    let trace = trace_config();
    for (name, g) in &graphs {
        eprintln!(
            "[cyclic] {name}: n={} m={}",
            g.num_vertices(),
            g.num_directed_edges()
        );
        // Permutation off so vertex ids stay adversarial (min-hooking
        // concentrates parents at low ids — the Figure 3 regime).
        let configs = [
            ("blocked", false, false),
            ("blocked", false, true),
            ("cyclic", true, false),
            ("cyclic", true, true),
        ];
        for (layout, cyclic, hot) in configs {
            let opts = LaccOpts {
                permute: false,
                cyclic_vectors: cyclic,
                dist: gblas::dist::DistOpts {
                    hot_threshold: if hot { 4.0 } else { f64::INFINITY },
                    ..gblas::dist::DistOpts::default()
                },
                ..LaccOpts::default()
            };
            if let Some(t) = &trace {
                t.clear();
            }
            let cfg = lacc::RunConfig::new(p, default_model())
                .with_opts(opts)
                .with_trace_opt(trace.as_ref().map(TraceConfig::sink));
            let run = lacc::run(g, &cfg)
                .expect("distributed LACC rank panicked")
                .run;
            rows.push(vec![
                name.clone(),
                layout.to_string(),
                if hot { "on" } else { "off" }.to_string(),
                fmt_s(run.modeled_total_s),
                format!("{:.1}x", imbalance(&run)),
                format!("{}", run.num_iterations()),
            ]);
        }
    }
    print_table(
        &format!("§VII future work: cyclic vs blocked vectors (p = {p})"),
        &header,
        &rows,
    );
    write_csv("ext_cyclic", &header, &rows);
    if let Some(t) = &trace {
        t.finish();
    }
    println!("\nExpected trade: cyclic flattens the extract imbalance (and makes the hot-rank broadcast unnecessary), while mxv pays a world-wide gather.");
}
