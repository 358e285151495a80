//! Extension experiment — the engine head-to-head: LACC vs the first-class
//! distributed FastSV engine, with label propagation beside them.
//!
//! FastSV (Zhang, Azad & Hu 2020) superseded LACC in LAGraph; the paper's
//! related-work positioning makes the head-to-head interesting: FastSV
//! runs fewer, simpler supersteps (no star maintenance) over vectors that
//! stay dense until few grandparents change. All engines run over the
//! same optimized `gblas::dist` stack through `lacc::run`, so the
//! comparison isolates the algorithm, not the communication layer.
//!
//! There is no engine selector (EXPERIMENTS.md, "Regret of the engine
//! selector"): `best/fastsv` — the fastest engine's modeled time over
//! FastSV's — is what choosing the constant `fastsv` gives up per row, and
//! the bar any future selector must beat with its own cost included.

use dmsim::EDISON;
use lacc::{EngineSelect, LaccOpts, RunConfig};
use lacc_bench::*;
use lacc_graph::generators::suite::by_name;
use lacc_graph::unionfind::canonicalize_labels;

fn main() {
    let nodes = scaling_nodes();
    let shrink = shrink();
    let names = ["archaea", "M3", "queen_4147", "twitter7"];
    let header = [
        "graph",
        "nodes",
        "ranks",
        "lacc modeled s",
        "fastsv modeled s",
        "labelprop modeled s",
        "lacc/fastsv",
        "best/fastsv",
        "lacc iters",
        "fastsv rounds",
        "labelprop rounds",
    ];
    let mut rows = Vec::new();
    let trace = trace_config();
    for name in names {
        let prob = by_name(name).expect("known problem");
        let g = if shrink == 1 {
            prob.build()
        } else {
            prob.build_small(shrink)
        };
        eprintln!(
            "[fastsv] {}: n={} m={}",
            name,
            g.num_vertices(),
            g.num_directed_edges()
        );
        for &n_nodes in &nodes {
            let (ranks, _) = lacc_ranks_for(n_nodes);
            if let Some(t) = &trace {
                t.clear();
            }
            let cfg = RunConfig::new(ranks, EDISON.lacc_model())
                .with_trace_opt(trace.as_ref().map(TraceConfig::sink));
            let [lacc_run, fsv, lp] = [
                EngineSelect::Lacc,
                EngineSelect::Fastsv,
                EngineSelect::LabelProp,
            ]
            .map(|engine| {
                let opts = LaccOpts::builder().engine(engine).build();
                lacc::run(&g, &cfg.clone().with_opts(opts)).expect("a rank panicked")
            });
            for other in [&fsv, &lp] {
                assert_eq!(
                    canonicalize_labels(&lacc_run.labels),
                    canonicalize_labels(&other.labels),
                    "engines disagree on {name}"
                );
            }
            let fsv_s = fsv.modeled_total_s.max(1e-12);
            let best_s = lacc_run.modeled_total_s.min(lp.modeled_total_s).min(fsv_s);
            rows.push(vec![
                name.to_string(),
                format!("{n_nodes}"),
                format!("{ranks}"),
                fmt_s(lacc_run.modeled_total_s),
                fmt_s(fsv.modeled_total_s),
                fmt_s(lp.modeled_total_s),
                format!("{:.2}", lacc_run.modeled_total_s / fsv_s),
                format!("{:.2}", best_s / fsv_s),
                format!("{}", lacc_run.num_iterations()),
                format!("{}", fsv.num_iterations()),
                format!("{}", lp.num_iterations()),
            ]);
        }
    }
    print_table(
        "Extension: LACC vs FastSV vs label propagation engines (Edison model)",
        &header,
        &rows,
    );
    write_csv("ext_fastsv", &header, &rows);
    if let Some(t) = &trace {
        t.finish();
    }
}
