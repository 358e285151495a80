//! Ablation study — each §IV-B / §V-B optimization toggled independently.
//!
//! Not a paper figure, but the paper's conclusions attribute LACC's
//! performance to three mechanisms; this experiment isolates them:
//!
//! 1. **Vector sparsity** (Lemmas 1–2): LACC vs the dense-AS translation.
//! 2. **All-to-all algorithm**: pairwise-exchange vs hypercube vs sparse.
//! 3. **Hot-rank broadcast**: on vs off, plus a sweep of the threshold h.
//!
//! The compact wire format on top is ablated the same way: one row runs
//! the otherwise-default stack on the legacy wire. Two more rows pin the
//! §V-A SpMV/SpMSpV dispatch at either end of its threshold. Overlap is
//! not a row: it is part of the modeled machine, on in every row.

use dmsim::{AllToAll, EDISON};
use gblas::dist::{DistOpts, Wire};
use lacc::LaccOpts;
use lacc_bench::*;
use lacc_graph::generators::suite::by_name;

fn main() {
    let shrink = shrink();
    let p = if full_mode() { 256 } else { 64 };
    let model = EDISON.lacc_model();
    let prob = by_name("archaea").expect("known problem");
    let g = if shrink == 1 {
        prob.build()
    } else {
        prob.build_small(shrink)
    };
    eprintln!(
        "[ablation] {} at p={p}: n={} m={}",
        prob.name,
        g.num_vertices(),
        g.num_directed_edges()
    );

    let mut rows = Vec::new();
    let trace = trace_config();
    let mut run_cfg = |label: &str, opts: LaccOpts| {
        // Cleared per configuration: an exported trace covers the last one.
        if let Some(t) = &trace {
            t.clear();
        }
        let cfg = lacc::RunConfig::new(p, model)
            .with_opts(opts)
            .with_trace_opt(trace.as_ref().map(TraceConfig::sink));
        let run = lacc::run(&g, &cfg)
            .expect("distributed LACC rank panicked")
            .run;
        rows.push(vec![
            label.to_string(),
            fmt_s(run.modeled_total_s),
            format!("{}", run.num_iterations()),
            fmt_s(run.wall_s),
        ]);
    };

    // 1. Sparsity.
    run_cfg("LACC (all optimizations)", LaccOpts::default());
    run_cfg("dense AS (no sparsity)", LaccOpts::dense_as());

    // 2. All-to-all algorithms (sparsity on).
    for (name, algo) in [
        ("alltoall = pairwise", AllToAll::Pairwise),
        ("alltoall = hypercube", AllToAll::Hypercube),
        ("alltoall = sparse", AllToAll::Sparse),
    ] {
        let opts = LaccOpts {
            dist: DistOpts {
                alltoall: algo,
                ..DistOpts::default()
            },
            ..LaccOpts::default()
        };
        run_cfg(name, opts);
    }

    // 3. Hot-rank broadcast.
    run_cfg(
        "hot-rank broadcast off",
        LaccOpts {
            dist: DistOpts {
                hot_threshold: f64::INFINITY,
                ..DistOpts::default()
            },
            ..LaccOpts::default()
        },
    );
    for h in [1.0, 2.0, 4.0, 16.0] {
        let opts = LaccOpts {
            dist: DistOpts {
                hot_threshold: h,
                ..DistOpts::default()
            },
            ..LaccOpts::default()
        };
        run_cfg(&format!("hot threshold h = {h}"), opts);
    }

    // 4. Wire format: the default stack on the legacy wire (no request
    // dedup, no pre-combining, no in-flight combining, unfused starcheck).
    run_cfg(
        "wire = legacy",
        LaccOpts {
            dist: DistOpts {
                wire: Wire::Legacy,
                ..DistOpts::default()
            },
            ..LaccOpts::default()
        },
    );

    // 5. The SpMV/SpMSpV dispatch (§V-A), forced to one side: every fill
    // is at least 0, and none reaches 1.5.
    for (name, t) in [
        ("spmv threshold = 0 (always SpMV)", 0.0),
        ("spmv threshold = 1.5 (never SpMV)", 1.5),
    ] {
        let opts = LaccOpts::builder().spmv_threshold(t).expect("in range");
        run_cfg(name, opts.build());
    }

    // Fully naive stack for reference.
    run_cfg(
        "naive comm (pairwise, no bcast, legacy wire)",
        LaccOpts::naive_comm(),
    );

    // Extension: the first-class distributed FastSV engine (the LAGraph
    // successor) on the same substrate and machine model.
    let fsv_opts = LaccOpts::builder()
        .engine(lacc::EngineSelect::Fastsv)
        .build();
    run_cfg("FastSV engine (extension)", fsv_opts);

    let header = ["configuration", "modeled s", "iterations", "sim wall s"];
    print_table(
        &format!("Ablation on {} (p = {p}, Edison model)", prob.name),
        &header,
        &rows,
    );
    write_csv("ablation", &header, &rows);
    if let Some(t) = &trace {
        t.finish();
    }
}
