//! Web-crawl connectivity analysis: algorithm shoot-out.
//!
//! ```text
//! cargo run --release --example web_graph_analysis
//! ```
//!
//! Builds a web-crawl-like RMAT graph (skewed degrees, one giant
//! component plus fringe) and labels it five ways — union-find, serial
//! FastSV and serial LACC in wall time, distributed LACC and
//! ParConnect-sim in modeled machine time — then checks they all agree.

use lacc_suite::baselines as b;
use lacc_suite::dmsim::EDISON;
use lacc_suite::graph::generators::{rmat, RmatParams};
use lacc_suite::graph::unionfind::{canonicalize_labels, count_components};
use lacc_suite::lacc::{self, LaccOpts};
use std::time::Instant;

fn main() {
    let g = rmat(14, 12, RmatParams::web(), 2026);
    println!(
        "web graph: {} vertices, {} undirected edges, max degree {}",
        g.num_vertices(),
        g.num_undirected_edges(),
        (0..g.num_vertices()).map(|v| g.degree(v)).max().unwrap()
    );

    let truth = b::union_find_cc(&g);
    let ncomp = count_components(&truth);
    let giant = {
        let mut counts = std::collections::HashMap::new();
        for &l in &truth {
            *counts.entry(l).or_insert(0usize) += 1;
        }
        *counts.values().max().unwrap()
    };
    println!(
        "{ncomp} components; giant component covers {:.1}% of vertices\n",
        100.0 * giant as f64 / g.num_vertices() as f64
    );

    let check = |name: &str, labels: Vec<usize>, elapsed: f64, unit: &str| {
        assert_eq!(canonicalize_labels(&labels), truth, "{name} disagrees");
        println!("  {name:<34} {elapsed:>9.2} {unit}");
    };

    println!("serial (wall ms):");
    let t = Instant::now();
    let labels = b::union_find_cc(&g);
    check(
        "union-find (serial optimum)",
        labels,
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let t = Instant::now();
    let labels = b::fastsv_cc(&g);
    check(
        "FastSV (serial)",
        labels,
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let t = Instant::now();
    let run = lacc::lacc_serial(&g, &LaccOpts::default());
    check(
        "LACC (serial GraphBLAS)",
        run.labels,
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );

    println!("\ndistributed on 16 simulated Edison nodes (modeled ms):");
    let run = lacc::run(&g, &lacc::RunConfig::new(64, EDISON.lacc_model())).unwrap();
    check(
        "LACC (p=64, 4 ranks/node)",
        run.labels.clone(),
        run.modeled_total_s * 1e3,
        "ms (modeled)",
    );
    let pc = b::parconnect_sim(&g, 361, EDISON.flat_model()).unwrap();
    check(
        "ParConnect-sim (p=361, flat)",
        pc.labels,
        pc.modeled_total_s * 1e3,
        "ms (modeled)",
    );

    println!("\nall algorithms agree with union-find ground truth");
}
