//! The fused ingest path against its materializing reference.
//!
//! `lacc::run` with `permute` on builds every rank's block straight from
//! the caller's graph and the relabeling. The reference materializes
//! `perm.permute_graph(g)` and runs on it with `permute` off; the two must
//! agree on everything a run reports: labels, iteration trajectory, the
//! modeled clock and every rank's traffic.

use lacc_suite::dmsim::{TraceLevel, TraceSink, EDISON};
use lacc_suite::graph::generators::*;
use lacc_suite::graph::permute::Permutation;
use lacc_suite::graph::{CsrGraph, EdgeList};
use lacc_suite::lacc::{LaccOpts, RunConfig, RunOutput};
use std::sync::Arc;

/// One traced run: the output plus each rank's `(words, bytes)` sent.
fn traced(g: &CsrGraph, p: usize, opts: LaccOpts) -> (RunOutput, Vec<(u64, u64)>) {
    let sink: Arc<TraceSink> = TraceSink::new(TraceLevel::Steps);
    let cfg = RunConfig::new(p, EDISON.lacc_model())
        .with_opts(opts)
        .with_trace(&sink);
    let out = lacc_suite::lacc::run(g, &cfg).unwrap();
    let traffic = sink
        .rank_traces()
        .iter()
        .map(|rt| (rt.snapshot.words_sent, rt.snapshot.bytes_sent))
        .collect();
    (out, traffic)
}

#[test]
fn fused_ingest_matches_running_on_a_prepermuted_graph() {
    // n not divisible by sqrt(p), down to the empty graph, plus one input
    // large enough to iterate a few times.
    let graphs = [
        CsrGraph::from_edges(EdgeList::new(0)),
        CsrGraph::from_edges(EdgeList::new(1)),
        path_graph(7),
        erdos_renyi_gnm(50, 60, 3),
        rmat(8, 4, RmatParams::graph500(), 5),
    ];
    for g in &graphs {
        let n = g.num_vertices();
        for p in [1usize, 4, 9, 16] {
            let fused_opts = LaccOpts {
                permute: true,
                permute_seed: 0xFEED + p as u64,
                ..LaccOpts::default()
            };
            let perm = Permutation::random(n, fused_opts.permute_seed);
            let reference_opts = LaccOpts {
                permute: false,
                ..fused_opts
            };
            let (fused, fused_traffic) = traced(g, p, fused_opts);
            let (reference, reference_traffic) = traced(&perm.permute_graph(g), p, reference_opts);
            let at = format!("n={n} p={p}");
            assert_eq!(
                fused.labels,
                perm.unpermute_labels(&reference.labels),
                "{at}"
            );
            assert_eq!(fused.num_iterations(), reference.num_iterations(), "{at}");
            assert_eq!(fused.modeled_total_s, reference.modeled_total_s, "{at}");
            assert_eq!(fused_traffic, reference_traffic, "{at}");
            for (a, b) in fused.iters.iter().zip(&reference.iters) {
                assert_eq!(a.modeled, b.modeled, "{at}");
                assert_eq!(a.extract_received, b.extract_received, "{at}");
            }
        }
    }
}
