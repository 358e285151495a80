//! End-to-end pipeline tests: file I/O → permutation → distributed LACC.

use lacc_suite::baselines::union_find_cc;
use lacc_suite::graph::generators::{community_graph, rmat, RmatParams};
use lacc_suite::graph::io;
use lacc_suite::graph::permute::Permutation;
use lacc_suite::graph::unionfind::canonicalize_labels;
use lacc_suite::graph::CsrGraph;
use lacc_suite::lacc::{LaccOpts, RunConfig, RunOutput};

/// `lacc::run` in the positional shape these pipelines read naturally in.
fn run_with(
    g: &CsrGraph,
    p: usize,
    model: lacc_suite::dmsim::MachineModel,
    opts: &LaccOpts,
) -> Result<RunOutput, lacc_suite::dmsim::DmsimError> {
    lacc_suite::lacc::run(g, &RunConfig::new(p, model).with_opts(*opts))
}

#[test]
fn matrix_market_to_lacc_pipeline() {
    // Write a generated graph to Matrix Market, read it back, run LACC.
    let g = community_graph(500, 25, 4.0, 1.4, 31);
    let mut buf = Vec::new();
    io::write_matrix_market(&mut buf, &g.to_edgelist()).expect("write");
    let el = io::read_matrix_market(&buf[..]).expect("read");
    let g2 = CsrGraph::from_edges(el);
    assert_eq!(g, g2, "MM roundtrip must preserve the graph");
    let run = run_with(
        &g2,
        4,
        lacc_suite::dmsim::EDISON.lacc_model(),
        &LaccOpts::default(),
    )
    .unwrap();
    assert_eq!(canonicalize_labels(&run.labels), union_find_cc(&g));
}

#[test]
fn binary_roundtrip_pipeline() {
    let g = rmat(8, 4, RmatParams::web(), 44);
    let bytes = io::to_binary(&g.to_edgelist());
    let el = io::from_binary(bytes).expect("binary read");
    let g2 = CsrGraph::from_edges(el);
    assert_eq!(g, g2);
}

#[test]
fn permuted_pipeline_recovers_original_ids() {
    let g = community_graph(400, 20, 4.0, 1.4, 9);
    let perm = Permutation::random(400, 77);
    let h = perm.permute_graph(&g);
    // Solve on the permuted graph and map labels back.
    let run = run_with(
        &h,
        9,
        lacc_suite::dmsim::EDISON.lacc_model(),
        &LaccOpts::default(),
    )
    .unwrap();
    let labels_orig = perm.unpermute_labels(&run.labels);
    assert_eq!(canonicalize_labels(&labels_orig), union_find_cc(&g));
}

#[test]
fn edge_list_text_pipeline() {
    let g = rmat(7, 3, RmatParams::graph500(), 5);
    let mut buf = Vec::new();
    io::write_edge_list(&mut buf, &g.to_edgelist()).expect("write");
    let el = io::read_edge_list(&buf[..], Some(g.num_vertices())).expect("read");
    assert_eq!(CsrGraph::from_edges(el), g);
}
