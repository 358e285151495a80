//! Engine-portfolio matrix: every `CcEngine` must compute the same
//! partition through every configuration of the distributed stack.
//!
//! For each generated graph, runs all three engines (LACC, FastSV, label
//! propagation) across naive vs optimized communication, and requires
//! identical *canonical* labels everywhere
//! (LACC's raw labels are tree-root ids while FastSV/labelprop converge to
//! component minima, so raw bit-equality across engines is not expected —
//! canonical equality is the cross-engine contract).

use lacc_suite::baselines as b;
use lacc_suite::gblas::dist::DistOpts;
use lacc_suite::graph::generators::*;
use lacc_suite::graph::unionfind::canonicalize_labels;
use lacc_suite::graph::{CsrGraph, EdgeList};
use lacc_suite::lacc::{self, EngineSelect, LaccOpts};
use proptest::prelude::*;

fn run_engine(g: &CsrGraph, opts: LaccOpts) -> lacc::RunOutput {
    let cfg = lacc::RunConfig::new(4, lacc_suite::dmsim::EDISON.lacc_model()).with_opts(opts);
    lacc::run(g, &cfg).expect("engine rank panicked")
}

/// The full engine × comm sweep on one graph: every cell's
/// canonical labels must equal serial union-find's.
fn assert_matrix_agrees(name: &str, g: &CsrGraph) {
    let truth = b::union_find_cc(g);
    for engine in [
        EngineSelect::Lacc,
        EngineSelect::Fastsv,
        EngineSelect::LabelProp,
    ] {
        for naive in [false, true] {
            let opts = LaccOpts {
                engine,
                dist: if naive {
                    DistOpts::naive()
                } else {
                    DistOpts::default()
                },
                ..LaccOpts::default()
            };
            let out = run_engine(g, opts);
            assert_eq!(
                canonicalize_labels(&out.labels),
                truth,
                "{engine} naive={naive} on {name}"
            );
        }
    }
}

#[test]
fn engine_matrix_agrees_on_generator_suite() {
    let suite: Vec<(&str, CsrGraph)> = vec![
        ("path", path_graph(40)),
        ("star", star_graph(33)),
        ("forest", random_forest(60, 7, 5)),
        ("er", erdos_renyi_gnm(48, 70, 2)),
        ("rmat", rmat(5, 4, RmatParams::graph500(), 3)),
        ("community", community_graph(60, 6, 3.0, 1.4, 4)),
        ("empty", CsrGraph::from_edges(EdgeList::new(12))),
    ];
    for (name, g) in &suite {
        assert_matrix_agrees(name, g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn engine_matrix_agrees_on_arbitrary_graphs(
        n in 1usize..40,
        pairs in proptest::collection::vec((0usize..40, 0usize..40), 0..80),
    ) {
        let pairs: Vec<(usize, usize)> =
            pairs.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let g = CsrGraph::from_edges(EdgeList::from_pairs(n, pairs));
        assert_matrix_agrees("arbitrary", &g);
    }
}
