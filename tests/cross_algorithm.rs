//! Cross-crate agreement: every connected-components implementation in the
//! workspace must produce the same partition on the full generator zoo.

use lacc_suite::baselines as b;
use lacc_suite::graph::generators::*;
use lacc_suite::graph::unionfind::canonicalize_labels;
use lacc_suite::graph::CsrGraph;
use lacc_suite::lacc::{self, LaccOpts};

/// `lacc::run` in the positional shape the zoo sweep reads naturally in.
fn run_with(
    g: &CsrGraph,
    p: usize,
    model: lacc_suite::dmsim::MachineModel,
    opts: &LaccOpts,
) -> Result<lacc::RunOutput, lacc_suite::dmsim::DmsimError> {
    lacc::run(g, &lacc::RunConfig::new(p, model).with_opts(*opts))
}

fn zoo() -> Vec<(String, CsrGraph)> {
    vec![
        ("path_1000".into(), path_graph(1000)),
        ("cycle_257".into(), cycle_graph(257)),
        ("star_100".into(), star_graph(100)),
        ("complete_30".into(), complete_graph(30)),
        ("forest".into(), random_forest(800, 17, 5)),
        ("er_sparse".into(), erdos_renyi_gnm(600, 500, 1)),
        ("er_dense".into(), erdos_renyi_gnm(400, 3000, 2)),
        ("rmat".into(), rmat(9, 6, RmatParams::graph500(), 3)),
        ("community".into(), community_graph(2000, 80, 3.5, 1.4, 4)),
        ("metagenome".into(), metagenome_graph(3000, 6, 0.008, 5)),
        ("mesh3d".into(), mesh_3d(8, 8, 8)),
        ("barabasi_albert".into(), barabasi_albert(1000, 3, 6)),
        ("watts_strogatz".into(), watts_strogatz(500, 6, 0.2, 7)),
        (
            "empty".into(),
            CsrGraph::from_edges(lacc_suite::graph::EdgeList::new(50)),
        ),
    ]
}

#[test]
fn all_serial_algorithms_agree() {
    for (name, g) in zoo() {
        let truth = b::union_find_cc(&g);
        let algos: Vec<(&str, Vec<usize>)> = vec![
            ("fastsv", b::fastsv_cc(&g)),
            ("as_ref", lacc::asref::awerbuch_shiloach(&g)),
            (
                "lacc_serial",
                lacc::lacc_serial(&g, &LaccOpts::default()).labels,
            ),
            (
                "lacc_dense",
                lacc::lacc_serial(&g, &LaccOpts::dense_as()).labels,
            ),
        ];
        for (algo, labels) in algos {
            assert_eq!(
                canonicalize_labels(&labels),
                truth,
                "{algo} differs from union-find on {name}"
            );
        }
    }
}

#[test]
fn distributed_algorithms_agree() {
    for (name, g) in zoo() {
        let truth = b::union_find_cc(&g);
        let model = lacc_suite::dmsim::EDISON.lacc_model();
        let run = run_with(&g, 4, model, &LaccOpts::default()).unwrap();
        assert_eq!(
            canonicalize_labels(&run.labels),
            truth,
            "dist LACC on {name}"
        );
        if g.num_vertices() > 0 {
            let pc = b::parconnect_sim(&g, 4, lacc_suite::dmsim::EDISON.flat_model()).unwrap();
            assert_eq!(
                canonicalize_labels(&pc.labels),
                truth,
                "parconnect on {name}"
            );
        }
    }
}

#[test]
fn component_counts_match_generator_contracts() {
    // Generators promise exact component counts; LACC must recover them.
    let g = random_forest(2000, 37, 9);
    let run = lacc::lacc_serial(&g, &LaccOpts::default());
    assert_eq!(run.num_components(), 37);

    let g = community_graph(3000, 120, 4.0, 1.5, 2);
    let run = lacc::lacc_serial(&g, &LaccOpts::default());
    assert_eq!(run.num_components(), 120);
}
