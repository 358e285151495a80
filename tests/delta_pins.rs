//! Pins of FastSV and label propagation, recorded on the commit *before*
//! the delta-driven rules (PR 21) and reproduced exactly by them: the
//! per-round `[cond, uncond, shortcut, fourth]` series, the round count and
//! the raw labels on five fixed graphs, in every cell of p ∈ {1, 4, 9} ×
//! default / `naive_comm()` options.
//!
//! A row holds the round count and an FNV-1a digest of the whole series
//! (label propagation takes a thousand rounds on the paths); the raw labels are pinned by `lacc_baselines::fastsv_cc`, whose
//! component minima both engines converge to when the run does not
//! permute. On a mismatch the test prints the measured series round by
//! round.
//!
//! FastSV's rows were re-recorded when FastSV began to stop after the
//! first round whose grandparent refresh changed nothing (DESIGN.md §9):
//! each new series is the old one without its final all-zero round. The
//! rmat row did not move: the refresh of its round 2 still changed 39
//! grandparents, so the all-zero round 3 is the first with a zero fourth
//! counter. When a change moves the series on purpose, run
//! `cargo test --test delta_pins -- --nocapture` and paste the printed
//! table over `PINS`.

use lacc_suite::baselines::fastsv_cc;
use lacc_suite::dmsim::EDISON;
use lacc_suite::graph::generators::{community_graph, mesh_3d, path_graph, rmat, RmatParams};
use lacc_suite::graph::permute::Permutation;
use lacc_suite::graph::{CsrGraph, EdgeList};
use lacc_suite::lacc::EngineSelect::{self, Fastsv, LabelProp};
use lacc_suite::lacc::{self, LaccOpts, RunConfig};

/// `(engine, graph, rounds, digest of the series)`.
type Row = (EngineSelect, &'static str, usize, u64);

const PINS: [Row; 10] = [
    (Fastsv, "rmat", 3, 0x6c1fe4965a478909),
    (Fastsv, "community", 5, 0xb0382c94bb58d9f7),
    (Fastsv, "path_reversed", 10, 0x0211deba04a3d9eb),
    (Fastsv, "path_shuffled", 11, 0x25baf8b6c1c820c2),
    (Fastsv, "mesh", 4, 0x7db2d5b51e589bdb),
    (LabelProp, "rmat", 4, 0x904132342ec4ea20),
    (LabelProp, "community", 12, 0xabff84b5f2a82712),
    (LabelProp, "path_reversed", 1000, 0xddaeb43bf341c685),
    (LabelProp, "path_shuffled", 996, 0x10490576c4480ac1),
    (LabelProp, "mesh", 8, 0x7280840c352d4480),
];

fn graph(name: &str) -> CsrGraph {
    let relabeled = |perm: Permutation| perm.permute_graph(&path_graph(1000));
    match name {
        "rmat" => rmat(9, 6, RmatParams::graph500(), 5),
        "community" => community_graph(600, 40, 3.0, 1.4, 9),
        "path_reversed" => relabeled(Permutation::from_forward((0..1000).rev().collect())),
        "path_shuffled" => relabeled(Permutation::random(1000, 17)),
        // The 8³ mesh minus every 37th edge.
        "mesh" => {
            let full = mesh_3d(8, 8, 8);
            let kept = full.edges().filter(|&(u, v)| u < v).enumerate();
            let pairs = kept.filter(|(k, _)| k % 37 != 5).map(|(_, e)| e);
            CsrGraph::from_edges(EdgeList::from_pairs(full.num_vertices(), pairs))
        }
        other => unreachable!("no pinned graph named {other}"),
    }
}

fn series_of(out: &lacc::RunOutput) -> Vec<[u64; 4]> {
    let counters = |it: &lacc::IterStats| {
        [
            it.cond_changed as u64,
            it.uncond_changed as u64,
            it.shortcut_changed as u64,
            it.fourth_changed as u64,
        ]
    };
    out.iters.iter().map(counters).collect()
}

/// FNV-1a over the counters, round by round.
fn digest_of(series: &[[u64; 4]]) -> u64 {
    let bytes = series.iter().flatten().flat_map(|c| c.to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn per_round_counters_and_labels_match_the_pre_delta_pins() {
    let mut measured: Vec<(Row, Vec<[u64; 4]>)> = Vec::new();
    for &(engine, name, ..) in &PINS {
        let g = graph(name);
        let truth = fastsv_cc(&g);
        let mut first: Option<Vec<[u64; 4]>> = None;
        for ranks in [1usize, 4, 9] {
            for base in [LaccOpts::default(), LaccOpts::naive_comm()] {
                let opts = LaccOpts {
                    engine,
                    permute: false,
                    ..base
                };
                let cfg = RunConfig::new(ranks, EDISON.lacc_model()).with_opts(opts);
                let out = lacc::run(&g, &cfg).expect("no rank panicked");
                let at = format!("{engine} on {name}, p = {ranks}");
                assert_eq!(out.labels, truth, "raw labels: {at}");
                let series = series_of(&out);
                let first = first.get_or_insert_with(|| series.clone());
                assert_eq!(&series, first, "the series depends on the cell: {at}");
            }
        }
        let series = first.expect("six cells ran");
        measured.push(((engine, name, series.len(), digest_of(&series)), series));
    }
    println!("PINS:");
    for ((engine, name, rounds, digest), _) in &measured {
        println!("    ({engine:?}, {name:?}, {rounds}, {digest:#018x}),");
    }
    for ((got, series), want) in measured.iter().zip(&PINS) {
        assert_eq!(got, want, "series by round: {series:?}");
    }
}
