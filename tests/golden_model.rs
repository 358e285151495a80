//! Golden values of the cost model: one fixed graph per engine at p = 4
//! and p = 9, pinning the modeled makespan and the summed wire traffic —
//! under the default options and, for the hooking engines at p = 4, under
//! `LaccOpts::naive_comm()` (pairwise all-to-all, no broadcast, legacy
//! wire), the opposite corner of the lever lattice. Two more LACC rows at
//! p = 4 pin the cond-hook branches the rmat rows never take: the SpMSpV
//! branch (the community graph's fifth round is sparse) and the
//! `LaccOpts::dense_as()` branch without Lemma-1 retirement. Two pin a
//! LACC run whose round 1 is forced sparse. Two rows on a
//! larger community graph, at p = 4 and 16, pin a run whose last round
//! still holds six active trees: the one-tree rule (DESIGN.md §5) never
//! fires there, and building it left these rows unmoved.
//!
//! The rmat rows were re-recorded when the load-balancing permutation
//! began planting hubs at the lowest ids (DESIGN.md §3): the rmat graph
//! has hubs, so every hooking engine's row on it moved (LACC at p = 4
//! 604.5 → 406.1 µs). The community graphs have no vertex at 8× the mean
//! degree, so their rows, label propagation's included, did not move.
//!
//! Every row but `GOLDEN_SPARSE_ROUND_ONE`'s was re-recorded when round
//! one began to multiply the identity off the block's row extremes
//! (DESIGN.md §3), and FastSV's also when it began to stop after the first
//! round whose grandparent refresh changed nothing (§9). LACC's rows moved
//! in time, words and bytes only (at p = 4 on rmat 406.1 → 377.4 µs);
//! FastSV's dropped a round too (307.9 → 229.4 µs). The SpMSpV row,
//! `GOLDEN_LACC_SPARSE`, moved with them: its round 1 is dense.
//!
//! The modeled clock is a function of every `charge_compute` amount and
//! every message's size and order, so a host-side rewrite that is meant to
//! leave the model alone (a faster dedup, a different merge) cannot move
//! these numbers. When a change moves them on purpose, run
//! `cargo test --test golden_model -- --nocapture`, check the printed table
//! against what the change intended, and paste it over `GOLDEN`.

use lacc_suite::dmsim::{TraceLevel, TraceSink, EDISON};
use lacc_suite::graph::generators::{community_graph, rmat, RmatParams};
use lacc_suite::graph::CsrGraph;
use lacc_suite::lacc::{self, EngineSelect, LaccOpts, RunConfig};
use std::sync::Arc;

/// `(engine, ranks, modeled_total_s, Σ words_sent, Σ bytes_sent)`.
type Row = (EngineSelect, usize, f64, u64, u64);

/// `(name, options, the graph an engine runs on, rows)`.
type Table = (
    &'static str,
    LaccOpts,
    fn(EngineSelect) -> CsrGraph,
    &'static [Row],
);

const GOLDEN: [Row; 6] = [
    (EngineSelect::Lacc, 4, 0.0003773635555555567, 2778, 21467),
    (EngineSelect::Lacc, 9, 0.0009113293555555569, 6288, 44393),
    (EngineSelect::Fastsv, 4, 0.00022939573333333332, 2838, 22381),
    (EngineSelect::Fastsv, 9, 0.0004211947555555563, 5889, 45146),
    (
        EngineSelect::LabelProp,
        4,
        0.0002741478444444447,
        4924,
        39185,
    ),
    (
        EngineSelect::LabelProp,
        9,
        0.0004154406000000013,
        9578,
        75640,
    ),
];

/// The same pins under [`LaccOpts::naive_comm`].
const GOLDEN_NAIVE_COMM: [Row; 2] = [
    (EngineSelect::Lacc, 4, 0.000467164422222223, 4629, 36840),
    (EngineSelect::Fastsv, 4, 0.0002231676666666667, 3897, 31104),
];

/// LACC on the community graph, default options: its SpMSpV round.
const GOLDEN_LACC_SPARSE: [Row; 1] = [(EngineSelect::Lacc, 4, 0.0008279255777777807, 7756, 60307)];

/// LACC on the community graph with `spmv_threshold` 1.5, which forces
/// every round sparse, round 1 included: the identity multiply never runs,
/// so these rows were recorded before it was built and did not move.
const GOLDEN_SPARSE_ROUND_ONE: [Row; 2] = [
    (EngineSelect::Lacc, 4, 0.0008461616888888918, 7264, 56345),
    (EngineSelect::Lacc, 9, 0.001846560399999988, 14742, 106625),
];

/// LACC on a larger community graph at p = 4 and 16, default options: its
/// last round still starts with six active trees, so the one-tree rule
/// never fires there and must cost nothing: building it left these rows
/// unmoved.
const GOLDEN_LACC_MANY_TREES: [Row; 2] = [
    (EngineSelect::Lacc, 4, 0.0022490203999999945, 38509, 305958),
    (
        EngineSelect::Lacc,
        16,
        0.0018438037999999957,
        125571,
        982273,
    ),
];

/// LACC on the rmat graph under [`LaccOpts::dense_as`].
const GOLDEN_DENSE_AS: [Row; 1] = [(EngineSelect::Lacc, 4, 0.00048253624444444487, 4678, 36497)];

fn rmat_graph() -> CsrGraph {
    rmat(9, 6, RmatParams::graph500(), 5)
}

fn community() -> CsrGraph {
    community_graph(600, 40, 3.0, 1.4, 9)
}

fn many_trees() -> CsrGraph {
    community_graph(3000, 150, 3.0, 1.4, 2)
}

/// Skewed degrees for the hooking engines (duplicate-heavy requests, hot
/// owners), many small components for label propagation.
fn graph_for(engine: EngineSelect) -> CsrGraph {
    match engine {
        EngineSelect::LabelProp => community(),
        _ => rmat_graph(),
    }
}

fn measure(graph: &CsrGraph, base: LaccOpts, engine: EngineSelect, ranks: usize) -> Row {
    let sink: Arc<TraceSink> = TraceSink::new(TraceLevel::Steps);
    let cfg = RunConfig::new(ranks, EDISON.lacc_model())
        .with_opts(LaccOpts { engine, ..base })
        .with_trace(&sink);
    let out = lacc::run(graph, &cfg).expect("no rank panicked");
    let traces = sink.rank_traces();
    (
        engine,
        ranks,
        out.modeled_total_s,
        traces.iter().map(|rt| rt.snapshot.words_sent).sum(),
        traces.iter().map(|rt| rt.snapshot.bytes_sent).sum(),
    )
}

#[test]
fn modeled_clock_and_wire_traffic_match_golden_values() {
    let tables: [Table; 6] = [
        ("GOLDEN", LaccOpts::default(), graph_for, &GOLDEN),
        (
            "GOLDEN_NAIVE_COMM",
            LaccOpts::naive_comm(),
            graph_for,
            &GOLDEN_NAIVE_COMM,
        ),
        (
            "GOLDEN_LACC_SPARSE",
            LaccOpts::default(),
            |_| community(),
            &GOLDEN_LACC_SPARSE,
        ),
        (
            "GOLDEN_SPARSE_ROUND_ONE",
            LaccOpts {
                spmv_threshold: 1.5,
                ..LaccOpts::default()
            },
            |_| community(),
            &GOLDEN_SPARSE_ROUND_ONE,
        ),
        (
            "GOLDEN_LACC_MANY_TREES",
            LaccOpts::default(),
            |_| many_trees(),
            &GOLDEN_LACC_MANY_TREES,
        ),
        (
            "GOLDEN_DENSE_AS",
            LaccOpts::dense_as(),
            |_| rmat_graph(),
            &GOLDEN_DENSE_AS,
        ),
    ];
    for (name, base, graph, golden) in tables {
        let measured: Vec<Row> = golden
            .iter()
            .map(|&(engine, ranks, ..)| measure(&graph(engine), base, engine, ranks))
            .collect();
        println!("{name}:");
        for (engine, ranks, modeled_s, words, bytes) in &measured {
            println!("    (EngineSelect::{engine:?}, {ranks}, {modeled_s:?}, {words}, {bytes}),");
        }
        for (got, want) in measured.iter().zip(golden) {
            assert_eq!(
                (got.2.to_bits(), got.3, got.4),
                (want.2.to_bits(), want.3, want.4),
                "{name}: {:?} at p = {}: measured {got:?}, golden {want:?}",
                want.0,
                want.1
            );
        }
    }
}
