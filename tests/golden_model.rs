//! Golden values of the cost model: one fixed graph per engine at p = 4
//! and p = 9, pinning the modeled makespan and the summed wire traffic —
//! under the default options and, for the hooking engines at p = 4, under
//! `LaccOpts::naive_comm()` (legacy wire, blocking), the opposite corner of
//! the lever lattice.
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

const GOLDEN: [Row; 6] = [
    (EngineSelect::Lacc, 4, 0.001280648711111109, 11683, 91112),
    (EngineSelect::Lacc, 9, 0.0029066458444443975, 23996, 172992),
    (EngineSelect::Fastsv, 4, 0.0003301344222222223, 3970, 31356),
    (EngineSelect::Fastsv, 9, 0.0005628786222222237, 8040, 61780),
    (
        EngineSelect::LabelProp,
        4,
        0.0002853006222222225,
        5076,
        40389,
    ),
    (
        EngineSelect::LabelProp,
        9,
        0.0004249619777777791,
        9884,
        78058,
    ),
];

/// The same pins under [`LaccOpts::naive_comm`].
const GOLDEN_NAIVE_COMM: [Row; 2] = [
    (EngineSelect::Lacc, 4, 0.0016477618222222132, 21547, 172017),
    (EngineSelect::Fastsv, 4, 0.0003313214666666669, 5557, 44376),
];

/// Skewed degrees for the hooking engines (duplicate-heavy requests, hot
/// owners), many small components for label propagation.
fn graph_for(engine: EngineSelect) -> CsrGraph {
    match engine {
        EngineSelect::LabelProp => community_graph(600, 40, 3.0, 1.4, 9),
        _ => rmat(9, 6, RmatParams::graph500(), 5),
    }
}

fn measure(base: LaccOpts, engine: EngineSelect, ranks: usize) -> Row {
    let sink: Arc<TraceSink> = TraceSink::new(TraceLevel::Steps);
    let cfg = RunConfig::new(ranks, EDISON.lacc_model())
        .with_opts(LaccOpts { engine, ..base })
        .with_trace(&sink);
    let out = lacc::run(&graph_for(engine), &cfg).expect("no rank panicked");
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
    for (name, base, golden) in [
        ("GOLDEN", LaccOpts::default(), &GOLDEN[..]),
        (
            "GOLDEN_NAIVE_COMM",
            LaccOpts::naive_comm(),
            &GOLDEN_NAIVE_COMM[..],
        ),
    ] {
        let measured: Vec<Row> = golden
            .iter()
            .map(|&(engine, ranks, ..)| measure(base, engine, ranks))
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
