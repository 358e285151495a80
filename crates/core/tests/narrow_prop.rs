//! The compact wire against the legacy wire on a graph whose ids pass
//! 2^16, too large for the engine lattice (`lattice.rs`): its streams mix
//! chunks that fit raw `u16` with chunks that do not. The two wires
//! ([`LaccOpts::default`], [`LaccOpts::naive_comm`]) must agree on labels
//! and iteration counts, and the compact one must ship fewer bytes.

use dmsim::{TraceLevel, TraceSink};
use lacc::{run, EngineSelect, LaccOpts, RunConfig};
use lacc_baselines::union_find_cc;
use lacc_graph::generators::community_graph;
use lacc_graph::unionfind::canonicalize_labels;
use lacc_graph::CsrGraph;

const RANKS: usize = 4;

const ENGINES: [EngineSelect; 3] = [
    EngineSelect::Lacc,
    EngineSelect::Fastsv,
    EngineSelect::LabelProp,
];

/// One unpermuted run's labels, iteration count and Σ `bytes_sent`.
fn profile(g: &CsrGraph, base: LaccOpts, engine: EngineSelect) -> (Vec<usize>, usize, u64) {
    let mut opts = base;
    (opts.engine, opts.permute) = (engine, false);
    let sink = TraceSink::new(TraceLevel::Steps);
    let cfg = RunConfig::new(RANKS, dmsim::EDISON.lacc_model())
        .with_opts(opts)
        .with_trace(&sink);
    let out = run(g, &cfg).expect("rank panicked");
    let bytes = sink
        .rank_traces()
        .iter()
        .map(|rt| rt.snapshot.bytes_sent)
        .sum();
    let iterations = out.num_iterations();
    (out.run.labels, iterations, bytes)
}

#[test]
fn streams_mixing_u16_and_wide_chunks_agree_and_ship_fewer_bytes() {
    // More vertices than raw u16 can address, in ~3000 communities of
    // contiguous ids; unpermuted, the low chunks' labels fit 16 bits until
    // the end and the last communities lie wholly past 2^16, so every
    // round ships both kinds of stream.
    let g = community_graph(70_000, 3_000, 3.0, 1.4, 5);
    assert!(g.num_vertices() > 1 << 16);
    let truth = union_find_cc(&g);
    for engine in ENGINES {
        let compact = profile(&g, LaccOpts::default(), engine);
        let legacy = profile(&g, LaccOpts::naive_comm(), engine);
        assert_eq!(compact.0, legacy.0, "labels diverged (engine {engine})");
        assert_eq!(compact.1, legacy.1, "iterations diverged (engine {engine})");
        assert_eq!(canonicalize_labels(&compact.0), truth, "engine {engine}");
        assert!(
            compact.2 < legacy.2,
            "engine {engine}: compact wire shipped {} bytes, legacy {}",
            compact.2,
            legacy.2
        );
    }
}
