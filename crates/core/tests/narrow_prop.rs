//! The compact wire against the legacy wire, end to end.
//!
//! Under [`LaccOpts::default`] every `mxv` gather, request hop and reply
//! crosses the wire through the stream codecs; under
//! [`LaccOpts::naive_comm`] everything ships raw. The two must agree on
//! everything but bytes: identical labels, identical iteration counts,
//! equal to union-find, for every engine. The large graph has ids past
//! 2^16, so its streams mix chunks that fit raw `u16` with chunks that do
//! not, and there the compact wire must also be strictly the smaller one.

use dmsim::{TraceLevel, TraceSink};
use lacc::{run, EngineSelect, IndexWidth, LaccOpts, RunConfig};
use lacc_baselines::union_find_cc;
use lacc_graph::generators::community_graph;
use lacc_graph::unionfind::canonicalize_labels;
use lacc_graph::{CsrGraph, EdgeList};
use proptest::prelude::*;

const RANKS: usize = 4;

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..48).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..120)
            .prop_map(move |pairs| CsrGraph::from_edges(EdgeList::from_pairs(n, pairs)))
    })
}

const ENGINES: [EngineSelect; 3] = [
    EngineSelect::Lacc,
    EngineSelect::Fastsv,
    EngineSelect::LabelProp,
];

/// One run's labels, iteration count and Σ `bytes_sent`.
fn profile(
    g: &CsrGraph,
    base: LaccOpts,
    engine: EngineSelect,
    index_width: IndexWidth,
    permute: bool,
) -> (Vec<usize>, usize, u64) {
    let opts = LaccOpts {
        engine,
        index_width,
        permute,
        ..base
    };
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn compact_and_legacy_wires_agree_across_the_matrix(
        g in arb_graph(),
        wide in proptest::bool::ANY,
    ) {
        let width = if wide { IndexWidth::U64 } else { IndexWidth::U32 };
        let truth = union_find_cc(&g);
        for engine in ENGINES {
            let compact = profile(&g, LaccOpts::default(), engine, width, true);
            let legacy = profile(&g, LaccOpts::naive_comm(), engine, width, true);
            prop_assert_eq!(
                &compact.0, &legacy.0,
                "labels diverged (engine {}, width {})",
                engine, width
            );
            prop_assert_eq!(
                compact.1, legacy.1,
                "iteration count diverged (engine {})",
                engine
            );
            prop_assert_eq!(
                &canonicalize_labels(&compact.0), &truth,
                "labels are not the components (engine {})",
                engine
            );
        }
    }
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
        let compact = profile(&g, LaccOpts::default(), engine, IndexWidth::U32, false);
        let legacy = profile(&g, LaccOpts::naive_comm(), engine, IndexWidth::U32, false);
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
