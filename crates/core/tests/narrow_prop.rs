//! Property tests: dynamic label-range narrowing must be invisible in
//! everything except bytes.
//!
//! With `narrow_labels` on vs off, a run must produce identical labels,
//! identical iteration counts, and identical per-rank `words_sent` —
//! across every engine and both index widths. The
//! property's graphs are small enough to stay on the raw-u16 tier; the
//! dictionary tier is reached by a graph with more than 2^16 vertices,
//! which walks native → dictionary build → reuse → invalidation by a
//! shortcut that moved labels → rebuild over the surviving labels.

use dmsim::{NarrowTier, SpanKind, TraceLevel, TraceSink};
use lacc::{run, EngineSelect, IndexWidth, LaccOpts, RunConfig, RunOutput};
use lacc_graph::generators::community_graph;
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

/// The narrowing-sensitive profile of a run — labels, iteration count and
/// per-rank word counts — then the full output and the tier planned for
/// each round.
type Profile = ((Vec<usize>, usize, Vec<u64>), RunOutput, Vec<NarrowTier>);

fn profile(
    g: &CsrGraph,
    engine: EngineSelect,
    width: IndexWidth,
    narrow: bool,
    permute: bool,
) -> Profile {
    let opts = LaccOpts::builder()
        .engine(engine)
        .permute(permute)
        .index_width(width)
        .narrow_labels(narrow)
        .build();
    let sink = TraceSink::new(TraceLevel::Steps);
    let cfg = RunConfig::new(RANKS, dmsim::EDISON.lacc_model())
        .with_opts(opts)
        .with_trace(&sink);
    let out = run(g, &cfg).expect("rank panicked");
    let traces = sink.rank_traces();
    let saved: u64 = traces.iter().map(|rt| rt.snapshot.narrow_saved_bytes).sum();
    assert!(
        narrow || saved == 0,
        "narrow_saved_bytes must be zero with narrowing off (got {saved})"
    );
    let words: Vec<u64> = traces.iter().map(|rt| rt.snapshot.words_sent).collect();
    let tiers: Vec<NarrowTier> = traces
        .iter()
        .find(|rt| rt.rank == 0)
        .expect("rank 0 traced")
        .spans
        .iter()
        .filter_map(|s| match s.kind {
            SpanKind::Narrow(tier) => Some(tier),
            _ => None,
        })
        .collect();
    let key = (out.run.labels.clone(), out.run.num_iterations(), words);
    (key, out, tiers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn narrowing_is_bit_identical_across_the_matrix(
        g in arb_graph(),
        wide in proptest::bool::ANY,
    ) {
        let width = if wide { IndexWidth::U64 } else { IndexWidth::U32 };
        for engine in ENGINES {
            let (base, ..) = profile(&g, engine, width, false, true);
            let (narrowed, ..) = profile(&g, engine, width, true, true);
            prop_assert_eq!(
                &base.0, &narrowed.0,
                "labels diverged (engine {}, width {})",
                engine, width
            );
            prop_assert_eq!(
                base.1, narrowed.1,
                "iteration count diverged (engine {})",
                engine
            );
            prop_assert_eq!(
                &base.2, &narrowed.2,
                "per-rank words_sent diverged (engine {}, width {})",
                engine, width
            );
        }
    }
}

#[test]
fn dictionary_tier_is_bit_identical_and_rebuilt_after_invalidation() {
    // More vertices than the u16 tier can address, in ~3000 communities of
    // contiguous ids; unpermuted, the last of them lie wholly past 2^16
    // and keep the u16 tier out of reach. Round 1 ships native labels, and
    // once hooking leaves fewer than 2^16 distinct labels every later
    // round runs on the dictionary tier.
    let g = community_graph(70_000, 3_000, 3.0, 1.4, 5);
    assert!(g.num_vertices() as u64 > lacc::narrow::U16_MAX);
    for engine in ENGINES {
        let (base, ..) = profile(&g, engine, IndexWidth::U32, false, false);
        let (narrowed, out, tiers) = profile(&g, engine, IndexWidth::U32, true, false);
        assert_eq!(base, narrowed, "narrowing is visible (engine {engine})");
        // One plan per round: the seed, then one after every round but
        // the last.
        assert_eq!(tiers.len(), out.num_iterations(), "engine {engine}");
        assert_eq!(tiers[0], NarrowTier::Native, "engine {engine}");
        assert!(
            !tiers.contains(&NarrowTier::U16),
            "labels past 2^16 survive to the end (engine {engine}): {tiers:?}"
        );
        // A dictionary in force during round k + 1 (planned as tier k),
        // label movement in that round (a shortcut, or any change for
        // label propagation) and the dictionary tier again for round
        // k + 2: the stale dictionary was dropped and a new one built.
        let rebuilt = (1..tiers.len() - 1).any(|k| {
            let it = &out.iters[k];
            let moved = match engine {
                EngineSelect::LabelProp => it.cond_changed,
                _ => it.shortcut_changed,
            };
            tiers[k] == NarrowTier::Dict && moved > 0 && tiers[k + 1] == NarrowTier::Dict
        });
        assert!(
            rebuilt,
            "no dictionary rebuild (engine {engine}): {tiers:?}"
        );
    }
}
