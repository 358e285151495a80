//! What the configuration matrix changes besides the labels: modeled time
//! and bytes. That every cell of the matrix finds the same components, and
//! that unpermuted LACC equals serial LACC round by round, is the engine
//! lattice's (`crates/core/tests/lattice.rs`).

use gblas::dist::{DistOpts, Wire};
use lacc_suite::dmsim::{CORI_KNL, EDISON};
use lacc_suite::graph::generators::*;
use lacc_suite::lacc::{run, LaccOpts, RunConfig};

/// On a p = 4 RMAT scale-10 run, overlap hides a non-zero amount of
/// exchange time under the Edison model at the same labels, rounds and
/// charged words as a run whose exchanges are free — the clock decides
/// nothing — and the compact wire ships strictly fewer bytes than the
/// legacy wire for the same labels.
#[test]
fn overlap_hides_time_and_narrowing_saves_bytes_at_equal_words() {
    use lacc_suite::dmsim::{MachineModel, TraceLevel, TraceSink};
    let g = rmat(10, 16, RmatParams::graph500(), 23);
    let profile = |model: MachineModel, wire: Wire| {
        let opts = LaccOpts {
            dist: DistOpts {
                wire,
                ..DistOpts::default()
            },
            ..LaccOpts::default()
        };
        let sink = TraceSink::new(TraceLevel::Steps);
        let cfg = RunConfig::new(4, model).with_opts(opts).with_trace(&sink);
        let run = run(&g, &cfg).unwrap();
        let bytes: u64 = sink
            .rank_traces()
            .iter()
            .map(|rt| rt.snapshot.bytes_sent)
            .sum();
        (run.run, sink.report(), bytes)
    };
    let (edison, redison, compact_bytes) = profile(EDISON.lacc_model(), Wire::Compact);
    let (free, rfree, _) = profile(MachineModel::free(), Wire::Compact);
    let (legacy, _, legacy_bytes) = profile(EDISON.lacc_model(), Wire::Legacy);
    assert!(redison.overlap_hidden_s > 0.0, "overlap hid nothing");
    assert_eq!(free.labels, edison.labels);
    assert_eq!(free.num_iterations(), edison.num_iterations());
    assert_eq!(rfree.rank_words, redison.rank_words);
    assert_eq!(legacy.labels, edison.labels);
    assert!(
        compact_bytes < legacy_bytes,
        "compact wire shipped {compact_bytes} bytes, legacy {legacy_bytes}"
    );
}

#[test]
fn machine_model_does_not_change_results() {
    let g = rmat(8, 5, RmatParams::web(), 6);
    let opts = LaccOpts {
        permute: false,
        ..LaccOpts::default()
    };
    let on = |model| run(&g, &RunConfig::new(9, model).with_opts(opts)).unwrap();
    let (a, b) = (on(EDISON.lacc_model()), on(CORI_KNL.flat_model()));
    assert_eq!(a.labels, b.labels);
    // Modeled time must differ (KNL flat is slower per the model).
    assert!(b.modeled_total_s > a.modeled_total_s);
}

#[test]
fn dense_as_and_lacc_agree_distributed() {
    // Sparsity must reduce modeled work on a many-component graph. The
    // comparison runs on the legacy wire: the dense active set's extra
    // traffic is so redundant that dedup and combining erase most of the
    // gap, and this assertion is about active-set sparsity.
    let g = community_graph(4000, 200, 3.0, 1.4, 3);
    let modeled = |mut opts: LaccOpts| {
        opts.dist.wire = Wire::Legacy;
        run(&g, &RunConfig::new(16, EDISON.lacc_model()).with_opts(opts)).unwrap()
    };
    let (a, d) = (modeled(LaccOpts::default()), modeled(LaccOpts::dense_as()));
    assert!(
        a.modeled_total_s < d.modeled_total_s,
        "sparsity should win: {} vs {}",
        a.modeled_total_s,
        d.modeled_total_s
    );
}
