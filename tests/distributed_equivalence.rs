//! Distributed-vs-serial equivalence across the configuration matrix.
//!
//! The strongest correctness statement in the workspace: with the
//! load-balancing permutation disabled, distributed LACC must produce a
//! parent vector *bit-identical* to serial LACC — for every grid size,
//! every all-to-all algorithm, with the hot-rank broadcast on or off, and
//! on both wire formats.

use dmsim::AllToAll;
use gblas::dist::{DistOpts, Wire};
use lacc_suite::dmsim::{CORI_KNL, EDISON};
use lacc_suite::graph::generators::*;
use lacc_suite::graph::unionfind::canonicalize_labels;
use lacc_suite::graph::CsrGraph;
use lacc_suite::lacc::{lacc_serial, EngineSelect, LaccOpts, RunConfig, RunOutput};

/// `lacc::run` in the positional shape the configuration matrix below
/// reads naturally in.
fn run_with(
    g: &CsrGraph,
    p: usize,
    model: lacc_suite::dmsim::MachineModel,
    opts: &LaccOpts,
) -> Result<RunOutput, lacc_suite::dmsim::DmsimError> {
    lacc_suite::lacc::run(g, &RunConfig::new(p, model).with_opts(*opts))
}

#[test]
fn bit_identical_across_comm_configs() {
    let g = community_graph(900, 45, 3.0, 1.4, 21);
    let base = LaccOpts {
        permute: false,
        ..LaccOpts::default()
    };
    let serial = lacc_serial(&g, &base);
    for p in [1, 4, 9, 16, 25] {
        for algo in [AllToAll::Pairwise, AllToAll::Hypercube, AllToAll::Sparse] {
            for hot_threshold in [f64::INFINITY, 2.0] {
                let opts = LaccOpts {
                    dist: DistOpts {
                        alltoall: algo,
                        hot_threshold,
                        ..DistOpts::default()
                    },
                    ..base
                };
                let run = run_with(&g, p, EDISON.lacc_model(), &opts).unwrap();
                assert_eq!(
                    run.labels, serial.labels,
                    "p={p} algo={algo:?} h={hot_threshold}"
                );
            }
        }
    }
}

/// The lever lattice, closed: every engine on both wire formats finds the
/// union-find partition, and LACC's parent vector is bit-identical to
/// serial LACC throughout.
#[test]
fn engines_agree_across_wire_layout_and_width() {
    let g = community_graph(600, 30, 3.0, 1.4, 5);
    let truth = canonicalize_labels(&lacc_suite::baselines::union_find_cc(&g));
    let serial = lacc_serial(
        &g,
        &LaccOpts {
            permute: false,
            ..LaccOpts::default()
        },
    );
    for engine in [
        EngineSelect::Lacc,
        EngineSelect::Fastsv,
        EngineSelect::LabelProp,
    ] {
        for wire in [Wire::Legacy, Wire::Compact] {
            let opts = LaccOpts {
                engine,
                permute: false,
                dist: DistOpts {
                    wire,
                    ..DistOpts::default()
                },
                ..LaccOpts::default()
            };
            let run = run_with(&g, 4, EDISON.lacc_model(), &opts).unwrap();
            let at = format!("{engine} {wire:?}");
            assert_eq!(canonicalize_labels(&run.labels), truth, "{at}");
            if engine == EngineSelect::Lacc {
                assert_eq!(run.labels, serial.labels, "{at}");
            }
        }
    }
}

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
        let run = lacc_suite::lacc::run(&g, &cfg).unwrap();
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
    let a = run_with(&g, 9, EDISON.lacc_model(), &opts).unwrap();
    let b = run_with(&g, 9, CORI_KNL.flat_model(), &opts).unwrap();
    assert_eq!(a.labels, b.labels);
    // Modeled time must differ (KNL flat is slower per the model).
    assert!(b.modeled_total_s > a.modeled_total_s);
}

#[test]
fn permutation_changes_work_not_answer() {
    let g = metagenome_graph(1500, 6, 0.01, 8);
    let with = run_with(&g, 16, EDISON.lacc_model(), &LaccOpts::default()).unwrap();
    let without = run_with(
        &g,
        16,
        EDISON.lacc_model(),
        &LaccOpts {
            permute: false,
            ..LaccOpts::default()
        },
    )
    .unwrap();
    assert_eq!(
        canonicalize_labels(&with.labels),
        canonicalize_labels(&without.labels)
    );
}

#[test]
fn dense_as_and_lacc_agree_distributed() {
    let g = erdos_renyi_gnm(700, 900, 17);
    let a = run_with(&g, 4, EDISON.lacc_model(), &LaccOpts::default()).unwrap();
    let d = run_with(&g, 4, EDISON.lacc_model(), &LaccOpts::dense_as()).unwrap();
    assert_eq!(
        canonicalize_labels(&a.labels),
        canonicalize_labels(&d.labels)
    );
    // Sparsity must reduce modeled work on a many-component graph. The
    // comparison runs on the legacy wire: the dense active set's extra
    // traffic is so redundant that dedup and combining erase most of the
    // gap, and this assertion is about active-set sparsity.
    let no_compaction = DistOpts {
        wire: Wire::Legacy,
        ..DistOpts::default()
    };
    let g = community_graph(4000, 200, 3.0, 1.4, 3);
    let a = run_with(
        &g,
        16,
        EDISON.lacc_model(),
        &LaccOpts {
            dist: no_compaction,
            ..LaccOpts::default()
        },
    )
    .unwrap();
    let d = run_with(
        &g,
        16,
        EDISON.lacc_model(),
        &LaccOpts {
            dist: no_compaction,
            ..LaccOpts::dense_as()
        },
    )
    .unwrap();
    assert!(
        a.modeled_total_s < d.modeled_total_s,
        "sparsity should win: {} vs {}",
        a.modeled_total_s,
        d.modeled_total_s
    );
}
