//! Property tests for the serving engine: a [`CcService`] must be an
//! *incremental encoding* of batch LACC, never a different computation.
//!
//! * Insert-only streams: every published epoch answers exactly like a
//!   union-find maintained alongside, and the final epoch's canonical
//!   labels equal a from-scratch distributed LACC run (optimized stack)
//!   on the final edge list.
//! * `RerunPolicy::always()`: each hooking batch swaps in a full LACC
//!   epoch; the installed labels are *bit-identical* (not merely
//!   equivalent) to an independent `lacc::run` on the same edges.
//! * Mixed insert/delete streams: every epoch agrees with the brute-force
//!   [`CcOracle`] over the surviving multiset, including component sizes.

use lacc::CcOracle;
use lacc_graph::unionfind::{canonicalize_labels, DisjointSets};
use lacc_graph::{CsrGraph, EdgeList};
use lacc_serving::{CcService, RerunPolicy, ServeOpts, UpdateBatch};
use proptest::prelude::*;

/// From-scratch distributed LACC (optimized stack) over an edge multiset.
fn fresh_labels(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let g = CsrGraph::from_edges(EdgeList::from_pairs(n, edges.iter().copied()));
    let opts = ServeOpts::default();
    let cfg = lacc::RunConfig::new(opts.ranks, opts.model).with_opts(lacc::LaccOpts::default());
    lacc::run(&g, &cfg).expect("distributed run").run.labels
}

fn chunk_batches(n: usize, raw: &[(usize, usize)], batch: usize) -> Vec<UpdateBatch> {
    raw.chunks(batch.max(1))
        .map(|chunk| {
            let mut b = UpdateBatch::new();
            for &(u, v) in chunk {
                b.insert(u % n, v % n);
            }
            b
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn insert_only_epochs_match_union_find_and_final_lacc(
        n in 8usize..48,
        raw in proptest::collection::vec((0usize..64, 0usize..64), 0..120),
        batch in 1usize..17,
    ) {
        let mut svc = CcService::new(n, ServeOpts {
            policy: RerunPolicy::never(),
            ..Default::default()
        });
        let mut uf = DisjointSets::new(n);
        let mut applied: Vec<(usize, usize)> = Vec::new();
        for b in chunk_batches(n, &raw, batch) {
            let out = svc.apply_batch(&b).unwrap();
            prop_assert_eq!(out.rerun, None);
            for up in b.updates() {
                if let lacc_serving::Update::Insert(u, v) = *up {
                    uf.union(u, v);
                    applied.push((u, v));
                }
            }
            // Every query agrees with the union-find at this epoch.
            let snap = svc.snapshot();
            prop_assert_eq!(snap.num_components(), uf.num_sets());
            for u in 0..n {
                for v in (u + 1)..n {
                    prop_assert_eq!(snap.same_component(u, v), uf.same_set(u, v));
                }
            }
        }
        prop_assert_eq!(svc.stats().reruns, 0);
        // Final epoch vs from-scratch LACC on the final edge list.
        let snap = svc.snapshot();
        prop_assert_eq!(
            canonicalize_labels(&snap.labels()),
            canonicalize_labels(&fresh_labels(n, svc.edges()))
        );
    }

    #[test]
    fn forced_reruns_install_bit_identical_labels(
        n in 8usize..40,
        raw in proptest::collection::vec((0usize..48, 0usize..48), 1..60),
        batch in 1usize..9,
    ) {
        let mut svc = CcService::new(n, ServeOpts {
            policy: RerunPolicy::always(),
            ..Default::default()
        });
        let mut hooked = false;
        for b in chunk_batches(n, &raw, batch) {
            let out = svc.apply_batch(&b).unwrap();
            hooked |= out.hooks > 0;
            if out.rerun.is_some() {
                // The installed epoch is the LACC run verbatim: raw
                // labels, not just canonical equivalence.
                prop_assert_eq!(
                    svc.snapshot().labels(),
                    fresh_labels(n, svc.edges())
                );
            }
        }
        if hooked {
            prop_assert!(svc.stats().staleness_reruns > 0);
        }
        prop_assert_eq!(
            canonicalize_labels(&svc.snapshot().labels()),
            canonicalize_labels(&fresh_labels(n, svc.edges()))
        );
    }

    #[test]
    fn mixed_updates_match_oracle_every_epoch(
        n in 8usize..32,
        raw in proptest::collection::vec((0usize..4, 0usize..40, 0usize..40), 1..50),
        batch in 1usize..7,
    ) {
        let mut svc = CcService::new(n, ServeOpts::default());
        for chunk in raw.chunks(batch) {
            let mut b = UpdateBatch::new();
            for &(tag, u, v) in chunk {
                // tag 0 (25%): delete an existing edge; otherwise insert.
                if tag == 0 && !svc.edges().is_empty() {
                    // Delete an existing edge (index derived from u, v).
                    let (du, dv) = svc.edges()[(u * 40 + v) % svc.edges().len()];
                    b.delete(du, dv);
                } else {
                    b.insert(u % n, v % n);
                }
            }
            svc.apply_batch(&b).unwrap();
            let oracle = CcOracle::from_edges(n, svc.edges().iter().copied());
            let snap = svc.snapshot();
            prop_assert_eq!(snap.num_components(), oracle.num_components());
            for u in 0..n {
                prop_assert_eq!(snap.find(u) == snap.find(0), oracle.same_component(u, 0));
                prop_assert_eq!(snap.component_size(u), oracle.component_size(u));
            }
        }
        prop_assert_eq!(
            canonicalize_labels(&svc.snapshot().labels()),
            canonicalize_labels(&fresh_labels(n, svc.edges()))
        );
    }
}
