//! Property-based tests over randomly generated graphs.
//!
//! Each property runs against arbitrary edge lists (not generator output),
//! so the shapes proptest shrinks toward are unconstrained — this is the
//! suite that originally surfaced the Lemma-1 counterexample now kept in
//! `lacc::serial::tests`. The distributed runs have their own harness, the
//! engine lattice in `crates/core/tests/lattice.rs`.

use lacc_suite::baselines as b;
use lacc_suite::graph::unionfind::canonicalize_labels;
use lacc_suite::graph::{CsrGraph, EdgeList};
use lacc_suite::lacc::{self, LaccOpts};
use proptest::prelude::*;

/// Arbitrary graph: up to `nmax` vertices and `mmax` random edges.
fn arb_graph(nmax: usize, mmax: usize) -> impl Strategy<Value = CsrGraph> {
    (1..nmax).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..mmax)
            .prop_map(move |pairs| CsrGraph::from_edges(EdgeList::from_pairs(n, pairs)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lacc_serial_matches_union_find(g in arb_graph(120, 300)) {
        let run = lacc::lacc_serial(&g, &LaccOpts::default());
        prop_assert_eq!(canonicalize_labels(&run.labels), b::union_find_cc(&g));
    }

    #[test]
    fn lacc_dense_matches_union_find(g in arb_graph(100, 250)) {
        let run = lacc::lacc_serial(&g, &LaccOpts::dense_as());
        prop_assert_eq!(canonicalize_labels(&run.labels), b::union_find_cc(&g));
    }

    #[test]
    fn final_forest_is_flat(g in arb_graph(100, 250)) {
        let run = lacc::lacc_serial(&g, &LaccOpts::default());
        for v in 0..g.num_vertices() {
            prop_assert_eq!(run.labels[run.labels[v]], run.labels[v]);
        }
    }

    #[test]
    fn converged_fraction_is_monotone(g in arb_graph(150, 400)) {
        let run = lacc::lacc_serial(&g, &LaccOpts::default());
        let fr = run.converged_fractions();
        prop_assert!(fr.windows(2).all(|w| w[0] <= w[1]), "{:?}", fr);
        if g.num_vertices() > 0 {
            prop_assert_eq!(*fr.last().unwrap(), 1.0);
        }
    }

    #[test]
    fn iteration_count_is_logarithmic(g in arb_graph(200, 500)) {
        let run = lacc::lacc_serial(&g, &LaccOpts::default());
        let n = g.num_vertices().max(2);
        let bound = 2 * (usize::BITS - n.leading_zeros()) as usize + 4;
        prop_assert!(run.num_iterations() <= bound,
            "{} iterations for n={}", run.num_iterations(), n);
    }

    #[test]
    fn owner_partitioned_spmspv_matches_serial(
        g in arb_graph(150, 400),
        step in 1usize..8,
        threads in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        // The merge-free owner-partitioned accumulator must be
        // bit-identical to the serial SpMSpV kernel for every thread
        // count and input density.
        use lacc_suite::gblas::serial::{self as k, Pattern, SparseVec};
        use lacc_suite::gblas::{Mask, MinUsize};
        let n = g.num_vertices();
        let a = Pattern::from_graph(&g);
        let entries: Vec<(usize, usize)> = (0..n)
            .step_by(step)
            .map(|v| (v, v.wrapping_mul(2654435761) % n))
            .collect();
        let xs = SparseVec::from_entries(n, entries);
        let serial = k::mxv_sparse(&a, &xs, Mask::None, MinUsize);
        let par = k::mxv_sparse_par(&a, &xs, Mask::None, MinUsize, threads);
        prop_assert_eq!(par, serial);
    }

    #[test]
    fn baselines_match_union_find(g in arb_graph(100, 250)) {
        let truth = b::union_find_cc(&g);
        prop_assert_eq!(b::fastsv_cc(&g), truth);
    }

    #[test]
    fn starcheck_matches_bruteforce_oracle(
        parents in proptest::collection::vec(0usize..30, 1..30)
    ) {
        // Build a valid forest from an arbitrary parent suggestion: point
        // each vertex at min(parent, itself) to guarantee acyclicity, then
        // compare starcheck with a brute-force star oracle.
        let n = parents.len();
        let f: Vec<usize> = parents
            .iter()
            .enumerate()
            .map(|(v, &p)| p.min(v) % n)
            .collect();
        let mut star = vec![false; n];
        lacc::asref::starcheck(&f, &mut star);
        // Oracle: v is a star vertex iff every member of its tree is at
        // depth ≤ 1 below the root.
        let root_of = |mut v: usize| {
            for _ in 0..n + 1 {
                if f[v] == v { return v; }
                v = f[v];
            }
            unreachable!("forest has a cycle");
        };
        #[allow(clippy::needless_range_loop)] // v is a vertex id, not just an index
        for v in 0..n {
            let r = root_of(v);
            let tree: Vec<usize> = (0..n).filter(|&u| root_of(u) == r).collect();
            let is_star = tree.iter().all(|&u| f[u] == r);
            prop_assert_eq!(star[v], is_star, "vertex {} in forest {:?}", v, f);
        }
    }
}
