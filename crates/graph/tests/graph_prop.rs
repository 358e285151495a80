//! Property tests for the graph substrate: CSR invariants, I/O roundtrips
//! and permutation laws on arbitrary inputs.

use lacc_graph::generators::*;
use lacc_graph::io;
use lacc_graph::permute::Permutation;
use lacc_graph::{CsrGraph, DisjointSets, EdgeList};
use proptest::prelude::*;

fn arb_edgelist() -> impl Strategy<Value = EdgeList> {
    (1usize..80).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..200)
            .prop_map(move |pairs| EdgeList::from_pairs(n, pairs))
    })
}

/// Edge multisets built to hit every cleanup rule at once: endpoints come
/// from a prefix `0..k` of the universe (so `k..n` stay isolated and
/// duplicates are dense), a stretch of the list is repeated reversed, and
/// self loops are mixed in.
fn arb_messy_multiset() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (1usize..60).prop_flat_map(|n| {
        (1..=n).prop_flat_map(move |k| {
            (
                proptest::collection::vec((0..k, 0..k), 0..150),
                proptest::collection::vec(0..k, 0..8),
            )
                .prop_map(move |(mut pairs, loops)| {
                    let reversed: Vec<_> = pairs.iter().step_by(2).map(|&(u, v)| (v, u)).collect();
                    pairs.extend(reversed);
                    pairs.extend(loops.into_iter().map(|v| (v, v)));
                    (n, pairs)
                })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn counting_build_matches_canonicalize_oracle((n, pairs) in arb_messy_multiset()) {
        let mut el = EdgeList::from_pairs(n, pairs.iter().copied());
        let built: CsrGraph = CsrGraph::from_edges(el.clone());
        let narrow: CsrGraph<u32> = CsrGraph::from_edges(el.clone());
        el.canonicalize();
        prop_assert_eq!(&built, &CsrGraph::from_canonical_edges(&el));
        prop_assert_eq!(&narrow, &CsrGraph::<u32>::from_canonical_edges(&el));
        prop_assert!(built.validate().is_ok());
    }

    #[test]
    fn csr_from_arbitrary_edges_validates(el in arb_edgelist()) {
        let g: CsrGraph = CsrGraph::from_edges(el);
        prop_assert!(g.validate().is_ok());
        prop_assert!(g.is_symmetric());
        // Degree sum equals stored directed edges.
        let degree_sum: usize = (0..g.num_vertices()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, g.num_directed_edges());
    }

    #[test]
    fn matrix_market_roundtrip(el in arb_edgelist()) {
        let g: CsrGraph = CsrGraph::from_edges(el);
        let mut buf = Vec::new();
        io::write_matrix_market(&mut buf, &g.to_edgelist()).unwrap();
        let g2 = CsrGraph::from_edges(io::read_matrix_market(&buf[..]).unwrap());
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn binary_roundtrip(el in arb_edgelist()) {
        let back = io::from_binary(io::to_binary(&el)).unwrap();
        prop_assert_eq!(el, back);
    }

    #[test]
    fn edge_list_text_roundtrip(el in arb_edgelist()) {
        let mut buf = Vec::new();
        io::write_edge_list(&mut buf, &el).unwrap();
        let back = io::read_edge_list(&buf[..], Some(el.num_vertices())).unwrap();
        prop_assert_eq!(el.edges(), back.edges());
    }

    #[test]
    fn permutation_is_isomorphism(el in arb_edgelist(), seed in 0u64..1000) {
        let g = CsrGraph::from_edges(el);
        let n = g.num_vertices();
        let perm = Permutation::random(n, seed);
        let h = perm.permute_graph(&g);
        prop_assert_eq!(g.num_directed_edges(), h.num_directed_edges());
        for (u, v) in g.edges() {
            prop_assert!(h.has_edge(perm.apply(u), perm.apply(v)));
        }
        // Component structure is preserved.
        let comps = |g: &CsrGraph| {
            let mut ds = DisjointSets::new(g.num_vertices());
            for (u, v) in g.edges() { ds.union(u, v); }
            ds.num_sets()
        };
        prop_assert_eq!(comps(&g), comps(&h));
    }

    #[test]
    fn union_find_set_count_matches_incremental(el in arb_edgelist()) {
        let g: CsrGraph = CsrGraph::from_edges(el);
        let mut ds = DisjointSets::new(g.num_vertices());
        let mut merges = 0;
        for (u, v) in g.edges() {
            if ds.union(u, v) { merges += 1; }
        }
        prop_assert_eq!(ds.num_sets(), g.num_vertices() - merges);
        // Canonical labels are fixed points of canonicalization.
        let labels = ds.canonical_labels();
        prop_assert_eq!(
            &lacc_graph::unionfind::canonicalize_labels(&labels), &labels
        );
    }

    #[test]
    fn generators_produce_valid_graphs(seed in 0u64..50, n in 10usize..200) {
        for g in [
            erdos_renyi_gnm(n, n * 2, seed),
            rmat(7, 4, RmatParams::graph500(), seed),
            community_graph(n, (n / 10).max(1), 3.0, 1.3, seed),
            metagenome_graph(n, 5, 0.01, seed),
            random_forest(n, (n / 20).max(1), seed),
        ] {
            prop_assert!(g.validate().is_ok());
        }
    }
}
