//! Property tests: every distributed primitive must be bit-identical to
//! its serial counterpart on arbitrary inputs and grids.

use dmsim::{run_spmd, run_spmd_with_model, AllToAll, Counter, Grid2d, EDISON};
use gblas::dist::{
    dist_assign, dist_extract, dist_mxv_dense, dist_mxv_ids, dist_mxv_sparse, DistMask, DistMat,
    DistOpts, DistSpVec, DistVec, VecLayout, Wire,
};
use gblas::serial::{self, Pattern, SparseVec};
use gblas::{Mask, MinMaxUsize, MinUsize};
use lacc_graph::generators::{erdos_renyi_gnm, path_graph};
use lacc_graph::permute::Permutation;
use lacc_graph::{CsrGraph, EdgeList};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..60).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..150)
            .prop_map(move |pairs| CsrGraph::from_edges(EdgeList::from_pairs(n, pairs)))
    })
}

fn arb_grid() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(4), Just(9), Just(16)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pull SpMV, which applies a mask before the fold, against the
    /// serial kernel on the push test's axes: arbitrary symmetric graphs,
    /// every grid, both wires, every mask form at densities from all-false
    /// through "one rank's chunk only" and ~2/3 to all-true, and the
    /// `(min, max)` pair monoid beside `min`.
    #[test]
    fn mxv_dense_dist_eq_serial(
        g in arb_graph(),
        p in arb_grid(),
        density in 0usize..4,
        mask_form in 0usize..3,
        seed in 0usize..1000,
    ) {
        let n = g.num_vertices();
        let layout = VecLayout::new(n, Grid2d::square(p));
        let x_global: Vec<usize> = (0..n).map(|v| v.wrapping_mul(seed + 7) % n).collect();
        let pairs: Vec<(usize, usize)> = x_global.iter().map(|&x| (x, (x + seed) % n)).collect();
        let mask_global: Vec<bool> = match density {
            0 => vec![false; n],
            1 => (0..n).map(|v| layout.owner_of(v) == seed % p).collect(),
            2 => (0..n).map(|v| (v * 7 + seed) % 3 != 0).collect(),
            _ => vec![true; n],
        };
        let serial_mask = match mask_form {
            0 => Mask::None,
            1 => Mask::Keep(&mask_global),
            _ => Mask::Complement(&mask_global),
        };
        let a_serial = Pattern::from_graph(&g);
        let expect = serial::mxv_dense(&a_serial, &x_global, serial_mask, MinUsize);
        let expect_pairs = serial::mxv_dense(&a_serial, &pairs, serial_mask, MinMaxUsize);
        let (gref, xr, pr, mr) = (&g, &x_global, &pairs, &mask_global);
        for wire in [Wire::Legacy, Wire::Compact] {
            let opts = DistOpts { wire, ..DistOpts::default() };
            let out = run_spmd(p, move |c| {
                let a = DistMat::from_graph(gref, layout.grid(), c.rank());
                let m = DistVec::from_global(layout, c.rank(), mr);
                let mask = match mask_form {
                    0 => DistMask::None,
                    1 => DistMask::Keep(&m),
                    _ => DistMask::Complement(&m),
                };
                let x = DistVec::from_global(layout, c.rank(), xr);
                let xp = DistVec::from_global(layout, c.rank(), pr);
                let y = dist_mxv_dense(c, &a, &x, mask, MinUsize, &opts).to_serial(c);
                let yp = dist_mxv_dense(c, &a, &xp, mask, MinMaxUsize, &opts).to_serial(c);
                (y, yp)
            })
            .unwrap();
            for (y, yp) in out {
                prop_assert_eq!(&y, &expect, "{:?}", wire);
                prop_assert_eq!(&yp, &expect_pairs, "{:?}", wire);
            }
        }
    }

    /// The unconditional hook's pull agrees with a push: the SpMV over `x`
    /// padded with the `min` identity outside its entries, with
    /// the identity outputs dropped, equals the push SpMSpV over the
    /// entries, entry for entry, under a `Keep` mask from all-false
    /// through "one rank's chunk only" and ~1/3 to all-true, at every
    /// grid and on both wires.
    #[test]
    fn identity_padded_pull_eq_push(
        g in arb_graph(),
        p in arb_grid(),
        density in 0usize..4,
        seed in 0usize..1000,
    ) {
        let n = g.num_vertices();
        let layout = VecLayout::new(n, Grid2d::square(p));
        let entries: Vec<(usize, usize)> = (0..n)
            .filter(|v| (v * 5 + seed) % 2 == 0)
            .map(|v| (v, (v * 31 + seed) % 97))
            .collect();
        let mut padded = vec![usize::MAX; n];
        for &(v, x) in &entries {
            padded[v] = x;
        }
        let mask_global: Vec<bool> = match density {
            0 => vec![false; n],
            1 => (0..n).map(|v| layout.owner_of(v) == seed % p).collect(),
            2 => (0..n).map(|v| (v * 7 + seed) % 3 == 0).collect(),
            _ => vec![true; n],
        };
        let (gref, er, xr, mr) = (&g, &entries, &padded, &mask_global);
        for wire in [Wire::Legacy, Wire::Compact] {
            let opts = DistOpts { wire, ..DistOpts::default() };
            let out = run_spmd(p, move |c| {
                let a = DistMat::from_graph(gref, layout.grid(), c.rank());
                let m = DistVec::from_global(layout, c.rank(), mr);
                let local = er.iter().copied().filter(|&(g, _)| layout.owner_of(g) == c.rank());
                let x = DistSpVec::from_local_entries(layout, c.rank(), local.collect());
                let push = dist_mxv_sparse(c, &a, &x, DistMask::Keep(&m), MinUsize, &opts);
                let x = DistVec::from_global(layout, c.rank(), xr);
                let pull = dist_mxv_dense(c, &a, &x, DistMask::Keep(&m), MinUsize, &opts);
                let pull: Vec<(usize, usize)> =
                    pull.entries().iter().copied().filter(|&(_, y)| y != usize::MAX).collect();
                (push.entries().to_vec(), pull)
            })
            .unwrap();
            for (push, pull) in out {
                prop_assert_eq!(&pull, &push, "{:?}", wire);
            }
        }
    }

    #[test]
    fn mxv_sparse_dist_eq_serial(g in arb_graph(), p in arb_grid(), stride in 1usize..5) {
        let n = g.num_vertices();
        let entries: Vec<(usize, usize)> = (0..n).step_by(stride).map(|v| (v, v % 17)).collect();
        let x_serial = SparseVec::from_entries(n, entries.clone());
        let a_serial = Pattern::from_graph(&g);
        let expect = serial::mxv_sparse(&a_serial, &x_serial, Mask::None, MinUsize);
        let gref = &g;
        let er = &entries;
        let out = run_spmd(p, move |c| {
            let grid = Grid2d::square(p);
            let layout = VecLayout::new(n, grid);
            let a = DistMat::from_graph(gref, grid, c.rank());
            let (s, e) = layout.range_of_rank(c.rank());
            let local: Vec<(usize, usize)> =
                er.iter().copied().filter(|&(g, _)| g >= s && g < e).collect();
            let x = DistSpVec::from_local_entries(layout, c.rank(), local);
            dist_mxv_sparse(c, &a, &x, DistMask::None, MinUsize, &DistOpts::default()).to_serial(c)
        })
        .unwrap();
        for got in out {
            prop_assert_eq!(&got, &expect);
        }
    }

    /// The push-by-symmetry SpMSpV against the serial kernel: arbitrary
    /// symmetric graphs (n rarely divisible by √p), every grid, both wires,
    /// every mask form, the `(min, max)` pair monoid beside `min`, and
    /// inputs from empty through "all of `x` on one rank" to full.
    #[test]
    fn push_spmspv_eq_serial(
        g in arb_graph(),
        p in arb_grid(),
        shape in 0usize..4,
        mask_form in 0usize..3,
        seed in 0usize..1000,
    ) {
        let n = g.num_vertices();
        let layout = VecLayout::new(n, Grid2d::square(p));
        let ids: Vec<usize> = match shape {
            0 => Vec::new(),
            1 => (0..n).filter(|&v| layout.owner_of(v) == seed % p).collect(),
            2 => (0..n).filter(|v| (v * 7 + seed) % 3 == 0).collect(),
            _ => (0..n).collect(),
        };
        let entries: Vec<(usize, usize)> = ids.iter().map(|&v| (v, (v * 31 + seed) % 97)).collect();
        let pairs: Vec<(usize, (usize, usize))> = entries.iter().map(|&(v, x)| (v, (x, x))).collect();
        let mask_global: Vec<bool> = (0..n).map(|v| (v + seed) % 4 != 1).collect();
        let serial_mask = match mask_form {
            0 => Mask::None,
            1 => Mask::Keep(&mask_global),
            _ => Mask::Complement(&mask_global),
        };
        let a_serial = Pattern::from_graph(&g);
        let expect = serial::mxv_sparse(
            &a_serial, &SparseVec::from_entries(n, entries.clone()), serial_mask, MinUsize,
        );
        let expect_pairs = serial::mxv_sparse(
            &a_serial, &SparseVec::from_entries(n, pairs.clone()), serial_mask, MinMaxUsize,
        );
        let (gref, er, pr, mr) = (&g, &entries, &pairs, &mask_global);
        for wire in [Wire::Legacy, Wire::Compact] {
            let opts = DistOpts { wire, ..DistOpts::default() };
            let out = run_spmd(p, move |c| {
                let a = DistMat::from_graph(gref, layout.grid(), c.rank());
                let m = DistVec::from_global(layout, c.rank(), mr);
                let mask = match mask_form {
                    0 => DistMask::None,
                    1 => DistMask::Keep(&m),
                    _ => DistMask::Complement(&m),
                };
                let mine = |g: usize| layout.owner_of(g) == c.rank();
                let local = er.iter().copied().filter(|&(g, _)| mine(g)).collect();
                let x = DistSpVec::from_local_entries(layout, c.rank(), local);
                let local = pr.iter().copied().filter(|&(g, _)| mine(g)).collect();
                let xp = DistSpVec::from_local_entries(layout, c.rank(), local);
                let y = dist_mxv_sparse(c, &a, &x, mask, MinUsize, &opts).to_serial(c);
                let yp = dist_mxv_sparse(c, &a, &xp, mask, MinMaxUsize, &opts).to_serial(c);
                (y, yp)
            })
            .unwrap();
            for (y, yp) in out {
                prop_assert_eq!(&y, &expect, "{:?}", wire);
                prop_assert_eq!(&yp, &expect_pairs, "{:?}", wire);
            }
        }
    }

    #[test]
    fn extract_dist_eq_serial(
        n in 4usize..80,
        p in arb_grid(),
        reqs in proptest::collection::vec(0usize..1000, 0..60),
        hot in proptest::bool::ANY,
    ) {
        let layout = VecLayout::new(n, Grid2d::square(p));
        let src_global: Vec<usize> = (0..n).map(|v| v * 13 % n).collect();
        let requests: Vec<usize> = reqs.iter().map(|&r| r % n).collect();
        let expect = serial::extract(&src_global, &requests);
        let sr = &src_global;
        let rr = &requests;
        let hot_threshold = if hot { 1.5 } else { f64::INFINITY };
        let opts = DistOpts { hot_threshold, ..DistOpts::default() };
        let out = run_spmd(p, move |c| {
            let src = DistVec::from_global(layout, c.rank(), sr);
            // Every rank issues the same request list; all must get the
            // same answers.
            dist_extract(c, &src, rr, &opts)
        })
        .unwrap();
        for got in out {
            prop_assert_eq!(&got, &expect);
        }
    }

    #[test]
    fn mxv_dense_and_sparse_eq_serial(
        g in arb_graph(),
        p in arb_grid(),
        stride in 1usize..4,
        masked in proptest::bool::ANY,
    ) {
        // The two `mxv` executions back to back on one communicator, under
        // one mask: each bit-identical to its serial kernel.
        let n = g.num_vertices();
        let x_global: Vec<usize> = (0..n).map(|v| v.wrapping_mul(31) % n).collect();
        let entries: Vec<(usize, usize)> = (0..n).step_by(stride).map(|v| (v, v % 23)).collect();
        let mask_global: Vec<bool> = (0..n).map(|v| !masked || v % 4 != 1).collect();
        let x_serial = SparseVec::from_entries(n, entries.clone());
        let a_serial = Pattern::from_graph(&g);
        let expect_dense =
            serial::mxv_dense(&a_serial, &x_global, Mask::Keep(&mask_global), MinUsize);
        let expect_sparse =
            serial::mxv_sparse(&a_serial, &x_serial, Mask::Keep(&mask_global), MinUsize);
        let opts = DistOpts::default();
        let (gref, xr, er, mr) = (&g, &x_global, &entries, &mask_global);
        let out = run_spmd(p, move |c| {
            let grid = Grid2d::square(p);
            let layout = VecLayout::new(n, grid);
            let a = DistMat::from_graph(gref, grid, c.rank());
            let x = DistVec::from_global(layout, c.rank(), xr);
            let m = DistVec::from_global(layout, c.rank(), mr);
            let dense =
                dist_mxv_dense(c, &a, &x, DistMask::Keep(&m), MinUsize, &opts).to_serial(c);
            let (s, e) = layout.range_of_rank(c.rank());
            let local: Vec<(usize, usize)> =
                er.iter().copied().filter(|&(g, _)| g >= s && g < e).collect();
            let xs = DistSpVec::from_local_entries(layout, c.rank(), local);
            let sparse =
                dist_mxv_sparse(c, &a, &xs, DistMask::Keep(&m), MinUsize, &opts).to_serial(c);
            (dense, sparse)
        })
        .unwrap();
        for (dense, sparse) in out {
            prop_assert_eq!(&dense, &expect_dense);
            prop_assert_eq!(&sparse, &expect_sparse);
        }
    }

    #[test]
    fn assign_dist_eq_serial(
        n in 4usize..80,
        p in arb_grid(),
        raw in proptest::collection::vec((0usize..1000, 0usize..1000), 0..60),
    ) {
        let updates: Vec<(usize, usize)> = raw.iter().map(|&(i, v)| (i % n, v)).collect();
        let mut expect: Vec<usize> = vec![usize::MAX; n];
        // Each of p ranks submits the same update list; serial reference
        // combines p copies (idempotent under min).
        serial::assign(&mut expect, &updates, MinUsize);
        let ur = &updates;
        let out = run_spmd(p, move |c| {
            let layout = VecLayout::new(n, Grid2d::square(p));
            let mut dst = DistVec::from_fn(layout, c.rank(), |_| usize::MAX);
            dist_assign(c, &mut dst, ur, MinUsize, &DistOpts::default());
            dst.to_global(c)
        })
        .unwrap();
        for got in out {
            prop_assert_eq!(&got, &expect);
        }
    }

    /// The closed lever lattice at the primitive layer: both wire formats ×
    /// every all-to-all algorithm × group sizes (3 and 9 take the
    /// non-power-of-two fallbacks), each checked against
    /// the serial kernels. Each rank issues a *different* request/update
    /// list so the sweep also covers asymmetric bucket shapes, and the
    /// default hot threshold lets small chunks take the broadcast path.
    /// `mxv` needs a square grid, so it skips q = 3.
    #[test]
    fn wire_lattice_eq_serial(
        g in arb_graph(),
        reqs in proptest::collection::vec(0usize..1000, 0..60),
        raw in proptest::collection::vec((0usize..1000, 0usize..1000), 0..60),
    ) {
        let n = g.num_vertices();
        let src_global: Vec<usize> = (0..n).map(|v| v * 13 % n).collect();
        let entries: Vec<(usize, usize)> = (0..n).step_by(2).map(|v| (v, v % 17)).collect();
        let a_serial = Pattern::from_graph(&g);
        let expect_dense = serial::mxv_dense(&a_serial, &src_global, Mask::None, MinUsize);
        let expect_sparse = serial::mxv_sparse(
            &a_serial,
            &SparseVec::from_entries(n, entries.clone()),
            Mask::None,
            MinUsize,
        );
        let requests_of = |rank: usize| -> Vec<usize> {
            reqs.iter().map(|&r| (r + rank) % n).collect()
        };
        let updates_of = |rank: usize| -> Vec<(usize, usize)> {
            raw.iter().map(|&(i, v)| ((i + rank) % n, v % 991)).collect()
        };
        let (gref, sr, er) = (&g, &src_global, &entries);
        for q in [1usize, 3, 4, 9, 16] {
            let square = [1, 4, 9, 16].contains(&q);
            let grid = if square { Grid2d::square(q) } else { Grid2d::new(1, q) };
            let mut expect_dst = vec![usize::MAX; n];
            let all_updates: Vec<(usize, usize)> = (0..q).flat_map(updates_of).collect();
            serial::assign(&mut expect_dst, &all_updates, MinUsize);
            for wire in [Wire::Legacy, Wire::Compact] {
                for alltoall in [AllToAll::Pairwise, AllToAll::Hypercube, AllToAll::Sparse] {
                    let opts = DistOpts { wire, alltoall, ..DistOpts::default() };
                    let out = run_spmd(q, move |c| {
                        let layout = VecLayout::new(n, grid);
                        let src = DistVec::from_global(layout, c.rank(), sr);
                        let vals = dist_extract(c, &src, &requests_of(c.rank()), &opts);
                        let mut dst = DistVec::from_fn(layout, c.rank(), |_| usize::MAX);
                        dist_assign(c, &mut dst, &updates_of(c.rank()), MinUsize, &opts);
                        let dst = dst.to_global(c);
                        let snap = c.snapshot();
                        let saved = snap.counter(Counter::WordsSaved)
                            + snap.counter(Counter::CombinedWords);
                        let mxv = square.then(|| {
                            let a = DistMat::from_graph(gref, grid, c.rank());
                            let dense =
                                dist_mxv_dense(c, &a, &src, DistMask::None, MinUsize, &opts)
                                    .to_serial(c);
                            let local: Vec<(usize, usize)> = er
                                .iter()
                                .copied()
                                .filter(|&(g, _)| layout.owner_of(g) == c.rank())
                                .collect();
                            let xs = DistSpVec::from_local_entries(layout, c.rank(), local);
                            let sparse =
                                dist_mxv_sparse(c, &a, &xs, DistMask::None, MinUsize, &opts)
                                    .to_serial(c);
                            (dense, sparse)
                        });
                        (vals, dst, saved, mxv)
                    })
                    .unwrap();
                    for (rank, (vals, dst, saved, mxv)) in out.into_iter().enumerate() {
                        let at = format!("q={q} {wire:?} {alltoall:?}");
                        prop_assert_eq!(
                            &vals, &serial::extract(sr, &requests_of(rank)), "extract {}", at
                        );
                        prop_assert_eq!(&dst, &expect_dst, "assign {}", at);
                        if let Some((dense, sparse)) = mxv {
                            prop_assert_eq!(&dense, &expect_dense, "mxv dense {}", at);
                            prop_assert_eq!(&sparse, &expect_sparse, "mxv sparse {}", at);
                        }
                        if wire == Wire::Legacy {
                            prop_assert_eq!(saved, 0, "legacy saves nothing: {}", at);
                        }
                    }
                }
            }
        }
    }
}

/// What one `mxv` call produced on every rank, and what the run cost: the
/// ranks' local entries, the makespan and the words sent over all ranks.
type Measured<T> = (Vec<Vec<(usize, T)>>, f64, u64);

fn measure_mxv<T: Send>(
    p: usize,
    call: impl Fn(&mut dmsim::Comm) -> Vec<(usize, T)> + Sync,
) -> Measured<T> {
    let out = run_spmd_with_model(p, EDISON.lacc_model(), |c| {
        let entries = call(c);
        let snap = c.snapshot();
        (entries, snap.clock_s, snap.words_sent)
    })
    .unwrap();
    let makespan = out.iter().map(|o| o.1).fold(0.0, f64::max);
    let words = out.iter().map(|o| o.2).sum();
    (out.into_iter().map(|o| o.0).collect(), makespan, words)
}

/// The identity multiply against the dense one over `DistVec::from_fn(|g|
/// g)`: the same entries on every rank under `min` and `(min, max)`, at
/// p ∈ {1, 4, 9, 16}, unpermuted and relabeled, on both wires — and, on
/// any graph with an edge, a strictly shorter makespan and, once p > 1
/// gives the column gather something to ship, strictly fewer words.
#[test]
fn identity_mxv_reads_the_dense_product_off_the_row_extremes() {
    fn check<T: gblas::dist::NarrowVal + PartialEq + std::fmt::Debug, M: gblas::Monoid<T>>(
        g: &CsrGraph,
        at: &str,
        monoid: M,
        id: fn(usize) -> T,
    ) {
        let n = g.num_vertices();
        let perm = Permutation::random(n, 5);
        for p in [1usize, 4, 9, 16] {
            let layout = VecLayout::new(n, Grid2d::square(p));
            for permuted in [false, true] {
                let block = |c: &dmsim::Comm| match permuted {
                    true => DistMat::<u32>::from_graph_permuted(g, &perm, layout.grid(), c.rank()),
                    false => DistMat::<u32>::from_graph(g, layout.grid(), c.rank()),
                };
                let local = |y: DistSpVec<T, u32>| {
                    let of = |&(g, v): &(u32, T)| (g as usize, v);
                    y.entries().iter().map(of).collect::<Vec<_>>()
                };
                let ids = measure_mxv(p, |c| {
                    let a = block(c);
                    local(dist_mxv_ids(c, &a, layout, id, monoid))
                });
                for wire in [Wire::Legacy, Wire::Compact] {
                    let opts = DistOpts {
                        wire,
                        ..DistOpts::default()
                    };
                    let dense = measure_mxv(p, |c| {
                        let (a, x) = (block(c), DistVec::from_fn(layout, c.rank(), id));
                        local(dist_mxv_dense(c, &a, &x, DistMask::None, monoid, &opts))
                    });
                    let at = format!("{at} p={p} permuted={permuted} {wire:?}");
                    assert_eq!(ids.0, dense.0, "{at}");
                    if g.num_directed_edges() > 0 {
                        assert!(ids.1 < dense.1, "{at}: {} s vs {} s", ids.1, dense.1);
                        let fewer = if p == 1 {
                            ids.2 == 0 && dense.2 == 0
                        } else {
                            ids.2 < dense.2
                        };
                        assert!(fewer, "{at}: {} words vs {}", ids.2, dense.2);
                    }
                }
            }
        }
    }
    let graphs = [
        ("empty", CsrGraph::from_edges(EdgeList::new(0))),
        ("one vertex", CsrGraph::from_edges(EdgeList::new(1))),
        // n below p, and n not divisible by sqrt(p).
        ("path 3", path_graph(3)),
        ("path 7", path_graph(7)),
        // Isolated vertices beside self loops, which the CSR drops: most
        // block rows are empty at p = 16.
        (
            "sparse",
            CsrGraph::from_edges(EdgeList::from_pairs(
                20,
                [(0, 0), (2, 3), (3, 3), (5, 9), (7, 7), (12, 18), (18, 18)],
            )),
        ),
        ("edgeless", CsrGraph::from_edges(EdgeList::new(9))),
        (
            "star",
            CsrGraph::from_edges(EdgeList::from_pairs(37, (1..37).map(|v| (5, v % 37)))),
        ),
        ("er", erdos_renyi_gnm(50, 200, 3)),
    ];
    for (name, g) in &graphs {
        check(g, &format!("{name} min"), MinUsize, |g| g);
        check(g, &format!("{name} minmax"), MinMaxUsize, |g| (g, g));
    }
}
