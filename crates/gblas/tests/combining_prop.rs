//! Property tests for the in-flight combining path: the combining
//! hypercube must be an *encoding* of the plain exchanges, never a
//! different computation.
//!
//! * With globally unique keys no merge can fire, and the delivered
//!   payload multiset must match the pairwise and hypercube all-to-alls
//!   exactly.
//! * With colliding keys and a commutative-associative merge (min, sum),
//!   the folded result must be bit-identical to a destination-side fold
//!   of the plain exchange.
//! * At the `dist_extract` / `dist_assign` level, the compact wire (and
//!   the fused route replay) must not change a single output bit against
//!   the legacy wire across power-of-two / fallback group sizes.

use dmsim::{run_spmd, AllToAll, Counter, Grid2d};
use gblas::dist::{
    dist_assign, dist_extract, plan_requests, DistOpts, DistVec, FusedExtract, VecLayout, Wire,
};
use gblas::{AndBool, MinUsize};
use proptest::prelude::*;

/// Group sizes: 1 (degenerate), 3 and 9 (non-power-of-two fallback),
/// 4/8/16 (hypercube rounds).
fn arb_group() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(3), Just(4), Just(8), Just(16)]
}

/// Square grids for the ops-level tests (9 exercises the fallback).
fn arb_grid() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(4), Just(9), Just(16)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn unique_keys_match_plain_exchanges_exactly(
        q in arb_group(),
        lens in proptest::collection::vec(0usize..6, 256),
    ) {
        let lr = &lens;
        let out = run_spmd(q, move |c| {
            let world = c.world();
            let me = c.rank();
            // Keys unique across the whole machine: no merge may fire.
            let bufs: Vec<Vec<(u64, u64)>> = (0..q)
                .map(|d| {
                    let len = lr[(me * q + d) % lr.len()];
                    (0..len)
                        .map(|i| ((((me * q + d) * 8 + i) as u64), (me * 100 + i) as u64))
                        .collect()
                })
                .collect();
            let pw = c.alltoallv(&world, bufs.clone(), AllToAll::Pairwise);
            let hc = c.alltoallv(&world, bufs.clone(), AllToAll::Hypercube);
            let combined = c.reduce_scatter_by_key(&world, bufs, |_: &mut u64, _| {
                panic!("merge fired on globally unique keys")
            });
            let mut pw: Vec<(u64, u64)> = pw.into_iter().flatten().collect();
            let mut hc: Vec<(u64, u64)> = hc.into_iter().flatten().collect();
            let mut cmb = combined;
            pw.sort_unstable();
            hc.sort_unstable();
            cmb.sort_unstable();
            (pw, hc, cmb, c.snapshot().counter(Counter::CombinedWords))
        })
        .unwrap();
        for (pw, hc, cmb, combined_words) in out {
            prop_assert_eq!(&hc, &pw, "hypercube is a routing of pairwise");
            prop_assert_eq!(&cmb, &pw, "combining without merges is plain routing");
            prop_assert_eq!(combined_words, 0, "nothing to merge, nothing counted");
        }
    }

    #[test]
    fn colliding_keys_fold_bit_identically(
        q in arb_group(),
        lens in proptest::collection::vec(0usize..8, 256),
        use_sum in proptest::bool::ANY,
    ) {
        let lr = &lens;
        let out = run_spmd(q, move |c| {
            let world = c.world();
            let me = c.rank();
            // Few distinct keys per destination: heavy cross-rank
            // collisions, exactly what in-flight combining exists for.
            let bufs: Vec<Vec<(u64, u64)>> = (0..q)
                .map(|d| {
                    let len = lr[(me * q + d) % lr.len()];
                    (0..len)
                        .map(|i| ((i % 5) as u64, (me * 7 + d + i) as u64))
                        .collect()
                })
                .collect();
            let merged = if use_sum {
                c.reduce_scatter_by_key(&world, bufs.clone(), |a: &mut u64, b| *a += b)
            } else {
                c.reduce_scatter_by_key(&world, bufs.clone(), |a: &mut u64, b| *a = (*a).min(b))
            };
            // Reference: plain exchange, then a destination-side fold.
            let plain = c.alltoallv(&world, bufs, AllToAll::Pairwise);
            let mut all: Vec<(u64, u64)> = plain.into_iter().flatten().collect();
            all.sort_by_key(|&(k, _)| k);
            let mut expect: Vec<(u64, u64)> = Vec::new();
            for (k, v) in all {
                match expect.last_mut() {
                    Some(&mut (lk, ref mut lv)) if lk == k => {
                        *lv = if use_sum { *lv + v } else { (*lv).min(v) };
                    }
                    _ => expect.push((k, v)),
                }
            }
            (merged, expect)
        })
        .unwrap();
        for (merged, expect) in out {
            prop_assert_eq!(&merged, &expect, "commutative fold is order-free");
        }
    }

    /// The compact wire and the fused route replay are wire encodings:
    /// extract and assign results must be bit-identical to the naive
    /// exchange on every grid.
    #[test]
    fn combining_ops_bit_identical_to_naive(
        n in 4usize..80,
        p in arb_grid(),
        reqs in proptest::collection::vec(0usize..1000, 0..60),
        raw in proptest::collection::vec((0usize..1000, 0usize..400), 0..60),
    ) {
        let naive = DistOpts::naive();
        let combining = DistOpts {
            wire: Wire::Compact,
            ..naive
        };
        let (rr, ur) = (&reqs, &raw);
        let out = run_spmd(p, move |c| {
            let layout = VecLayout::new(n, Grid2d::square(p));
            let src = DistVec::from_fn(layout, c.rank(), |g| g * 13 % n);
            // Different lists per rank: asymmetric buckets.
            let requests: Vec<usize> = rr.iter().map(|&r| (r + c.rank()) % n).collect();
            let updates: Vec<(usize, usize)> = ur
                .iter()
                .map(|&(i, v)| ((i + c.rank()) % n, v))
                .collect();
            let base_vals = dist_extract(c, &src, &requests, &naive);
            let vals = dist_extract(c, &src, &requests, &combining);
            let mut base_dst = DistVec::from_fn(layout, c.rank(), |_| usize::MAX);
            let base_chg = dist_assign(c, &mut base_dst, &updates, MinUsize, &naive);
            let mut dst = DistVec::from_fn(layout, c.rank(), |_| usize::MAX);
            let chg = dist_assign(c, &mut dst, &updates, MinUsize, &combining);

            // Fused phases: a usize phase, then — after an interleaved
            // assign, as in starcheck — a bool phase; one replayed request
            // route on the compact wire, two planned extracts on the
            // legacy one.
            let mut fused = Vec::new();
            let received = |c: &dmsim::Comm| c.snapshot().counter(Counter::RequestsReceived);
            for opts in [&combining, &naive] {
                let plan = plan_requests(c, layout, &requests, opts);
                let before = received(c);
                let fx = FusedExtract::begin(c, &plan, opts);
                let fused_vals = fx.extract(c, &src);
                let mut star = DistVec::from_fn(layout, c.rank(), |_| true);
                let demote: Vec<(usize, bool)> =
                    requests.iter().map(|&g| (g, g % 3 != 0)).collect();
                dist_assign(c, &mut star, &demote, AndBool, &naive);
                let fused_star = fx.extract(c, &star);
                let fused_received = received(c) - before;
                let base_star = dist_extract(c, &star, &requests, opts);
                // The route delivers each id once; the legacy phases each
                // receive the full request lists.
                let phases = if opts.wire == Wire::Compact { 1 } else { 2 };
                let base_received = received(c) - before - fused_received;
                assert_eq!(fused_received, phases * base_received);
                fused.push((fused_vals, fused_star, base_star));
            }

            (
                (base_vals, vals),
                (base_dst.to_global(c), dst.to_global(c)),
                (base_chg, chg),
                fused,
            )
        })
        .unwrap();
        for ((base_vals, vals), (base_dst, dst), (base_chg, chg), fused) in out {
            prop_assert_eq!(&vals, &base_vals);
            prop_assert_eq!(&dst, &base_dst);
            prop_assert_eq!(chg, base_chg);
            for (fused_vals, fused_star, base_star) in fused {
                prop_assert_eq!(&fused_vals, &base_vals, "fused phase 1 matches");
                prop_assert_eq!(&fused_star, &base_star, "fused phase 2 sees the assign");
            }
        }
    }
}
