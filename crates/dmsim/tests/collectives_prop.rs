//! Property tests for the collectives: arbitrary payload shapes, all
//! algorithms, checked against straightforward serial oracles.

use dmsim::{run_spmd, run_spmd_with_model, AllToAll, EDISON};
use proptest::prelude::*;

/// Arbitrary per-rank all-to-all payloads: `shape[src][dst]` lengths.
fn arb_shapes(p: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0usize..40, p), p)
}

fn bufs_for(shape: &[Vec<usize>], src: usize) -> Vec<Vec<u64>> {
    shape[src]
        .iter()
        .enumerate()
        .map(|(dst, &len)| {
            (0..len)
                .map(|k| (src * 1000 + dst * 100 + k) as u64)
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn alltoallv_matches_oracle(
        shape in arb_shapes(5),
        algo_idx in 0usize..3,
    ) {
        let p = 5;
        let algo = [AllToAll::Pairwise, AllToAll::Hypercube, AllToAll::Sparse][algo_idx];
        let shape_ref = &shape;
        let out = run_spmd(p, move |c| {
            let w = c.world();
            c.alltoallv(&w, bufs_for(shape_ref, c.rank()), algo)
        }).unwrap();
        for (me, got) in out.into_iter().enumerate() {
            let expect: Vec<Vec<u64>> = (0..p)
                .map(|src| bufs_for(shape_ref, src)[me].clone())
                .collect();
            prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn allgatherv_matches_oracle(lens in proptest::collection::vec(0usize..50, 1..7)) {
        let p = lens.len();
        let lens_ref = &lens;
        let out = run_spmd(p, move |c| {
            let mine: Vec<u64> = (0..lens_ref[c.rank()]).map(|k| (c.rank() * 100 + k) as u64).collect();
            let w = c.world();
            c.allgatherv(&w, mine)
        }).unwrap();
        for got in out {
            for (src, block) in got.iter().enumerate() {
                let expect: Vec<u64> = (0..lens_ref[src]).map(|k| (src * 100 + k) as u64).collect();
                prop_assert_eq!(block, &expect);
            }
        }
    }

    #[test]
    fn allreduce_matches_fold(vals in proptest::collection::vec(0u64..1000, 1..9)) {
        let p = vals.len();
        let vals_ref = &vals;
        let out = run_spmd(p, move |c| {
            let w = c.world();
            let sum = c.allreduce(&w, vals_ref[c.rank()], |a, b| a + b);
            let min = c.allreduce(&w, vals_ref[c.rank()], |a, b| a.min(b));
            (sum, min)
        }).unwrap();
        let sum: u64 = vals.iter().sum();
        let min: u64 = *vals.iter().min().unwrap();
        for got in out {
            prop_assert_eq!(got, (sum, min));
        }
    }

    #[test]
    fn reduce_scatter_matches_oracle(
        part_lens in proptest::collection::vec(0usize..20, 2..6),
        p in 2usize..6,
    ) {
        let lens_ref = &part_lens;
        let np = part_lens.len().min(p);
        let _ = np;
        let out = run_spmd(p, move |c| {
            let w = c.world();
            // parts[k] has length part_lens[k % lens], value = rank + k.
            let parts: Vec<Vec<u64>> = (0..p)
                .map(|k| vec![(c.rank() + k) as u64; lens_ref[k % lens_ref.len()]])
                .collect();
            c.reduce_scatter(&w, parts, |a, b| *a += b)
        }).unwrap();
        for (k, got) in out.into_iter().enumerate() {
            let expect_val: u64 = (0..p).map(|r| (r + k) as u64).sum();
            prop_assert_eq!(got, vec![expect_val; lens_ref[k % lens_ref.len()]]);
        }
    }

    #[test]
    fn bcast_from_any_root(p in 1usize..8, root_seed in 0usize..100, len in 0usize..60) {
        let root = root_seed % p;
        let out = run_spmd(p, move |c| {
            let w = c.world();
            let data = (c.rank() == root).then(|| (0..len as u64).collect::<Vec<u64>>());
            c.bcast_vec(&w, root, data)
        }).unwrap();
        for got in out {
            prop_assert_eq!(got, (0..len as u64).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn modeled_clock_is_monotone_in_payload(words in 1usize..2000) {
        // Sending more data must never lower the modeled makespan.
        let clock_for = |w: usize| {
            let out = run_spmd_with_model(4, EDISON.lacc_model(), move |c| {
                let world = c.world();
                let bufs: Vec<Vec<u64>> = (0..4).map(|_| vec![1u64; w]).collect();
                c.alltoallv(&world, bufs, AllToAll::Pairwise);
                c.clock_s()
            }).unwrap();
            out.into_iter().fold(0.0f64, f64::max)
        };
        prop_assert!(clock_for(words) <= clock_for(words * 2) + 1e-12);
    }
}
