//! The local passes the engines run between exchanges: select, apply,
//! set and lower. A pass charges one op per element it visits plus one
//! (`len + 1`); the cost model's rule for a local pass lives here alone.

use super::compact::NarrowVal;
use super::dmat::DistMat;
use super::dvec::DistVec;
use super::ops::{
    dist_assign, dist_extract_planned, dist_mxv_dense, DistMask, DistOpts, RequestPlan,
};
use crate::types::{AndBool, Monoid};
use dmsim::{Comm, WireWord};
use lacc_graph::Idx;

fn charge_pass(comm: &mut Comm, len: usize) {
    comm.charge_compute(len as u64 + 1);
}

/// The ascending local offsets where `mask` holds, split by `by`: `(on,
/// v at on, off)`, the tuples of `v` under `mask ∧ by` and the offsets
/// under `mask ∧ ¬by`. One pass.
pub fn dist_select<T: Copy + Send + 'static>(
    comm: &mut Comm,
    mask: &DistVec<bool>,
    by: &DistVec<bool>,
    v: &DistVec<T>,
) -> (Vec<usize>, Vec<T>, Vec<usize>) {
    let (mut on, mut vals, mut off) = (Vec::new(), Vec::new(), Vec::new());
    for (o, (&m, &b)) in mask.local().iter().zip(by.local()).enumerate() {
        if m && b {
            on.push(o);
            vals.push(v.local()[o]);
        } else if m {
            off.push(o);
        }
    }
    charge_pass(comm, mask.local().len());
    (on, vals, off)
}

/// Apply over a target list: `op(k, &mut v[targets[k]])` for every `k`.
pub fn dist_apply_at<T: Copy + Send + 'static>(
    comm: &mut Comm,
    v: &mut DistVec<T>,
    targets: &[usize],
    mut op: impl FnMut(usize, &mut T),
) {
    let local = v.local_mut();
    for (k, &o) in targets.iter().enumerate() {
        op(k, &mut local[o]);
    }
    charge_pass(comm, targets.len());
}

/// `v[o] ← x` for every local offset and value `(o, x)`. Returns the
/// entries it changed, by global index.
pub fn dist_set_at<T: Copy + PartialEq + Send + 'static, I: Idx>(
    comm: &mut Comm,
    v: &mut DistVec<T>,
    pairs: impl IntoIterator<Item = (usize, T)>,
) -> Vec<(I, T)> {
    let origin = v.range().0;
    let (mut changed, mut visited) = (Vec::new(), 0);
    for (o, x) in pairs {
        visited += 1;
        if v.local()[o] != x {
            v.local_mut()[o] = x;
            changed.push((I::from_usize(origin + o), x));
        }
    }
    charge_pass(comm, visited);
    changed
}

/// `v[g] ← min(v[g], x)` for every local entry `(g, x)`. Returns the
/// entries that lowered theirs.
pub fn dist_lower<T: Copy + Ord + Send + 'static, I: Idx>(
    comm: &mut Comm,
    v: &mut DistVec<T>,
    entries: &[(I, T)],
) -> Vec<(I, T)> {
    let mut lowered = Vec::with_capacity(entries.len());
    for &(g, x) in entries {
        let o = v.local_offset(g.idx());
        if x < v.local()[o] {
            v.local_mut()[o] = x;
            lowered.push((g, x));
        }
    }
    charge_pass(comm, entries.len());
    lowered
}

/// `v ← min(v, w)` over the local chunk. Returns the number lowered.
pub fn dist_lower_all<T: Copy + Ord + Send + 'static>(
    comm: &mut Comm,
    v: &mut DistVec<T>,
    w: &DistVec<T>,
) -> u64 {
    let mut lowered = 0;
    for (x, &y) in v.local_mut().iter_mut().zip(w.local()) {
        lowered += u64::from(y < *x);
        *x = y.min(*x);
    }
    charge_pass(comm, w.local().len());
    lowered
}

/// A push as a pull: `y = A ⊕.2nd x` on the rows where `mask ∧ rows`,
/// with `x = v` where `mask ∧ ¬rows` and the identity elsewhere, minus
/// its identity outputs. Building both operands is one pass (`2·len + 1`)
/// that the multiply's exchanges are credited against.
pub fn dist_mxv_pull<T, M, I>(
    comm: &mut Comm,
    a: &DistMat<I>,
    mask: &DistVec<bool>,
    rows: &DistVec<bool>,
    v: &DistVec<T>,
    monoid: M,
    opts: &DistOpts,
) -> Vec<(I, T)>
where
    T: NarrowVal + PartialEq,
    M: Monoid<T>,
    I: Idx + WireWord,
{
    let win = comm.overlap_window();
    let (mut keep, mut x) = (mask.clone(), v.clone());
    for (o, (k, x)) in keep.local_mut().iter_mut().zip(x.local_mut()).enumerate() {
        let (m, r) = (*k, rows.local()[o]);
        (*k, *x) = (m && r, if m && !r { *x } else { monoid.identity() });
    }
    comm.charge_compute(2 * mask.local().len() as u64 + 1);
    let y = comm.overlap_from(win, |c| {
        dist_mxv_dense(c, a, &x, DistMask::Keep(&keep), monoid, opts)
    });
    charge_pass(comm, y.entries().len());
    let kept = y.entries().iter().filter(|&&(_, t)| t != monoid.identity());
    kept.copied().collect()
}

/// The root all-quiet reduction: root `r` is quiet unless `noisy` names it
/// (an AND-assign), read at `plan`'s requests (an extract), where request
/// `k` is the root of `candidates[k]`. One pass over `live` then clears the
/// candidates with a quiet root. Returns the rest and the number cleared.
pub fn dist_root_all_quiet<I: Idx + WireWord>(
    comm: &mut Comm,
    noisy: impl IntoIterator<Item = I>,
    plan: &RequestPlan<I>,
    mut candidates: Vec<usize>,
    live: &mut DistVec<bool>,
    opts: &DistOpts,
) -> (Vec<usize>, u64) {
    let mut quiet = DistVec::from_fn(live.layout(), live.rank(), |_| true);
    let noisy: Vec<(I, bool)> = noisy.into_iter().map(|r| (r, false)).collect();
    dist_assign(comm, &mut quiet, &noisy, AndBool, opts);
    let quiet = dist_extract_planned(comm, &quiet, plan, opts);
    assert_eq!(quiet.len(), candidates.len(), "one request per candidate");
    for (&o, &q) in candidates.iter().zip(&quiet) {
        live.local_mut()[o] &= !q;
    }
    let before = candidates.len();
    candidates.retain(|&o| live.local()[o]);
    charge_pass(comm, live.local().len());
    let cleared = (before - candidates.len()) as u64;
    (candidates, cleared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::dvec::VecLayout;
    use crate::dist::ops::plan_requests;
    use crate::types::MinUsize;
    use dmsim::{run_spmd, Grid2d};
    use lacc_graph::generators::erdos_renyi_gnm;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The ops `op` charges: its compute seconds under `run_spmd`'s unit
    /// rate, exact for integer counts.
    fn ops_of<R>(c: &mut Comm, op: impl FnOnce(&mut Comm) -> R) -> (R, f64) {
        let before = c.snapshot().compute_s;
        let out = op(c);
        (out, c.snapshot().compute_s - before)
    }

    /// A global vector drawn from `seed` (the same on every rank) and this
    /// rank's chunk of it.
    fn random<T: Copy + Send + 'static>(
        c: &Comm,
        layout: VecLayout,
        seed: u64,
        draw: impl Fn(&mut ChaCha8Rng) -> T,
    ) -> (Vec<T>, DistVec<T>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let global: Vec<T> = (0..layout.len()).map(|_| draw(&mut rng)).collect();
        let local = DistVec::from_global(layout, c.rank(), &global);
        (global, local)
    }

    /// `count` local offsets of a chunk of `len`, in random order with
    /// repeats, drawn from a stream private to this rank.
    fn offsets(c: &Comm, seed: u64, len: usize, count: usize) -> Vec<usize> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed * 1000 + c.rank() as u64);
        let count = if len == 0 { 0 } else { count };
        (0..count).map(|_| rng.random_range(0..len)).collect()
    }

    /// One primitive on one rank against its serial loop, on inputs drawn
    /// from a seed.
    type Case = fn(&mut Comm, VecLayout, u64);

    fn select_case(c: &mut Comm, layout: VecLayout, seed: u64) {
        let (mask_g, mask) = random(c, layout, seed, |r| r.random_bool(0.7));
        let (by_g, by) = random(c, layout, seed + 1, |r| r.random_bool(0.5));
        let (v_g, v) = random(c, layout, seed + 2, |r| r.random_range(0..1000u32));
        let ((on, vals, off), ops) = ops_of(c, |c| dist_select(c, &mask, &by, &v));
        let (s, e) = layout.range_of_rank(c.rank());
        let (mut want_on, mut want_vals, mut want_off) = (vec![], vec![], vec![]);
        for g in s..e {
            match (mask_g[g], by_g[g]) {
                (true, true) => {
                    want_on.push(g - s);
                    want_vals.push(v_g[g]);
                }
                (true, false) => want_off.push(g - s),
                (false, _) => {}
            }
        }
        assert_eq!((on, vals, off), (want_on, want_vals, want_off));
        assert_eq!(ops, (e - s + 1) as f64);
    }

    fn apply_at_case(c: &mut Comm, layout: VecLayout, seed: u64) {
        let (_, mut v) = random(c, layout, seed, |r| r.random_range(0..1000u32));
        let targets = offsets(c, seed, v.local().len(), 3 * seed as usize + 1);
        let mut want = v.local().to_vec();
        for (k, &o) in targets.iter().enumerate() {
            want[o] = want[o] * 3 + k as u32;
        }
        let ((), ops) = ops_of(c, |c| {
            dist_apply_at(c, &mut v, &targets, |k, x| *x = *x * 3 + k as u32)
        });
        assert_eq!(v.local(), &want[..]);
        assert_eq!(ops, (targets.len() + 1) as f64);
    }

    fn set_at_case(c: &mut Comm, layout: VecLayout, seed: u64) {
        let (_, mut v) = random(c, layout, seed, |r| r.random_range(0..4u32));
        let targets = offsets(c, seed, v.local().len(), 2 * seed as usize + 3);
        let pairs: Vec<(usize, u32)> = targets.iter().map(|&o| (o, (o as u32) % 4)).collect();
        let (s, mut want, mut changed) = (v.range().0, v.local().to_vec(), vec![]);
        for &(o, x) in &pairs {
            if want[o] != x {
                want[o] = x;
                changed.push(((s + o) as u32, x));
            }
        }
        let (got, ops) = ops_of(c, |c| dist_set_at::<u32, u32>(c, &mut v, pairs.clone()));
        assert_eq!((v.local(), got), (&want[..], changed));
        assert_eq!(ops, (pairs.len() + 1) as f64);
    }

    fn lower_case(c: &mut Comm, layout: VecLayout, seed: u64) {
        let (_, mut v) = random(c, layout, seed, |r| r.random_range(0..100u32));
        let targets = offsets(c, seed, v.local().len(), 4 * seed as usize + 2);
        let s = v.range().0;
        let entries: Vec<(u32, u32)> = targets
            .iter()
            .map(|&o| ((s + o) as u32, (o as u32 * 37) % 100))
            .collect();
        let (mut want, mut lowered) = (v.local().to_vec(), vec![]);
        for &(g, x) in &entries {
            if x < want[g as usize - s] {
                want[g as usize - s] = x;
                lowered.push((g, x));
            }
        }
        let (got, ops) = ops_of(c, |c| dist_lower(c, &mut v, &entries));
        assert_eq!((v.local(), got), (&want[..], lowered));
        assert_eq!(ops, (entries.len() + 1) as f64);
    }

    fn lower_all_case(c: &mut Comm, layout: VecLayout, seed: u64) {
        let (v_g, mut v) = random(c, layout, seed, |r| r.random_range(0..100u32));
        let (w_g, w) = random(c, layout, seed + 1, |r| r.random_range(0..100u32));
        let (s, e) = layout.range_of_rank(c.rank());
        let want: Vec<u32> = (s..e).map(|g| v_g[g].min(w_g[g])).collect();
        let lowered = (s..e).filter(|&g| w_g[g] < v_g[g]).count() as u64;
        let (got, ops) = ops_of(c, |c| dist_lower_all(c, &mut v, &w));
        assert_eq!((v.local(), got), (&want[..], lowered));
        assert_eq!(ops, (e - s + 1) as f64);
    }

    #[test]
    fn local_passes_match_a_serial_loop_and_charge_len_plus_one() {
        let cases: [(&str, Case); 5] = [
            ("dist_select", select_case),
            ("dist_apply_at", apply_at_case),
            ("dist_set_at", set_at_case),
            ("dist_lower", lower_case),
            ("dist_lower_all", lower_all_case),
        ];
        for (name, case) in cases {
            for p in [1, 4, 9] {
                for seed in 0..4u64 {
                    let layout = VecLayout::new(5 + 31 * seed as usize, Grid2d::square(p));
                    run_spmd(p, |c| case(c, layout, seed))
                        .unwrap_or_else(|e| panic!("{name} at p = {p}, seed {seed}: {e:?}"));
                }
            }
        }
    }

    #[test]
    fn mxv_pull_is_the_push_and_charges_its_operand_pass() {
        let n = 90;
        let graph = erdos_renyi_gnm(n, 220, 5);
        for p in [1, 4, 9] {
            let layout = VecLayout::new(n, Grid2d::square(p));
            run_spmd(p, |c| {
                let (rank, opts) = (c.rank(), DistOpts::default());
                let a = DistMat::<u32>::from_graph(&graph, layout.grid(), rank);
                let (mask_g, mask) = random(c, layout, 1, |r| r.random_bool(0.8));
                let (rows_g, rows) = random(c, layout, 2, |r| r.random_bool(0.4));
                let (v_g, v) = random(c, layout, 3, |r| r.random_range(0..n as u32));
                // The operands the pull builds, multiplied by hand.
                let pushes = |g: usize| mask_g[g] && !rows_g[g];
                let keep = DistVec::from_fn(layout, rank, |g| mask_g[g] && rows_g[g]);
                let x =
                    DistVec::from_fn(layout, rank, |g| if pushes(g) { v_g[g] } else { u32::MAX });
                let (y, mxv_ops) = ops_of(c, |c| {
                    dist_mxv_dense(c, &a, &x, DistMask::Keep(&keep), MinUsize, &opts)
                });
                let (got, ops) = ops_of(c, |c| {
                    dist_mxv_pull(c, &a, &mask, &rows, &v, MinUsize, &opts)
                });
                let len = mask.local().len();
                let passes = (2 * len + 1) + (y.entries().len() + 1);
                assert_eq!(ops, mxv_ops + passes as f64);
                // Each kept row's least value among its pushing neighbours.
                let (s, e) = layout.range_of_rank(rank);
                let want: Vec<(u32, u32)> = (s..e)
                    .filter(|&u| mask_g[u] && rows_g[u])
                    .filter_map(|u| {
                        let nbrs = graph.neighbors(u).iter().filter(|&&w| pushes(w));
                        nbrs.map(|&w| v_g[w]).min().map(|m| (u as u32, m))
                    })
                    .collect();
                assert_eq!(got, want, "p = {p}");
            })
            .unwrap();
        }
    }

    #[test]
    fn root_all_quiet_clears_quiet_candidates_in_one_live_pass() {
        let n = 70;
        for p in [1, 4, 9] {
            for seed in 0..3u64 {
                let layout = VecLayout::new(n, Grid2d::square(p));
                run_spmd(p, |c| {
                    let (rank, opts) = (c.rank(), DistOpts::default());
                    let (root_g, _) = random(c, layout, seed, |r| r.random_range(0..n as u32));
                    let (live_g, mut live) = random(c, layout, seed + 1, |r| r.random_bool(0.6));
                    let (noisy_g, _) = random(c, layout, seed + 2, |r| r.random_bool(0.15));
                    let (s, e) = layout.range_of_rank(rank);
                    let candidates: Vec<usize> = (0..e - s).filter(|&o| live_g[s + o]).collect();
                    let roots: Vec<u32> = candidates.iter().map(|&o| root_g[s + o]).collect();
                    let noisy: Vec<u32> =
                        (s..e).filter(|&v| noisy_g[v]).map(|v| root_g[v]).collect();
                    let plan = plan_requests(c, layout, &roots, &opts);
                    // The reduction's assign and extract, run by hand.
                    let (_, reduce_ops) = ops_of(c, |c| {
                        let mut quiet = DistVec::from_fn(layout, rank, |_| true);
                        let updates: Vec<(u32, bool)> = noisy.iter().map(|&r| (r, false)).collect();
                        dist_assign(c, &mut quiet, &updates, AndBool, &opts);
                        dist_extract_planned(c, &quiet, &plan, &opts)
                    });
                    let ((left, cleared), ops) = ops_of(c, |c| {
                        dist_root_all_quiet(
                            c,
                            noisy.clone(),
                            &plan,
                            candidates.clone(),
                            &mut live,
                            &opts,
                        )
                    });
                    assert_eq!(ops, reduce_ops + (e - s + 1) as f64);
                    // A root is quiet when no noisy vertex anywhere names it.
                    let quiet = |r: u32| !(0..n).any(|v| noisy_g[v] && root_g[v] == r);
                    let want: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&o| !quiet(root_g[s + o]))
                        .collect();
                    assert_eq!(cleared as usize, candidates.len() - want.len());
                    assert_eq!(left, want);
                    for o in 0..e - s {
                        let g = s + o;
                        assert_eq!(
                            live.local()[o],
                            live_g[g] && !quiet(root_g[g]),
                            "offset {o}"
                        );
                    }
                })
                .unwrap();
            }
        }
    }
}
